"""Relational storage substrate: schemas, relations, content fingerprints,
and packed int runs.

Names are resolved on first access (:mod:`repro._lazy`): importing one
submodule loads that submodule, not its siblings.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.storage.fingerprint": ("canonical_bytes", "dataset_fingerprint"),
    "repro.storage.packed": ("PackedRun", "materialize"),
    "repro.storage.relation": ("Relation", "Row", "uniform_int_relation"),
    "repro.storage.schema": ("Attribute", "AttributeType", "Schema"),
})
