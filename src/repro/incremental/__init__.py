"""The change records of bounded incremental evaluation (paper, Section 4(7)).

Maintenance itself is the ``apply_delta`` hook of each delta-capable scheme,
run by mutable sessions (:mod:`repro.service.mutable`): for instance
``repro.queries.selection._apply_relation_delta`` over the per-attribute
indexes and
:meth:`~repro.indexes.reachability.TransitiveClosureIndex.insert_edge` for
the closure.  Names are resolved on first access (:mod:`repro._lazy`).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.incremental.changes": (
        "ChangeKind", "EdgeChange", "PointWrite", "TupleChange",
    ),
})
