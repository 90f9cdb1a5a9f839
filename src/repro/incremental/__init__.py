"""Bounded incremental evaluation and preprocessing (paper, Section 4(7)).

Names are resolved on first access (:mod:`repro._lazy`): the wire protocol
imports the change types of :mod:`~repro.incremental.changes` without loading
the incremental indexes.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.incremental.changes": (
        "ChangeKind", "ChangeLog", "EdgeChange", "PointWrite", "TupleChange",
    ),
    "repro.incremental.inc_selection": ("IncrementalSelectionIndex",),
    "repro.incremental.inc_reachability": ("IncrementalTransitiveClosure",),
})
