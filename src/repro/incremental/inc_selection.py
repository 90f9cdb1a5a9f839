"""Bounded incremental maintenance of selection indexes (Section 4(7)).

The paper folds incremental computation into preprocessing: after building
D' = Pi(D), an update dD should yield dD' without re-running Pi.  For the
selection case studies this is textbook index maintenance -- each tuple
insert/delete costs one O(log n) B+-tree update, so a batch costs
O(|dD| log n): bounded by |CHANGED| up to the logarithmic index factor,
versus Theta(|D| log |D|) for rebuild-from-scratch.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from repro.core.cost import Cost, CostTracker, ensure_tracker
from repro.incremental.changes import ChangeKind, ChangeLog, TupleChange
from repro.indexes.btree import BPlusTree
from repro.storage.relation import Relation, Row

__all__ = ["IncrementalSelectionIndex"]


class IncrementalSelectionIndex:
    """A relation + B+-tree pair maintained under tuple changes.

    The tree indexes the attribute's value multiset; a ``row -> [row ids]``
    map, built in the same scan, finds the relation slot a delete removes.
    """

    def __init__(
        self,
        relation: Relation,
        attribute: str,
        tracker: Optional[CostTracker] = None,
    ):
        tracker = ensure_tracker(tracker)
        self.relation = relation
        self.attribute = attribute
        self._position = relation.schema.position_of(attribute)
        self._row_ids: Dict[Row, List[int]] = {}
        keys = []
        for row_id, row in relation.scan(tracker):
            keys.append(row[self._position])
            self._row_ids.setdefault(row, []).append(row_id)
        self._index = BPlusTree.from_keys(keys, tracker=tracker)
        self.log = ChangeLog()

    # -- updates -----------------------------------------------------------------

    def apply(self, change: TupleChange, tracker: Optional[CostTracker] = None) -> None:
        """One incremental step: O(log n), independent of batch history."""
        tracker = ensure_tracker(tracker)
        key = change.row[self._position]
        if change.kind is ChangeKind.INSERT:
            # The relation validates the row before the tree or the id map
            # sees it: a refused row leaves all three as they were.
            row_id = self.relation.insert(change.row)
            self._row_ids.setdefault(tuple(change.row), []).append(row_id)
            had_key = self._index.contains(key, tracker)
            self._index.insert(key, tracker)
            # Output (the Boolean answer for key) changes iff key was absent.
            self.log.record(1, 0 if had_key else 1)
        else:
            row = tuple(change.row)
            tracker.tick(1)  # one O(1) expected probe of the row-id map
            row_ids = self._row_ids.get(row)
            if not row_ids:
                self.log.record(1, 0)
                return
            self.relation.delete(row_ids.pop())
            if not row_ids:
                del self._row_ids[row]
            self._index.delete(key, tracker)
            still_there = self._index.contains(key, tracker)
            self.log.record(1, 0 if still_there else 1)

    def apply_batch(
        self,
        changes: Iterable[TupleChange],
        tracker: Optional[CostTracker] = None,
    ) -> Cost:
        """Apply dD; returns the incremental cost of the batch."""
        tracker = ensure_tracker(tracker)
        with tracker.measure() as measurement:
            for change in changes:
                self.apply(change, tracker)
        return measurement.cost

    # -- queries ------------------------------------------------------------------

    def point_nonempty(self, constant: Any, tracker: Optional[CostTracker] = None) -> bool:
        return self._index.contains(constant, ensure_tracker(tracker))

    def range_nonempty(self, low: Any, high: Any, tracker: Optional[CostTracker] = None) -> bool:
        return self._index.range_nonempty(low, high, ensure_tracker(tracker))

    # -- the from-scratch alternative (for boundedness contrast) -----------------------

    @staticmethod
    def rebuild_cost(relation: Relation, attribute: str) -> Cost:
        """Cost of preprocessing from scratch (what incrementality avoids)."""
        tracker = CostTracker()
        position = relation.schema.position_of(attribute)
        BPlusTree.from_keys([row[position] for _, row in relation.scan(tracker)], tracker=tracker)
        return tracker.snapshot()
