"""Sparse table for range-minimum queries: O(n log n) build, O(1) query.

The standard idempotent-operator sparse table: ``table[k][i]`` holds the
position of the minimum of ``A[i : i + 2^k]``; a query [i, j] combines the
two overlapping dyadic windows that cover it.  This is both (a) a direct
preprocessing scheme for the MRQ case study (Section 4(3)) and (b) the
building block of the Fischer--Heun structure in :mod:`repro.indexes.rmq`
and of the Euler-tour LCA in :mod:`repro.indexes.euler_lca`.

Ties break to the *leftmost* minimum position throughout, so every RMQ
implementation in the package agrees exactly, not just up to value.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.cost import CostTracker, ensure_tracker
from repro.core.errors import IndexError_
from repro.indexes import columns

__all__ = ["SparseTable", "check_rmq_range", "naive_range_min"]


def check_rmq_range(low: int, high: int, size: int) -> None:
    """Validate an inclusive RMQ window [low, high] against an array size.

    The single bounds check shared by every RMQ surface (sparse table,
    Fischer--Heun, the naive baseline, and the sharded window router), so
    all paths reject malformed windows with the identical error.
    """
    if not 0 <= low <= high < size:
        raise IndexError_(f"bad RMQ range [{low}, {high}] for n={size}")


def _derive(values: Sequence, lefts: Sequence[int], rights: Sequence[int]) -> list:
    """Leftmost argmin of each window from the argmins of its two halves."""
    return [left if values[left] <= values[right] else right for left, right in zip(lefts, rights)]


class SparseTable:
    """Positions-of-minima sparse table over a static array: the values are
    a list after a build from a tuple or list and their machine word after
    a load or a build from a typed column, every level is a typed column
    (:mod:`repro.indexes.columns`)."""

    def __init__(self, array: Sequence, tracker: Optional[CostTracker] = None):
        tracker = ensure_tracker(tracker)
        self._array = values = columns.value_run(array)
        n = len(values)
        # Derived level over level as plain lists (probing a typed column
        # boxes an int each time), stored as columns.
        level = list(range(n))
        self._levels = [columns.positions(level, n)]
        width = 1
        while 2 * width <= n:
            level = _derive(values, level, level[width:])
            tracker.tick(len(level))
            self._levels.append(columns.positions(level, n))
            width *= 2

    def __len__(self) -> int:
        return len(self._array)

    def argmin(self, low: int, high: int, tracker: Optional[CostTracker] = None) -> int:
        """Leftmost position of the minimum of ``A[low..high]`` (inclusive).

        O(1): two table probes and one comparison.
        """
        tracker = ensure_tracker(tracker)
        check_rmq_range(low, high, len(self._array))
        k = (high - low + 1).bit_length() - 1
        left = self._levels[k][low]
        right = self._levels[k][high - (1 << k) + 1]
        tracker.tick(3)
        if self._array[left] <= self._array[right]:
            return left
        return right

    def argmin_fast(self, low: int, high: int) -> int:
        """Untracked :meth:`argmin`: same two probes, no charging."""
        array = self._array
        check_rmq_range(low, high, len(array))
        k = (high - low + 1).bit_length() - 1
        level = self._levels[k]
        left = level[low]
        right = level[high - (1 << k) + 1]
        return left if array[left] <= array[right] else right

    def range_min(self, low: int, high: int, tracker: Optional[CostTracker] = None):
        return self._array[self.argmin(low, high, tracker)]

    def value_at(self, position: int):
        """The array value at ``position`` (for partial-aggregate merging)."""
        return self._array[position]

    # -- delta maintenance (paper, Section 4(7)) ------------------------------

    def point_update(self, position: int, value, tracker: Optional[CostTracker] = None) -> None:
        """``A[position] = value``: repair only the dyadic windows it moved.

        Only windows whose argmin was or becomes ``position`` can change,
        and at each level they are consecutive (they reach neither the next
        smaller-or-equal value on its left nor the next smaller one on its
        right).  So a window is re-derived only when one of its two children
        is in that run one level down, until a level's run is empty: a tick
        per window re-derived -- few typically, O(n) for a new global minimum.
        """
        tracker = ensure_tracker(tracker)
        n = len(self._array)
        check_rmq_range(position, position, n)
        values = self._array = columns.holding(self._array, value)
        old, values[position] = values[position], value
        if old == value:
            return
        low = high = position  # the run one level down
        for k in range(1, len(self._levels)):
            previous, level = self._levels[k - 1], self._levels[k]
            width = 1 << (k - 1)
            # The run is at most ``width`` long, so the windows it is the
            # right child of and those it is the left child of never overlap.
            spans = (low - width, high - width), (low, high)
            low, high = n, -1
            for start, stop in spans:
                start, stop = max(start, 0), min(stop, n - 2 * width) + 1
                if start >= stop:
                    continue
                tracker.tick(stop - start)
                stored = level[start:stop]
                halves = previous[start:stop], previous[start + width : stop + width]
                level[start:stop] = derived = columns.positions(_derive(values, *halves), n)
                for column in (stored, derived):
                    hits = column.count(position)
                    if hits:
                        first = start + column.index(position)
                        low, high = min(low, first), max(high, first + hits - 1)
            if low > high:
                return

    def __deepcopy__(self, memo: dict) -> "SparseTable":
        """A private copy: a new value list and new level columns."""
        table = type(self).__new__(type(self))
        table._array = self._array[:]
        table._levels = [level[:] for level in self._levels]
        return table

    # -- serialization --------------------------------------------------------

    def to_state(self) -> dict:
        """Plain-data snapshot: the array plus every precomputed level above
        the identity (one ``range`` at load), so load restores O(1) queries
        without redoing the O(n log n) build."""
        levels = [level[:] for level in self._levels[1:]]
        return {"array": columns.pack(self._array), "levels": levels}

    @classmethod
    def from_state(cls, state: dict) -> "SparseTable":
        table = cls.__new__(cls)
        table._array = columns.unpack_words(state["array"])
        n = len(table._array)
        levels = (list(range(n)), *state["levels"])
        table._levels = [columns.positions(level, n) for level in levels]
        return table


def naive_range_min(
    array: Sequence,
    low: int,
    high: int,
    tracker: Optional[CostTracker] = None,
) -> int:
    """Reference/baseline: leftmost argmin by linear scan, Theta(j - i)."""
    tracker = ensure_tracker(tracker)
    check_rmq_range(low, high, len(array))
    best = low
    for position in range(low + 1, high + 1):
        tracker.tick(1)
        if array[position] < array[best]:
            best = position
    return best
