"""Sorted-run index: sort once, binary-search forever (paper, Section 4(2)).

The "searching in a list" case study L1: preprocess an unordered list M by
sorting it (O(|M| log |M|), PTIME), then decide membership of any element e
by binary search in O(log |M|).  Also the structure behind the BDS position
index of Example 5 (a run of (vertex, position) pairs sorted by vertex).
"""

from __future__ import annotations

import bisect
import math
from typing import Generic, List, Optional, Sequence, Tuple, TypeVar

from repro.core.cost import CostTracker, ensure_tracker
from repro.indexes import columns
from repro.parallel.primitives import binary_search_untracked, parallel_binary_search

__all__ = ["SortedRunIndex", "KeyedRunIndex"]

K = TypeVar("K")
V = TypeVar("V")


class SortedRunIndex(Generic[K]):
    """An immutable sorted array supporting O(log n) membership."""

    def __init__(self, values: Sequence[K], tracker: Optional[CostTracker] = None):
        """Sort the input (the PTIME preprocessing step).

        Charges n * ceil(log2 n) comparisons -- the sequential sorting bound;
        the NC view (a bitonic network) is available in
        :func:`repro.parallel.primitives.parallel_sort`.
        """
        tracker = ensure_tracker(tracker)
        n = len(values)
        if n > 1:
            tracker.tick(n * math.ceil(math.log2(n)))
        # D's machine words (a wire worker's packed attach) stay machine words.
        self._run: List[K] = columns.sorted_run(values)

    def __len__(self) -> int:
        return len(self._run)

    def contains(self, key: K, tracker: Optional[CostTracker] = None) -> bool:
        """Binary-search membership, O(log n) depth."""
        tracker = ensure_tracker(tracker)
        position = parallel_binary_search(self._run, key, tracker)
        tracker.tick(1)
        return position < len(self._run) and self._run[position] == key

    # -- untracked serving kernels ---------------------------------------------

    def contains_fast(self, key: K) -> bool:
        """Untracked :meth:`contains`: one C ``bisect`` probe, no charging.

        The serve plans bind this kernel directly, so it answers a plain
        ``bool`` itself: a run built from numpy ints compares to ``numpy.bool``.
        """
        run = self._run
        position = binary_search_untracked(run, key)
        return position < len(run) and bool(run[position] == key)

    def contains_many(self, keys: Sequence[K]) -> List[bool]:
        """Untracked batch membership: locals hoisted, one bisect per key,
        each answer a plain ``bool`` (see :meth:`contains_fast`)."""
        run = self._run
        n = len(run)
        search = binary_search_untracked
        answers: List[bool] = []
        append = answers.append
        for key in keys:
            position = search(run, key)
            append(position < n and bool(run[position] == key))
        return answers

    def values(self) -> List[K]:
        return list(self._run)

    # -- delta maintenance (paper, Section 4(7)) ------------------------------

    def insert_value(self, key: K, tracker: Optional[CostTracker] = None) -> None:
        """Add one element, keeping the run sorted.

        O(log n) comparisons to locate the slot (the charged cost -- the
        incremental analogue of one binary search); the list shift underneath
        is a memmove, which is the price of the array layout, not of the
        algorithm.  Duplicates accumulate, matching list (bag) semantics.
        """
        tracker = ensure_tracker(tracker)
        tracker.tick(max(1, math.ceil(math.log2(max(len(self._run), 2)))))
        self._run = columns.holding(self._run, key)
        bisect.insort(self._run, key)

    def delete_value(self, key: K, tracker: Optional[CostTracker] = None) -> bool:
        """Remove one occurrence of ``key``; False when it was absent.

        Same O(log n) locate cost as :meth:`insert_value`.
        """
        tracker = ensure_tracker(tracker)
        tracker.tick(max(1, math.ceil(math.log2(max(len(self._run), 2)))))
        position = bisect.bisect_left(self._run, key)
        if position < len(self._run) and self._run[position] == key:
            del self._run[position]
            return True
        return False

    def __deepcopy__(self, memo: dict) -> "SortedRunIndex":
        """A private copy: a new run over the same (immutable) elements."""
        index = type(self).__new__(type(self))
        index._run = self._run[:]
        return index

    # -- serialization --------------------------------------------------------

    def to_state(self) -> dict:
        """Plain-data snapshot; the run is stored sorted so load skips the
        sort, and gap-coded (see :mod:`repro.indexes.columns`) when all-int."""
        return {"run": columns.pack_sorted(self._run)}

    @classmethod
    def from_state(cls, state: dict) -> "SortedRunIndex":
        index = cls.__new__(cls)
        index._run = columns.unpack_words(state["run"])
        return index


class KeyedRunIndex(Generic[K, V]):
    """A sorted run of (key, value) pairs with O(log n) value lookup.

    Example 5 in one object: keys are vertices, values their BDS visit
    positions; ``lookup(u) < lookup(v)`` answers "u before v" in O(log n).
    """

    def __init__(
        self,
        pairs: Sequence[Tuple[K, V]],
        tracker: Optional[CostTracker] = None,
    ):
        tracker = ensure_tracker(tracker)
        n = len(pairs)
        if n > 1:
            tracker.tick(n * math.ceil(math.log2(n)))
        ordered = sorted(pairs, key=lambda pair: pair[0])
        self._keys: List[K] = [key for key, _ in ordered]
        self._values: List[V] = [value for _, value in ordered]

    def __len__(self) -> int:
        return len(self._keys)

    def lookup(self, key: K, tracker: Optional[CostTracker] = None) -> Optional[V]:
        """The value stored under ``key``, or None; O(log n) depth."""
        tracker = ensure_tracker(tracker)
        position = parallel_binary_search(self._keys, key, tracker)
        tracker.tick(1)
        if position < len(self._keys) and self._keys[position] == key:
            return self._values[position]
        return None

    def lookup_fast(self, key: K) -> Optional[V]:
        """Untracked :meth:`lookup`: one C ``bisect`` probe, no charging."""
        keys = self._keys
        position = binary_search_untracked(keys, key)
        if position < len(keys) and keys[position] == key:
            return self._values[position]
        return None

    def items(self) -> List[Tuple[K, V]]:
        return list(zip(self._keys, self._values))

    # -- serialization --------------------------------------------------------

    def to_state(self) -> dict:
        """Two columns: the sorted keys gap-coded, the values packed (see
        :mod:`repro.indexes.columns`)."""
        return {
            "keys": columns.pack_sorted(self._keys),
            "values": columns.pack(self._values),
        }

    @classmethod
    def from_state(cls, state: dict) -> "KeyedRunIndex":
        index = cls.__new__(cls)
        index._keys = columns.unpack(state["keys"])
        index._values = columns.unpack(state["values"])
        return index
