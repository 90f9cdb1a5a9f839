"""Hash index: O(1) expected point lookup.

A dictionary-backed secondary index over one attribute.  Together with the
B+-tree it lets the selection experiments contrast O(1) hash probes with
O(log n) tree probes and O(n) scans.  Like the tree it indexes the
attribute's value multiset -- key -> occurrence count -- since the
selection queries are Boolean.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Hashable, Optional, Sequence

from repro.core.cost import CostTracker, ensure_tracker
from repro.indexes.columns import pack, unpack

__all__ = ["HashIndex"]


class HashIndex:
    """Key -> occurrence-count map with cost-charged probes."""

    def __init__(self) -> None:
        self._counts: Dict[Hashable, int] = {}
        self._size = 0

    @classmethod
    def from_keys(
        cls,
        keys: Sequence[Hashable],
        *,
        tracker: Optional[CostTracker] = None,
    ) -> "HashIndex":
        """PTIME preprocessing over a key column (the B+-tree's bulk
        signature, so per-attribute schemes treat both alike): one O(1)
        expected insert per key."""
        ensure_tracker(tracker).tick(len(keys))
        index = cls()
        index._counts = dict(Counter(keys))
        index._size = len(keys)
        return index

    def insert(self, key: Hashable, tracker: Optional[CostTracker] = None) -> None:
        """Add one occurrence of ``key``."""
        ensure_tracker(tracker).tick(1)
        self._counts[key] = self._counts.get(key, 0) + 1
        self._size += 1

    def delete(self, key: Hashable, tracker: Optional[CostTracker] = None) -> bool:
        """Remove one occurrence of ``key``; False when it has none."""
        ensure_tracker(tracker).tick(1)
        count = self._counts.get(key)
        if not count:
            return False
        if count == 1:
            del self._counts[key]
        else:
            self._counts[key] = count - 1
        self._size -= 1
        return True

    def contains(self, key: Hashable, tracker: Optional[CostTracker] = None) -> bool:
        ensure_tracker(tracker).tick(1)
        return key in self._counts

    def contains_fast(self, key: Hashable) -> bool:
        """Untracked :meth:`contains`: one C dict probe, no charging."""
        return key in self._counts

    def __len__(self) -> int:
        return self._size

    def __deepcopy__(self, memo: dict) -> "HashIndex":
        """A private copy: a new map over the same keys and counts."""
        index = type(self)()
        index._counts, index._size = dict(self._counts), self._size
        return index

    # -- serialization --------------------------------------------------------

    def to_state(self) -> dict:
        """Plain-data snapshot for artifact persistence: the B+-tree's two
        columns (``keys`` and the occurrence ``counts`` per key), in dict
        order."""
        return {"keys": pack(list(self._counts)), "counts": pack(list(self._counts.values()))}

    @classmethod
    def from_state(cls, state: dict) -> "HashIndex":
        index = cls()
        counts = unpack(state["counts"])
        index._counts = dict(zip(unpack(state["keys"]), counts))
        index._size = sum(counts)
        return index
