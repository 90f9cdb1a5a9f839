"""Hash index: O(1) expected point lookup.

A dictionary-backed secondary index over one attribute.  Together with the
B+-tree it lets the selection experiments contrast O(1) hash probes with
O(log n) tree probes and O(n) scans.
"""

from __future__ import annotations

from itertools import chain, islice, repeat
from typing import Any, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.core.cost import CostTracker, ensure_tracker
from repro.indexes.columns import pack, unpack

__all__ = ["HashIndex"]


class HashIndex:
    """Key -> list-of-payloads map with cost-charged probes."""

    def __init__(self) -> None:
        self._buckets: Dict[Hashable, List[Any]] = {}
        self._size = 0

    @classmethod
    def build(
        cls,
        entries: Iterable[Tuple[Hashable, Any]],
        tracker: Optional[CostTracker] = None,
    ) -> "HashIndex":
        """PTIME preprocessing: one insert (O(1) expected) per entry."""
        tracker = ensure_tracker(tracker)
        index = cls()
        for key, payload in entries:
            index.insert(key, payload, tracker)
        return index

    @classmethod
    def from_keys(
        cls,
        keys: Sequence[Hashable],
        *,
        tracker: Optional[CostTracker] = None,
    ) -> "HashIndex":
        """:meth:`build` over a key column, every payload ``None`` (the
        B+-tree's bulk signature, so per-attribute schemes treat both alike)."""
        return cls.build(zip(keys, repeat(None)), tracker)

    def insert(self, key: Hashable, payload: Any, tracker: Optional[CostTracker] = None) -> None:
        ensure_tracker(tracker).tick(1)
        self._buckets.setdefault(key, []).append(payload)
        self._size += 1

    def delete(self, key: Hashable, payload: Any = None, tracker: Optional[CostTracker] = None) -> bool:
        ensure_tracker(tracker).tick(1)
        bucket = self._buckets.get(key)
        if not bucket:
            return False
        if payload is None:
            bucket.pop()
        else:
            try:
                bucket.remove(payload)
            except ValueError:
                return False
        if not bucket:
            del self._buckets[key]
        self._size -= 1
        return True

    def search(self, key: Hashable, tracker: Optional[CostTracker] = None) -> List[Any]:
        ensure_tracker(tracker).tick(1)
        return list(self._buckets.get(key, ()))

    def contains(self, key: Hashable, tracker: Optional[CostTracker] = None) -> bool:
        ensure_tracker(tracker).tick(1)
        return key in self._buckets

    def contains_fast(self, key: Hashable) -> bool:
        """Untracked :meth:`contains`: one C dict probe, no charging."""
        return key in self._buckets

    def __len__(self) -> int:
        return self._size

    def distinct_keys(self) -> int:
        return len(self._buckets)

    # -- serialization --------------------------------------------------------

    def to_state(self) -> dict:
        """Plain-data snapshot for artifact persistence: the B+-tree's three
        columns (``keys``, payload ``counts`` per key, every payload in
        ``payloads``), in bucket order."""
        buckets = self._buckets.values()
        return {
            "keys": pack(list(self._buckets)),
            "counts": pack(list(map(len, buckets))),
            "payloads": pack(list(chain.from_iterable(buckets))),
        }

    @classmethod
    def from_state(cls, state: dict) -> "HashIndex":
        index = cls()
        run = iter(unpack(state["payloads"]))
        for key, count in zip(unpack(state["keys"]), unpack(state["counts"])):
            index._buckets[key] = list(islice(run, count))
        index._size = len(state["payloads"])
        return index
