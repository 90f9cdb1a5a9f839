"""A thread-safe LRU cache of live Pi-structures, in front of the store.

The artifact store removes the *build* cost from warm serving; this cache
also removes the *load* (deserialization) cost for artifacts that are hot
within one process.  Capacity is counted in entries, not bytes -- the
structures here are polynomial-size by construction and the engine's working
set is a handful of (dataset, scheme) pairs.  Sharded kinds cache one entry
per shard, so hot shards of a cold dataset still serve from memory.

The cache only deduplicates loads and builds across sessions and kinds: a
session's serve plan keeps the structures it captured until the session
detaches, so nothing listens to evictions and an evicted entry is simply
dropped from here.

    >>> from repro.service.cache import LRUArtifactCache
    >>> cache = LRUArtifactCache(capacity=2)
    >>> cache.put("pi-structure-key", [1, 2, 3])
    >>> cache.get("pi-structure-key")
    [1, 2, 3]
    >>> cache.get("never-seen") is None
    True
    >>> cache.stats().hits, cache.stats().misses
    (1, 1)
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Any, Dict, Hashable, Optional

__all__ = ["LRUArtifactCache", "CacheStats"]

_MISS = object()


@dataclass(frozen=True)
class CacheStats:
    """Counters snapshot: probes that hit, missed, and evictions made."""

    hits: int
    misses: int
    evictions: int
    entries: int
    capacity: int

    @property
    def hit_rate(self) -> float:
        probes = self.hits + self.misses
        return self.hits / probes if probes else 0.0

    def stats_snapshot(self) -> Dict[str, Any]:
        """Plain JSON-serializable dict of the counters plus ``hit_rate``."""
        snapshot = dict(asdict(self))
        snapshot["hit_rate"] = self.hit_rate
        return snapshot


class LRUArtifactCache:
    """Bounded mapping with least-recently-used eviction."""

    def __init__(self, capacity: int = 64):
        if capacity < 1:
            raise ValueError("cache capacity must be at least 1")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(self, key: Hashable, *, record: bool = True) -> Optional[Any]:
        """The cached structure, refreshed to most-recent, or None.

        ``record=False`` leaves the hit/miss counters untouched -- for
        re-probes of a key already counted once (e.g. the double-checked
        recheck under a build lock), so one logical lookup is one statistic.
        """
        with self._lock:
            value = self._entries.get(key, _MISS)
            if value is _MISS:
                if record:
                    self._misses += 1
                return None
            self._entries.move_to_end(key)
            if record:
                self._hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert or refresh ``key``; evicts the least-recently-used when full.

        Returns nothing; eviction is recorded in :meth:`stats`.
        """
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._entries[key] = value
                return
            if len(self._entries) >= self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1
            self._entries[key] = value

    def invalidate(self, key: Hashable) -> bool:
        """Drop ``key``; returns True when an entry was actually removed."""
        with self._lock:
            return self._entries.pop(key, _MISS) is not _MISS

    def clear(self) -> None:
        """Drop every entry (counters are kept; they are cumulative)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def stats(self) -> CacheStats:
        """An immutable snapshot of hit/miss/eviction counters and occupancy."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                entries=len(self._entries),
                capacity=self.capacity,
            )
