"""A thread-safe LRU cache of live Pi-structures, in front of the store.

The artifact store removes the *build* cost from warm serving; this cache
also removes the *load* (deserialization) cost for artifacts that are hot
within one process.  Capacity is counted in entries, not bytes -- the
structures here are polynomial-size by construction and the engine's working
set is a handful of (dataset, scheme) pairs.  Sharded kinds cache one entry
per shard, so hot shards of a cold dataset still serve from memory.

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
from typing import Any, Callable, Dict, Hashable, Optional

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
    #: Eviction-listener callbacks that raised (and were contained).
    listener_errors: int = 0

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
        self._listener_errors = 0
        self._eviction_listener: Optional[Callable[[Hashable], None]] = None

    def set_eviction_listener(self, listener: Optional[Callable[[Hashable], None]]) -> None:
        """Register a callback fired (outside the cache lock) whenever an
        entry leaves the cache -- capacity eviction, :meth:`invalidate`, or
        :meth:`clear`.  The engine uses it to invalidate serve plans that
        captured a structure reference, so a dropped entry cannot stay
        pinned by a hot-path plan."""
        self._eviction_listener = listener

    def _notify(self, key: Hashable) -> None:
        # Always called *outside* the cache lock, and never allowed to
        # raise: a broken listener must not poison callers of put/
        # invalidate/clear, nor abort notification of the remaining keys
        # in a clear().  Failures are counted, not propagated.
        listener = self._eviction_listener
        if listener is None:
            return
        try:
            listener(key)
        except Exception:
            with self._lock:
                self._listener_errors += 1

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
        evicted = None
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._entries[key] = value
                return
            if len(self._entries) >= self.capacity:
                evicted, _ = self._entries.popitem(last=False)
                self._evictions += 1
            self._entries[key] = value
        if evicted is not None:
            self._notify(evicted)

    def invalidate(self, key: Hashable) -> bool:
        """Drop ``key``; returns True when an entry was actually removed."""
        with self._lock:
            removed = self._entries.pop(key, _MISS) is not _MISS
        if removed:
            self._notify(key)
        return removed

    def clear(self) -> None:
        """Drop every entry (counters are kept; they are cumulative)."""
        with self._lock:
            dropped = list(self._entries)
            self._entries.clear()
        for key in dropped:
            self._notify(key)

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
                listener_errors=self._listener_errors,
            )
