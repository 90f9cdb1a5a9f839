"""The concurrent query engine: batches of mixed queries over cached artifacts.

This is the "serve many" half of the paper's amortization argument made
operational.  The engine serves *query kinds* -- registered
``(QueryClass, PiScheme)`` pairs -- over datasets, resolving every request
to a Pi-structure through three layers:

1. the in-process :class:`~repro.service.cache.LRUArtifactCache` (hot);
2. the on-disk :class:`~repro.service.artifacts.ArtifactStore`, when the
   scheme is serializable (warm: pay deserialization, skip the build);
3. ``scheme.preprocess`` (cold: pay the PTIME build, then persist + cache).

The one way to address a dataset is :meth:`QueryEngine.attach`: fingerprint
a payload once, register a stable name, and serve every kind through the
returned :class:`~repro.service.dataset.Dataset` session (or
``engine.dataset(name)``, the same object) -- queries address the session
and never pay a per-request fingerprint.

A served kind is a Pi(D) that can be kept: :meth:`QueryEngine.register`
refuses a scheme without ``dump``/``load``, so "registered", "persisted"
and "survives a restart" are one set.  Schemes whose Pi is the identity (the
Figure 1 / Theorem 9 negative controls) stay certified in the Figure 2
registry and are not served.  A kind may also be *promised*
(:meth:`QueryEngine.register_deferred`, what
:func:`repro.catalog.build_query_engine` does for every catalog row): listed
by name at once, imported and registered -- same checks -- by the first
attach that names it, so a process pays only for the kinds it serves.

Batches are answered inline on the calling thread, grouped per kind into
``answer_many`` kernel calls: every kernel is pure Python under the GIL, so
a thread fan-out only adds submit/wakeup cost.  The engine runs no serve
threads -- callers bring their own -- and stays the concurrency
*correctness* boundary for any number of
caller threads: per-key build locks guarantee one build per artifact under
concurrent misses; rare-event counters (builds, hits, deltas) are
lock-protected while the per-query counters ride lock-free thread-local
shards folded on ``stats()`` read.  Per-scheme statistics separate build
time from serve time, which is exactly the cost split (PTIME once vs.
polylog each) the paper's Definition 1 is about.  Sessions cache per-kind
*serve plans* (see :mod:`repro.service.dataset`) -- the only code that knows
whether a kind is served monolithic, sharded or mutable -- so steady-state
queries never reach this module's resolution layers.

``attach(..., shards=K)`` is the one place K is said: for every served kind
whose scheme declares a :class:`~repro.service.merge.ShardSpec` the session
resolves a :func:`~repro.service.sharding.plan_shards` plan -- each of its K
per-shard structures through :meth:`QueryEngine._resolve_by_key`, the same
cache -> store -> build layers and the same counters as a monolithic
structure, in plan order on the calling thread -- and evaluates through the
:class:`~repro.service.sharding.ShardedKernel`'s scatter-gather.

Datasets that *mutate* are served through ``attach(..., mutable=True)``
(one session, every kind, one published version pointer): change batches
fold into the live structures via per-scheme ``apply_delta`` hooks (falling
back to touched-shard or full rebuilds), with lock-free versioned reads.  A
monolithic kind persists only its version-0 structure; a sharded rebuild
still caches and stores every touched shard (ROADMAP item 8).

    >>> from repro.queries import membership_class, sorted_run_scheme
    >>> from repro.service.engine import QueryEngine
    >>> engine = QueryEngine()
    >>> engine.register("membership", membership_class(), sorted_run_scheme())
    >>> ds = engine.attach("readings", (3, 1, 4))
    >>> ds.query("membership", 4)
    True
    >>> engine.dataset("readings").query("membership", 9)
    False
    >>> engine.stats().per_kind["membership"].builds  # built once, served twice
    1
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import asdict, dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.cost import NULL_TRACKER
from repro.core.errors import (
    ArtifactCorruptionError,
    ArtifactError,
    ServiceError,
    UnknownDatasetError,
)
from repro.core.query import PiScheme, QueryClass
from repro.service.artifacts import ArtifactKey, ArtifactStore
from repro.service.cache import CacheStats, LRUArtifactCache
from repro.service.dataset import Dataset
from repro.service.mutable import retire_on_thread_exit
from repro.storage.fingerprint import dataset_fingerprint
from repro.storage.packed import PackedRun

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.sharding import PlannedShard, ShardPlan

__all__ = ["SchemeStats", "EngineStats", "QueryEngine"]

_log = logging.getLogger(__name__)

#: Extra store reads after a corrupt one before the artifact is deleted and
#: rebuilt from source.
LOAD_RETRIES = 1
#: A store read at least this slow counts as a ``slow_loads`` health event.
SLOW_LOAD_SECONDS = 0.05


@dataclass
class SchemeStats:
    """Serving counters for one registered kind.

    ``builds``, ``cache_hits`` and ``store_hits`` count artifact
    resolutions, a shard's like any other (a cold sharded resolve bumps
    ``builds`` once per non-empty shard).  The ``delta_*`` counters track
    the mutable-dataset write path (:mod:`repro.service.mutable`): batches folded in place by the
    scheme's ``apply_delta`` hook versus ``fallback_rebuilds`` that resolved
    the post-batch content from scratch.
    """

    scheme: str = ""
    queries: int = 0
    cache_hits: int = 0
    store_hits: int = 0
    builds: int = 0
    build_seconds: float = 0.0
    serve_seconds: float = 0.0
    delta_batches: int = 0
    delta_changes: int = 0
    delta_seconds: float = 0.0
    fallback_rebuilds: int = 0
    # -- health counters (the failure model; see docs/architecture.md).
    # Zero on every happy path; each one is an observable recovery event.
    #: Store reads that failed integrity checks (bad checksum, truncation).
    checksum_failures: int = 0
    #: Store reads slower than ``SLOW_LOAD_SECONDS``.
    slow_loads: int = 0
    #: Extra load attempts made after a corrupt read before rebuilding.
    rebuild_retries: int = 0
    #: apply_changes batches whose structure was repaired by rebuild after
    #: a mid-batch failure (the torn-snapshot guard).
    write_rollbacks: int = 0
    #: Synchronous artifact writes that failed (structure served from
    #: memory; the store is stale or unwritable).
    persist_failures: int = 0
    #: Queries whose answer kernel raised (the exception propagates to the
    #: caller, but the failed serve is never invisible to health/SLO
    #: accounting -- ``queries`` counts successes only).
    serve_errors: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of artifact resolutions that skipped a build."""
        hits = self.cache_hits + self.store_hits
        resolutions = hits + self.builds
        if not resolutions:
            return 0.0
        return hits / resolutions

    def stats_snapshot(self) -> Dict[str, Any]:
        """A plain JSON-serializable dict of every counter plus ``hit_rate``.

        The stable read surface for drivers and dashboards; field names
        match the dataclass attributes exactly.
        """
        snapshot = dict(asdict(self))
        snapshot["hit_rate"] = self.hit_rate
        return snapshot


@dataclass(frozen=True)
class EngineStats:
    """Immutable snapshot: per-kind scheme stats plus cache counters."""

    per_kind: Dict[str, SchemeStats]
    cache: CacheStats

    def total_queries(self) -> int:
        """Queries answered across every registered kind since the engine started."""
        return sum(stats.queries for stats in self.per_kind.values())

    #: The SchemeStats fields folded into the ``health`` rollup.
    HEALTH_FIELDS = (
        "checksum_failures",
        "slow_loads",
        "rebuild_retries",
        "write_rollbacks",
        "persist_failures",
        "serve_errors",
    )

    def health(self) -> Dict[str, int]:
        """The failure-model counters summed across kinds.

        All-zero means no recovery machinery has run since the engine started;
        any nonzero value names exactly which degradation happened (see the
        "Failure model" table in ``docs/architecture.md``).
        """
        return {
            field_name: sum(
                getattr(stats, field_name) for stats in self.per_kind.values()
            )
            for field_name in self.HEALTH_FIELDS
        }

    def stats_snapshot(self) -> Dict[str, Any]:
        """The whole snapshot as one plain JSON-serializable dict.

        ``per_kind`` maps each kind to its
        :meth:`SchemeStats.stats_snapshot`, ``cache`` carries the
        :class:`~repro.service.cache.CacheStats` counters, and the folded
        totals ride along -- so callers (a load driver, monitoring) never
        reach into engine internals or dataclass attributes.
        """
        return {
            "per_kind": {
                kind: stats.stats_snapshot()
                for kind, stats in sorted(self.per_kind.items())
            },
            "cache": self.cache.stats_snapshot(),
            "total_queries": self.total_queries(),
            "health": self.health(),
        }


@dataclass(frozen=True)
class _Registration:
    query_class: QueryClass
    scheme: PiScheme
    params: str
    shards: int = 1

    def key(self, fingerprint: str, suffix: str = "") -> ArtifactKey:
        """The artifact identity, content fingerprint x structure x params
        (+ a shard ``suffix``): the one constructor of Pi-structure keys.
        Kinds whose schemes declare one ``structure`` share every artifact."""
        return ArtifactKey(fingerprint, self.scheme.structure, self.params + suffix)

    def shard_key(self, plan: "ShardPlan", planned: "PlannedShard") -> ArtifactKey:
        """One shard's identity: its content fingerprint + ``|s<id>/<K>``."""
        return self.key(planned.fingerprint, f"|s{planned.piece.index}/{plan.shards}")


def _add_into(totals: Dict[str, List[float]], slots: Iterable[Tuple[str, List[float]]]) -> None:
    """Add ``(kind, [queries, serve_seconds])`` slots into ``totals``."""
    for kind, (queries, serve_seconds) in slots:
        total = totals.setdefault(kind, [0, 0.0])
        total[0] += queries
        total[1] += serve_seconds


class _QueryCounterShards:
    """Sharded per-query serving counters: one mutable slot per (thread, kind).

    The per-query hot path used to take the engine-wide statistics lock for
    every answer (``_bump``) -- a measurable constant on a microsecond-scale
    serve, and a contention point under concurrent batches.  Here each
    serving thread owns a private ``kind -> [queries, serve_seconds]``
    slot; increments touch only thread-local state (no lock), and
    :meth:`fold` sums every thread's slots when
    ``QueryEngine.stats()`` snapshots.  Slot *creation* is serialized so the
    fold can iterate each shard dict safely; folds may observe an increment
    a hair late, which is inherent to any relaxed counter snapshot.

    Thread lifecycle: a shard is retired when its thread exits
    (:func:`~repro.service.mutable.retire_on_thread_exit`), folding the dead
    thread's counts into a ``_retired`` accumulator and removing the shard
    from the live list -- a long-lived engine serving thread-per-request
    traffic stays bounded by its *live* threads, not by every thread it has
    ever seen.
    """

    __slots__ = ("_local", "_shards", "_retired", "_lock", "__weakref__")

    def __init__(self) -> None:
        self._local = threading.local()
        self._shards: List[Dict[str, List[float]]] = []
        self._retired: Dict[str, List[float]] = {}
        self._lock = threading.Lock()

    def slot(self, kind: str) -> List[float]:
        shard = getattr(self._local, "shard", None)
        if shard is None:
            shard = self._local.shard = {}
            # The finalizer keeps `shard` alive until the owning thread
            # dies, then folds its counts into the retired accumulator.
            retire_on_thread_exit(self._local, self, shard)
            with self._lock:
                self._shards.append(shard)
        slot = shard.get(kind)
        if slot is None:
            # Serialize dict *growth* (never the increments) so a concurrent
            # fold iterating this shard cannot see a mid-resize dict.
            with self._lock:
                slot = shard.setdefault(kind, [0, 0.0])
        return slot

    def _retire(self, shard: Dict[str, List[float]]) -> None:
        with self._lock:
            try:
                self._shards.remove(shard)
            except ValueError:  # pragma: no cover - double finalize guard
                return
            _add_into(self._retired, shard.items())

    def fold(self) -> Dict[str, List[float]]:
        """Sum of every live thread's slots plus retired threads', by kind."""
        with self._lock:
            shards = [list(shard.items()) for shard in self._shards]
            shards.append(list(self._retired.items()))
        totals: Dict[str, List[float]] = {}
        for items in shards:
            _add_into(totals, items)
        return totals


class QueryEngine:
    """Resolve-and-serve engine over registered (query class, Pi-scheme) pairs.

    Parameters
    ----------
    store:
        Optional :class:`~repro.service.artifacts.ArtifactStore` for durable
        artifacts; without one, structures live in the memory cache only.
    cache_entries:
        Capacity of the in-process LRU artifact cache.  It bounds only what
        the cache holds: a structure an attached session's serve plan
        captured lives until that session detaches.
    """

    def __init__(
        self,
        *,
        store: Optional[ArtifactStore] = None,
        cache_entries: int = 64,
    ):
        self._store = store
        self._cache = LRUArtifactCache(cache_entries)
        self._registrations: Dict[str, _Registration] = {}
        #: kind -> (module, resolve): promised by :meth:`register_deferred`,
        #: moved into ``_registrations`` by the first request that names it.
        self._deferred: Dict[str, Tuple[str, Callable[[], Tuple[QueryClass, PiScheme]]]] = {}
        self._registration_lock = threading.RLock()
        self._stats: Dict[str, SchemeStats] = {}
        self._stats_lock = threading.Lock()
        self._query_counters = _QueryCounterShards()
        self._build_locks: Dict[ArtifactKey, threading.Lock] = {}
        self._build_locks_guard = threading.Lock()
        self._datasets: Dict[str, Dataset] = {}
        self._datasets_guard = threading.Lock()
        self._closed = False
        self._close_lock = threading.Lock()

    # -- registration ----------------------------------------------------------

    def register(
        self,
        kind: str,
        query_class: QueryClass,
        scheme: PiScheme,
        *,
        params: str = "",
    ) -> None:
        """Expose ``scheme`` for serving queries of ``kind``.

        Parameters
        ----------
        kind:
            Name requests use; must be unused.
        query_class:
            Reference semantics (kept for workload generation and testing).
        scheme:
            The Pi-scheme that builds and answers.  It must carry the
            ``dump``/``load`` codec: a served Pi(D) is one that can be kept.
        params:
            Distinguishes variant builds of the same scheme; the scheme's
            ``artifact_version`` is appended so layout changes never alias
            old artifacts.
        """
        with self._registration_lock:
            self._claim_name(kind)
            self._register(kind, query_class, scheme, params)

    def register_deferred(
        self,
        kind: str,
        module: str,
        resolve: Callable[[], Tuple[QueryClass, PiScheme]],
    ) -> None:
        """Promise ``kind`` without importing what serves it.

        :meth:`kinds` lists the name from now on; the first request that
        names it (an ``attach``, :meth:`registration`) calls ``resolve()``
        -- which imports ``module`` and returns the ``(query class, scheme)``
        pair -- and registers the pair under :meth:`register`'s checks,
        exactly once.  A process therefore pays only for the kinds it serves.
        """
        with self._registration_lock:
            self._claim_name(kind)
            self._deferred[kind] = (module, resolve)

    def _claim_name(self, kind: str) -> None:
        if kind in self._registrations or kind in self._deferred:
            raise ServiceError(f"kind {kind!r} is already registered")

    def _register(
        self, kind: str, query_class: QueryClass, scheme: PiScheme, params: str = ""
    ) -> None:
        """:meth:`register` past the name check (registration lock held)."""
        if not scheme.serializable:
            raise ServiceError(
                f"scheme {scheme.name!r} (kind {kind!r}) has no dump/load codec, "
                "so its Pi(D) cannot be kept; give it one (see "
                "repro.core.query.state_codec) or leave it, certified, in the "
                "Figure 2 registry (repro.catalog.build_registry)"
            )
        built = (scheme.preprocess, scheme.dump, scheme.load, scheme.artifact_version)
        for other_kind, other in self._registrations.items():
            theirs = other.scheme
            if theirs.structure == scheme.structure and built != (
                theirs.preprocess, theirs.dump, theirs.load, theirs.artifact_version
            ):
                raise ServiceError(
                    f"schemes {scheme.name!r} (kind {kind!r}) and {theirs.name!r} "
                    f"(kind {other_kind!r}) both claim structure "
                    f"{scheme.structure!r} but differ in preprocess, codec or "
                    "artifact_version; share all three or name distinct structures"
                )
        token = f"{params}|v{scheme.artifact_version}"
        # Counters first: a reader that finds the registration (lock-free in
        # ``_registration``) must find its statistics too.
        with self._stats_lock:
            self._stats[kind] = SchemeStats(scheme=scheme.name)
        self._registrations[kind] = _Registration(query_class, scheme, token)

    def kinds(self) -> List[str]:
        """Sorted names of every query kind, registered or promised."""
        with self._registration_lock:
            return sorted({*self._registrations, *self._deferred})

    def registration(self, kind: str) -> Tuple[QueryClass, PiScheme]:
        """The ``(query class, scheme)`` pair registered under ``kind``."""
        registration = self._registration(kind)
        return registration.query_class, registration.scheme

    def _registration(self, kind: str) -> _Registration:
        registration = self._registrations.get(kind)
        if registration is None:
            with self._registration_lock:
                if kind in self._deferred:
                    self._resolve_deferred(kind)
                registration = self._registrations.get(kind)
            if registration is None:
                raise self._unknown_kind(kind)
        return registration

    def _unknown_kind(self, kind: Any) -> ServiceError:
        return ServiceError(
            f"no scheme registered for query kind {kind!r}; "
            f"known kinds: {self.kinds()}"
        )

    def _resolve_deferred(self, kind: str) -> None:
        """Import and register a promised kind (registration lock held).  A
        failed resolution leaves the promise in place: the error repeats
        instead of turning into "no scheme registered"."""
        started = time.perf_counter()
        module, resolve = self._deferred[kind]
        query_class, scheme = resolve()
        self._register(kind, query_class, scheme)
        del self._deferred[kind]
        _log.debug(
            "resolved kind %r from %s: scheme %r, structure %r, %.1f ms",
            kind, module, scheme.name, scheme.structure,
            (time.perf_counter() - started) * 1000.0,
        )

    # -- dataset sessions ------------------------------------------------------

    def attach(
        self,
        name: str,
        data: Any,
        *,
        kinds: Optional[Sequence[str]] = None,
        shards: int = 1,
        mutable: bool = False,
    ) -> Dataset:
        """Attach ``data`` under a stable name; returns the serving session.

        The payload is fingerprinted **once**, here -- every later request
        against the returned :class:`~repro.service.dataset.Dataset` (which
        ``engine.dataset(name)`` hands out again) reuses that identity, so
        the steady-state serving path never hashes the payload again.  A
        :class:`~repro.storage.packed.PackedRun` (a wire worker's attach)
        hashes as the run it encodes, and an immutable session's build reads
        its machine words; only a sharded split, a mutable session and
        ``Dataset.data`` box it.

        Parameters
        ----------
        name:
            The request-addressable name; must be unused (detach first to
            re-attach).
        kinds:
            Kinds the session serves; defaults to every kind the engine
            knows at attach time.  Each name must be one of :meth:`kinds`
            (checked before any is resolved); naming a promised kind
            (:meth:`register_deferred`) is what imports it.
        shards:
            ``K > 1`` serves every listed kind whose scheme declares a
            :class:`~repro.service.merge.ShardSpec` from K per-shard
            structures; kinds without a spec keep the monolithic path.
        mutable:
            Enable :meth:`~repro.service.dataset.Dataset.apply_changes`:
            change batches fold into every served structure behind one
            atomically published version pointer (per-kind ``apply_delta``
            hooks, with touched-shard or full rebuild fallbacks).
        """
        if self._closed:
            raise ServiceError("engine is closed")
        if not isinstance(name, str) or not name:
            raise ServiceError(f"attach needs a non-empty name, got {name!r}")
        # Over the wire ``shards`` is client JSON: a float, string or bool
        # must be refused here, not fail every later query.
        if type(shards) is not int or shards < 1:
            raise ServiceError(f"shards must be an int >= 1, got {shards!r}")
        if kinds is not None:
            # Outside input that decides what gets imported: refuse the whole
            # list before any name in it is resolved.
            known = self.kinds()
            if isinstance(kinds, str) or not isinstance(kinds, Sequence):
                raise ServiceError(
                    f"attach kinds must be a sequence of kind names, "
                    f"got {kinds!r}; known kinds: {known}"
                )
            for kind in kinds:
                if kind not in known:
                    raise self._unknown_kind(kind)
        with self._datasets_guard:
            if name in self._datasets:
                raise ServiceError(f"dataset {name!r} is already attached")
        dataset = Dataset(
            self,
            name,
            data,
            dataset_fingerprint(data),
            kinds=kinds,
            shards=shards,
            mutable=mutable,
        )
        with self._datasets_guard:
            if name in self._datasets:
                raise ServiceError(f"dataset {name!r} is already attached")
            self._datasets[name] = dataset
        return dataset

    def detach(self, name: str) -> None:
        """Detach the named session: evict its cached monolithic structures
        and release the name.  Raises :class:`~repro.core.errors.UnknownDatasetError`
        for names that are not attached."""
        with self._datasets_guard:
            dataset = self._datasets.pop(name, None)
        if dataset is None:
            raise UnknownDatasetError(
                f"no dataset attached under name {name!r}; "
                f"attached: {self.datasets()}"
            )
        dataset._release()
        if not self._fingerprint_in_use(dataset.fingerprint):
            self._evict_content(dataset.fingerprint)

    def dataset(self, name: str) -> Dataset:
        """The attached session named ``name``; raises
        :class:`~repro.core.errors.UnknownDatasetError` otherwise."""
        with self._datasets_guard:
            dataset = self._datasets.get(name)
        if dataset is None:
            raise UnknownDatasetError(
                f"no dataset attached under name {name!r}; "
                f"attached: {self.datasets()}"
            )
        return dataset

    def datasets(self) -> List[str]:
        """Sorted names of every attached dataset session."""
        with self._datasets_guard:
            return sorted(self._datasets)

    # -- artifact resolution ---------------------------------------------------

    def _resolve_by_key(
        self, kind: str, registration: _Registration, key: ArtifactKey, content: Any,
        fill_cache: bool = True,
    ) -> Tuple[Any, str]:
        """Cache -> store -> build resolution for a known key -- a monolithic
        structure's or one shard's: ``(structure, cache|store|build)``.

        Called only by ``Dataset._resolve`` and, with ``fill_cache=False``
        for a structure it will fold into, a mutable session's
        ``_MutableState._private_pair`` (:mod:`repro.service.dataset`), so
        the probe / stat-bump / miss sequence exists exactly once.
        """
        structure = self._cache.get(key)
        if structure is not None:
            self._bump(kind, cache_hits=1)
            return structure, "cache"
        return self._resolve_miss(kind, registration, key, content, fill_cache)

    def _resolve_miss(
        self,
        kind: str,
        registration: _Registration,
        key: ArtifactKey,
        data: Any,
        fill_cache: bool,
    ) -> Tuple[Any, str]:
        """Cache-miss path of :meth:`_resolve_by_key`.

        The caller has already probed the cache (and recorded the miss);
        this takes the per-key build lock, rechecks, then loads from the
        store or builds and persists, and caches the result if
        ``fill_cache``.  It holds one build lock at a time, so callers
        resolving several keys in any order cannot deadlock.  Returns
        (structure, cache|store|build).
        """
        with self._build_locks_guard:
            lock = self._build_locks.setdefault(key, threading.Lock())
        try:
            with lock:
                # Recheck without recording: this lookup was already counted
                # as a miss above, and a hit here only means another thread
                # finished the build first.
                structure = self._cache.get(key, record=False)
                if structure is not None:
                    self._bump(kind, cache_hits=1)
                    return structure, "cache"
                structure = self._load_from_store(kind, registration, key)
                source = "store" if structure is not None else "build"
                if structure is None:
                    started = time.perf_counter()
                    if isinstance(data, PackedRun):  # built from its machine words, boxing none
                        data = data.words()
                    structure = registration.scheme.preprocess(data, NULL_TRACKER)
                    self._bump(kind, builds=1, build_seconds=time.perf_counter() - started)
                    if self._store is not None:
                        try:
                            self._store.put(key, registration.scheme.dump(structure))
                        except OSError:
                            # Disk full / unwritable store: the build still
                            # serves from memory; only durability is lost,
                            # and the counter makes that observable.
                            self._bump(kind, persist_failures=1)
                if fill_cache:
                    self._cache.put(key, structure)
        finally:
            # Drop the per-key lock so the map stays bounded by in-flight
            # builds, not by every key ever seen.  A thread still blocked on
            # the dropped lock serializes against its cohort; a later misser
            # gets a fresh lock and finds the cache populated on recheck --
            # worst case one redundant build, never a wrong answer.
            with self._build_locks_guard:
                self._build_locks.pop(key, None)
        return structure, source

    def _load_from_store(
        self, kind: str, registration: _Registration, key: ArtifactKey
    ) -> Optional[Any]:
        if self._store is None:
            return None
        attempts = 1 + LOAD_RETRIES
        for attempt in range(attempts):
            started = time.perf_counter()
            try:
                blob = self._store.get(key)
            except ArtifactCorruptionError:
                # Checksum mismatch or truncation.  Retry the read first: a
                # transiently bad read (torn page, racing writer) may clear.
                # Only a persistently corrupt file is deleted -- rebuilding
                # from source is always safe (artifacts are pure
                # PTIME-recomputable caches).
                self._bump(kind, checksum_failures=1)
                if attempt + 1 < attempts:
                    self._bump(kind, rebuild_retries=1)
                    continue
                self._store.delete(key)
                return None
            except ArtifactError:
                # Incompatible format/scheme version: never retryable --
                # drop it and rebuild under the current version.
                self._store.delete(key)
                return None
            if blob is None:
                return None
            if time.perf_counter() - started >= SLOW_LOAD_SECONDS:
                self._bump(kind, slow_loads=1)
            try:
                structure = registration.scheme.load(blob)
            except Exception:
                # Payload passed its checksum but does not deserialize: the
                # file content itself is bad, so a re-read cannot help.
                self._bump(kind, checksum_failures=1)
                self._store.delete(key)
                return None
            self._bump(kind, store_hits=1)
            return structure
        return None

    # -- hot-path statistics -----------------------------------------------------

    def _count_serve(self, kind: str, queries: int, serve_seconds: float) -> None:
        """Record served queries on the lock-free thread-local counters.

        The hot-path replacement for ``_bump(kind, queries=..., ...)``:
        every per-query statistic goes through here; ``_bump`` (lock-held)
        remains for rare events -- builds, hits, deltas, health counters.
        """
        slot = self._query_counters.slot(kind)
        slot[0] += queries
        slot[1] += serve_seconds

    def _fingerprint_in_use(self, fingerprint: str) -> bool:
        """True while an *attached* session still serves this content.

        Cached structures are content-addressed, so equal-content datasets
        share them; eviction on detach must not pull a structure out from
        under a surviving session of the same content.
        """
        with self._datasets_guard:
            return any(
                dataset.fingerprint == fingerprint
                for dataset in self._datasets.values()
            )

    def _evict_content(self, fingerprint: str) -> None:
        """Evict one content identity's cached monolithic structures, for
        every registered kind.  The detached session's serve plans went with
        :meth:`Dataset._release`; the build-lock map needs nothing, since
        :meth:`_resolve_miss` drops every lock it takes."""
        # Kinds sharing a structure share a key: invalidate each key once.
        for key in {r.key(fingerprint) for r in tuple(self._registrations.values())}:
            self._cache.invalidate(key)

    # -- statistics and lifecycle ----------------------------------------------

    def _bump(self, kind: str, **deltas: Any) -> None:
        with self._stats_lock:
            stats = self._stats[kind]
            for name, delta in deltas.items():
                setattr(stats, name, getattr(stats, name) + delta)

    def stats(self) -> EngineStats:
        """An immutable snapshot of per-kind and cache counters.

        Per-query serving counters (``queries``, ``serve_seconds``) live on
        lock-free thread-local shards and are folded into the snapshot here
        -- the read side pays the aggregation so the serve side never takes
        a lock.
        """
        with self._stats_lock:
            per_kind = {kind: replace(stats) for kind, stats in self._stats.items()}
        for kind, (queries, serve_seconds) in self._query_counters.fold().items():
            stats = per_kind.get(kind)
            if stats is not None:
                stats.queries += int(queries)
                stats.serve_seconds += serve_seconds
        return EngineStats(per_kind=per_kind, cache=self._cache.stats())

    def close(self) -> None:
        """Detach attached datasets; further work errors.

        Idempotent: a second ``close()`` (including a concurrent one, which
        blocks until the first finishes) is a no-op.  A query a caller's
        thread starts after this lands on
        :class:`~repro.core.errors.UnknownDatasetError` (a
        :class:`~repro.core.errors.ServiceError`)."""
        with self._close_lock:
            if self._closed:
                return
            with self._datasets_guard:
                names = list(self._datasets)
            for name in names:
                try:
                    self.detach(name)
                except UnknownDatasetError:  # pragma: no cover - concurrent detach
                    pass
            self._closed = True

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
