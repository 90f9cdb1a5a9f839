"""Dataset sessions: the dataset-first serving surface of the engine.

The paper's economics are "preprocess D once, answer many queries in
polylog" -- so the *preprocessed dataset*, not the raw payload, is the
natural addressable object of the serving API.  ``QueryEngine.attach``
fingerprints a payload **once**, registers a stable name, and returns a
:class:`Dataset` session that serves every registered kind over it:

* ``ds.query(kind, q)`` / ``ds.query_batch(requests)`` -- the serving hot
  path: the first query per kind resolves through cache -> store -> build
  (with the content identity precomputed: no per-request O(|D|) hash,
  ever) and captures a *serve plan* -- registration, resolved structure,
  and the scheme's untracked fast kernel bound into one callable -- so
  steady state is one dict hit plus one kernel call, and batches vectorize
  through one ``answer_many`` per kind group, inline on the calling thread;
* ``ds.query_tracked(kind, q, tracker)`` -- the analytic twin: the same
  plan's captured structures through the cost-charging ``evaluate`` (the
  tractability API the certifier measures), always answer-identical to the
  fast path;
* ``ds.warm(kinds=...)`` -- pre-build (and persist) structures per kind;
* ``ds.apply_changes(batch)`` -- for sessions attached ``mutable=True``,
  folds one change batch into *every* served structure behind a single
  writer mutex and one atomically published version pointer (readers are
  lock-free; see :class:`~repro.service.mutable.VersionedStructures`),
  routing each kind to its ``PiScheme.apply_delta`` hook (falling back to
  touched-shard or full rebuilds);
* ``ds.detach()`` -- releases the name; further use raises
  :class:`~repro.core.errors.UnknownDatasetError`.

A mutable session writes no artifact after version 0: later versions live in
memory only, because nothing could compute their keys to read them back.

One session dispatches to all three storage shapes from its attach-time
options: monolithic, sharded (``shards=K``, said here and nowhere else),
and mutable.  *How* an answer is evaluated has one
implementation per shape -- a kernel over an already-resolved structure:
:class:`_MonolithicKernel` here,
:class:`~repro.service.sharding.ShardedKernel` for scatter-gather.
:meth:`Dataset._build_plan` is the only place on the read path that tests
the shape: it picks the kernel and one of two plan classes, which differ
only in *where the structure comes from* -- resolved once through
:meth:`Dataset._resolve` when an immutable plan is built (a sharded kind's
whole shard plan), or pinned per call from a mutable session's published
version.
The session is also the one thing to ask: ``engine.dataset(name)`` returns
it by name, and callers who want concurrency call it from their own threads.

    >>> from repro.queries import membership_class, sorted_run_scheme
    >>> from repro.service.engine import QueryEngine
    >>> engine = QueryEngine()
    >>> engine.register("membership", membership_class(), sorted_run_scheme())
    >>> ds = engine.attach("events", (3, 1, 4), shards=2)
    >>> ds.query("membership", 4), ds.query("membership", 9)
    (True, False)
    >>> ds.detach(); engine.close()
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import replace
from functools import partial
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.cost import CostTracker, ensure_tracker
from repro.core.errors import DeltaError, ServiceError, UnknownDatasetError
from repro.incremental.changes import ChangeLog
from repro.service.artifacts import ArtifactKey
from repro.service.mutable import MutableContent, VersionedStructures
from repro.service.sharding import ShardedKernel, ShardedStructure, plan_shards
from repro.storage.fingerprint import dataset_fingerprint

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.service.engine import QueryEngine, _Registration

__all__ = ["Dataset"]

_log = logging.getLogger(__name__)


def _group_pairs(
    pairs: Iterable[Tuple[Any, Any]],
) -> Dict[Any, Tuple[List[int], List[Any]]]:
    """Group ``(key, item)`` pairs: key -> (input positions, items).

    The single grouping behind every batch path -- ``(kind, query)`` pairs
    by kind, immutable or mutable -- so answers can be scattered back
    position-stable after one call per group.
    """
    groups: Dict[Any, Tuple[List[int], List[Any]]] = {}
    for position, (key, item) in enumerate(pairs):
        group = groups.get(key)
        if group is None:
            group = groups[key] = ([], [])
        group[0].append(position)
        group[1].append(item)
    return groups


def _folds_in_place(registration: "_Registration") -> bool:
    """Whether a mutable session folds change batches into this kind's
    structure in place: delta-capable monolithic kinds only."""
    return registration.shards == 1 and registration.scheme.apply_delta is not None


class _MonolithicKernel:
    """Evaluation of one monolithic kind over an already-resolved structure.

    The kernel seam every storage shape shares
    (:class:`~repro.service.sharding.ShardedKernel` is the sharded one): a
    plan decides only *where the structure comes from*, then answers through
    ``one(structure, query, tracker=None)`` / ``many(structure, queries)``,
    or binds both to one structure with :meth:`bind`.
    Here those are the scheme's own entry points -- ``tracker is None``
    selects the untracked ``answer_fast``, any tracker the cost-charging
    ``answer``.  Pure evaluation: callers time the call and report it
    through :attr:`settle`.
    """

    __slots__ = ("scheme", "many", "settle")

    def __init__(
        self, engine: "QueryEngine", kind: str, registration: "_Registration"
    ) -> None:
        self.scheme = registration.scheme
        self.many = registration.scheme.answer_many
        self.settle = partial(engine._count_serve, kind)

    def one(
        self, structure: Any, query: Any, tracker: Optional[CostTracker] = None
    ) -> bool:
        if tracker is None:
            return self.scheme.answer_fast(structure, query)
        return self.scheme.answer(structure, query, tracker)

    def bind(self, structure: Any) -> Tuple[Callable, Callable]:
        """``(answer_one, answer_many)`` bound to one resolved structure.

        When the scheme has no query rewriting, the callables bind the
        untracked kernels directly (one C-level partial call per query);
        otherwise they go through :meth:`~repro.core.query.PiScheme.answer_fast`
        / :meth:`~repro.core.query.PiScheme.answer_many`, which apply the
        rewrite.
        """
        scheme = self.scheme
        if scheme.rewrite_query is None and scheme.evaluate_fast is not None:
            answer_one = partial(scheme.evaluate_fast, structure)
            if scheme.evaluate_many is not None:
                return answer_one, partial(scheme.evaluate_many, structure)
            return answer_one, partial(scheme.answer_many, structure)
        return partial(scheme.answer_fast, structure), partial(scheme.answer_many, structure)


class _ServePlan:
    """An immutable (session, kind) hot-path binding: resolution captured once.

    The plan of every immutable kind: ``answer``/``answer_many`` are the
    kernel's untracked evaluators bound to the structure resolved at plan
    build (a sharded kind's whole
    :class:`~repro.service.sharding.ShardedStructure`).
    :meth:`serve`/:meth:`serve_many` time *only* the kernel call (resolution
    is accounted as build/hit, never serve) and report through the kernel's
    ``settle``.  :meth:`serve_tracked` runs the kernel's analytic evaluator over the same
    structure.  The plan owns what it captured: it keeps the structure
    until the session detaches, whatever the engine's LRU cache evicts (the
    cache only deduplicates loads and builds across sessions).
    """

    __slots__ = ("_engine", "_kind", "_kernel", "_structure", "answer", "answer_many")

    def __init__(self, engine: "QueryEngine", kind: str, kernel: Any, structure: Any) -> None:
        self._engine = engine
        self._kind = kind
        self._kernel = kernel
        self._structure = structure
        self.answer, self.answer_many = kernel.bind(structure)

    def resolve(self) -> Any:
        """The structure this plan captured at build."""
        return self._structure

    def serve(self, query: Any) -> bool:
        started = time.perf_counter()
        try:
            answer = self.answer(query)
        except Exception:
            # Failed serves must never be invisible: health accounting
            # counts the errored query even though the caller sees the
            # exception.
            self._engine._bump(self._kind, serve_errors=1)
            raise
        self._kernel.settle(1, time.perf_counter() - started)
        return answer

    def serve_many(self, queries: Sequence[Any]) -> List[bool]:
        started = time.perf_counter()
        try:
            answers = self.answer_many(queries)
        except Exception:
            self._engine._bump(self._kind, serve_errors=len(queries))
            raise
        self._kernel.settle(len(queries), time.perf_counter() - started)
        return answers

    def serve_tracked(self, query: Any, tracker: CostTracker) -> bool:
        started = time.perf_counter()
        try:
            answer = self._kernel.one(self._structure, query, tracker)
        except Exception:
            self._engine._bump(self._kind, serve_errors=1)
            raise
        self._kernel.settle(1, time.perf_counter() - started)
        return answer


class _MutableServe:
    """The serve plan of a mutable session's kind: lock-free versioned reads.

    The plan binds the session state and the kind's kernel, **not** a
    structure: every answer pins the state's current published
    :class:`~repro.service.mutable._Version` record -- one attribute load
    plus a per-thread announce slot, no shared lock of any kind -- and
    evaluates the kernel over the kind's structure out of it, so delta
    maintenance and fallback rebuilds are picked up without any plan
    invalidation.  A mutable answer is the immutable answer at a pinned
    content version: the plan never looks at the storage shape.  A writer
    can never block a read; batch atomicity lives in
    ``_MutableState.query_batch`` (one pin across every kind group).
    First-touch materialization happens before the serve timer starts, so
    build cost never leaks into ``serve_seconds``.

    Without a ``tracker`` the kernel's untracked production path answers;
    with one, its analytic cost-charging evaluator runs over the same
    pinned structure -- the tracked path of :meth:`Dataset.query_tracked`.
    """

    __slots__ = ("_engine", "_state", "_kind", "_kernel")

    def __init__(
        self, engine: "QueryEngine", state: "_MutableState", kind: str, kernel: Any
    ) -> None:
        self._engine = engine
        self._state = state
        self._kind = kind
        self._kernel = kernel

    def serve(self, query: Any, tracker: Optional[CostTracker] = None) -> bool:
        state = self._state
        versions = state._versions
        slot = versions.slot()
        version = versions.pin(slot)
        try:
            state._ds._check_attached()
            structure = version.structures.get(self._kind)
            while structure is None:
                # First touch (or a failed repair dropped the kind): go
                # idle -- materialization takes the writer mutex, and an
                # announced reader must never block on it -- then re-pin.
                versions.release(slot)
                state._materialize(self._kind)
                version = versions.pin(slot)
                structure = version.structures.get(self._kind)
            started = time.perf_counter()
            try:
                answer = self._kernel.one(structure, query, tracker)
            except Exception:
                self._engine._bump(self._kind, serve_errors=1)
                raise
            elapsed = time.perf_counter() - started
        finally:
            versions.release(slot)
        self._kernel.settle(1, elapsed)
        return answer

    serve_tracked = serve

    def resolve(self) -> Any:
        """The structure serving the kind at the current version.

        Pins the published version like any reader; first touch goes idle
        and materializes under the writer mutex.
        """
        state = self._state
        with state._versions.pinned() as version:
            state._ds._check_attached()
            structure = version.structures.get(self._kind)
            if structure is not None:
                return structure
        return state._materialize(self._kind)

    # No serve_many here: mutable batches never reach the per-kind plans --
    # Dataset.query_batch routes the whole batch to _MutableState.query_batch,
    # which pins one version record across *every* kind group (batch
    # atomicity is a whole-batch property, not a per-group one).


class Dataset:
    """One attached dataset, addressable by name, serving every kind.

    Created by :meth:`repro.service.engine.QueryEngine.attach`; not meant
    to be constructed directly.  The session owns the dataset's content
    identity -- computed exactly once at attach -- and the per-kind artifact
    keys derived from it, which is what makes the warm serving path one
    dictionary probe instead of an O(|D|) hash per request.

    Attach-time options fix how each kind resolves:

    * ``kinds`` restricts the served kinds (default: every kind the engine
      knows at attach time -- promised ones are resolved);
    * ``shards=K`` serves every kind whose scheme declares a
      :class:`~repro.service.merge.ShardSpec` from K shards (kinds without
      one keep the monolithic path);
    * ``mutable=True`` routes all serving through versioned snapshot
      publication and enables :meth:`apply_changes`.

    Thread safety matches the engine's: any number of threads may query
    concurrently; mutable sessions serve lock-free against the current
    published version (writers never block readers), so answers always
    reflect a fully-applied version.
    """

    def __init__(
        self,
        engine: "QueryEngine",
        name: str,
        data: Any,
        fingerprint: str,
        *,
        kinds: Optional[Sequence[str]] = None,
        shards: int = 1,
        mutable: bool = False,
    ) -> None:
        self._engine = engine
        self._name = name
        self._data = data
        self._fingerprint = fingerprint
        self._shards = shards
        self._detached = False
        #: Per-kind serve plans: registration, resolved structure reference
        #: and bound kernel captured once, so the steady-state query path is
        #: one dict hit plus one kernel call.
        self._plans: Dict[str, Any] = {}
        self._plans_lock = threading.Lock()
        served = tuple(kinds) if kinds is not None else tuple(engine.kinds())
        if not served:
            raise ServiceError(
                "attach() found no kinds to serve; register at least one "
                "query kind first (or pass kinds=...)"
            )
        self._registrations: Dict[str, "_Registration"] = {}
        for kind in served:
            registration = engine._registration(kind)
            if shards > 1 and registration.scheme.sharding is not None:
                registration = replace(registration, shards=shards)
            self._registrations[kind] = registration
        self._mutable = _MutableState(self) if mutable else None

    # -- identity --------------------------------------------------------------

    @property
    def name(self) -> str:
        """The attach name requests address this session by."""
        return self._name

    @property
    def data(self) -> Any:
        """The attached payload object (treated as immutable while served,
        unless the session was attached ``mutable=True``)."""
        return self._data

    @property
    def fingerprint(self) -> str:
        """The content identity computed once at attach (version 0 for
        mutable sessions; see :meth:`version`)."""
        return self._fingerprint

    @property
    def kinds(self) -> List[str]:
        """Sorted kinds this session serves."""
        return sorted(self._registrations)

    @property
    def shards(self) -> int:
        return self._shards

    @property
    def mutable(self) -> bool:
        return self._mutable is not None

    @property
    def detached(self) -> bool:
        return self._detached

    @property
    def version(self) -> int:
        """Monotonic count of applied change batches (0 when immutable)."""
        return 0 if self._mutable is None else self._mutable.version

    def resume_at(self, version: int) -> None:
        """Continue the count of the session this content was snapshotted
        from at ``version``: a re-homed dataset never counts backwards."""
        if self._mutable is not None:
            versions = self._mutable._versions
            with versions.writer_mutex:
                versions.current.number = max(version, versions.current.number)

    def stats(self) -> Dict[str, Any]:
        """This session's slice of the engine's counter snapshot.

        A plain JSON-serializable dict: the session identity (``dataset``,
        ``version``, ``mutable``) plus ``kinds`` mapping each served kind to
        its :meth:`~repro.service.engine.SchemeStats.stats_snapshot` dict.
        The supported way to read serving counters for one session --
        callers (examples, tests, a benchmark's per-run window) never
        reach into ``engine.stats().per_kind`` directly.
        """
        per_kind = self._engine.stats().stats_snapshot()["per_kind"]
        served = set(self.kinds)
        return {
            "dataset": self._name,
            "version": self.version,
            "mutable": self.mutable,
            "kinds": {
                kind: counters
                for kind, counters in per_kind.items()
                if kind in served
            },
        }

    def shards_for(self, kind: str) -> int:
        """Effective shard count serving ``kind`` for this session."""
        return self.registration_for(kind).shards

    def registration_for(self, kind: str) -> "_Registration":
        """The registration serving ``kind``, at this session's shard count."""
        try:
            return self._registrations[kind]
        except KeyError:
            raise ServiceError(
                f"dataset {self._name!r} does not serve kind {kind!r}; "
                f"served kinds: {self.kinds}"
            ) from None

    def artifact_key(self, kind: str) -> ArtifactKey:
        """The attach-time artifact identity of ``kind``.

        Keyed by the attach-time fingerprint for every session: a mutable
        session's later versions live in memory only, so the store holds
        nothing under any other key for it.  Kinds whose schemes declare one
        ``structure`` share the key.
        """
        return self.registration_for(kind).key(self._fingerprint)

    # -- serving ---------------------------------------------------------------

    def query(self, kind: str, query: Any) -> bool:
        """Answer one query of ``kind`` over this dataset.

        Steady state is the hot path: one serve-plan dict hit plus one
        untracked kernel call (the plan captured the registration and the
        resolved structure at first use).  The first query per kind walks
        the engine's ordinary artifact layers (cache -> store -> build; every
        shard of a sharded kind) with the precomputed identity; mutable
        sessions answer lock-free against the latest published
        (fully-applied) version.
        """
        plan = self._plans.get(kind)
        if plan is None:
            self._check_attached()
            plan = self._build_plan(kind)
        return plan.serve(query)

    def query_tracked(
        self, kind: str, query: Any, tracker: Optional[CostTracker] = None
    ) -> bool:
        """Answer one query through the *analytic* (tracked) serving path.

        Bypasses the untracked kernels: the same serve plan evaluates
        through the scheme's cost-charging ``evaluate`` against ``tracker``
        (the shared no-op tracker when omitted) -- the tractability API the
        certifier measures, kept byte-for-byte intact next to the untracked
        production path.  Answers are always identical to :meth:`query`; the
        hot-path property suite pins the equality.
        """
        self._check_attached()
        # Coerce None to the shared no-op tracker *here*: further down the
        # stack a None tracker selects the untracked kernels (the fast
        # path), and this method's contract is the analytic evaluator even
        # when the caller does not care about the charges.
        return self._plan(kind).serve_tracked(query, ensure_tracker(tracker))

    def _plan(self, kind: str) -> Any:
        """The cached serve plan for ``kind``, captured on first use.
        (:meth:`query` inlines this lookup: it is the hot path.)"""
        plan = self._plans.get(kind)
        if plan is None:
            self._check_attached()
            plan = self._build_plan(kind)
        return plan

    def _build_plan(self, kind: str) -> Any:
        """Capture the serve plan for ``kind`` -- the one place on the read
        path that tests the storage shape: it picks the kernel (monolithic
        or sharded: *how* an answer is evaluated) and the plan class (*where*
        the structure comes from).

        An immutable kind resolves exactly once, here, through
        :meth:`_resolve` (every shard of a sharded kind, misses built in
        parallel); a mutable plan pins a published version per call and
        materializes a kind on first touch.
        """
        engine = self._engine
        registration = self.registration_for(kind)
        kernel = (ShardedKernel if registration.shards > 1 else _MonolithicKernel)(
            engine, kind, registration
        )
        if self._mutable is not None:
            plan: Any = _MutableServe(engine, self._mutable, kind, kernel)
        else:
            structure = self._resolve(kind, self._data, self._fingerprint)[0]
            plan = _ServePlan(engine, kind, kernel, structure)
        with self._plans_lock:
            # A session detached mid-build must not cache a live plan: the
            # release path cleared the dict under this lock *after* setting
            # the flag, so re-checking here closes the race.
            if not self._detached:
                self._plans[kind] = plan
        return plan

    def _resolve(
        self, kind: str, content: Any, fingerprint: Optional[str] = None
    ) -> Tuple[Any, str, Optional[bytes]]:
        """``(structure, source, blob)`` serving ``kind`` over ``content``:
        the one resolution per storage shape, through the engine's layers
        (cache -> store -> build).  A monolithic kind resolves by artifact key
        (an O(|D|) hash unless ``fingerprint`` is given); a sharded kind as a
        :class:`~repro.service.sharding.ShardedStructure` of every shard,
        misses built in parallel (source ``"shards"``, no blob).
        """
        engine = self._engine
        registration = self.registration_for(kind)
        if registration.shards > 1:
            plan = plan_shards(kind, registration, content)
            structures = tuple(engine._resolve_shards(kind, registration, plan))
            return ShardedStructure(plan, structures), "shards", None
        key = registration.key(fingerprint or dataset_fingerprint(content))
        return engine._resolve_by_key(kind, registration, key, content)

    def query_batch(self, requests: Iterable[Any]) -> List[bool]:
        """Answer a batch of ``(kind, query)`` pairs; answers match input order.

        The batch is **vectorized**: queries are grouped by kind and each
        group runs through one ``answer_many`` kernel call instead of one
        dispatch per query, inline on the calling thread.  Mutable sessions
        pin one published version record across every group, so the whole
        batch reflects one version (the batch-atomic snapshot guarantee --
        one pointer read, not a lock).
        """
        pairs = [self._as_pair(item) for item in requests]
        self._check_attached()
        if self._mutable is not None:
            return self._mutable.query_batch(pairs)
        answers: List[bool] = [False] * len(pairs)
        for kind, (positions, queries) in _group_pairs(pairs).items():
            group_answers = self._plan(kind).serve_many(queries)
            for position, answer in zip(positions, group_answers):
                answers[position] = answer
        return answers

    def warm(self, kinds: Optional[Sequence[str]] = None) -> "Dataset":
        """Pre-build (and persist) the structures serving ``kinds``.

        Defaults to every served kind; returns ``self`` so attach-and-warm
        chains: ``ds = engine.attach("events", data).warm()``.
        """
        self._check_attached()
        for kind in self.kinds if kinds is None else kinds:
            self._plan(kind).resolve()
        return self

    def _as_pair(self, item: Any) -> Tuple[str, Any]:
        if isinstance(item, tuple) and len(item) == 2:
            return item
        raise ServiceError(
            f"query_batch items are (kind, query) pairs; got {type(item).__name__}"
        )

    # -- mutation --------------------------------------------------------------

    def apply_changes(self, changes: Iterable[Any]) -> ChangeLog:
        """Apply one change batch atomically across every served kind.

        Only valid for sessions attached ``mutable=True``.  Each served kind
        with a materialized structure is maintained in place through its
        scheme's ``apply_delta`` hook when possible; sharded kinds and
        refused batches fall back to resolving the post-batch content
        (content-addressed shard artifacts make that a touched-shards-only
        rebuild).  Readers never observe an intermediate state: every
        maintenance step runs against the offline structure set, and the
        new version becomes visible through one atomic pointer store.
        """
        self._check_attached()
        if self._mutable is None:
            raise ServiceError(
                f"dataset {self._name!r} was attached immutable; pass "
                "mutable=True to attach() to enable apply_changes"
            )
        return self._mutable.apply_changes(changes)

    def dataset(self) -> Any:
        """A consistent snapshot of the current content (the attach payload
        for immutable sessions)."""
        if self._mutable is None:
            return self._data
        return self._mutable.snapshot()

    # -- lifecycle -------------------------------------------------------------

    def _check_attached(self) -> None:
        if self._detached:
            raise UnknownDatasetError(
                f"dataset {self._name!r} is detached; attach it again to serve"
            )
        if self._engine._closed:
            raise ServiceError("engine is closed")

    def _release(self) -> None:
        """Mark detached and drop the serve plans (engine-internal).

        The flag is set *before* the serve plans are dropped (both under the
        plan lock a racing :meth:`_build_plan` re-checks), so a query
        that runs after detach can never re-install a plan and serve
        a released session -- it lands on :meth:`_check_attached` and raises
        :class:`~repro.core.errors.UnknownDatasetError` cleanly.
        """
        if self._detached:
            return
        self._detached = True
        with self._plans_lock:
            self._plans.clear()

    def detach(self) -> None:
        """Release the name and evict cached structures.

        Idempotent.  Further queries or batches against this session raise
        :class:`~repro.core.errors.UnknownDatasetError`.
        """
        if self._detached:
            return
        self._engine.detach(self._name)

    def __enter__(self) -> "Dataset":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.detach()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tags = []
        if self._mutable is not None:
            tags.append(f"mutable v{self.version}")
        if self._shards > 1:
            tags.append(f"shards={self._shards}")
        suffix = f" ({', '.join(tags)})" if tags else ""
        return f"Dataset({self._name!r}, kinds={self.kinds}{suffix})"


class _MutableState:
    """Multi-kind mutable serving state behind one published version pointer.

    One :class:`~repro.service.mutable.MutableContent` working copy, one
    :class:`~repro.service.mutable.VersionedStructures`
    (left-right versioned publication: lock-free readers, writer-only
    mutex), and one lazily materialized structure **per served kind, per
    left-right side**.  A change batch validates once, screens once, then
    maintains every materialized structure against the offline side --
    delta-capable monolithic kinds in place through ``apply_delta``,
    everything else by rebuilding from the post-batch content (sharded
    kinds reuse untouched shard artifacts) -- publishes the new version
    with one atomic pointer store, and re-applies to the retired side.
    Kinds never queried stay unmaterialized and cost nothing until first
    use, at which point they build from the *current* content.
    """

    def __init__(self, ds: Dataset) -> None:
        self._ds = ds
        self._engine = ds._engine
        self.tracker = CostTracker()
        self.log = ChangeLog()
        self._content = MutableContent(ds._data, self.tracker, self.log)
        self._versions = VersionedStructures()

    @property
    def version(self) -> int:
        return self._versions.current.number

    def snapshot(self) -> Any:
        with self._versions.writer_mutex:
            return self._content.canonical()

    # -- structures ------------------------------------------------------------

    def _materialize(self, kind: str) -> Any:
        """First-touch build of ``kind`` from the *current* content.

        Runs under the writer mutex (callers must hold no announce slot:
        a pinned reader blocking here would deadlock a draining writer) and
        installs the structure into **both** left-right sides -- the
        published side in place (readers on any live version observe the
        kind appear with identical answers; the content did not change) and
        the offline side as a private twin, so the next batch can fold into
        it without touching what readers see.

        At version 0 the session's attach-time fingerprint addresses the
        ordinary content-addressed artifacts, so warm cache/store resolution
        applies; later versions snapshot the working copy (one O(|D|) hash,
        paid at materialization, not per request).  Delta-capable monolithic
        kinds are privatized, both sides loading one blob (the bytes resolution
        held, else one dump), so in-place maintenance never touches the cache's.
        """
        versions = self._versions
        with versions.writer_mutex:
            structure = versions.current.structures.get(kind)
            if structure is not None:
                return structure
            started = time.perf_counter()
            content, fingerprint = self._ds._data, self._ds._fingerprint
            if versions.current.number:
                content, fingerprint = self._content.canonical(), None
            registration = self._ds.registration_for(kind)
            scheme, dumps, loads = registration.scheme, 0, 0
            structure, source, blob = self._ds._resolve(kind, content, fingerprint)
            twin = structure
            if _folds_in_place(registration):
                if blob is None:
                    blob, dumps = scheme.dump(structure), 1
                structure, twin, loads = scheme.load(blob), scheme.load(blob), 2
            versions.install(kind, structure, twin)
            _log.debug("materialized %r at v%d from %s: %d dump(s), %d load(s), %.1f ms",
                       kind, versions.current.number, source, dumps, loads,
                       (time.perf_counter() - started) * 1000.0)
            return structure

    def _twin(self, kind: str, structure: Any) -> Any:
        """The offline-side twin of a published structure for ``kind``.

        Only delta-capable monolithic kinds are mutated in place, so only
        they need a second instance -- a codec round trip (privatization,
        not a cache miss: it is not counted as a build).  Everything else
        shares one instance across both left-right sides because nothing
        mutates it in place.
        """
        registration = self._ds.registration_for(kind)
        if not _folds_in_place(registration):
            return structure
        scheme = registration.scheme
        return scheme.load(scheme.dump(structure))

    def _preprocess(self, kind: str, content: Any) -> Any:
        """A private in-memory build: no cache entry, no store artifact."""
        started = time.perf_counter()
        structure = self._ds.registration_for(kind).scheme.preprocess(content, self.tracker)
        self._engine._bump(kind, builds=1, build_seconds=time.perf_counter() - started)
        return structure

    # -- serving ---------------------------------------------------------------

    def query_batch(self, pairs: Sequence[Tuple[str, Any]]) -> List[bool]:
        """All pairs against one pinned version: every answer sees one state.

        The batch is grouped by kind and each group runs through one
        ``answer_many`` kernel call -- vectorized like the immutable batch
        path, but with **one** version record pinned across every group, so
        the whole batch is atomic against writers (one pointer read, not a
        lock).  Kinds not yet materialized are built first while idle:
        materialization takes the writer mutex, which an announced reader
        must never block on.
        """
        versions = self._versions
        groups = _group_pairs(pairs)
        kernels = {kind: self._ds._plan(kind)._kernel for kind in groups}
        slot = versions.slot()
        version = versions.pin(slot)
        try:
            self._ds._check_attached()
            while any(version.structures.get(kind) is None for kind in groups):
                versions.release(slot)
                for kind in groups:
                    if versions.current.structures.get(kind) is None:
                        self._materialize(kind)
                version = versions.pin(slot)
            answers: List[bool] = [False] * len(pairs)
            for kind, (positions, queries) in groups.items():
                kernel = kernels[kind]
                started = time.perf_counter()
                try:
                    group_answers = kernel.many(version.structures[kind], queries)
                except Exception:
                    self._engine._bump(kind, serve_errors=len(queries))
                    raise
                kernel.settle(len(queries), time.perf_counter() - started)
                for position, answer in zip(positions, group_answers):
                    answers[position] = answer
            return answers
        finally:
            versions.release(slot)

    # -- mutation --------------------------------------------------------------

    def apply_changes(self, changes: Iterable[Any]) -> ChangeLog:
        """Apply one batch to every materialized kind; left-right publish.

        Phase 1 runs entirely against the **offline** structure set, which
        no reader can see: delta-capable monolithic kinds fold in place
        through ``apply_delta`` (a mid-fold crash marks the kind torn --
        the torn instance is replaced by the rebuild below, so a torn fold
        can never be published), everything else rebuilds from the
        post-batch content.  The new version is then published with one
        atomic pointer store; readers pinned to the retired version are
        drained, and phase 2 brings the retired set up to date (the same
        delta re-applied, or the rebuilt structure twinned), making it the
        next offline set.  Delta cost is paid twice -- O(|CHANGED|) each --
        never an O(|D|) clone.

        A rebuild failure drops the failing kind *and every kind not yet
        rebuilt* from both sides (their pre-batch structures are stale and
        must never serve the committed content); the version still
        publishes -- content is the source of truth -- and the error
        re-raises after both sides are consistent.  Next query per dropped
        kind re-materializes from the post-batch content: degraded-and-
        loud, never silently wrong.
        """
        batch = list(changes)
        versions = self._versions
        with versions.writer_mutex:
            self._ds._check_attached()
            self._content.validate(batch)
            effective = self._content.screen(batch)
            if not effective:
                self.log.record(0, 0, "batch screened to no-ops")
                return self.log
            offline = versions.offline
            delta_kinds: List[Tuple[str, float]] = []  # (kind, apply seconds)
            rebuild_kinds: List[str] = []
            torn_kinds: List[str] = []
            for kind in sorted(offline):
                registration = self._ds.registration_for(kind)
                if _folds_in_place(registration):
                    started = time.perf_counter()
                    try:
                        offline[kind] = registration.scheme.apply_delta(
                            offline[kind], effective, self.tracker
                        )
                        delta_kinds.append((kind, time.perf_counter() - started))
                        continue
                    except DeltaError:
                        # Contract: raised *before* mutating -- plain fallback.
                        pass
                    except Exception:
                        # Crashed mid-fold: only the offline twin may be
                        # torn; the published side was never touched, so no
                        # reader can see the tear.  The batch still commits
                        # (content is the source of truth) and the rebuild
                        # below replaces the torn twin before publication.
                        torn_kinds.append(kind)
                rebuild_kinds.append(kind)
            for change in effective:
                self._content.apply(change)
            number = versions.current.number + 1
            rebuilt: Dict[str, Any] = {}
            dropped: List[str] = []
            rebuild_error: Optional[BaseException] = None
            if rebuild_kinds:
                # A monolithic rebuild stays in memory (a content-keyed
                # artifact per rebuilt version would never be read again);
                # a sharded one reuses untouched shard artifacts by content.
                canonical = self._content.canonical()
                for index, kind in enumerate(rebuild_kinds):
                    try:
                        if self._ds.registration_for(kind).shards > 1:
                            fresh = self._ds._resolve(kind, canonical)[0]
                        else:
                            fresh = self._preprocess(kind, canonical)
                    except Exception as exc:
                        dropped = rebuild_kinds[index:]
                        for late in dropped:
                            offline.pop(late, None)
                        rebuild_error = exc
                        break
                    offline[kind] = fresh
                    rebuilt[kind] = fresh
            versions.publish(number)
            for kind, seconds in delta_kinds:
                self._engine._bump(
                    kind,
                    delta_batches=1,
                    delta_changes=len(effective),
                    delta_seconds=seconds,
                )
            for kind in rebuilt:
                self._engine._bump(kind, fallback_rebuilds=1)
                if kind in torn_kinds:
                    self._engine._bump(kind, write_rollbacks=1)
            # Phase 2: once readers drain off the retired side, bring it up
            # to this version so it can serve as the next offline set.
            versions.drain()
            retired = versions.offline
            for late in dropped:
                retired.pop(late, None)
            for kind, _seconds in delta_kinds:
                scheme = self._ds.registration_for(kind).scheme
                try:
                    retired[kind] = scheme.apply_delta(
                        retired[kind], effective, self.tracker
                    )
                except Exception:
                    # The published side is intact and current; repair the
                    # mirror from it so the next batch folds into a correct
                    # twin.  Loud in the counters, invisible to readers.
                    retired[kind] = self._twin(kind, versions.current.structures[kind])
                    self._engine._bump(kind, write_rollbacks=1)
            for kind, fresh in rebuilt.items():
                retired[kind] = self._twin(kind, fresh)
            if rebuild_error is not None:
                raise rebuild_error
            screened = len(batch) - len(effective)
            self.log.record(
                len(effective),
                0,
                f"v{number}: {len(effective)} change(s); "
                f"delta={sorted(kind for kind, _ in delta_kinds)} "
                f"rebuild={sorted(rebuild_kinds)}"
                + (f", {screened} screened" if screened else ""),
            )
            return self.log
