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
  touched-shard or full rebuilds), and acknowledges ``{"version": n}``;
* ``ds.detach()`` -- releases the name; further use raises
  :class:`~repro.core.errors.UnknownDatasetError`.

A mutable session's monolithic kinds write no artifact after version 0:
later versions live in memory only, because nothing could compute their keys
to read them back.  A sharded kind is the exception: its rebuild after a
batch still caches and stores every touched shard by content (ROADMAP item 8).

One session dispatches to all three storage shapes from its attach-time
options: monolithic, sharded (``shards=K``, said here and nowhere else),
and mutable.  *How* an answer is evaluated has one
implementation per shape -- a kernel over an already-resolved structure:
:class:`_MonolithicKernel` here,
:class:`~repro.service.sharding.ShardedKernel` for scatter-gather.
Every answer goes through one plan class, :class:`_ServePlan`: a kind's
kernel bound to one structure by :meth:`Dataset._bind`, the one place on
the read path that tests the shape.  An immutable session keeps one plan
per kind, resolved through :meth:`Dataset._resolve` when it is built (a
sharded kind's whole shard plan).  A mutable session's published version
is a dict of such plans, one per materialized kind: a read pins the
version, serves through its plan and releases it.
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

import copy
import logging
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from functools import partial
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    ContextManager,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.cost import NULL_TRACKER, CostTracker, ensure_tracker
from repro.core.errors import DeltaError, ServiceError, UnknownDatasetError
from repro.service.mutable import MutableContent, VersionedStructures
from repro.service.sharding import ShardedKernel, ShardedStructure, plan_shards
from repro.storage.packed import materialize

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
    :class:`_ServePlan` binds the untracked evaluators to one structure with
    :meth:`bind` and answers tracked queries through
    ``one(structure, query, tracker)``.
    Here those are the scheme's own entry points -- ``tracker is None``
    selects the untracked ``answer_fast``, any tracker the cost-charging
    ``answer``.  Pure evaluation: the plan times the call and counts it.
    """

    __slots__ = ("scheme",)

    def __init__(self, registration: "_Registration") -> None:
        self.scheme = registration.scheme

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
    """A (kind, structure) hot-path binding: the one plan class.

    ``answer``/``answer_many`` are the kernel's untracked evaluators bound
    to one resolved structure (a sharded kind's whole
    :class:`~repro.service.sharding.ShardedStructure`).  An immutable
    session keeps one plan per kind; a mutable session's published version
    holds one per materialized kind, each bound to that left-right side's
    structure, so a fold in place is served at once and a rebuild installs
    a new plan.  :meth:`serve`/:meth:`serve_many` time *only* the kernel
    call (resolution and first-touch builds are accounted as build/hit,
    never serve) and count it through ``engine._count_serve``, one way for
    every storage shape.
    :meth:`serve_tracked` runs the kernel's analytic evaluator over the same
    structure.  The plan owns what it captured: it keeps the structure
    until its session detaches, whatever the engine's LRU cache evicts (the
    cache only deduplicates loads and builds across sessions).
    """

    __slots__ = (
        "_engine", "_kind", "_kernel", "_structure", "_settle", "answer", "answer_many",
    )

    def __init__(self, engine: "QueryEngine", kind: str, kernel: Any, structure: Any) -> None:
        self._engine = engine
        self._kind = kind
        self._kernel = kernel
        self._structure = structure
        self._settle = partial(engine._count_serve, kind)
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
        self._settle(1, time.perf_counter() - started)
        return answer

    def serve_many(self, queries: Sequence[Any]) -> List[bool]:
        started = time.perf_counter()
        try:
            answers = self.answer_many(queries)
        except Exception:
            self._engine._bump(self._kind, serve_errors=len(queries))
            raise
        self._settle(len(queries), time.perf_counter() - started)
        return answers

    def serve_tracked(self, query: Any, tracker: CostTracker) -> bool:
        started = time.perf_counter()
        try:
            answer = self._kernel.one(self._structure, query, tracker)
        except Exception:
            self._engine._bump(self._kind, serve_errors=1)
            raise
        self._settle(1, time.perf_counter() - started)
        return answer


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
        #: An immutable session's serve plans, one per kind, captured on first
        #: use, so the steady-state query path is one dict hit plus one kernel
        #: call.  A mutable session leaves it empty: its plans live in its
        #: published versions.
        self._plans: Dict[str, _ServePlan] = {}
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
        unless the session was attached ``mutable=True``); a packed run's
        tuple or list, built on first use."""
        return materialize(self._data)

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
        """The engine-wide counters of the kinds this session serves.

        A plain JSON-serializable dict: the session identity (``dataset``,
        ``version``, ``mutable``) plus ``kinds`` mapping each kind this
        session serves to its engine-wide
        :meth:`~repro.service.engine.SchemeStats.stats_snapshot` dict.  The
        counters are per kind, not per session: queries another session
        sends to a kind this one also serves are counted here too.  The
        supported way to read serving counters for one session's kinds --
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

    # -- serving ---------------------------------------------------------------

    def query(self, kind: str, query: Any) -> bool:
        """Answer one query of ``kind`` over this dataset.

        Steady state is the hot path: one serve-plan dict hit plus one
        untracked kernel call (the plan captured the registration and the
        resolved structure at first use).  The first query per kind walks
        the engine's ordinary artifact layers (cache -> store -> build; every
        shard of a sharded kind) with the precomputed identity; mutable
        sessions answer lock-free through the plan of the latest published
        (fully-applied) version.
        """
        plan = self._plans.get(kind)
        if plan is None:
            if self._mutable is not None:
                return self._mutable.query(kind, query)
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
        with self._plans_for((kind,)) as plans:
            return plans[kind].serve_tracked(query, ensure_tracker(tracker))

    def _plans_for(self, kinds: Iterable[str]) -> ContextManager[Dict[str, _ServePlan]]:
        """A context holding one serve plan per kind in ``kinds``.

        An immutable session's own plans (captured on first use); a mutable
        session's are one published version's, pinned until the context
        exits, so every answer inside it sees that one version.
        """
        if self._mutable is not None:
            return self._mutable.pinned_plans(kinds)
        return nullcontext({kind: self._plan(kind) for kind in kinds})

    def _plan(self, kind: str) -> _ServePlan:
        """An immutable session's serve plan for ``kind``, captured on first
        use.  (:meth:`query` inlines this lookup: it is the hot path.)"""
        plan = self._plans.get(kind)
        if plan is None:
            self._check_attached()
            plan = self._build_plan(kind)
        return plan

    def _build_plan(self, kind: str) -> _ServePlan:
        """Capture an immutable session's serve plan for ``kind``: the kind
        resolves exactly once, here, through :meth:`_resolve` (every shard of
        a sharded kind), and :meth:`_bind` binds the result.
        """
        plan = self._bind(kind, self._resolve(kind)[0])
        with self._plans_lock:
            # A session detached mid-build must not cache a live plan: the
            # release path cleared the dict under this lock *after* setting
            # the flag, so re-checking here closes the race.
            if not self._detached:
                self._plans[kind] = plan
        return plan

    def _bind(self, kind: str, structure: Any) -> _ServePlan:
        """The serve plan of ``kind`` over ``structure`` -- the one place on
        the read path that tests the storage shape: it picks the kernel
        (monolithic or sharded), *how* an answer is evaluated.  Immutable
        plans and every side of a mutable version are bound here.
        """
        registration = self.registration_for(kind)
        kernel = (ShardedKernel if registration.shards > 1 else _MonolithicKernel)(registration)
        return _ServePlan(self._engine, kind, kernel, structure)

    def _resolve(
        self, kind: str, content: Any = None, fill_cache: bool = True
    ) -> Tuple[Any, str]:
        """``(structure, source)`` serving ``kind``: the one resolution per
        storage shape, through the engine's layers (cache -> store -> build).
        A monolithic kind resolves the attach payload by its attach-time
        artifact key (no hash), and leaves the engine cache as it was with
        ``fill_cache=False`` (a structure a mutable session folds into); a
        sharded kind resolves ``content`` (default: the attach payload; a
        mutable session's post-batch content) as a
        :class:`~repro.service.sharding.ShardedStructure` of every shard,
        each non-empty one resolved by its own key in plan order on this
        thread (source ``"shards"``).
        """
        engine = self._engine
        registration = self.registration_for(kind)
        if registration.shards > 1:
            plan = plan_shards(kind, registration, self.data if content is None else content)
            structures = tuple(
                None if shard.piece.is_empty() else engine._resolve_by_key(
                    kind, registration, registration.shard_key(plan, shard), shard.piece.data
                )[0]
                for shard in plan.planned
            )
            return ShardedStructure(plan, structures), "shards"
        key = registration.key(self._fingerprint)
        # A mutable session boxed a packed payload for its working copy, so
        # its build shares those ints; an immutable one builds from the words.
        data = self.data if self.mutable else self._data
        return engine._resolve_by_key(kind, registration, key, data, fill_cache)

    def query_batch(self, requests: Iterable[Any]) -> List[bool]:
        """Answer a batch of ``(kind, query)`` pairs; answers match input order.

        The batch is **vectorized**: queries are grouped by kind and each
        group runs through one ``answer_many`` kernel call instead of one
        dispatch per query, inline on the calling thread.  Mutable sessions
        serve every group from the plans of one pinned published version,
        so the whole batch reflects one version (the batch-atomic snapshot
        guarantee -- one pointer read, not a lock).
        """
        pairs = [self._as_pair(item) for item in requests]
        self._check_attached()
        groups = _group_pairs(pairs)
        answers: List[bool] = [False] * len(pairs)
        with self._plans_for(groups) as plans:
            for kind, (positions, queries) in groups.items():
                group_answers = plans[kind].serve_many(queries)
                for position, answer in zip(positions, group_answers):
                    answers[position] = answer
        return answers

    def warm(self, kinds: Optional[Sequence[str]] = None) -> "Dataset":
        """Pre-build (and persist) the structures serving ``kinds``.

        Defaults to every served kind; returns ``self`` so attach-and-warm
        chains: ``ds = engine.attach("events", data).warm()``.
        """
        self._check_attached()
        with self._plans_for(self.kinds if kinds is None else kinds):
            return self

    def _as_pair(self, item: Any) -> Tuple[str, Any]:
        if isinstance(item, tuple) and len(item) == 2:
            return item
        raise ServiceError(
            f"query_batch items are (kind, query) pairs; got {type(item).__name__}"
        )

    # -- mutation --------------------------------------------------------------

    def apply_changes(self, changes: Iterable[Any]) -> Dict[str, int]:
        """Apply one change batch atomically across every served kind.

        Only valid for sessions attached ``mutable=True``.  Each served kind
        with a materialized structure is maintained in place through its
        scheme's ``apply_delta`` hook when possible; sharded kinds and
        refused batches fall back to resolving the post-batch content
        (content-addressed shard artifacts make that a touched-shards-only
        rebuild).  Readers never observe an intermediate state: every
        maintenance step runs against the offline structure set, and the
        new version becomes visible through one atomic pointer store.

        Returns the acknowledgement ``{"version": n}``, the version the batch
        published -- the unchanged version when every change screened to a
        no-op.  A :class:`~repro.service.frontend.client.RemoteDataset`
        returns the same dict, so neither surface claims a |CHANGED| count.
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
        for immutable sessions, as attached: a packed run stays packed)."""
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
        :class:`~repro.core.errors.UnknownDatasetError` cleanly.  A mutable
        session drops both left-right sides the same way (see
        :meth:`_MutableState.release`).
        """
        if self._detached:
            return
        self._detached = True
        with self._plans_lock:
            self._plans.clear()
        if self._mutable is not None:
            self._mutable.release()

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
    mutex), and one lazily materialized serve plan **per served kind, per
    left-right side**.  A change batch validates once, folds into the
    working copy in one pass that drops its no-op changes, then
    maintains every materialized kind against the offline side --
    delta-capable monolithic kinds in place through ``apply_delta``,
    everything else by rebuilding from the post-batch content (sharded
    kinds reuse untouched shard artifacts) under a new plan -- publishes
    the new version with one atomic pointer store, and re-applies to the
    retired side.  Kinds never queried stay unmaterialized and cost nothing
    until first use, at which point they build from the *current* content.
    """

    def __init__(self, ds: Dataset) -> None:
        self._ds = ds
        self._engine = ds._engine
        self._content = MutableContent(ds.data)
        self._versions = VersionedStructures()
        #: Whether a batch took effect: until one does, the working copy is
        #: the attach payload and its fingerprint addresses the artifacts.
        self._changed = False

    @property
    def version(self) -> int:
        return self._versions.current.number

    def snapshot(self) -> Any:
        with self._versions.writer_mutex:
            return self._content.canonical()

    # -- serving ---------------------------------------------------------------

    def query(self, kind: str, query: Any) -> bool:
        """One answer at the published version: pin, serve through the
        kind's plan, release -- no shared lock, so a writer never blocks it.

        First touch goes idle -- materialization takes the writer mutex,
        which an announced reader must never block on -- then re-pins; the
        build runs before the plan's serve timer starts.
        """
        versions = self._versions
        slot = versions.slot()
        try:
            while True:
                version = versions.pin(slot)
                self._ds._check_attached()
                plan = version.plans.get(kind)
                if plan is not None:
                    return plan.serve(query)
                versions.release(slot)
                self._materialize(kind)
        finally:
            versions.release(slot)

    @contextmanager
    def pinned_plans(self, kinds: Iterable[str]) -> Iterator[Dict[str, _ServePlan]]:
        """The plans of ``kinds`` at one published version, pinned until the
        context exits: one pin across every kind makes a batch atomic
        against writers.  Missing kinds materialize while idle, as in
        :meth:`query`.
        """
        kinds = tuple(kinds)
        versions = self._versions
        slot = versions.slot()
        try:
            while True:
                version = versions.pin(slot)
                self._ds._check_attached()
                missing = [kind for kind in kinds if kind not in version.plans]
                if not missing:
                    break
                versions.release(slot)
                for kind in missing:
                    self._materialize(kind)
            yield {kind: version.plans[kind] for kind in kinds}
        finally:
            versions.release(slot)

    # -- plans -----------------------------------------------------------------

    def _materialize(self, kind: str) -> None:
        """First-touch build of ``kind`` from the *current* content.

        Runs under the writer mutex (callers must hold no announce slot:
        a pinned reader blocking here would deadlock a draining writer) and
        installs a plan into **both** left-right sides -- the published side
        in place (readers on any live version observe the kind appear with
        identical answers; the content did not change) and the offline side,
        bound to a private twin when the kind folds in place, so the next
        batch can fold into it without touching what readers see.

        Before the first effective batch the session's attach-time
        fingerprint addresses the ordinary content-addressed artifacts, so
        warm cache/store resolution applies.  After it, a monolithic kind
        builds privately from the working copy (no hash, no store, no cache
        entry), and a sharded one resolves shard by shard by content
        (:meth:`_resolve`).  A kind that folds in place takes its two
        instances from :meth:`_private_pair`.
        """
        versions = self._versions
        with versions.writer_mutex:
            self._ds._check_attached()
            if kind in versions.current.plans:
                return
            started = time.perf_counter()
            copies = 0
            if _folds_in_place(self._ds.registration_for(kind)):
                structure, twin, source, copies = self._private_pair(kind)
                plan, twin_plan = self._ds._bind(kind, structure), self._ds._bind(kind, twin)
            else:
                structure, source = self._resolve(kind)
                plan = twin_plan = self._ds._bind(kind, structure)
            versions.install(kind, plan, twin_plan)
            _log.debug("materialized %r at v%d from %s: %d deep copies, %.1f ms",
                       kind, versions.current.number, source, copies,
                       (time.perf_counter() - started) * 1000.0)

    def _private_pair(self, kind: str) -> Tuple[Any, Any, str, int]:
        """``(published, twin, source, copies)``: two instances of a delta
        kind that no other session holds, privatised by deep copy (every
        container is new, the values in them are shared).

        A structure held elsewhere is shared, so both sides are copies of
        it: a kind this session already serves over the same structure
        (point and range selection), else an engine-cache hit.  Otherwise
        the structure is this session's own -- resolved by the engine
        without caching (store load, or build and persist) before the first
        batch, built privately after it -- and is published; the twin is
        its one copy.
        """
        registration = self._ds.registration_for(kind)
        for other, plan in self._versions.current.plans.items():
            shared = self._ds.registration_for(other)
            if _folds_in_place(shared) and shared.key("") == registration.key(""):
                structure, source = plan.resolve(), "session"
                break
        else:
            structure, source = self._resolve(kind, fill_cache=False)
            if source != "cache":
                return structure, copy.deepcopy(structure), source, 1
        return copy.deepcopy(structure), copy.deepcopy(structure), source, 2

    def _twin(self, kind: str, plan: _ServePlan) -> _ServePlan:
        """The offline-side plan mirroring a published ``plan`` for ``kind``.

        Only delta-capable monolithic kinds are mutated in place, so only
        they need a second instance -- privatised by deep copy, values
        shared (not a cache miss: it is not counted as a build) -- under a
        plan of its own.  Everything else shares one plan across both
        left-right sides because nothing mutates its structure in place.
        """
        if not _folds_in_place(self._ds.registration_for(kind)):
            return plan
        return self._ds._bind(kind, copy.deepcopy(plan.resolve()))

    def _fold(self, kind: str, plan: _ServePlan, changes: Sequence[Any]) -> _ServePlan:
        """Fold ``changes`` into ``plan``'s structure through ``apply_delta``:
        the same plan when the hook folded in place, else a plan over the
        structure it returned."""
        structure = plan.resolve()
        folded = self._ds.registration_for(kind).scheme.apply_delta(
            structure, changes, NULL_TRACKER
        )
        return plan if folded is structure else self._ds._bind(kind, folded)

    def _resolve(self, kind: str, fill_cache: bool = True) -> Tuple[Any, str]:
        """``(structure, source)`` of ``kind`` over the current content: the
        attach-time resolution (:meth:`Dataset._resolve`) until a batch takes
        effect, then :meth:`_rebuild` over the working copy."""
        if self._changed:
            return self._rebuild(kind, self._content.canonical())
        return self._ds._resolve(kind, fill_cache=fill_cache)

    def _rebuild(self, kind: str, content: Any) -> Tuple[Any, str]:
        """``(structure, source)`` of ``kind`` over post-batch ``content``.

        A monolithic kind builds in memory only: no hash, no cache entry and
        no store artifact (a content-keyed artifact per version would never
        be read again).  A sharded kind resolves through the engine by shard
        content, so untouched shards are cache or store hits.
        """
        registration = self._ds.registration_for(kind)
        if registration.shards > 1:
            return self._ds._resolve(kind, content)
        started = time.perf_counter()
        structure = registration.scheme.preprocess(content, NULL_TRACKER)
        self._engine._bump(kind, builds=1, build_seconds=time.perf_counter() - started)
        return structure, "build"

    def release(self) -> None:
        """Drop both left-right sides: a detached session frees its
        structures.  Under the writer mutex, after the session flag is set,
        so no batch or first touch is mid-flight; a reader still pinned to
        the old version answers from it, and a later one raises
        :class:`~repro.core.errors.UnknownDatasetError`."""
        with self._versions.writer_mutex:
            self._versions.clear()

    # -- mutation --------------------------------------------------------------

    def apply_changes(self, changes: Iterable[Any]) -> Dict[str, int]:
        """Apply one batch to every materialized kind; left-right publish.

        Phase 1 runs entirely against the **offline** plan set, which
        no reader can see: delta-capable monolithic kinds fold in place
        through ``apply_delta`` (a mid-fold crash marks the kind torn --
        the torn instance is replaced by the rebuild below, so a torn fold
        can never be published), everything else rebuilds from the
        post-batch content under a new plan.  The new version is then
        published with one atomic pointer store; readers pinned to the
        retired version are drained, and phase 2 brings the retired set up
        to date (the same delta re-applied, or the rebuilt plan twinned),
        making it the next offline set.  Delta cost is paid twice --
        O(|CHANGED|) each -- never an O(|D|) clone.

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
            effective = self._content.apply(batch)
            if not effective:
                return {"version": versions.current.number}
            self._changed = True
            offline = versions.offline
            delta_kinds: List[Tuple[str, float]] = []  # (kind, apply seconds)
            rebuild_kinds: List[str] = []
            torn_kinds: List[str] = []
            for kind in sorted(offline):
                if _folds_in_place(self._ds.registration_for(kind)):
                    started = time.perf_counter()
                    try:
                        offline[kind] = self._fold(kind, offline[kind], effective)
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
            number = versions.current.number + 1
            rebuilt: Dict[str, _ServePlan] = {}
            dropped: List[str] = []
            rebuild_error: Optional[BaseException] = None
            if rebuild_kinds:
                canonical = self._content.canonical()
                for index, kind in enumerate(rebuild_kinds):
                    try:
                        fresh = self._rebuild(kind, canonical)[0]
                    except Exception as exc:
                        dropped = rebuild_kinds[index:]
                        for late in dropped:
                            offline.pop(late, None)
                        rebuild_error = exc
                        break
                    offline[kind] = rebuilt[kind] = self._ds._bind(kind, fresh)
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
                try:
                    retired[kind] = self._fold(kind, retired[kind], effective)
                except Exception:
                    # The published side is intact and current; repair the
                    # mirror from it so the next batch folds into a correct
                    # twin.  Loud in the counters, invisible to readers.
                    retired[kind] = self._twin(kind, versions.current.plans[kind])
                    self._engine._bump(kind, write_rollbacks=1)
            for kind, fresh_plan in rebuilt.items():
                retired[kind] = self._twin(kind, fresh_plan)
            if rebuild_error is not None:
                raise rebuild_error
            return {"version": number}
