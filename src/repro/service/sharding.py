"""Sharded Pi-structures: partitioned preprocessing with scatter-gather serving.

A monolithic Pi-structure makes build cost and memory scale with a single
process.  The :class:`ShardPlanner` instead partitions a dataset into K
shards (policy declared per scheme via
:class:`~repro.service.merge.ShardSpec`), builds one small Pi-structure per
shard *in parallel* and persists each as an independent
:class:`~repro.service.artifacts.ArtifactStore` artifact -- it plans and
builds, nothing else.  Answering is the :class:`ShardedKernel`'s job: rewrite
and route a query once, then one scatter loop over whatever resolved shard
structures the caller holds, gathered through the scheme's merge operator.

Shard artifacts are **content-addressed**: each is keyed by the shard's own
dataset fingerprint plus ``(shard id, K, scheme, params)``.  That is what
makes shard-level invalidation automatic -- after an
:mod:`repro.incremental` change batch mutates a dataset, re-planning yields
identical fingerprints for every untouched shard, so their artifacts are
cache/store hits and only the touched shards pay a rebuild
(:func:`touched_shards` predicts which, :func:`plan_diff` verifies after the
fact).

    >>> from repro.queries import membership_class, sorted_run_scheme
    >>> from repro.service.engine import QueryEngine
    >>> engine = QueryEngine()
    >>> engine.register("membership", membership_class(), sorted_run_scheme())
    >>> ds = engine.attach("numbers", tuple(range(100)), shards=4)
    >>> _ = ds.warm()  # builds all four shards in parallel
    >>> engine.stats().per_kind["membership"].shard_builds
    4
    >>> ds.query("membership", 17)  # routed: 1 probe
    True
    >>> engine.close()
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property, partial
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.cost import NULL_TRACKER
from repro.core.errors import InjectedFaultError, ShardFailedError
from repro.service.artifacts import ArtifactKey
from repro.service.faults import DegradedAnswer
from repro.service.merge import MergeOperator, ShardPiece, ShardSpec
from repro.storage.fingerprint import dataset_fingerprint

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.service.engine import QueryEngine, _Registration

__all__ = [
    "PlannedShard",
    "ShardPlan",
    "ShardedStructure",
    "ShardedKernel",
    "ShardPlanner",
    "touched_shards",
    "plan_diff",
]


@dataclass(frozen=True)
class PlannedShard:
    """One shard of a plan: the piece plus its content fingerprint."""

    piece: ShardPiece
    fingerprint: str


@dataclass(frozen=True)
class ShardPlan:
    """The partition of one dataset for one query kind.

    ``planned`` is ordered; merge routers address shards by *position* in
    this sequence.  The plan is pure data -- re-planning the same content
    yields the same fingerprints, which is what shard artifact reuse and
    :func:`plan_diff` rely on.
    """

    kind: str
    shards: int
    policy: str
    planned: Tuple[PlannedShard, ...]

    def fingerprints(self) -> Tuple[str, ...]:
        """Per-shard content fingerprints, in plan order."""
        return tuple(planned.fingerprint for planned in self.planned)

    @cached_property
    def pieces(self) -> Tuple[ShardPiece, ...]:
        """The pieces in plan order -- what merge routers and locators take."""
        return tuple(planned.piece for planned in self.planned)


@dataclass(frozen=True)
class ShardedStructure:
    """A resolved plan: per-shard structures aligned with ``plan.planned``.

    ``structures[i]`` is ``None`` exactly when ``plan.planned[i]`` is an
    empty piece (no structure is built for it; the merge operator's
    ``empty`` partial stands in at gather time).
    """

    plan: ShardPlan
    structures: Tuple[Optional[Any], ...]

    def built_count(self) -> int:
        """Number of shards holding a live structure."""
        return sum(1 for structure in self.structures if structure is not None)


def _lost_shard_outcome(
    merge: MergeOperator,
    partials: List[Any],
    effective_query: Any,
    failed: List[int],
    engine: "QueryEngine",
    kind: str,
):
    """The per-kind partial-result-or-fail-fast policy, applied after a
    scatter lost one or more shards.

    Union kinds tolerate missing partials: ``any`` over the shards that
    responded is never silently wrong (``True`` is definitely correct;
    ``False`` means "not found in the responding shards" and is returned
    as an explicit :class:`~repro.service.faults.DegradedAnswer` with
    ``partial=True``).  Monoid-combine and k-way kinds need *every* shard
    for a correct answer, so they fail fast with
    :class:`~repro.core.errors.ShardFailedError`.
    """
    if merge.name == "union":
        engine._bump(kind, degraded_answers=1)
        return DegradedAnswer(
            bool(merge.combine(partials, effective_query)),
            reason=f"lost shard(s) {failed} during scatter-gather",
            failed_shards=failed,
        )
    engine._bump(kind, shard_failures=len(failed))
    raise ShardFailedError(
        f"scatter-gather for {kind} lost shard(s) {failed}; "
        f"merge family {merge.name!r} cannot tolerate a missing partial"
    )


class ShardedKernel:
    """Evaluation of one sharded kind over already-resolved shard structures.

    The sharded counterpart of calling ``scheme.answer_fast`` / ``answer`` /
    ``answer_many`` on a monolithic structure: an answer is a function of
    *(structures, query)* and nothing else, so every serve plan -- lazily
    captured shards, or a :class:`ShardedStructure` pinned from a mutable
    version -- evaluates through this one object.  ``tracker is None``
    selects the untracked partials (the production path); any tracker
    selects the cost-charging evaluator the certifier measures.  Pure
    evaluation: nothing here touches the serving counters except the health
    counters a lost shard moves; callers time the call and report
    it through :attr:`settle`, which books scatter time as both
    ``serve_seconds`` and ``shard_serve_seconds``.
    """

    __slots__ = ("_engine", "_kind", "_scheme", "_spec", "settle")

    def __init__(self, engine: "QueryEngine", kind: str, registration: "_Registration"):
        self._engine = engine
        self._kind = kind
        self._scheme = registration.scheme
        self._spec = registration.scheme.sharding
        self.settle = partial(engine._count_serve, kind, sharded=True)

    def route(self, plan: ShardPlan, query: Any) -> Tuple[Any, Sequence[int]]:
        """``(rewritten query, plan positions it scatters to)``."""
        rewrite = self._scheme.rewrite_query
        effective = query if rewrite is None else rewrite(query)
        route = self._spec.route
        if route is None:
            return effective, range(len(plan.planned))
        return effective, list(route(effective, plan.pieces))

    def scatter(
        self,
        plan: ShardPlan,
        structures: Sequence[Optional[Any]],
        positions: Iterable[int],
        effective_query: Any,
        tracker: Any = None,
    ) -> bool:
        """Evaluate one partial per routed position and gather them.

        ``effective_query`` must already be rewritten (see :meth:`route`).
        ``None`` structures contribute the merge operator's ``empty``
        partial.  A shard whose evaluator raises
        :class:`~repro.core.errors.InjectedFaultError` (the lost-shard
        signal; the failure-model tests raise it from a wrapped per-shard
        evaluator) goes through :func:`_lost_shard_outcome`, once the loop
        has asked every routed shard; every other exception (genuine query
        errors, library bugs) keeps propagating unchanged -- misuse must
        stay loud, not partial.
        """
        merge = self._spec.merge
        merge_partial = merge.partial
        evaluate = self._scheme.evaluate
        evaluate_fast = self._scheme.evaluate_fast if tracker is None else None
        charge = NULL_TRACKER if tracker is None else tracker
        planned = plan.planned
        partials: List[Any] = []
        failed: List[int] = []
        for position in positions:
            structure = structures[position]
            if structure is None:
                partials.append(
                    merge.empty(effective_query) if merge.empty is not None else None
                )
                continue
            try:
                if merge_partial is not None:
                    value = merge_partial(
                        structure, effective_query, planned[position].piece.meta, charge
                    )
                elif evaluate_fast is not None:
                    value = bool(evaluate_fast(structure, effective_query))
                else:
                    value = bool(evaluate(structure, effective_query, charge))
            except InjectedFaultError:
                failed.append(position)
                continue
            partials.append(value)
        if failed:
            return _lost_shard_outcome(
                merge, partials, effective_query, failed, self._engine, self._kind
            )
        return bool(merge.combine(partials, effective_query))

    def one(self, sharded: ShardedStructure, query: Any, tracker: Any = None) -> bool:
        """Answer one query: rewrite + route once, then :meth:`scatter`."""
        plan = sharded.plan
        effective, positions = self.route(plan, query)
        return self.scatter(plan, sharded.structures, positions, effective, tracker)

    def many(self, sharded: ShardedStructure, queries: Sequence[Any]) -> List[bool]:
        """Untracked answers for a same-kind group, in input order."""
        one = self.one
        return [one(sharded, query) for query in queries]


class ShardPlanner:
    """Plan and build sharded Pi-structures for a :class:`QueryEngine`.

    The planner is engine-internal (the engine constructs one and resolves
    every session registration with ``shards > 1`` through it); it reuses the engine's
    cache -> store -> build resolution per shard, so each shard artifact gets
    the same corruption handling and double-checked build locking as a
    monolithic artifact.  It never answers a query: evaluation over the
    structures it resolves is :class:`ShardedKernel`.

    Shard builds run on the planner's own pool, never on a caller's thread
    pool: a caller's worker that waited on sibling tasks in its own pool
    could deadlock once all workers wait on builds that cannot be scheduled.
    Build tasks never submit further work, so the planner pool cannot
    deadlock against itself.
    """

    #: Bound on the (kind, dataset fingerprint, K) -> plan memo.
    PLAN_MEMO_ENTRIES = 32

    def __init__(self, engine: "QueryEngine", max_workers: int = 4):
        self._engine = engine
        self._max_workers = max(1, max_workers)
        self._plans: "OrderedDict[Tuple[str, str, int], ShardPlan]" = OrderedDict()
        self._plans_lock = threading.Lock()
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_guard = threading.Lock()
        self._closed = False

    # -- planning --------------------------------------------------------------

    def plan(
        self,
        kind: str,
        registration: "_Registration",
        data: Any,
        data_fingerprint: str,
    ) -> ShardPlan:
        """The shard plan for (kind, data): split + per-shard fingerprints.

        Plans are memoized by ``(kind, dataset fingerprint, K)`` -- content
        addressed, so two objects with equal content share a plan and an
        in-place mutation (new fingerprint) naturally misses.
        """
        memo_key = (kind, data_fingerprint, registration.shards)
        with self._plans_lock:
            plan = self._plans.get(memo_key)
            if plan is not None:
                self._plans.move_to_end(memo_key)
                return plan
        spec: ShardSpec = registration.scheme.sharding
        pieces = spec.split(data, registration.shards)
        planned = tuple(
            PlannedShard(
                piece=piece,
                fingerprint="empty"
                if piece.is_empty()
                else dataset_fingerprint(piece.data),
            )
            for piece in pieces
        )
        plan = ShardPlan(
            kind=kind,
            shards=registration.shards,
            policy=spec.policy,
            planned=planned,
        )
        with self._plans_lock:
            self._plans[memo_key] = plan
            self._plans.move_to_end(memo_key)
            while len(self._plans) > self.PLAN_MEMO_ENTRIES:
                self._plans.popitem(last=False)
        return plan

    def forget(self, fingerprint: str) -> None:
        """Drop memoized plans for a dataset fingerprint (after mutation)."""
        with self._plans_lock:
            stale = [key for key in self._plans if key[1] == fingerprint]
            for key in stale:
                del self._plans[key]

    def shard_key(
        self, registration: "_Registration", plan: ShardPlan, planned: PlannedShard
    ) -> ArtifactKey:
        """Artifact identity of one shard: content fingerprint + shard id."""
        return registration.key(
            planned.fingerprint, f"|s{planned.piece.index}/{plan.shards}"
        )

    # -- building --------------------------------------------------------------

    def _resolve_positions(
        self,
        kind: str,
        registration: "_Registration",
        plan: ShardPlan,
        positions: Iterable[int],
    ) -> List[Optional[Any]]:
        """Structures for the given plan positions (cache, store, or build).

        Returns a plan-length list, ``None`` outside ``positions`` and for
        empty pieces.  Misses are dispatched to the planner pool in parallel.
        """
        engine = self._engine
        structures: List[Optional[Any]] = [None] * len(plan.planned)
        misses: List[Tuple[int, PlannedShard, ArtifactKey]] = []
        for position in positions:
            planned = plan.planned[position]
            if planned.piece.is_empty():
                continue
            key = self.shard_key(registration, plan, planned)
            structure = engine._cache.get(key)
            if structure is not None:
                engine._bump(kind, shard_cache_hits=1)
                structures[position] = structure
            else:
                misses.append((position, planned, key))
        if len(misses) == 1:
            position, planned, key = misses[0]
            structures[position] = engine._resolve_miss(
                kind, registration, key, planned.piece.data, shard=True
            )[0]
        elif misses:
            pool = self._ensure_pool()
            futures = [
                (
                    position,
                    pool.submit(
                        engine._resolve_miss,
                        kind,
                        registration,
                        key,
                        planned.piece.data,
                        shard=True,
                    ),
                )
                for position, planned, key in misses
            ]
            for position, future in futures:
                structures[position] = future.result()[0]
        return structures

    def resolve(
        self,
        kind: str,
        registration: "_Registration",
        data: Any,
        fingerprint: str,
    ) -> ShardedStructure:
        """All shard structures for (kind, data), building misses in parallel.

        Warm path: one memoized plan lookup plus one cache probe per shard.
        Cold path: every missing shard build is dispatched to the planner
        pool (engine stats record per-shard build counts and seconds).

        ``fingerprint`` is the dataset's content identity (an attached
        :class:`~repro.service.dataset.Dataset` computes it once at attach).
        """
        plan = self.plan(kind, registration, data, fingerprint)
        structures = self._resolve_positions(
            kind, registration, plan, range(len(plan.planned))
        )
        return ShardedStructure(plan=plan, structures=tuple(structures))

    # -- lifecycle -------------------------------------------------------------

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._pool_guard:
            if self._closed:
                from repro.core.errors import ServiceError

                raise ServiceError("engine is closed")
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self._max_workers,
                    thread_name_prefix="repro-shard-build",
                )
            return self._pool

    def close(self) -> None:
        """Shut down the shard-build pool; further builds error (idempotent)."""
        with self._pool_guard:
            self._closed = True
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None


def _change_item(change: Any) -> Any:
    """The shard-routable payload of one incremental change record."""
    from repro.incremental.changes import EdgeChange, TupleChange

    if isinstance(change, TupleChange):
        return change.row
    if isinstance(change, EdgeChange):
        return (change.source, change.target)
    return change


def touched_shards(plan: ShardPlan, changes: Iterable[Any], spec: ShardSpec) -> Set[int]:
    """Plan positions a change batch touches (shard-level invalidation).

    Accepts :class:`~repro.incremental.changes.TupleChange` /
    :class:`~repro.incremental.changes.EdgeChange` records or raw changed
    items, routes each through ``spec.locate``, and returns the set of plan
    positions whose shard must be rebuilt.  Any change the spec cannot
    locate degrades conservatively to "all shards".
    """
    pieces = plan.pieces
    everything = set(range(len(pieces)))
    if spec.locate is None:
        return everything
    touched: Set[int] = set()
    for change in changes:
        position = spec.locate(_change_item(change), pieces)
        if position is None:
            return everything
        touched.add(position)
    return touched


def plan_diff(old: ShardPlan, new: ShardPlan) -> Tuple[Set[int], Set[int]]:
    """``(reused, rebuilt)`` plan positions between two plans of the same kind.

    A shard is *reused* when a shard with the same id carries the same
    content fingerprint in both plans (its artifact resolves warm); anything
    else in the new plan is *rebuilt*.  Used by tests and the sharding
    benchmark to verify that change batches only rebuild touched shards.
    """
    old_by_id: Dict[int, str] = {
        planned.piece.index: planned.fingerprint for planned in old.planned
    }
    reused: Set[int] = set()
    rebuilt: Set[int] = set()
    for position, planned in enumerate(new.planned):
        if old_by_id.get(planned.piece.index) == planned.fingerprint:
            reused.add(position)
        else:
            rebuilt.add(position)
    return reused, rebuilt
