"""Sharded Pi-structures: partitioned preprocessing with scatter-gather serving.

A monolithic Pi-structure makes build cost and memory scale with a single
process.  :func:`plan_shards` instead partitions a dataset into K shards
(split declared per scheme via :class:`~repro.service.merge.ShardSpec`) --
a pure function of (content, K).  The engine resolves each shard through
the same cache -> store -> build layers as a monolithic structure
(``QueryEngine._resolve_shards``, misses built *in parallel* on the
engine's shard-build pool), so every shard is an independent
:class:`~repro.service.artifacts.ArtifactStore` artifact.  A session's
serve plan resolves every shard once, when the plan is built.  Answering is
the :class:`ShardedKernel`'s job: rewrite and route a query once, then one
scatter loop over the resolved :class:`ShardedStructure`, gathered through
the scheme's merge operator.

Shard artifacts are **content-addressed**: each is keyed by the shard's own
dataset fingerprint plus ``(shard id, K, scheme, params)``.  That is what
makes shard-level invalidation automatic -- after an
:mod:`repro.incremental` change batch mutates a dataset, re-planning yields
identical fingerprints for every untouched shard, so their artifacts are
cache/store hits and only the touched shards pay a rebuild.  No router
predicts which shards a change touches: the content key decides.

    >>> from repro.queries import membership_class, sorted_run_scheme
    >>> from repro.service.engine import QueryEngine
    >>> engine = QueryEngine()
    >>> engine.register("membership", membership_class(), sorted_run_scheme())
    >>> ds = engine.attach("numbers", tuple(range(100)), shards=4)
    >>> _ = ds.warm()  # builds all four shards in parallel
    >>> engine.stats().per_kind["membership"].shard_builds
    4
    >>> ds.query("membership", 17)  # routed: one shard asked, no cache probe
    True
    >>> engine.close()
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Sequence, Tuple

from repro.core.cost import NULL_TRACKER
from repro.service.merge import ShardPiece, ShardSpec
from repro.storage.fingerprint import dataset_fingerprint

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.service.engine import QueryEngine, _Registration

__all__ = [
    "PlannedShard",
    "ShardPlan",
    "ShardedStructure",
    "ShardedKernel",
    "plan_shards",
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
    yields the same fingerprints, which is what shard artifact reuse relies
    on.
    """

    kind: str
    shards: int
    planned: Tuple[PlannedShard, ...]

    @cached_property
    def pieces(self) -> Tuple[ShardPiece, ...]:
        """The pieces in plan order -- what merge routers take."""
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


class ShardedKernel:
    """Evaluation of one sharded kind over already-resolved shard structures.

    The sharded counterpart of calling ``scheme.answer_fast`` / ``answer`` /
    ``answer_many`` on a monolithic structure: an answer is a function of
    *(structures, query)* and nothing else, so every serve plan -- the
    :class:`ShardedStructure` an immutable plan resolved at build (through
    :meth:`bind`), or one pinned from a mutable version -- evaluates
    through this one object.  ``tracker is None``
    selects the untracked partials (the production path); any tracker
    selects the cost-charging evaluator the certifier measures.  Pure
    evaluation: nothing here touches a counter; callers time the call and
    report it through :attr:`settle`, which books scatter time as both
    ``serve_seconds`` and ``shard_serve_seconds``.
    """

    __slots__ = ("_scheme", "_spec", "settle")

    def __init__(self, engine: "QueryEngine", kind: str, registration: "_Registration"):
        self._scheme = registration.scheme
        self._spec = registration.scheme.sharding
        self.settle = partial(engine._count_serve, kind, sharded=True)

    def one(self, sharded: ShardedStructure, query: Any, tracker: Any = None) -> bool:
        """Answer one query: rewrite and route it once, then evaluate one
        partial per routed shard and gather them.

        ``None`` structures (empty pieces) contribute the merge operator's
        ``empty`` partial.  A shard whose evaluator raises fails the whole
        answer: the exception propagates unchanged, exactly as a monolithic
        kernel's would, so an answer is the naive one or an exception.
        """
        plan, structures = sharded.plan, sharded.structures
        rewrite = self._scheme.rewrite_query
        effective_query = query if rewrite is None else rewrite(query)
        spec = self._spec
        positions = (
            range(len(structures)) if spec.route is None
            else spec.route(effective_query, plan.pieces)
        )
        merge = spec.merge
        merge_partial = merge.partial
        evaluate = self._scheme.evaluate
        evaluate_fast = self._scheme.evaluate_fast if tracker is None else None
        charge = NULL_TRACKER if tracker is None else tracker
        planned = plan.planned
        partials: List[Any] = []
        for position in positions:
            structure = structures[position]
            if structure is None:
                partials.append(
                    merge.empty(effective_query) if merge.empty is not None else None
                )
            elif merge_partial is not None:
                partials.append(merge_partial(
                    structure, effective_query, planned[position].piece.meta, charge
                ))
            elif evaluate_fast is not None:
                partials.append(bool(evaluate_fast(structure, effective_query)))
            else:
                partials.append(bool(evaluate(structure, effective_query, charge)))
        return bool(merge.combine(partials, effective_query))

    def many(self, sharded: ShardedStructure, queries: Sequence[Any]) -> List[bool]:
        """Untracked answers for a same-kind group, in input order."""
        one = self.one
        return [one(sharded, query) for query in queries]

    def bind(self, sharded: ShardedStructure) -> Tuple[Callable, Callable]:
        """``(answer_one, answer_many)`` bound to one resolved
        :class:`ShardedStructure` -- what an immutable serve plan calls."""
        return partial(self.one, sharded), partial(self.many, sharded)


def plan_shards(kind: str, registration: "_Registration", data: Any) -> ShardPlan:
    """The shard plan for (kind, data): the scheme's split plus one content
    fingerprint per non-empty piece.

    A pure function of (content, K), so nothing memoizes it: re-planning
    equal content yields equal fingerprints, which is what shard artifact
    reuse (:meth:`~repro.service.engine._Registration.shard_key`) relies on.
    """
    spec: ShardSpec = registration.scheme.sharding
    planned = tuple(
        PlannedShard(
            piece=piece,
            fingerprint="empty" if piece.is_empty() else dataset_fingerprint(piece.data),
        )
        for piece in spec.split(data, registration.shards)
    )
    return ShardPlan(kind=kind, shards=registration.shards, planned=planned)
