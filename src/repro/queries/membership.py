"""Searching in a list: the decision problem L1 (paper, Section 4(2)).

Input an unordered list M and an element e; does e appear in M?  The paper's
factorization Upsilon1 treats M as data and e as the query; preprocessing
sorts M in O(|M| log |M|) and every membership query becomes an O(log |M|)
binary search.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.core.cost import CostTracker
from repro.core.errors import DeltaError
from repro.core.factorization import Factorization
from repro.core.language import DecisionProblem
from repro.core.query import PiScheme, QueryClass, state_codec
from repro.incremental.changes import ChangeKind, TupleChange
from repro.indexes.sorted_run import SortedRunIndex
from repro.service.merge import (
    ShardPiece,
    ShardSpec,
    stable_bucket,
    stable_buckets,
    union_merge,
)

__all__ = [
    "membership_class",
    "membership_shard_spec",
    "sorted_run_scheme",
    "membership_problem",
    "membership_factorization",
]

ListData = Tuple[int, ...]


def _generate_list(size: int, rng: random.Random) -> ListData:
    return tuple(rng.randint(0, 4 * size) for _ in range(size))


def _generate_elements(data: ListData, rng: random.Random, count: int) -> List[int]:
    queries = []
    for index in range(count):
        if data and index % 2 == 0:
            queries.append(data[rng.randrange(len(data))])
        else:
            queries.append(rng.randint(0, 4 * max(len(data), 1)))
    return queries


def _naive_membership(data: ListData, element: int, tracker: CostTracker) -> bool:
    for value in data:
        tracker.tick(1)
        if value == element:
            return True
    return False


def membership_class() -> QueryClass:
    """The query class of (L1, Upsilon1): lists as data, elements as queries."""
    return QueryClass(
        name="list-membership",
        evaluate=_naive_membership,
        generate_data=_generate_list,
        generate_queries=_generate_elements,
        data_size=len,
        description="does element e appear in unordered list M (Section 4(2))",
    )


def _split_list(data: ListData, shards: int) -> List[ShardPiece]:
    """Hash-partition M into ``shards`` buckets (all K pieces kept, possibly
    empty, so the element router can index by bucket)."""
    buckets: List[List[int]] = [[] for _ in range(shards)]
    for value, bucket in zip(data, stable_buckets(data, shards)):
        buckets[bucket].append(value)
    return [
        ShardPiece(index=i, count=shards, data=tuple(bucket))
        for i, bucket in enumerate(buckets)
    ]


def _route_element(element: int, pieces) -> List[int]:
    """An element can only live in its own hash bucket: scatter to one shard."""
    return [stable_bucket(element, len(pieces))]


def membership_shard_spec() -> ShardSpec:
    """Union sharding for L1: hash-bucket the list, route e to its bucket.

    Membership is existential, so the gather is plain disjunction -- and
    because the partition is by element content, both queries and change
    batches route to exactly one shard.
    """
    return ShardSpec(
        split=_split_list,
        merge=union_merge(),
        route=_route_element,
    )


def _apply_list_delta(index: SortedRunIndex, changes, tracker: CostTracker) -> SortedRunIndex:
    """Fold a TupleChange batch into the sorted run: O(log n) locate each.

    Elements travel as one-tuples (``TupleChange(kind, (value,))``), the row
    shape :class:`~repro.service.mutable.MutableContent` uses for flat value
    lists.  Deleting an absent element is a no-op (bag semantics).
    """
    for change in changes:
        if not isinstance(change, TupleChange) or len(change.row) != 1:
            raise DeltaError(
                "sort+binary-search maintains TupleChange((value,)) batches "
                f"only, got {change!r}"
            )
    for change in changes:
        if change.kind is ChangeKind.INSERT:
            index.insert_value(change.row[0], tracker)
        else:
            index.delete_value(change.row[0], tracker)
    return index


def sorted_run_scheme() -> PiScheme:
    """Sort once (PTIME), binary-search per query (O(log n))."""

    def preprocess(data: ListData, tracker: CostTracker) -> SortedRunIndex:
        return SortedRunIndex(data, tracker)

    def evaluate(index: SortedRunIndex, element: int, tracker: CostTracker) -> bool:
        return index.contains(element, tracker)

    dump, load = state_codec(SortedRunIndex.from_state)
    return PiScheme(
        name="sort+binary-search",
        preprocess=preprocess,
        evaluate=evaluate,
        description="sort M, then O(log|M|) binary search (Section 4(2))",
        dump=dump,
        load=load,
        artifact_version=5,  # v5: patched gaps (indexes/columns.pack_sorted)
        sharding=membership_shard_spec(),
        apply_delta=_apply_list_delta,
        evaluate_fast=SortedRunIndex.contains_fast,
        evaluate_many=SortedRunIndex.contains_many,
    )


def membership_problem() -> DecisionProblem:
    """L1 as a decision problem over instances (M, e)."""

    def contains(instance: Tuple[ListData, int], tracker: CostTracker) -> bool:
        data, element = instance
        return _naive_membership(data, element, tracker)

    def generate(size: int, rng: random.Random) -> Tuple[ListData, int]:
        data = _generate_list(size, rng)
        return data, _generate_elements(data, rng, 1)[0]

    return DecisionProblem(
        name="L1-list-search",
        contains=contains,
        generate=generate,
        description="searching in a list (paper, Section 4(2))",
    )


def membership_factorization() -> Factorization:
    """Upsilon1: pi1 = M, pi2 = e (paper, Section 4(2))."""
    return Factorization(
        name="Upsilon1[list-search]",
        pi1=lambda instance: instance[0],
        pi2=lambda instance: instance[1],
        rho=lambda data, query: (data, query),
        description="list as data, element as query",
    )
