"""Minimum range queries: the problem L2 (paper, Section 4(3)).

``RMQ_A(i, j)`` returns the position of the (leftmost) minimum of
A[i..j].  L2 is a search problem; following the paper's remark it is
converted to the Boolean class "is position p the leftmost argmin of
A[i..j]?".  The Pi-scheme is the Fischer--Heun structure [18]: linear
preprocessing, O(1) per query; the sparse table is provided as a second
certified scheme.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.core.cost import CostTracker
from repro.core.errors import DeltaError
from repro.core.query import PiScheme, QueryClass, state_codec
from repro.incremental.changes import PointWrite
from repro.indexes.rmq import FischerHeunRMQ
from repro.indexes.sparse_table import SparseTable, check_rmq_range, naive_range_min
from repro.service.merge import ShardPiece, ShardSpec, monoid_merge, range_blocks

__all__ = ["rmq_class", "rmq_shard_spec", "fischer_heun_scheme", "sparse_table_scheme"]

ArrayData = Tuple[int, ...]
RMQQuery = Tuple[int, int, int]  # (i, j, p): is p the leftmost argmin of A[i..j]?


def _generate_array(size: int, rng: random.Random) -> ArrayData:
    return tuple(rng.randint(-size, size) for _ in range(size))


def _generate_rmq_queries(data: ArrayData, rng: random.Random, count: int) -> List[RMQQuery]:
    n = len(data)
    queries: List[RMQQuery] = []
    for index in range(n and count):
        i = rng.randrange(n)
        j = rng.randrange(i, n)
        if index % 2 == 0:
            position = naive_range_min(data, i, j)  # a yes-instance
        else:
            position = rng.randrange(i, j + 1)  # usually a no-instance
        queries.append((i, j, position))
    return queries


def _naive_rmq(data: ArrayData, query: RMQQuery, tracker: CostTracker) -> bool:
    i, j, position = query
    return naive_range_min(data, i, j, tracker) == position


def rmq_class() -> QueryClass:
    """Boolean MRQ: data is a static array, queries are (i, j, p) triples."""
    return QueryClass(
        name="minimum-range-query",
        evaluate=_naive_rmq,
        generate_data=_generate_array,
        generate_queries=_generate_rmq_queries,
        data_size=len,
        description="is p the leftmost argmin of A[i..j] (paper, Section 4(3))",
    )


def _split_array(data: ArrayData, shards: int) -> List[ShardPiece]:
    """Range-partition A into balanced contiguous blocks (offset metadata).

    Block boundaries depend only on ``(len(A), shards)``, so an in-place
    point write leaves every other block's content-addressed artifact warm.
    """
    return [
        ShardPiece(
            index=i,
            count=shards,
            data=tuple(data[offset : offset + length]),
            meta={"offset": offset, "length": length},
        )
        for i, (offset, length) in enumerate(range_blocks(len(data), shards))
    ]


def _route_window(query: RMQQuery, pieces) -> List[int]:
    """Scatter only to blocks overlapping the query window [i, j].

    Malformed windows raise exactly like the monolithic indexes do, so the
    sharded path never silently clamps a query the scheme would reject.
    """
    i, j, _position = query
    check_rmq_range(i, j, sum(piece.meta["length"] for piece in pieces))
    return [
        position
        for position, piece in enumerate(pieces)
        if piece.meta["offset"] <= j
        and piece.meta["offset"] + piece.meta["length"] - 1 >= i
    ]


def _rmq_partial(index, query: RMQQuery, meta, tracker: CostTracker):
    """A block's partial aggregate: (min value, leftmost *global* argmin).

    The query window is rebased into block-local coordinates; a block the
    window misses entirely contributes the monoid identity (None).
    """
    i, j, _position = query
    low = max(i - meta["offset"], 0)
    high = min(j - meta["offset"], meta["length"] - 1)
    if low > high:
        return None
    local = index.argmin(low, high, tracker)
    return (index.value_at(local), meta["offset"] + local)


def rmq_shard_spec() -> ShardSpec:
    """Monoid-combine sharding for L2: fold (value, position) minima.

    Lexicographic ``min`` over ``(value, global position)`` pairs is
    associative and commutative and ties break leftmost -- exactly the
    semantics of :func:`repro.indexes.sparse_table.naive_range_min` -- so
    the gather answers "is p the leftmost argmin of A[i..j]?" exactly.
    """
    return ShardSpec(
        split=_split_array,
        merge=monoid_merge(
            _rmq_partial,
            fold=min,
            finalize=lambda best, query: best is not None and best[1] == query[2],
            name="monoid[min,leftmost]",
        ),
        route=_route_window,
    )


def _apply_array_delta(index, changes, tracker: CostTracker):
    """Fold a PointWrite batch into an RMQ structure (batch-atomic).

    Arrays keep their length under maintenance (L2 is defined over a static
    index space), so only :class:`~repro.incremental.changes.PointWrite`
    records are accepted; inserts/deletes fall back to a rebuild.  Both RMQ
    structures repair locally -- one block re-signature, one word re-mask and
    a word-table fix for Fischer--Heun, the dyadic windows the write moved
    for the sparse table.
    """
    size = len(index)
    for change in changes:
        if not isinstance(change, PointWrite):
            raise DeltaError(
                f"RMQ structures maintain PointWrite batches only, "
                f"got {type(change).__name__}"
            )
        if not 0 <= change.position < size:
            raise DeltaError(f"point write at {change.position} outside [0, {size})")
    for change in changes:
        index.point_update(change.position, change.value, tracker)
    return index


def fischer_heun_scheme() -> PiScheme:
    """[18]: O(n) preprocessing, O(1) queries."""

    def preprocess(data: ArrayData, tracker: CostTracker) -> FischerHeunRMQ:
        return FischerHeunRMQ(data, tracker)

    def evaluate(index: FischerHeunRMQ, query: RMQQuery, tracker: CostTracker) -> bool:
        i, j, position = query
        return index.argmin(i, j, tracker) == position

    def evaluate_fast(index: FischerHeunRMQ, query: RMQQuery) -> bool:
        i, j, position = query
        return index.argmin_fast(i, j) == position

    dump, load = state_codec(FischerHeunRMQ.from_state)
    return PiScheme(
        name="fischer-heun",
        preprocess=preprocess,
        evaluate=evaluate,
        description="block decomposition + Cartesian signatures (O(1) query)",
        dump=dump,
        load=load,
        artifact_version=7,  # v7: patched byte columns, the table ids packed (indexes/columns.pack)
        sharding=rmq_shard_spec(),
        apply_delta=_apply_array_delta,
        evaluate_fast=evaluate_fast,
    )


def sparse_table_scheme() -> PiScheme:
    """The O(n log n)-space alternative with the same O(1) query bound."""

    def preprocess(data: ArrayData, tracker: CostTracker) -> SparseTable:
        return SparseTable(data, tracker)

    def evaluate(index: SparseTable, query: RMQQuery, tracker: CostTracker) -> bool:
        i, j, position = query
        return index.argmin(i, j, tracker) == position

    def evaluate_fast(index: SparseTable, query: RMQQuery) -> bool:
        i, j, position = query
        return index.argmin_fast(i, j) == position

    dump, load = state_codec(SparseTable.from_state)
    return PiScheme(
        name="sparse-table",
        preprocess=preprocess,
        evaluate=evaluate,
        description="dyadic-window sparse table (O(1) query)",
        dump=dump,
        load=load,
        artifact_version=5,  # v5: patched byte columns (indexes/columns.pack)
        sharding=rmq_shard_spec(),
        apply_delta=_apply_array_delta,
        evaluate_fast=evaluate_fast,
    )
