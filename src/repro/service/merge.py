"""Shard specs and per-kind merge operators for scatter-gather serving.

The paper's parallel-feasibility argument (Definition 1, Section 3) is that a
Pi-structure can be attacked with polylog *parallel* work.  Sharding makes
that operational: a dataset is partitioned into K pieces, each piece gets its
own small Pi-structure, and a query is answered by *scatter* (evaluate a
per-shard partial result on every relevant shard) followed by *gather*
(combine the partials with a kind-specific merge operator).

Three merge families cover every shardable case study:

``union``
    Boolean existential queries (membership, point/range selection): the
    per-shard answer is already a Boolean and the gather is disjunction.
``monoid combine``
    Aggregate queries (RMQ-style): each shard emits a partial aggregate --
    e.g. ``(min value, leftmost global argmin)`` -- and the gather folds an
    associative, commutative combine over them.
``k-way merge``
    Order-sensitive queries (top-k): each shard emits its local top-k
    candidates as a sorted run and the gather k-way merges the runs.

A scheme opts into sharding by attaching a :class:`ShardSpec` (split
function + merge operator + optional query router) to
``PiScheme.sharding``; see :mod:`repro.queries.membership` for the simplest
example and :mod:`repro.service.sharding` for the planner that consumes it.

Hash splits share one partition rule, :func:`stable_bucket`.  An integer's
bucket is the CRC-32 of its 8-byte little-endian word (``v mod 2**64``)
modulo K; any other value's is the CRC-32 of its canonical ``repr``.  The
integer rule is one C call per value, and it is exact in bulk: for a fixed
8-byte length CRC-32 is affine over GF(2), so a whole column's CRCs are a
constant XOR one table share per byte, a ``bytes.translate`` per byte lane
(:func:`stable_buckets`).  Shard artifacts are keyed by content, so a shard
written under an earlier rule is simply a miss.

    >>> from repro.service.merge import union_merge, stable_bucket
    >>> union_merge().combine([False, True, False], None)
    True
    >>> stable_bucket("some row", 4) == stable_bucket("some row", 4)
    True
    >>> stable_bucket(1, 4) == stable_bucket(1.0, 4) == stable_bucket(True, 4)
    True
"""

from __future__ import annotations

import heapq
import sys
import zlib
from dataclasses import dataclass
from itertools import islice
from typing import Any, Callable, List, Optional, Sequence

from repro.core.cost import CostTracker
from repro.indexes import columns

__all__ = [
    "ShardPiece",
    "MergeOperator",
    "ShardSpec",
    "union_merge",
    "monoid_merge",
    "kway_merge",
    "stable_bucket",
    "stable_buckets",
    "range_blocks",
]

#: Per-shard partial evaluator: ``(structure, query, piece_meta, tracker) ->
#: partial result``.  ``None`` on a :class:`MergeOperator` means "use the
#: scheme's ordinary Boolean ``evaluate``" (the union case).
PartialFn = Callable[[Any, Any, Any, CostTracker], Any]
#: Gather: ``(partials, query) -> bool``; partials arrive in shard order.
CombineFn = Callable[[List[Any], Any], bool]


@dataclass(frozen=True)
class ShardPiece:
    """One shard of a partitioned dataset.

    Parameters
    ----------
    index:
        Shard id within the plan (part of the artifact identity).
    count:
        Total number of shards K the plan was built for.
    data:
        The shard's dataset, of the *same type* as the whole dataset, so the
        scheme's ordinary ``preprocess`` builds the shard structure unchanged.
    meta:
        Policy metadata the merge operator may need at gather time; range
        policies store ``{"offset": o, "length": l}`` here so positional
        queries can be rebased into shard-local coordinates.
    """

    index: int
    count: int
    data: Any
    meta: Any = None

    def is_empty(self) -> bool:
        """True when the shard holds no data (no structure is built for it)."""
        try:
            return len(self.data) == 0
        except TypeError:
            return self.data is None


@dataclass(frozen=True)
class MergeOperator:
    """How per-shard partial results become one answer.

    Parameters
    ----------
    name:
        Taxonomy label (``"union"``, ``"monoid"``, ``"kway"``) surfaced in
        reprs and docs.
    combine:
        Gather function ``(partials, query) -> bool``.
    partial:
        Optional scatter function ``(structure, query, meta, tracker) ->
        partial``; when absent the scheme's Boolean ``evaluate`` is the
        partial (union semantics).
    empty:
        Partial result for a shard that holds no data, ``(query) -> partial``
        (e.g. ``False`` for union, ``None`` -- the monoid identity -- for
        aggregates).
    """

    name: str
    combine: CombineFn
    partial: Optional[PartialFn] = None
    empty: Optional[Callable[[Any], Any]] = None


def union_merge() -> MergeOperator:
    """Disjunction gather for existential queries (membership, selection).

    Returns a :class:`MergeOperator` whose partial is the scheme's own
    Boolean evaluator and whose gather is ``any``; an empty shard
    contributes ``False``.
    """
    return MergeOperator(
        name="union",
        combine=lambda partials, query: any(partials),
        empty=lambda query: False,
    )


def monoid_merge(
    partial: PartialFn,
    fold: Callable[[Any, Any], Any],
    finalize: Callable[[Any, Any], bool],
    *,
    name: str = "monoid",
) -> MergeOperator:
    """Associative-combine gather for aggregate queries (RMQ/LCA-style).

    Parameters
    ----------
    partial:
        Scatter function producing a shard's partial aggregate, or ``None``
        when the query does not touch the shard (the monoid identity).
    fold:
        Associative binary combine over two non-identity partials.
    finalize:
        ``(folded aggregate or None, query) -> bool`` final answer.

    Returns the assembled :class:`MergeOperator`; ``None`` partials (empty or
    untouched shards) are skipped by the fold.
    """

    def combine(partials: List[Any], query: Any) -> bool:
        accumulated = None
        for part in partials:
            if part is None:
                continue
            accumulated = part if accumulated is None else fold(accumulated, part)
        return bool(finalize(accumulated, query))

    return MergeOperator(
        name=name, combine=combine, partial=partial, empty=lambda query: None
    )


def kway_merge(
    partial: PartialFn,
    finalize: Callable[[List[Any], Any], bool],
    *,
    name: str = "kway",
) -> MergeOperator:
    """Sorted-run gather for order-sensitive queries (top-k, ranked range).

    Parameters
    ----------
    partial:
        Scatter function producing a shard's sorted candidate run (plus any
        bookkeeping ``finalize`` needs, e.g. the shard's cardinality).
    finalize:
        ``(non-empty partials, query) -> bool``; typically k-way merges the
        runs with :func:`merge_sorted_desc` and inspects the k-th candidate.

    Returns the assembled :class:`MergeOperator`; empty shards are dropped
    before ``finalize`` sees the partial list.
    """

    def combine(partials: List[Any], query: Any) -> bool:
        present = [part for part in partials if part is not None]
        return bool(finalize(present, query))

    return MergeOperator(
        name=name, combine=combine, partial=partial, empty=lambda query: None
    )


def merge_sorted_desc(runs: Sequence[Sequence[Any]], count: int) -> List[Any]:
    """The ``count`` largest elements of descending-sorted ``runs`` (k-way merge)."""
    return list(islice(heapq.merge(*runs, reverse=True), count))


def _canonical(value: Any) -> Any:
    """Collapse ==-equal numeric aliases to one representative.

    The structures compare with ``==``, and ``1 == 1.0 == True ==
    numpy.int64(1)`` while their types and reprs differ.  Every
    ``numbers.Integral`` (bools, ``IntEnum`` members, numpy integers) and
    every integer-valued float therefore canonicalizes to ``int``
    (recursively through tuples/lists, for row-shaped items) so equal values
    always land in the same bucket.  Over-merging distinct values is
    harmless; splitting equal values would break the K-vs-1 equivalence
    contract.
    """
    if type(value) is int or isinstance(value, str):
        return value
    if isinstance(value, (tuple, list)):
        return tuple(map(_canonical, value))
    if isinstance(value, float):
        return int(value) if value.is_integer() else value
    if isinstance(value, int):  # bools, IntEnum members
        return int(value)
    # Any other Integral (numpy's) registered through ``numbers``, so it is
    # imported already; a worker's boot does not pay for importing it here.
    numbers = sys.modules.get("numbers")
    return int(value) if numbers and isinstance(value, numbers.Integral) else value


def stable_bucket(value: Any, buckets: int) -> int:
    """Run-independent hash partition of ``value`` into ``[0, buckets)``.

    An integer (after :func:`_canonical`) hashes as its 8-byte word:
    ``zlib.crc32((v % 2**64).to_bytes(8, "little")) % buckets``, one C call.
    Anything else hashes as ``zlib.crc32(repr(_canonical(value)))``.  Like
    :func:`repro.core.query.stable_seed` this is deliberately *not* Python's
    process-salted ``hash``, so the same element lands in the same shard in
    every process, which is what makes shard artifacts shareable across
    processes, and a change batch alter only the shards its items hash to.
    """
    if buckets < 1:
        raise ValueError("bucket count must be at least 1")
    if type(value) is not int:
        value = _canonical(value)
        if type(value) is not int:
            return zlib.crc32(repr(value).encode("utf-8")) % buckets
    return zlib.crc32((value % 2**64).to_bytes(8, "little")) % buckets


def stable_buckets(values: Sequence[Any], buckets: int) -> List[int]:
    """:func:`stable_bucket` of every element, in order.

    A plain-``int`` run goes through :func:`columns.word_crc_buckets
    <repro.indexes.columns.word_crc_buckets>`, which computes the same CRCs
    for a whole column at once; anything else goes through a call each.
    """
    if buckets < 1:
        raise ValueError("bucket count must be at least 1")
    if set(map(type, values)) == {int}:
        return columns.word_crc_buckets(values, buckets)
    return [stable_bucket(value, buckets) for value in values]


def range_blocks(length: int, shards: int) -> List[tuple]:
    """Balanced contiguous ``(offset, length)`` blocks covering ``length`` slots.

    The first ``length % shards`` blocks are one element longer; empty blocks
    (when ``shards > length``) are omitted.  Block boundaries depend only on
    ``(length, shards)``, so an in-place point mutation leaves every other
    block's content -- and hence its content-addressed artifact -- unchanged.
    """
    if shards < 1:
        raise ValueError("shard count must be at least 1")
    base, extra = divmod(length, shards)
    blocks: List[tuple] = []
    offset = 0
    for index in range(shards):
        block_length = base + (1 if index < extra else 0)
        if block_length == 0:
            continue
        blocks.append((offset, block_length))
        offset += block_length
    return blocks


@dataclass(frozen=True)
class ShardSpec:
    """A scheme's declaration of how its datasets shard and its answers merge.

    Which shards a change batch rebuilds is not declared here: shard
    artifacts are keyed by each piece's content, so after a change only the
    pieces whose content differs miss the cache and the store.

    Parameters
    ----------
    split:
        ``(data, K) -> [ShardPiece]``.  Hash splits (content buckets) return
        exactly K pieces with ``piece.index`` equal to its position
        (possibly empty pieces) so routers can index by bucket; range splits
        (contiguous blocks, preserving positional structure for offset-based
        queries like RMQ) may omit empty blocks.
    merge:
        The :class:`MergeOperator` gathering per-shard partials.
    route:
        Optional scatter pruner ``(query, pieces) -> positions`` limiting
        which shards a query touches (``None`` = broadcast to all).
    """

    split: Callable[[Any, int], List[ShardPiece]]
    merge: MergeOperator
    route: Optional[Callable[[Any, Sequence[ShardPiece]], Sequence[int]]] = None
