"""Top-k queries with early termination (paper, Section 8, open issue (5)).

The paper's closing section conjectures that "top-k query answering with
early termination [14] may be made Pi-tractable" -- finding the top-k
answers without computing all of Q(D).  This module implements the cited
machinery, Fagin's Threshold Algorithm (TA) [Fagin, Lotem, Naor, JCSS 2003]:

* **preprocessing** builds, per score attribute, a descending sorted list
  plus O(1) random access to each object's full score vector (PTIME);
* **queries** ``(weights, k, theta)`` ask (Boolean form, per the paper's
  convention): *is the k-th largest weighted score at least theta?*  TA
  walks the sorted lists round-robin, maintains the current top-k, and stops
  as soon as the threshold -- the best score any unseen object could still
  achieve -- decides the answer.

TA is instance-optimal but not worst-case polylog, so the class is *not*
registered as PiT0Q; the EXT-TOPK experiment measures how far early
termination gets on random and correlated data, which is precisely what the
paper's open issue asks ("under certain conditions").
"""

from __future__ import annotations

import heapq
import random
from typing import Dict, List, Sequence, Tuple

from repro.core.cost import CostTracker, ensure_tracker
from repro.core.errors import IndexError_
from repro.core.query import PiScheme, QueryClass, state_codec
from repro.incremental.changes import ChangeKind, TupleChange
from repro.indexes.columns import pack, pack_sorted, unpack
from repro.service.merge import (
    ShardPiece,
    ShardSpec,
    kway_merge,
    merge_sorted_desc,
    stable_buckets,
)

__all__ = ["TopKIndex", "topk_class", "topk_shard_spec", "threshold_algorithm_scheme"]

#: Data: a list of score rows (one score per attribute, floats kept as ints
#: for exact arithmetic).  Query: (weights, k, theta).
ScoreTable = Tuple[Tuple[int, ...], ...]
TopKQuery = Tuple[Tuple[int, ...], int, int]


class TopKIndex:
    """Per-attribute descending sorted lists + random access (TA's inputs).

    Rows live in a dict keyed by a stable, never-reused row id, so delta
    maintenance (Section 4(7)) can insert and delete rows without renumbering
    the ``(score, row id)`` entries of the sorted lists.  Every sorted list
    holds exactly one entry per live row, which is the invariant the TA walk
    (``range(len(self.rows))`` sorted-access rounds) relies on.
    """

    def __init__(self, table: ScoreTable, tracker: CostTracker | None = None):
        tracker = ensure_tracker(tracker)
        if not table:
            raise ValueError("top-k index needs at least one row")
        self.arity = len(table[0])
        self.rows: Dict[int, Tuple[int, ...]] = {
            row_id: tuple(row) for row_id, row in enumerate(table)
        }
        self._next_id = len(table)
        self.sorted_lists: List[List[Tuple[int, int]]] = []
        n = len(table)
        import math

        for attribute in range(self.arity):
            entries = sorted(
                ((row[attribute], row_id) for row_id, row in self.rows.items()),
                reverse=True,
            )
            if n > 1:
                tracker.tick(n * math.ceil(math.log2(n)))
            self.sorted_lists.append(entries)
        self._ids_by_row = self._derive_ids_by_row()

    def _derive_ids_by_row(self) -> Dict[Tuple[int, ...], List[int]]:
        ids: Dict[Tuple[int, ...], List[int]] = {}
        for row_id, row in self.rows.items():
            ids.setdefault(row, []).append(row_id)
        return ids

    def __len__(self) -> int:
        return len(self.rows)

    # -- delta maintenance (paper, Section 4(7)) ------------------------------

    @staticmethod
    def _desc_key(entry: Tuple[int, int]) -> Tuple[int, int]:
        # The sorted lists are descending tuples; bisect needs an ascending
        # view, so compare by the negated entry.
        return (-entry[0], -entry[1])

    def insert_row(self, row: Sequence[int], tracker: CostTracker | None = None) -> None:
        """Add one score row: O(log n) locate per attribute list."""
        tracker = ensure_tracker(tracker)
        as_tuple = tuple(row)
        if len(as_tuple) != self.arity:
            raise ValueError(f"row arity {len(as_tuple)} != index arity {self.arity}")
        import bisect
        import math

        row_id = self._next_id
        self._next_id += 1
        self.rows[row_id] = as_tuple
        self._ids_by_row.setdefault(as_tuple, []).append(row_id)
        cost = max(1, math.ceil(math.log2(max(len(self.rows), 2))))
        for attribute, entries in enumerate(self.sorted_lists):
            bisect.insort(entries, (as_tuple[attribute], row_id), key=self._desc_key)
            tracker.tick(cost)

    def delete_row(self, row: Sequence[int], tracker: CostTracker | None = None) -> bool:
        """Remove one occurrence of ``row``; False when it was absent."""
        tracker = ensure_tracker(tracker)
        as_tuple = tuple(row)
        ids = self._ids_by_row.get(as_tuple)
        if not ids:
            return False
        import bisect
        import math

        row_id = ids.pop()
        if not ids:
            del self._ids_by_row[as_tuple]
        del self.rows[row_id]
        cost = max(1, math.ceil(math.log2(max(len(self.rows) + 1, 2))))
        for attribute, entries in enumerate(self.sorted_lists):
            target = (as_tuple[attribute], row_id)
            position = bisect.bisect_left(entries, self._desc_key(target), key=self._desc_key)
            if position >= len(entries) or entries[position] != target:
                # Survives ``python -O``: a desync here means the one-entry-
                # per-live-row invariant is already broken and deleting a
                # neighbor would silently corrupt the TA walk.
                raise IndexError_(
                    f"top-k sorted list {attribute} out of sync with rows "
                    f"(missing entry {target!r})"
                )
            del entries[position]
            tracker.tick(cost)
        return True

    def __deepcopy__(self, memo: dict) -> "TopKIndex":
        """A private copy: new dicts and lists, the row and entry tuples in
        them shared."""
        index = type(self).__new__(type(self))
        index.arity, index._next_id = self.arity, self._next_id
        index.rows = dict(self.rows)
        index.sorted_lists = [entries[:] for entries in self.sorted_lists]
        index._ids_by_row = {row: ids[:] for row, ids in self._ids_by_row.items()}
        return index

    # -- serialization --------------------------------------------------------

    def to_state(self) -> dict:
        """Plain-data snapshot, as typed columns: the row ids (ascending --
        ids are issued in order), one score column per attribute, and each
        descending sorted list as its id column (load re-reads the scores
        from the rows)."""
        return {
            "ids": pack_sorted(list(self.rows)),
            "scores": [pack(column) for column in zip(*self.rows.values())],
            "next_id": self._next_id,
            "sorted_lists": [
                pack([row_id for _score, row_id in entries])
                for entries in self.sorted_lists
            ],
        }

    @classmethod
    def from_state(cls, state: dict) -> "TopKIndex":
        index = cls.__new__(cls)
        scores = zip(*map(unpack, state["scores"]))
        rows = index.rows = dict(zip(unpack(state["ids"]), scores))
        index._next_id = int(state["next_id"])
        index.arity = len(state["scores"])
        index.sorted_lists = [
            [(rows[row_id][attribute], row_id) for row_id in unpack(ids)]
            for attribute, ids in enumerate(state["sorted_lists"])
        ]
        index._ids_by_row = index._derive_ids_by_row()
        return index

    def _ta_rounds(self, weights: Sequence[int], k: int, tracker: CostTracker):
        """The TA sorted-access walk, one round per depth.

        Yields ``(tau, top_scores, accesses)`` after each round: the current
        frontier bound, the (live) min-heap of the best <= k aggregates seen,
        and the cumulative sorted-access count.  Both the theta-deciding
        evaluator and the per-shard top-k partial consume this single walk,
        differing only in their stop condition.
        """
        n = len(self.rows)
        seen: Dict[int, int] = {}
        top_scores: List[int] = []  # min-heap of the best k aggregates
        accesses = 0
        for depth in range(n):
            frontier = []
            for entries in self.sorted_lists:
                score, row_id = entries[depth]
                accesses += 1
                tracker.tick(1)
                frontier.append(score)
                if row_id not in seen:
                    aggregate = sum(
                        weight * value
                        for weight, value in zip(weights, self.rows[row_id])
                    )
                    tracker.tick(self.arity)
                    seen[row_id] = aggregate
                    if len(top_scores) < k:
                        heapq.heappush(top_scores, aggregate)
                    elif aggregate > top_scores[0]:
                        heapq.heapreplace(top_scores, aggregate)
            tau = sum(weight * score for weight, score in zip(weights, frontier))
            tracker.tick(self.arity)
            yield tau, top_scores, accesses

    def kth_score_at_least(
        self,
        weights: Sequence[int],
        k: int,
        theta: int,
        tracker: CostTracker | None = None,
    ) -> Tuple[bool, int]:
        """TA with early termination; returns (answer, sorted accesses).

        Sorted access proceeds one row per list per round; each newly seen
        object is randomly accessed for its full score (the TA recipe).
        Stops when (a) k objects score >= theta (answer True), or (b) the
        threshold tau -- the weighted frontier -- drops below theta and no
        k objects can reach it (answer False), or (c) the classic TA stop:
        k-th best >= tau decides the exact k-th value.
        """
        tracker = ensure_tracker(tracker)
        if k < 1 or len(weights) != self.arity:
            raise ValueError("bad top-k query")
        k = min(k, len(self.rows))
        kth_best, accesses = None, 0
        for tau, top_scores, accesses in self._ta_rounds(weights, k, tracker):
            kth_best = top_scores[0] if len(top_scores) == k else None
            # Early decisions against theta.
            if kth_best is not None and kth_best >= theta:
                return True, accesses
            if tau < theta:
                # No unseen object can reach theta; the k-th best is final
                # with respect to the theta comparison.
                return (kth_best is not None and kth_best >= theta), accesses
            # Classic TA stop: the k-th best dominates the frontier bound.
            if kth_best is not None and kth_best >= tau:
                return kth_best >= theta, accesses
        return (kth_best is not None and kth_best >= theta), accesses

    def kth_score_at_least_fast(
        self, weights: Sequence[int], k: int, theta: int
    ) -> bool:
        """Untracked :meth:`kth_score_at_least` (production serving kernel).

        The same TA walk and the same three stop conditions with zero
        instrumentation -- no per-access ticks, no access counting.  Answer
        equality with the tracked evaluator is pinned by the hot-path
        property suite.
        """
        if k < 1 or len(weights) != self.arity:
            raise ValueError("bad top-k query")
        rows = self.rows
        n = len(rows)
        k = min(k, n)
        seen: Dict[int, int] = {}
        top_scores: List[int] = []
        kth_best = None
        heappush, heapreplace = heapq.heappush, heapq.heapreplace
        for depth in range(n):
            tau = 0
            for weight, entries in zip(weights, self.sorted_lists):
                score, row_id = entries[depth]
                tau += weight * score
                if row_id not in seen:
                    aggregate = sum(
                        w * value for w, value in zip(weights, rows[row_id])
                    )
                    seen[row_id] = aggregate
                    if len(top_scores) < k:
                        heappush(top_scores, aggregate)
                    elif aggregate > top_scores[0]:
                        heapreplace(top_scores, aggregate)
            kth_best = top_scores[0] if len(top_scores) == k else None
            if kth_best is not None and kth_best >= theta:
                return True
            if tau < theta:
                return kth_best is not None and kth_best >= theta
            if kth_best is not None and kth_best >= tau:
                return kth_best >= theta
        return kth_best is not None and kth_best >= theta

    def top_aggregates(
        self,
        weights: Sequence[int],
        k: int,
        tracker: CostTracker | None = None,
    ) -> List[int]:
        """The exact top-``min(k, n)`` weighted aggregates, descending.

        The same TA sorted-access walk as :meth:`kth_score_at_least`, stopped
        by the classic TA condition alone (k-th best dominates the frontier
        bound tau), so the returned run is exact regardless of any theta.
        This is the per-shard *partial* of the k-way merge operator: the
        global top-k is contained in the union of per-shard top-k runs.
        """
        tracker = ensure_tracker(tracker)
        if k < 1 or len(weights) != self.arity:
            raise ValueError("bad top-k request")
        k = min(k, len(self.rows))
        best: List[int] = []
        for tau, top_scores, _accesses in self._ta_rounds(weights, k, tracker):
            best = top_scores
            if len(top_scores) == k and top_scores[0] >= tau:
                break
        return sorted(best, reverse=True)


def _split_table(table: ScoreTable, shards: int) -> List[ShardPiece]:
    """Hash-partition score rows; duplicates co-locate but stay distinct rows."""
    buckets: List[List[Tuple[int, ...]]] = [[] for _ in range(shards)]
    for row, bucket in zip(table, stable_buckets(table, shards)):
        buckets[bucket].append(row)
    return [
        ShardPiece(index=i, count=shards, data=tuple(bucket))
        for i, bucket in enumerate(buckets)
    ]


def _topk_partial(index: "TopKIndex", query: TopKQuery, meta, tracker: CostTracker):
    """A shard's partial: (descending top-k run, shard cardinality).

    Invalid requests (k < 1, wrong weight arity) raise inside
    :meth:`TopKIndex.top_aggregates`, mirroring the monolithic evaluator.
    """
    weights, k, _theta = query
    return index.top_aggregates(weights, k, tracker), len(index)


def _topk_finalize(partials, query: TopKQuery) -> bool:
    """K-way merge the per-shard runs and test the global k-th aggregate."""
    _weights, k, theta = query
    total = sum(size for _run, size in partials)
    if total == 0:
        # Every shard was empty: the monolithic path cannot even build.
        raise ValueError("top-k index needs at least one row")
    k = min(k, total)
    merged = merge_sorted_desc([run for run, _size in partials], k)
    return len(merged) == k and merged[k - 1] >= theta


def topk_shard_spec() -> ShardSpec:
    """K-way-merge sharding for Section 8(5): local TA runs, global k-th test.

    Every shard emits its exact local top-k (TA with early termination);
    the gather k-way merges the sorted runs, so the global k-th weighted
    aggregate -- and hence the Boolean theta comparison -- is exact.
    """
    return ShardSpec(
        split=_split_table,
        merge=kway_merge(_topk_partial, _topk_finalize, name="kway[topk]"),
    )


def _generate_table(size: int, rng: random.Random) -> ScoreTable:
    # Two score attributes, mildly anti-correlated to keep TA honest.
    rows = []
    for _ in range(max(size, 4)):
        first = rng.randint(0, 1000)
        second = max(0, 1000 - first + rng.randint(-200, 200))
        rows.append((first, second))
    return tuple(rows)


def _naive_topk(table: ScoreTable, query: TopKQuery, tracker: CostTracker) -> bool:
    """The no-early-termination baseline: aggregate everything, sort."""
    weights, k, theta = query
    k = min(k, len(table))
    aggregates = []
    for row in table:
        tracker.tick(len(weights))
        aggregates.append(sum(weight * value for weight, value in zip(weights, row)))
    aggregates.sort(reverse=True)
    import math

    tracker.tick(len(aggregates) * max(1, math.ceil(math.log2(max(len(aggregates), 2)))))
    return aggregates[k - 1] >= theta


def _generate_queries(table: ScoreTable, rng: random.Random, count: int) -> List[TopKQuery]:
    queries: List[TopKQuery] = []
    for index in range(count):
        weights = (rng.randint(1, 3), rng.randint(1, 3))
        k = rng.randint(1, 10)
        # Mix thresholds around the plausible top range so answers split.
        scale = sum(weights) * 1000
        if index % 2 == 0:
            theta = rng.randint(scale // 2, scale)
        else:
            theta = rng.randint(0, scale // 2)
        queries.append((weights, k, theta))
    return queries


def topk_class() -> QueryClass:
    return QueryClass(
        name="topk-threshold",
        evaluate=_naive_topk,
        generate_data=_generate_table,
        generate_queries=_generate_queries,
        data_size=len,
        description="is the k-th best weighted score >= theta (paper S8(5), [14])",
    )


def _apply_table_delta(index: TopKIndex, changes, tracker: CostTracker) -> TopKIndex:
    """Fold a TupleChange batch into the TA index (batch-atomic).

    Inserts and deletes cost O(log n) per attribute list; a batch that would
    delete the last row raises :class:`~repro.core.errors.DeltaError` before
    touching anything (the monolithic path cannot even build on an empty
    table, so there is no correct structure to maintain towards).
    """
    from repro.core.errors import DeltaError

    balance = 0
    for change in changes:
        if not isinstance(change, TupleChange):
            raise DeltaError(
                f"threshold-algorithm maintains TupleChange batches only, "
                f"got {type(change).__name__}"
            )
        if len(change.row) != index.arity:
            raise DeltaError(
                f"row arity {len(change.row)} != index arity {index.arity}"
            )
        balance += 1 if change.kind is ChangeKind.INSERT else -1
    if len(index) + balance < 1:
        raise DeltaError("change batch would empty the top-k index")
    for change in changes:
        if change.kind is ChangeKind.INSERT:
            index.insert_row(change.row, tracker)
        else:
            index.delete_row(change.row, tracker)
    return index


def threshold_algorithm_scheme() -> PiScheme:
    """Fagin's TA over preprocessed sorted lists, with early termination."""

    def preprocess(table: ScoreTable, tracker: CostTracker) -> TopKIndex:
        return TopKIndex(table, tracker)

    def evaluate(index: TopKIndex, query: TopKQuery, tracker: CostTracker) -> bool:
        weights, k, theta = query
        answer, _ = index.kth_score_at_least(weights, k, theta, tracker)
        return answer

    def evaluate_fast(index: TopKIndex, query: TopKQuery) -> bool:
        weights, k, theta = query
        return index.kth_score_at_least_fast(weights, k, theta)

    dump, load = state_codec(TopKIndex.from_state)
    return PiScheme(
        name="threshold-algorithm",
        preprocess=preprocess,
        evaluate=evaluate,
        description="TA with early termination over sorted score lists [14]",
        dump=dump,
        load=load,
        # v2: rows became id-keyed (delta maintenance); v3: typed columns;
        # v4: sub-word columns; v5: patched byte columns.
        artifact_version=5,
        sharding=topk_shard_spec(),
        apply_delta=_apply_table_delta,
        evaluate_fast=evaluate_fast,
    )
