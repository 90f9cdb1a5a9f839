"""Graph reachability: the class Q2 / GAP (paper, Example 3).

Data is a digraph G, a query (s, t) asks for a path from s to t.  GAP is
NL-complete, hence already in NC -- so Q2 is Pi-tractable even with identity
preprocessing (evaluate by Boolean matrix squaring, polylog depth).  But the
paper's point is that *preprocessing buys more*: precompute the transitive
closure in PTIME and every query costs O(1).  Three evaluation regimes are
exposed for the Example 3 experiment:

1. per-query BFS               -- Theta(n + m) sequential (baseline);
2. per-query matrix squaring   -- NC (polylog depth) but n^3 log n work;
3. closure lookup              -- O(1) after PTIME preprocessing.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, List, Tuple

from repro.core.cost import CostTracker
from repro.core.errors import DeltaError
from repro.core.query import PiScheme, QueryClass, state_codec
from repro.graphs.generators import gnm_digraph, random_vertex_pairs
from repro.graphs.graph import Digraph
from repro.graphs.traversal import is_reachable
from repro.indexes.reachability import TransitiveClosureIndex
from repro.parallel.pram import ParallelMachine
from repro.parallel.primitives import reachability_query_squaring

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "reachability_class",
    "closure_scheme",
    "nc_squaring_scheme",
    "adjacency_matrix",
]

ReachQuery = Tuple[int, int]


def _generate_digraph(size: int, rng: random.Random) -> Digraph:
    n = max(size, 2)
    return gnm_digraph(n, 2 * n, rng)


def _generate_pairs(graph: Digraph, rng: random.Random, count: int) -> List[ReachQuery]:
    return random_vertex_pairs(graph.n, count, rng)


def _naive_reach(graph: Digraph, query: ReachQuery, tracker: CostTracker) -> bool:
    source, target = query
    return is_reachable(graph, source, target, tracker)


def reachability_class() -> QueryClass:
    return QueryClass(
        name="reachability",
        evaluate=_naive_reach,
        generate_data=_generate_digraph,
        generate_queries=_generate_pairs,
        data_size=lambda graph: graph.n,
        description="is there a path s ->* t (paper, Example 3 / GAP)",
    )


def _apply_edge_delta(index: TransitiveClosureIndex, changes, tracker: CostTracker):
    """Fold an insert-only EdgeChange batch into the closure (Section 4(7)).

    Each insert runs the Italiano-style bounded repair of
    :meth:`~repro.indexes.reachability.TransitiveClosureIndex.insert_edge`
    (work proportional to the closure pairs that appear).  Deletions can
    shrink the closure non-locally, so they raise
    :class:`~repro.core.errors.DeltaError` -- before anything mutates -- and
    the caller falls back to a rebuild for the whole batch.
    """
    from repro.incremental.changes import ChangeKind, EdgeChange

    for change in changes:
        if not isinstance(change, EdgeChange):
            raise DeltaError(
                f"closure maintenance accepts EdgeChange batches only, "
                f"got {type(change).__name__}"
            )
        if change.kind is not ChangeKind.INSERT:
            raise DeltaError("closure maintenance is insert-only; deletes rebuild")
        if not (0 <= change.source < index.n and 0 <= change.target < index.n):
            raise DeltaError(
                f"edge ({change.source}, {change.target}) outside vertex range "
                f"[0, {index.n})"
            )
    for change in changes:
        index.insert_edge(change.source, change.target, tracker)
    return index


def closure_scheme() -> PiScheme:
    """Example 3's scheme: precompute the closure, answer in O(1)."""

    def preprocess(graph: Digraph, tracker: CostTracker) -> TransitiveClosureIndex:
        return TransitiveClosureIndex(graph, tracker)

    def evaluate(index: TransitiveClosureIndex, query: ReachQuery, tracker: CostTracker) -> bool:
        source, target = query
        return index.reachable(source, target, tracker)

    def evaluate_fast(index: TransitiveClosureIndex, query: ReachQuery) -> bool:
        source, target = query
        return index.reachable_fast(source, target)

    dump, load = state_codec(TransitiveClosureIndex.from_state)
    return PiScheme(
        name="transitive-closure",
        preprocess=preprocess,
        evaluate=evaluate,
        description="precomputed all-pairs reachability matrix; O(1) lookups",
        dump=dump,
        load=load,
        apply_delta=_apply_edge_delta,
        evaluate_fast=evaluate_fast,
    )


def adjacency_matrix(graph: Digraph) -> np.ndarray:
    import numpy as np  # only the NC-squaring regime pays for numpy

    matrix = np.zeros((graph.n, graph.n), dtype=bool)
    for u, v in graph.edges():
        matrix[u, v] = True
    return matrix


def nc_squaring_scheme() -> PiScheme:
    """The no-preprocessing NC route: identity Pi, per-query matrix squaring.

    Demonstrates NL <= NC (Q2 is Pi-tractable with trivial preprocessing):
    depth is polylog, but per-query *work* is n^3 log n -- which is exactly
    why the closure lookup is preferable in practice (Example 3's remark).
    """

    def preprocess(graph: Digraph, tracker: CostTracker) -> np.ndarray:
        tracker.tick(graph.n)  # identity-ish: just re-represent the input
        return adjacency_matrix(graph)

    def evaluate(matrix: np.ndarray, query: ReachQuery, tracker: CostTracker) -> bool:
        source, target = query
        machine = ParallelMachine(tracker)
        return reachability_query_squaring(matrix, source, target, machine)

    return PiScheme(
        name="nc-matrix-squaring",
        preprocess=preprocess,
        evaluate=evaluate,
        description="per-query Boolean matrix squaring (NC, no preprocessing)",
    )
