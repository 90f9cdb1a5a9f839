"""Lowest-common-ancestor query classes (paper, Section 4(4), problem L3).

Two variants, both Boolean per the paper's decision-problem convention:

* **trees**: data is a tree rooted at 0; query (u, v, w) asks "is w the LCA
  of u and v?".  Scheme: Euler tour + RMQ, O(1) per query.
* **DAGs**: data is a DAG; query (u, v, w) asks "is w the representative LCA
  of u and v?" where the representative is the topologically-last common
  ancestor (a node with no descendant that is also a common ancestor -- the
  paper's definition; see :mod:`repro.indexes.dag_lca`).  Scheme: the
  all-pairs-capable bitset index, O(1)/O(n/w) per query.

Baselines recompute from scratch per query: Theta(n) BFS climbs for trees,
two reverse reachability sweeps for DAGs.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.core.cost import CostTracker
from repro.core.query import PiScheme, QueryClass, state_codec
from repro.graphs.generators import random_dag, random_tree
from repro.graphs.graph import Digraph, Graph
from repro.indexes.dag_lca import DagLCAIndex, naive_dag_lca
from repro.indexes.euler_lca import EulerTourLCA, naive_tree_lca

__all__ = [
    "tree_lca_class",
    "dag_lca_class",
    "euler_tour_scheme",
    "dag_bitset_scheme",
]

LCAQuery = Tuple[int, int, int]  # (u, v, w)


def _generate_tree(size: int, rng: random.Random) -> Graph:
    return random_tree(max(size, 2), rng)


def _generate_dag(size: int, rng: random.Random) -> Digraph:
    n = max(size, 2)
    return random_dag(n, 2 * n, rng)


def _tree_queries(tree: Graph, rng: random.Random, count: int) -> List[LCAQuery]:
    index = EulerTourLCA(tree, 0)
    queries: List[LCAQuery] = []
    for position in range(count):
        u = rng.randrange(tree.n)
        v = rng.randrange(tree.n)
        if position % 2 == 0:
            w = index.lca(u, v)  # yes-instance
        else:
            w = rng.randrange(tree.n)  # usually a no-instance
        queries.append((u, v, w))
    return queries


def _dag_queries(dag: Digraph, rng: random.Random, count: int) -> List[LCAQuery]:
    index = DagLCAIndex(dag)
    queries: List[LCAQuery] = []
    for position in range(count):
        u = rng.randrange(dag.n)
        v = rng.randrange(dag.n)
        if position % 2 == 0:
            w = index.lca(u, v)
            if w == -1:  # no common ancestor; retarget to a no-instance
                w = rng.randrange(dag.n)
        else:
            w = rng.randrange(dag.n)
        queries.append((u, v, w))
    return queries


def _naive_tree(tree: Graph, query: LCAQuery, tracker: CostTracker) -> bool:
    u, v, w = query
    return naive_tree_lca(tree, 0, u, v, tracker) == w


def _naive_dag(dag: Digraph, query: LCAQuery, tracker: CostTracker) -> bool:
    u, v, w = query
    return naive_dag_lca(dag, u, v, tracker) == w


def tree_lca_class() -> QueryClass:
    return QueryClass(
        name="tree-lca",
        evaluate=_naive_tree,
        generate_data=_generate_tree,
        generate_queries=_tree_queries,
        data_size=lambda tree: tree.n,
        description="is w = LCA(u, v) in a rooted tree (paper, Section 4(4))",
    )


def dag_lca_class() -> QueryClass:
    return QueryClass(
        name="dag-lca",
        evaluate=_naive_dag,
        generate_data=_generate_dag,
        generate_queries=_dag_queries,
        data_size=lambda dag: dag.n,
        description="is w the representative LCA(u, v) in a DAG (Section 4(4))",
    )


def euler_tour_scheme() -> PiScheme:
    """[5] via RMQ: O(n log n) preprocessing, O(1) queries."""

    def preprocess(tree: Graph, tracker: CostTracker) -> EulerTourLCA:
        return EulerTourLCA(tree, 0, tracker)

    def evaluate(index: EulerTourLCA, query: LCAQuery, tracker: CostTracker) -> bool:
        u, v, w = query
        return index.lca(u, v, tracker) == w

    dump, load = state_codec(EulerTourLCA.from_state)
    return PiScheme(
        name="euler-tour-rmq",
        preprocess=preprocess,
        evaluate=evaluate,
        description="Euler tour + sparse-table RMQ (O(1) LCA)",
        dump=dump,
        load=load,
        artifact_version=5,  # v5: patched byte columns (indexes/columns.pack)
    )


def dag_bitset_scheme(*, all_pairs: bool = False) -> PiScheme:
    """Topological-rank ancestor bitsets (optionally the full [5] table)."""

    def preprocess(dag: Digraph, tracker: CostTracker) -> DagLCAIndex:
        return DagLCAIndex(dag, all_pairs=all_pairs, tracker=tracker)

    def evaluate(index: DagLCAIndex, query: LCAQuery, tracker: CostTracker) -> bool:
        u, v, w = query
        return index.lca(u, v, tracker) == w

    suffix = "all-pairs" if all_pairs else "bitset"
    dump, load = state_codec(DagLCAIndex.from_state)
    return PiScheme(
        name=f"dag-lca-{suffix}",
        preprocess=preprocess,
        evaluate=evaluate,
        description="ancestor bitsets in topological-rank space",
        dump=dump,
        load=load,
    )
