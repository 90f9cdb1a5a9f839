"""Breadth-Depth Search order queries: BDS and Q_BDS (paper, Examples 2/4/5,
Figure 1, Theorem 5).

The problem BDS: given an undirected graph G with numbered vertices and a
pair (u, v), is u visited before v in the numbering-induced breadth-depth
search?  BDS is P-complete [21], yet *can be made Pi-tractable* -- it is in
fact the paper's ΠTP-complete problem.  Figure 1's two factorizations are
both implemented:

* ``Upsilon_BDS`` (pi1 = G, pi2 = (u, v)): preprocessing runs the search
  once (PTIME) and stores the visit positions; afterwards every order query
  is two binary searches, O(log |G|) (Example 5's list M).  An O(1)
  dict-lookup variant is included for contrast.
* ``Upsilon'`` (pi1 = epsilon, pi2 = (G, (u, v))): nothing is preprocessed;
  every query re-runs the full search, Theta(n + m) -- PTIME answering,
  not Pi-tractable.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.core.cost import CostTracker
from repro.core.factorization import EMPTY_DATA, Factorization, trivial_factorization
from repro.core.language import DecisionProblem
from repro.core.query import PiScheme, QueryClass, state_codec
from repro.graphs.generators import random_connected_graph
from repro.graphs.graph import Graph
from repro.graphs.traversal import breadth_depth_search, visit_position
from repro.indexes.sorted_run import KeyedRunIndex

__all__ = [
    "bds_query_class",
    "bds_problem",
    "upsilon_bds",
    "upsilon_prime",
    "position_index_scheme",
    "position_dict_scheme",
    "no_preprocessing_scheme",
]

BDSInstance = Tuple[Graph, Tuple[int, int]]
OrderQuery = Tuple[int, int]


def _generate_graph(size: int, rng: random.Random) -> Graph:
    n = max(size, 2)
    return random_connected_graph(n, n // 2, rng)


def _generate_order_queries(graph: Graph, rng: random.Random, count: int) -> List[OrderQuery]:
    queries: List[OrderQuery] = []
    for _ in range(count):
        u = rng.randrange(graph.n)
        v = rng.randrange(graph.n)
        while v == u and graph.n > 1:
            v = rng.randrange(graph.n)
        queries.append((u, v))
    return queries


def _naive_before(graph: Graph, query: OrderQuery, tracker: CostTracker) -> bool:
    """Run the full search per query -- the Upsilon' regime of Figure 1."""
    u, v = query
    position = visit_position(breadth_depth_search(graph, tracker=tracker))
    return position[u] < position[v]


def bds_query_class() -> QueryClass:
    """Q_BDS: the query class of (BDS, Upsilon_BDS) -- Theorem 5's
    ΠTQ-complete class."""
    return QueryClass(
        name="bds-order",
        evaluate=_naive_before,
        generate_data=_generate_graph,
        generate_queries=_generate_order_queries,
        data_size=lambda graph: graph.n,
        description="is u visited before v in breadth-depth search (Example 2)",
    )


def bds_problem() -> DecisionProblem:
    """BDS as a decision problem over instances (G, (u, v))."""

    def contains(instance: BDSInstance, tracker: CostTracker) -> bool:
        graph, pair = instance
        return _naive_before(graph, pair, tracker)

    def generate(size: int, rng: random.Random) -> BDSInstance:
        graph = _generate_graph(size, rng)
        return graph, _generate_order_queries(graph, rng, 1)[0]

    def encode_instance(instance: BDSInstance) -> str:
        graph, (u, v) = instance
        from repro.core import alphabet

        return alphabet.encode((graph.directed, graph.n, tuple(sorted(graph.edges())), u, v))

    return DecisionProblem(
        name="BDS",
        contains=contains,
        generate=generate,
        encode_instance=encode_instance,
        description="breadth-depth search order (paper, Example 2; P-complete)",
    )


def bds_trivial_query_class() -> QueryClass:
    """The query class of (BDS, Upsilon'): whole instances as queries.

    The data part is the empty string epsilon; the integer returned by
    ``generate_data`` is *only a workload-scale hint* (how big the generated
    query instances should be) -- it carries no information about any graph,
    so no preprocessing of it can help.  ``data_size`` reports that scale so
    the certifier's size axis tracks |Q|, the quantity Definition 1 requires
    polylog behaviour in.  The certifier duly *fails* this class's scheme:
    that failure is the right-hand side of Figure 1.
    """

    def generate_data(size: int, rng: random.Random) -> int:
        return max(size, 2)

    def generate_queries(scale: int, rng: random.Random, count: int) -> List[BDSInstance]:
        instances: List[BDSInstance] = []
        for _ in range(count):
            graph = _generate_graph(scale, rng)
            instances.append((graph, _generate_order_queries(graph, rng, 1)[0]))
        return instances

    def evaluate(scale: int, query: BDSInstance, tracker: CostTracker) -> bool:
        graph, pair = query
        return _naive_before(graph, pair, tracker)

    return QueryClass(
        name="bds-order-trivial",
        evaluate=evaluate,
        generate_data=generate_data,
        generate_queries=generate_queries,
        data_size=lambda scale: scale,
        description="(BDS, Upsilon'): epsilon as data, (G,(u,v)) as query",
    )


def upsilon_bds() -> Factorization:
    """Figure 1 left: pi1 = G (preprocess the graph), pi2 = (u, v)."""
    return Factorization(
        name="Upsilon_BDS",
        pi1=lambda instance: instance[0],
        pi2=lambda instance: instance[1],
        rho=lambda graph, pair: (graph, pair),
        encode_data=lambda graph: graph.encode(),
        description="graph as data, vertex pair as query (Figure 1, left)",
    )


def upsilon_prime() -> Factorization:
    """Figure 1 right: pi1 = epsilon, pi2 = the whole instance.

    With nothing to preprocess, query answering stays PTIME -- the
    not-Pi-tractable regime.
    """
    return Factorization(
        name="Upsilon'[BDS]",
        pi1=lambda instance: EMPTY_DATA,
        pi2=lambda instance: instance,
        rho=lambda data, query: query,
        description="nothing as data, (G,(u,v)) as query (Figure 1, right)",
    )


def position_index_scheme() -> PiScheme:
    """Example 5's scheme: one BDS run, then binary searches on the sorted
    (vertex, position) run -- O(log |M|) per query."""

    def preprocess(graph: Graph, tracker: CostTracker) -> KeyedRunIndex:
        order = breadth_depth_search(graph, tracker=tracker)
        return KeyedRunIndex(list(zip(order, range(len(order)))), tracker)

    def evaluate(index: KeyedRunIndex, query: OrderQuery, tracker: CostTracker) -> bool:
        u, v = query
        pos_u = index.lookup(u, tracker)
        pos_v = index.lookup(v, tracker)
        tracker.tick(1)
        if pos_u is None or pos_v is None:
            return False
        return pos_u < pos_v

    def evaluate_fast(index: KeyedRunIndex, query: OrderQuery) -> bool:
        u, v = query
        pos_u = index.lookup_fast(u)
        pos_v = index.lookup_fast(v)
        if pos_u is None or pos_v is None:
            return False
        return pos_u < pos_v

    dump, load = state_codec(KeyedRunIndex.from_state)
    return PiScheme(
        name="bds-position-run",
        preprocess=preprocess,
        evaluate=evaluate,
        factorization_name="Upsilon_BDS",
        description="binary search on the visit-order list M (Example 5)",
        dump=dump,
        load=load,
        artifact_version=3,  # v3: patched byte columns (indexes/columns.pack)
        evaluate_fast=evaluate_fast,
    )


def position_dict_scheme() -> PiScheme:
    """O(1) variant: store positions in a hash map instead of a sorted run."""

    def preprocess(graph: Graph, tracker: CostTracker) -> List[int]:
        order = breadth_depth_search(graph, tracker=tracker)
        tracker.tick(len(order))
        return visit_position(order)

    def evaluate(position: List[int], query: OrderQuery, tracker: CostTracker) -> bool:
        u, v = query
        tracker.tick(2)
        return position[u] < position[v]

    return PiScheme(
        name="bds-position-dict",
        preprocess=preprocess,
        evaluate=evaluate,
        factorization_name="Upsilon_BDS",
        description="direct position-array lookups, O(1) per query",
    )


def no_preprocessing_scheme() -> PiScheme:
    """The Upsilon' regime: Pi is constant, every query replays the search.

    Registered so the certifier can *fail* it -- the measured evaluation
    depth grows linearly, demonstrating the Figure 1 dichotomy.
    """

    def preprocess(data, tracker: CostTracker):
        # The data part is (morally) epsilon: whatever arrives here carries
        # no information about the graphs the queries will mention, so the
        # only honest "preprocessing" is the identity.
        tracker.tick(1)
        return data

    def evaluate(_, query: BDSInstance, tracker: CostTracker) -> bool:
        graph, pair = query
        return _naive_before(graph, pair, tracker)

    return PiScheme(
        name="bds-no-preprocessing",
        preprocess=preprocess,
        evaluate=evaluate,
        factorization_name="Upsilon'[BDS]",
        description="replay the full search per query (Figure 1, right)",
    )
