"""AGAP query class: a second P-complete problem made Pi-tractable.

The paper demonstrates "hard problems that preprocessing rescues" with BDS
(Theorem 5) and CVP (Section 4(8)).  AGAP -- alternating graph
accessibility, P-complete [21] -- follows exactly the same pattern and is
included to show the framework generalizes beyond the paper's two specimens:
factor the labelled graph out as data, precompute every alternating-
reachability answer in PTIME, answer queries in O(1).
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.core.cost import CostTracker
from repro.core.language import DecisionProblem
from repro.core.query import PiScheme, QueryClass, state_codec
from repro.graphs.alternating import (
    AlternatingDigraph,
    AlternatingReachabilityIndex,
    alternating_reachable,
    random_alternating_digraph,
)

__all__ = ["agap_class", "agap_problem", "winning_set_scheme"]

AGAPQuery = Tuple[int, int]


def _generate(size: int, rng: random.Random) -> AlternatingDigraph:
    n = max(size, 2)
    return random_alternating_digraph(n, 2 * n, rng)


def _generate_queries(
    agraph: AlternatingDigraph, rng: random.Random, count: int
) -> List[AGAPQuery]:
    queries = []
    for _ in range(count):
        queries.append((rng.randrange(agraph.n), rng.randrange(agraph.n)))
    return queries


def _naive(agraph: AlternatingDigraph, query: AGAPQuery, tracker: CostTracker) -> bool:
    source, target = query
    return alternating_reachable(agraph, source, target, tracker)


def agap_class() -> QueryClass:
    return QueryClass(
        name="alternating-reachability",
        evaluate=_naive,
        generate_data=_generate,
        generate_queries=_generate_queries,
        encode_data=lambda agraph: agraph.encode(),
        data_size=lambda agraph: agraph.n,
        description="alternating graph accessibility (AGAP; P-complete [21])",
    )


def winning_set_scheme() -> PiScheme:
    """Backward-induction preprocessing: all answers in PTIME, O(1) queries."""

    def preprocess(agraph: AlternatingDigraph, tracker: CostTracker) -> AlternatingReachabilityIndex:
        return AlternatingReachabilityIndex(agraph, tracker)

    def evaluate(
        index: AlternatingReachabilityIndex, query: AGAPQuery, tracker: CostTracker
    ) -> bool:
        source, target = query
        return index.reachable(source, target, tracker)

    dump, load = state_codec(AlternatingReachabilityIndex.from_state)
    return PiScheme(
        name="alternating-winning-sets",
        preprocess=preprocess,
        evaluate=evaluate,
        description="per-target attractor fixpoints; O(1) bit probes",
        dump=dump,
        load=load,
    )


def agap_problem() -> DecisionProblem:
    """AGAP as a decision problem over ((G, labels), (s, t)) instances."""

    def contains(instance, tracker: CostTracker) -> bool:
        agraph, pair = instance
        return _naive(agraph, pair, tracker)

    def generate(size: int, rng: random.Random):
        agraph = _generate(size, rng)
        return agraph, _generate_queries(agraph, rng, 1)[0]

    def encode_instance(instance) -> str:
        from repro.core import alphabet

        agraph, (source, target) = instance
        return alphabet.encode((agraph.encode(), source, target))

    return DecisionProblem(
        name="AGAP",
        contains=contains,
        generate=generate,
        encode_instance=encode_instance,
        description="alternating graph accessibility (P-complete [21])",
    )
