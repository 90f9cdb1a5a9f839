"""Vertex Cover query classes (paper, Section 4(9) and Corollary 7).

Two registry entries with opposite fates:

* **VC (general)**: NP-complete; by Corollary 7 it cannot be made
  Pi-tractable unless P = NP.  Registered with a hardness marker and *no*
  scheme -- the Figure 2 consistency checker enforces that combination.
* **VC_K (fixed K)**: the paper's Section 4(9): Buss kernelization shrinks
  (G, k) in O(|E|) to a kernel whose size depends on k alone; for fixed K
  the post-preprocessing decision cost is O(1) *in |G|*.  Modelled as a
  query class whose data is the graph and whose queries are budgets
  k <= K_MAX; preprocessing kernelizes once per budget.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.core.cost import CostTracker
from repro.core.language import DecisionProblem
from repro.core.query import PiScheme, QueryClass, state_codec
from repro.graphs.generators import gnm_graph
from repro.graphs.graph import Graph
from repro.kernelization.vertex_cover import (
    BussKernel,
    VCInstance,
    buss_kernelize,
    vc_branch_decide,
    vc_decide,
)

__all__ = ["K_MAX", "vc_fixed_k_class", "kernel_scheme", "vc_problem"]

#: The fixed parameter bound of the VC_K class ("when K is fixed").
K_MAX = 6


def _generate_graph(size: int, rng: random.Random) -> Graph:
    """Hub-and-spoke graphs whose minimum cover size is a few hubs.

    Every non-hub vertex attaches to a random hub, so {hubs} is a cover;
    with enough leaves per hub the hubs are also *necessary*, putting the
    answer right around the sampled budgets k <= K_MAX and mixing yes/no.
    An occasional extra matching edge bumps the needed cover by one.
    """
    n = max(size, 8)
    hubs = rng.randint(1, K_MAX)
    graph = Graph(n)
    for vertex in range(hubs, n):
        graph.add_edge(rng.randrange(hubs), vertex)
    # A few hub-disjoint matching edges raise the required cover slightly.
    for extra in range(rng.randint(0, 2)):
        u = hubs + 2 * extra
        v = hubs + 2 * extra + 1
        if v < n and not graph.has_edge(u, v):
            graph.add_edge(u, v)
    return graph


def _generate_budgets(graph: Graph, rng: random.Random, count: int) -> List[int]:
    return [rng.randint(0, K_MAX) for _ in range(count)]


def _naive_decide(graph: Graph, budget: int, tracker: CostTracker) -> bool:
    """The no-preprocessing baseline: bounded search on the *full* graph."""
    return vc_decide(VCInstance(graph, budget), tracker, kernelize=False)


def vc_fixed_k_class() -> QueryClass:
    return QueryClass(
        name=f"vertex-cover-k<={K_MAX}",
        evaluate=_naive_decide,
        generate_data=_generate_graph,
        generate_queries=_generate_budgets,
        data_size=lambda graph: graph.n,
        description=f"has G a vertex cover of size <= k (k <= {K_MAX} fixed)",
    )


def kernel_scheme() -> PiScheme:
    """Buss kernelization as preprocessing (Section 4(9)).

    ``preprocess`` kernelizes the graph once per admissible budget
    (O(K_MAX * |E|), PTIME); ``evaluate`` decides the tiny residual with a
    bounded search tree whose size depends on k alone, so measured depth is
    O(1) with respect to |G|.
    """

    def preprocess(graph: Graph, tracker: CostTracker) -> Dict[int, BussKernel]:
        return {
            budget: buss_kernelize(VCInstance(graph, budget), tracker)
            for budget in range(K_MAX + 1)
        }

    def evaluate(kernels: Dict[int, BussKernel], budget: int, tracker: CostTracker) -> bool:
        kernel = kernels[budget]
        tracker.tick(1)
        if kernel.decided is not None:
            return kernel.decided
        return vc_branch_decide(set(kernel.residual_edges), kernel.residual_budget, tracker)

    def to_state(kernels: Dict[int, BussKernel]) -> list:
        """One row per budget ``0..K_MAX``; the sets as sorted lists."""
        return [
            (kernel.decided, sorted(kernel.forced_vertices),
             sorted(kernel.residual_edges), kernel.residual_budget)
            for kernel in map(kernels.get, range(K_MAX + 1))
        ]

    def from_state(rows: list) -> Dict[int, BussKernel]:
        return {
            budget: BussKernel(decided, set(forced), set(edges), residual)
            for budget, (decided, forced, edges, residual) in enumerate(rows)
        }

    dump, load = state_codec(from_state, to_state)
    return PiScheme(
        name="buss-kernel",
        preprocess=preprocess,
        evaluate=evaluate,
        description="Buss kernels per budget; decision cost depends on k only",
        dump=dump,
        load=load,
    )


def vc_problem() -> DecisionProblem:
    """General Vertex Cover -- the NP-complete problem of Corollary 7."""

    def contains(instance: VCInstance, tracker: CostTracker) -> bool:
        return vc_decide(instance, tracker)

    def generate(size: int, rng: random.Random) -> VCInstance:
        graph = _generate_graph(size, rng)
        return VCInstance(graph, rng.randint(0, max(2, graph.n // 3)))

    def encode_instance(instance: VCInstance) -> str:
        from repro.core import alphabet

        return alphabet.encode(
            (instance.graph.n, tuple(sorted(instance.graph.edges())), instance.k)
        )

    return DecisionProblem(
        name="vertex-cover",
        contains=contains,
        generate=generate,
        encode_instance=encode_instance,
        description="NP-complete Vertex Cover (paper, Section 4(9))",
    )
