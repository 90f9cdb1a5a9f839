"""Unit tests for the BSP cost model and approximate VC oracle (S8 extensions)."""

import random

import numpy as np
import pytest

from repro.core import CostTracker
from repro.graphs import Graph, gnm_graph
from repro.kernelization import (
    ApproximateVertexCoverOracle,
    VCInstance,
    maximal_matching,
    vc_brute_force,
)
from repro.parallel import (
    BSPMachine,
    bsp_reachability_frontier,
    bsp_reachability_squaring,
)


def random_adjacency(rng, n, density=0.08):
    matrix = np.zeros((n, n), dtype=bool)
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < density:
                matrix[u, v] = True
    return matrix


class TestBSPMachine:
    def test_cost_formula(self):
        machine = BSPMachine(g=3, latency=10)
        machine.superstep([5, 7, 2], [1, 4, 0])
        machine.superstep([1], [1])
        assert machine.rounds == 2
        # (7 + 3*4 + 10) + (1 + 3*1 + 10)
        assert machine.total_cost == 29 + 14
        assert "rounds=2" in machine.summary()

    def test_empty_superstep(self):
        machine = BSPMachine()
        machine.superstep([], [])
        assert machine.total_cost == machine.latency


class TestBSPReachability:
    def test_both_routes_agree_with_each_other(self):
        rng = random.Random(600)
        for _ in range(15):
            n = rng.randint(2, 40)
            adjacency = random_adjacency(rng, n)
            u, v = rng.randrange(n), rng.randrange(n)
            frontier = bsp_reachability_frontier(adjacency, u, v, BSPMachine())
            squaring = bsp_reachability_squaring(adjacency, u, v, BSPMachine())
            assert frontier == squaring

    def test_round_counts(self):
        # A path graph: frontier BFS needs ~n rounds, squaring ~log n.
        n = 64
        adjacency = np.zeros((n, n), dtype=bool)
        for i in range(n - 1):
            adjacency[i, i + 1] = True
        frontier_machine = BSPMachine()
        squaring_machine = BSPMachine()
        assert bsp_reachability_frontier(adjacency, 0, n - 1, frontier_machine)
        assert bsp_reachability_squaring(adjacency, 0, n - 1, squaring_machine)
        assert frontier_machine.rounds >= n - 1
        assert squaring_machine.rounds == 6  # ceil(log2 64)

    def test_coordination_vs_work_tradeoff(self):
        # Squaring: few rounds, massive per-round work; frontier: the dual.
        # A path graph makes the trade deterministic.
        n = 64
        adjacency = np.zeros((n, n), dtype=bool)
        for i in range(n - 1):
            adjacency[i, i + 1] = True
        frontier_machine = BSPMachine(latency=1000)
        squaring_machine = BSPMachine(latency=1000)
        bsp_reachability_frontier(adjacency, 0, n - 1, frontier_machine)
        bsp_reachability_squaring(adjacency, 0, n - 1, squaring_machine)
        assert squaring_machine.rounds < frontier_machine.rounds // 8
        max_frontier_work = max(s.max_local_work for s in frontier_machine.supersteps)
        max_squaring_work = max(s.max_local_work for s in squaring_machine.supersteps)
        assert max_squaring_work > 100 * max_frontier_work


class TestApproximateVC:
    def test_matching_is_maximal_and_disjoint(self):
        rng = random.Random(602)
        for _ in range(20):
            graph = gnm_graph(rng.randint(2, 30), rng.randint(0, 60), rng)
            matching = maximal_matching(graph)
            used = [v for edge in matching for v in edge]
            assert len(used) == len(set(used))  # vertex-disjoint
            matched = set(used)
            for u, v in graph.edges():  # maximality: no edge fully unmatched
                assert u in matched or v in matched

    def test_cover_is_a_cover(self):
        rng = random.Random(603)
        for _ in range(20):
            graph = gnm_graph(rng.randint(2, 30), rng.randint(0, 60), rng)
            oracle = ApproximateVertexCoverOracle(graph)
            cover = set(oracle.cover)
            for u, v in graph.edges():
                assert u in cover or v in cover

    def test_one_sided_guarantee(self):
        # approx False -> exact False; exact True -> approx True.
        rng = random.Random(604)
        for _ in range(80):
            n = rng.randint(2, 10)
            graph = gnm_graph(n, rng.randint(0, 2 * n), rng)
            oracle = ApproximateVertexCoverOracle(graph)
            for k in range(0, 6):
                exact = vc_brute_force(VCInstance(graph, k))
                approx = oracle.probably_coverable(k)
                if not approx:
                    assert not exact
                if exact:
                    assert approx

    def test_bounds_sandwich_optimum(self):
        rng = random.Random(605)
        for _ in range(40):
            n = rng.randint(2, 9)
            graph = gnm_graph(n, rng.randint(0, 2 * n), rng)
            oracle = ApproximateVertexCoverOracle(graph)
            optimum = next(
                k for k in range(n + 1) if vc_brute_force(VCInstance(graph, k))
            )
            assert oracle.lower_bound <= optimum <= oracle.upper_bound
            assert oracle.upper_bound <= 2 * max(oracle.lower_bound, 1) or (
                oracle.upper_bound == 0
            )

    def test_certified_cover_within(self):
        graph = Graph(4)
        graph.add_edge(0, 1)
        graph.add_edge(2, 3)
        oracle = ApproximateVertexCoverOracle(graph)
        # The witness cover fits a budget of 2 (size <= 2 * 2), not of 1.
        assert oracle.cover == [0, 1, 2, 3]
        assert oracle.upper_bound <= 2 * 2
        assert oracle.upper_bound > 2 * 1

    def test_query_cost_constant(self):
        rng = random.Random(606)
        oracle = ApproximateVertexCoverOracle(gnm_graph(2000, 5000, rng))
        tracker = CostTracker()
        oracle.probably_coverable(10, tracker)
        assert tracker.depth == 1
