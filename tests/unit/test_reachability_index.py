"""Unit tests for the transitive-closure index (repro.indexes.reachability)."""

import random

import numpy as np
import pytest

from repro.core.cost import CostTracker
from repro.core.errors import GraphError
from repro.graphs import Digraph, gnm_digraph, is_reachable, social_digraph
from repro.indexes import TransitiveClosureIndex
from repro.parallel import ParallelMachine, transitive_closure_squaring


class TestClosureIndex:
    def test_chain(self):
        graph = Digraph(4)
        for v in range(3):
            graph.add_edge(v, v + 1)
        index = TransitiveClosureIndex(graph)
        assert index.reachable(0, 3)
        assert not index.reachable(3, 0)
        assert index.reachable(2, 2)  # reflexive

    def test_cycle_members_mutually_reachable(self):
        graph = Digraph(4)
        graph.add_edge(0, 1)
        graph.add_edge(1, 0)
        graph.add_edge(1, 2)
        index = TransitiveClosureIndex(graph)
        assert index.reachable(0, 1) and index.reachable(1, 0)
        assert index.reachable(0, 2) and not index.reachable(2, 1)

    def test_matches_bfs_on_random_digraphs(self):
        rng = random.Random(30)
        for _ in range(8):
            graph = gnm_digraph(40, 100, rng)
            index = TransitiveClosureIndex(graph)
            for _ in range(80):
                u, v = rng.randrange(40), rng.randrange(40)
                assert index.reachable(u, v) == is_reachable(graph, u, v)

    def test_descendants(self):
        graph = Digraph(4)
        graph.add_edge(0, 1)
        graph.add_edge(1, 2)
        index = TransitiveClosureIndex(graph)
        # The descendants of u are the v with reachable(u, v), u included.
        assert [v for v in range(4) if index.reachable(0, v)] == [0, 1, 2]
        assert [v for v in range(4) if index.reachable(3, v)] == [3]

    def test_reachable_pair_count(self):
        graph = Digraph(3)
        graph.add_edge(0, 1)
        index = TransitiveClosureIndex(graph)
        # pairs: (0,0) (1,1) (2,2) (0,1)
        assert index.reachable_pair_count() == 4

    def test_pair_count_matches_matrix(self):
        rng = random.Random(31)
        graph = social_digraph(50, rng)
        index = TransitiveClosureIndex(graph)
        assert index.reachable_pair_count() == int(index.as_matrix().sum())

    def test_as_matrix_matches_nc_squaring(self):
        rng = random.Random(32)
        graph = gnm_digraph(25, 60, rng)
        index = TransitiveClosureIndex(graph)
        adjacency = np.zeros((25, 25), dtype=bool)
        for u, v in graph.edges():
            adjacency[u, v] = True
        closure = transitive_closure_squaring(adjacency, ParallelMachine(CostTracker()))
        assert (index.as_matrix() == closure).all()

    def test_query_cost_constant(self):
        rng = random.Random(33)
        index = TransitiveClosureIndex(gnm_digraph(400, 1200, rng))
        tracker = CostTracker()
        index.reachable(7, 311, tracker)
        assert tracker.depth == 1

    def test_vertex_bounds_checked(self):
        index = TransitiveClosureIndex(Digraph(2))
        with pytest.raises(GraphError):
            index.reachable(0, 5)


class TestInsertEdge:
    """The served delta hook (``closure_scheme``'s ``apply_delta``)."""

    def test_redundant_edge_costs_one_probe(self):
        graph = Digraph(5)
        graph.add_edge(0, 1)
        graph.add_edge(1, 2)
        index = TransitiveClosureIndex(graph)
        for source, target in ((0, 2), (0, 1), (3, 3)):
            tracker = CostTracker()
            assert index.insert_edge(source, target, tracker) == 0
            assert tracker.work == 1

    def test_out_of_range_vertex_raises(self):
        index = TransitiveClosureIndex(Digraph(3))
        for source, target in ((0, 3), (3, 0), (-1, 1)):
            with pytest.raises(GraphError):
                index.insert_edge(source, target)
        assert index.reachable_pair_count() == 3

    def test_returns_new_vertex_pairs_while_components_are_single_vertices(self):
        """From an edgeless build every component is one vertex, so the
        returned component-pair count is the vertex-pair count's growth."""
        rng = random.Random(34)
        graph = Digraph(30)
        index = TransitiveClosureIndex(graph)
        for _ in range(120):
            u, v = rng.randrange(30), rng.randrange(30)
            before = index.reachable_pair_count()
            new_pairs = index.insert_edge(u, v)
            graph.add_edge(u, v)
            assert new_pairs == index.reachable_pair_count() - before
            assert (index.as_matrix() == TransitiveClosureIndex(graph).as_matrix()).all()

    def test_returns_component_pairs_when_a_component_holds_several_vertices(self):
        graph = Digraph(4)
        graph.add_edge(0, 1)
        graph.add_edge(1, 0)  # {0, 1} is one component
        index = TransitiveClosureIndex(graph)
        before = index.reachable_pair_count()
        # {0, 1} -> {2}: one component pair, two vertex pairs.
        assert index.insert_edge(1, 2) == 1
        assert index.reachable_pair_count() == before + 2
