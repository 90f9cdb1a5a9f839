"""Unit tests for the graph substrate, centrally the BDS semantics."""

import random

import pytest

from repro.core.cost import CostTracker
from repro.core.errors import GraphError
from repro.graphs import (
    Digraph,
    Graph,
    bfs_order,
    breadth_depth_search,
    breadth_depth_search_reference,
    condensation,
    gnm_digraph,
    gnm_graph,
    is_dag,
    is_reachable,
    random_connected_graph,
    random_dag,
    random_tree,
    reachable_from,
    social_digraph,
    strongly_connected_components,
    topological_order,
    visit_position,
)
from helpers import permute_vertices


class TestGraphBasics:
    def test_undirected_edges_are_symmetric(self):
        graph = Graph(3)
        graph.add_edge(0, 2)
        assert graph.has_edge(0, 2) and graph.has_edge(2, 0)
        assert list(graph.edges()) == [(0, 2)]
        assert graph.edge_count == 1

    def test_directed_edges_are_not(self):
        graph = Digraph(3)
        graph.add_edge(0, 2)
        assert graph.has_edge(0, 2) and not graph.has_edge(2, 0)

    def test_duplicate_edges_ignored(self):
        graph = Graph(2)
        graph.add_edge(0, 1)
        graph.add_edge(0, 1)
        assert graph.edge_count == 1

    @pytest.mark.parametrize("graph_class", [Graph, Digraph])
    def test_add_edge_reports_whether_it_added(self, graph_class):
        """``add_edge`` answers like ``remove_edge``: False for an edge the
        graph already holds (an undirected edge in either orientation)."""
        graph = graph_class(3, [(0, 1)])
        assert graph.add_edge(0, 1) is False
        assert graph.add_edge(1, 0) is (graph_class is Digraph)
        assert graph.add_edge(1, 2) is True and graph.add_edge(1, 2) is False
        assert graph.edge_count == len(list(graph.edges())) == 2 + (graph_class is Digraph)
        assert graph.remove_edge(1, 2) is True and graph.add_edge(1, 2) is True

    def test_neighbors_sorted(self):
        graph = Graph(5)
        for v in (4, 1, 3):
            graph.add_edge(0, v)
        assert list(graph.neighbors(0)) == [1, 3, 4]

    def test_vertex_bounds_checked(self):
        graph = Graph(2)
        with pytest.raises(GraphError):
            graph.add_edge(0, 2)
        with pytest.raises(GraphError):
            graph.neighbors(-1)

    def test_encode_decode_roundtrip(self):
        graph = Digraph(4)
        graph.add_edge(0, 3)
        graph.add_edge(2, 1)
        decoded = Digraph.decode(graph.encode())
        assert decoded == graph

    def test_reversed(self):
        graph = Digraph(3)
        graph.add_edge(0, 1)
        reverse = graph.reversed()
        assert reverse.has_edge(1, 0) and not reverse.has_edge(0, 1)

    def test_permute_vertices(self):
        graph = Graph(3)
        graph.add_edge(0, 1)
        permuted = permute_vertices(graph, [2, 0, 1])
        assert permuted.has_edge(2, 0)
        with pytest.raises(GraphError):
            permute_vertices(graph, [0, 0, 1])


class TestBDS:
    def test_paper_semantics_small_example(self):
        # Star with center 0 and leaves 1,2,3; leaf 1 also joined to 4.
        graph = Graph(5)
        for leaf in (1, 2, 3):
            graph.add_edge(0, leaf)
        graph.add_edge(1, 4)
        # Expand 0: visit 1,2,3 (ascending).  Stack top = 1; expand 1: visit
        # 4.  Then 4, 2, 3 have nothing fresh.
        assert breadth_depth_search(graph) == [0, 1, 2, 3, 4]

    def test_breadth_before_depth(self):
        # 0-1, 0-2, 1-3: plain DFS (preorder 0, 1, 3, 2) would visit 3
        # before 2; BDS visits all of 0's children first.
        graph = Graph(4)
        graph.add_edge(0, 1)
        graph.add_edge(0, 2)
        graph.add_edge(1, 3)
        assert breadth_depth_search(graph) == [0, 1, 2, 3]

    def test_stack_resumption_order(self):
        # After exhausting the subtree under the smallest child, the search
        # resumes from the stack, not from the queue (contrast with BFS).
        graph = Graph(6)
        graph.add_edge(0, 1)
        graph.add_edge(0, 2)
        graph.add_edge(1, 3)
        graph.add_edge(3, 4)
        graph.add_edge(2, 5)
        assert breadth_depth_search(graph) == [0, 1, 2, 3, 4, 5]

    def test_disconnected_graph_restarts_at_smallest_unvisited(self):
        graph = Graph(4)
        graph.add_edge(2, 3)
        assert breadth_depth_search(graph) == [0, 1, 2, 3]

    def test_matches_reference_on_random_graphs(self):
        rng = random.Random(6)
        for _ in range(60):
            n = rng.randint(1, 32)
            graph = Graph(n)
            for _ in range(rng.randint(0, 3 * n)):
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v:
                    graph.add_edge(u, v)
            assert breadth_depth_search(graph) == breadth_depth_search_reference(
                graph
            )

    def test_order_is_a_permutation(self):
        rng = random.Random(7)
        graph = random_connected_graph(50, 20, rng)
        order = breadth_depth_search(graph)
        assert sorted(order) == list(range(50))

    def test_numbering_matters(self):
        # Renumbering the graph changes the induced search order.
        rng = random.Random(8)
        graph = random_connected_graph(30, 15, rng)
        permuted = permute_vertices(graph, random.Random(9).sample(range(30), 30))
        assert breadth_depth_search(graph) != breadth_depth_search(permuted)

    def test_cost_linear_in_edges(self):
        rng = random.Random(10)
        small = random_connected_graph(100, 50, rng)
        big = random_connected_graph(1000, 500, rng)
        t_small, t_big = CostTracker(), CostTracker()
        breadth_depth_search(small, tracker=t_small)
        breadth_depth_search(big, tracker=t_big)
        assert 5 <= t_big.work / t_small.work <= 20

    def test_visit_position_inverts_order(self):
        order = [2, 0, 1]
        assert visit_position(order) == [1, 2, 0]

    def test_bad_start_rejected(self):
        with pytest.raises(GraphError):
            breadth_depth_search(Graph(2), start=5)


class TestTraversals:
    def test_bfs_layers(self):
        graph = Graph(4)
        graph.add_edge(0, 1)
        graph.add_edge(0, 2)
        graph.add_edge(1, 3)
        assert bfs_order(graph, 0) == [0, 1, 2, 3]

    def test_reachability(self):
        graph = Digraph(4)
        graph.add_edge(0, 1)
        graph.add_edge(1, 2)
        assert is_reachable(graph, 0, 2)
        assert not is_reachable(graph, 2, 0)
        assert is_reachable(graph, 3, 3)
        assert reachable_from(graph, 0) == {0, 1, 2}


class TestSCC:
    def test_cycle_is_one_component(self):
        graph = Digraph(3)
        graph.add_edge(0, 1)
        graph.add_edge(1, 2)
        graph.add_edge(2, 0)
        components = strongly_connected_components(graph)
        assert len(components) == 1
        assert components[0] == [0, 1, 2]

    def test_condensation_is_topological_dag(self):
        rng = random.Random(11)
        for _ in range(20):
            graph = gnm_digraph(30, 60, rng)
            dag, component_of = condensation(graph)
            assert is_dag(dag)
            # Component ids must be topologically ordered: edges go up.
            for u, v in dag.edges():
                assert u < v
            # Mutually reachable vertices share a component.
            for u, v in list(graph.edges())[:20]:
                if is_reachable(graph, v, u):
                    assert component_of[u] == component_of[v]

    def test_topological_order_respects_edges(self):
        rng = random.Random(12)
        dag = random_dag(40, 80, rng)
        order = topological_order(dag)
        position = {vertex: index for index, vertex in enumerate(order)}
        for u, v in dag.edges():
            assert position[u] < position[v]

    def test_topological_order_rejects_cycles(self):
        graph = Digraph(2)
        graph.add_edge(0, 1)
        graph.add_edge(1, 0)
        with pytest.raises(GraphError):
            topological_order(graph)


class TestGenerators:
    def test_gnm_graph_counts(self):
        rng = random.Random(13)
        graph = gnm_graph(20, 30, rng)
        assert graph.n == 20
        assert graph.edge_count == 30

    def test_gnm_caps_at_max_edges(self):
        rng = random.Random(14)
        graph = gnm_graph(4, 100, rng)
        assert graph.edge_count == 6

    def test_random_tree_is_tree(self):
        rng = random.Random(15)
        tree = random_tree(50, rng)
        assert tree.edge_count == 49
        assert len(reachable_from(tree, 0)) == 50

    def test_random_dag_is_dag(self):
        rng = random.Random(16)
        assert is_dag(random_dag(30, 90, rng))

    def test_connected_graph_is_connected(self):
        rng = random.Random(17)
        graph = random_connected_graph(64, 32, rng)
        assert len(reachable_from(graph, 0)) == 64

    def test_social_digraph_has_cycles_to_compress(self):
        rng = random.Random(18)
        graph = social_digraph(100, rng)
        components = strongly_connected_components(graph)
        assert len(components) < graph.n  # at least one non-trivial SCC
