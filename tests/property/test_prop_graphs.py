"""Property tests: BDS invariants, SCC/closure correctness, compression."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import ReachabilityPreservingCompression
from repro.graphs import (
    Digraph,
    Graph,
    breadth_depth_search,
    breadth_depth_search_reference,
    is_reachable,
    strongly_connected_components,
)
from helpers import permute_vertices
from repro.indexes import TransitiveClosureIndex


@st.composite
def undirected_graphs(draw, max_n=40):
    n = draw(st.integers(min_value=1, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=2**30))
    rng = random.Random(seed)
    graph = Graph(n)
    for _ in range(draw(st.integers(min_value=0, max_value=3 * n))):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            graph.add_edge(u, v)
    return graph


@st.composite
def digraphs(draw, max_n=35):
    n = draw(st.integers(min_value=1, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=2**30))
    rng = random.Random(seed)
    graph = Digraph(n)
    for _ in range(draw(st.integers(min_value=0, max_value=3 * n))):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            graph.add_edge(u, v)
    return graph


class TestBDSProperties:
    @given(undirected_graphs())
    @settings(max_examples=100)
    def test_two_implementations_agree(self, graph):
        assert breadth_depth_search(graph) == breadth_depth_search_reference(graph)

    @given(undirected_graphs())
    @settings(max_examples=60)
    def test_order_is_a_permutation(self, graph):
        assert sorted(breadth_depth_search(graph)) == list(range(graph.n))

    @given(undirected_graphs())
    @settings(max_examples=60)
    def test_first_vertex_is_zero_and_children_ascend(self, graph):
        order = breadth_depth_search(graph)
        assert order[0] == 0
        # The vertices visited right after 0 are exactly 0's neighbours,
        # in ascending numbering order (the definition's first step).
        neighbors = list(graph.neighbors(0))
        assert order[1 : 1 + len(neighbors)] == neighbors

    @given(undirected_graphs(max_n=20), st.integers(min_value=0, max_value=2**30))
    @settings(max_examples=40)
    def test_renumbering_consistency(self, graph, seed):
        # BDS commutes with renumbering: searching the permuted graph equals
        # permuting the search of the original ONLY when the permutation is
        # order-preserving; the identity permutation is a sanity floor.
        identity = list(range(graph.n))
        assert breadth_depth_search(permute_vertices(graph, identity)) == (
            breadth_depth_search(graph)
        )


class TestClosureProperties:
    @given(digraphs(), st.data())
    @settings(max_examples=60)
    def test_index_matches_bfs(self, graph, data):
        index = TransitiveClosureIndex(graph)
        u = data.draw(st.integers(min_value=0, max_value=graph.n - 1))
        v = data.draw(st.integers(min_value=0, max_value=graph.n - 1))
        assert index.reachable(u, v) == is_reachable(graph, u, v)

    @given(digraphs())
    @settings(max_examples=40)
    def test_scc_members_mutually_reachable(self, graph):
        for component in strongly_connected_components(graph):
            anchor = component[0]
            for member in component[1:]:
                assert is_reachable(graph, anchor, member)
                assert is_reachable(graph, member, anchor)


class TestCompressionProperties:
    @given(digraphs(max_n=25), st.data())
    @settings(max_examples=50)
    def test_compression_preserves_reachability(self, graph, data):
        compressed = ReachabilityPreservingCompression(graph)
        u = data.draw(st.integers(min_value=0, max_value=graph.n - 1))
        v = data.draw(st.integers(min_value=0, max_value=graph.n - 1))
        assert compressed.reachable(u, v) == is_reachable(graph, u, v)

    @given(digraphs(max_n=25))
    @settings(max_examples=50)
    def test_compression_never_grows(self, graph):
        compressed = ReachabilityPreservingCompression(graph)
        assert compressed.compressed_vertices <= graph.n
        assert compressed.compression_ratio() >= 1.0
