"""Deterministic random graph generators for workloads and property tests.

All generators take an explicit ``random.Random`` so workloads are
reproducible from a seed, per the certification harness's contract.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.graphs.graph import Digraph, Graph

__all__ = [
    "gnm_graph",
    "gnm_digraph",
    "random_connected_graph",
    "random_tree",
    "random_dag",
    "social_digraph",
]


def gnm_graph(n: int, m: int, rng: random.Random) -> Graph:
    """Undirected G(n, m): m distinct edges sampled uniformly."""
    graph = Graph(n)
    seen = set()
    max_edges = n * (n - 1) // 2
    m = min(m, max_edges)
    while len(seen) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        edge = (min(u, v), max(u, v))
        if edge not in seen:
            seen.add(edge)
            graph.add_edge(*edge)
    return graph


def gnm_digraph(n: int, m: int, rng: random.Random, *, allow_cycles: bool = True) -> Digraph:
    """Directed G(n, m); with ``allow_cycles=False`` only forward edges
    (u < v) are drawn, so the result is a DAG under the identity numbering."""
    graph = Digraph(n)
    seen = set()
    max_edges = n * (n - 1) if allow_cycles else n * (n - 1) // 2
    m = min(m, max_edges)
    while len(seen) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        if not allow_cycles and u > v:
            u, v = v, u
        if (u, v) not in seen:
            seen.add((u, v))
            graph.add_edge(u, v)
    return graph


def random_tree(n: int, rng: random.Random) -> Graph:
    """Uniform random labelled tree-ish: each vertex v > 0 attaches to a
    uniformly random earlier vertex (a random recursive tree)."""
    tree = Graph(n)
    for v in range(1, n):
        parent = rng.randrange(v)
        tree.add_edge(parent, v)
    return tree


def random_connected_graph(n: int, extra_edges: int, rng: random.Random) -> Graph:
    """A random recursive tree plus ``extra_edges`` random chords."""
    graph = random_tree(n, rng)
    added = 0
    attempts = 0
    while added < extra_edges and attempts < 20 * (extra_edges + 1):
        attempts += 1
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v)
            added += 1
    return graph


def random_dag(n: int, m: int, rng: random.Random) -> Digraph:
    """A DAG with edges oriented low-to-high vertex number."""
    return gnm_digraph(n, m, rng, allow_cycles=False)


def social_digraph(
    n: int,
    rng: random.Random,
    *,
    out_degree: int = 4,
) -> Digraph:
    """A preferential-attachment-flavoured digraph standing in for the social
    networks of the query-preserving-compression case study (Section 4(5)).

    Vertex v follows ``out_degree`` targets biased toward high-degree early
    vertices; a fraction of back-edges creates non-trivial SCCs so that
    condensation has something to contract.
    """
    graph = Digraph(n)
    # Popularity grows as vertices acquire in-edges; start everyone at 1.
    popularity: List[int] = [1] * n
    total = n
    for v in range(1, n):
        targets = set()
        for _ in range(min(out_degree, v)):
            # Roulette-wheel over current popularity of earlier vertices.
            pick = rng.randrange(total)
            accumulated = 0
            chosen = 0
            for u in range(v):
                accumulated += popularity[u]
                if pick < accumulated:
                    chosen = u
                    break
            targets.add(chosen)
        for u in targets:
            graph.add_edge(v, u)
            popularity[u] += 1
            total += 1
        # Occasionally reciprocate to create cycles (SCCs to compress).
        if v >= 2 and rng.random() < 0.3:
            u = rng.randrange(v)
            if not graph.has_edge(u, v):
                graph.add_edge(u, v)
    return graph


def random_vertex_pairs(
    n: int,
    count: int,
    rng: random.Random,
    *,
    distinct: bool = True,
) -> List[Tuple[int, int]]:
    """Query workload helper: ``count`` (u, v) pairs over ``range(n)``."""
    pairs = []
    for _ in range(count):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if distinct and n > 1:
            while v == u:
                v = rng.randrange(n)
        pairs.append((u, v))
    return pairs
