"""Graphs with vertex numbering (the substrate of BDS, GAP, LCA, VC).

Vertices are the integers ``0 .. n-1``; the *numbering* that induces the
breadth-depth search of Example 2 is exactly this integer order.  Adjacency
lists are kept sorted so "visit children in the order induced by the vertex
numbering" is a plain left-to-right sweep.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, Tuple

from repro.core import alphabet
from repro.core.errors import GraphError

__all__ = ["Graph", "Digraph"]

Edge = Tuple[int, int]


class _BaseGraph:
    """Shared storage for directed and undirected graphs."""

    directed: bool

    def __init__(self, n: int, edges: Iterable[Edge] = ()) -> None:
        if n < 0:
            raise GraphError("vertex count must be non-negative")
        self.n = n
        self._adj: List[List[int]] = [[] for _ in range(n)]
        for u, v in edges:
            self.add_edge(u, v)

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise GraphError(f"vertex {v} out of range [0, {self.n})")

    def add_edge(self, u: int, v: int) -> bool:
        """Add edge ``(u, v)``; returns whether one was added (False for an
        edge already present)."""
        self._check_vertex(u)
        self._check_vertex(v)
        added = self._insert_sorted(self._adj[u], v)
        if added and not self.directed and u != v:
            self._insert_sorted(self._adj[v], u)
        return added

    @staticmethod
    def _insert_sorted(adjacency: List[int], v: int) -> bool:
        """Insert keeping the list sorted; False for a duplicate edge."""
        import bisect

        position = bisect.bisect_left(adjacency, v)
        if position < len(adjacency) and adjacency[position] == v:
            return False
        adjacency.insert(position, v)
        return True

    @staticmethod
    def _remove_sorted(adjacency: List[int], v: int) -> bool:
        """Remove ``v`` from a sorted adjacency; False when absent."""
        import bisect

        position = bisect.bisect_left(adjacency, v)
        if position < len(adjacency) and adjacency[position] == v:
            del adjacency[position]
            return True
        return False

    def remove_edge(self, u: int, v: int) -> bool:
        """Delete edge ``(u, v)`` if present; returns whether one was removed.

        The mutation counterpart of :meth:`add_edge`, used by the mutable
        serving layer to maintain working graph copies under
        :class:`~repro.incremental.changes.EdgeChange` batches.
        """
        self._check_vertex(u)
        self._check_vertex(v)
        removed = self._remove_sorted(self._adj[u], v)
        if removed and not self.directed and u != v:
            self._remove_sorted(self._adj[v], u)
        return removed

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        import bisect

        adjacency = self._adj[u]
        position = bisect.bisect_left(adjacency, v)
        return position < len(adjacency) and adjacency[position] == v

    def neighbors(self, v: int) -> Sequence[int]:
        """Sorted adjacency of ``v`` (out-neighbors when directed)."""
        self._check_vertex(v)
        return self._adj[v]

    def edges(self) -> Iterator[Edge]:
        """Each edge once: (u <= v) for undirected, (u, v) for directed."""
        for u in range(self.n):
            for v in self._adj[u]:
                if self.directed or u <= v:
                    yield (u, v)

    @property
    def edge_count(self) -> int:
        return sum(1 for _ in self.edges())

    # -- Sigma* view ------------------------------------------------------------

    def encode(self) -> str:
        return alphabet.encode(
            (self.directed, self.n, tuple(sorted(self.edges())))
        )

    @classmethod
    def decode(cls, text: str) -> "_BaseGraph":
        directed, n, edges = alphabet.decode(text)
        graph: _BaseGraph = Digraph(n) if directed else Graph(n)
        for u, v in edges:
            graph.add_edge(u, v)
        return graph

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _BaseGraph):
            return NotImplemented
        return (
            self.directed == other.directed
            and self.n == other.n
            and self._adj == other._adj
        )

    def __hash__(self) -> int:
        return hash((self.directed, self.n, tuple(tuple(a) for a in self._adj)))

    def __repr__(self) -> str:
        kind = "Digraph" if self.directed else "Graph"
        return f"{kind}(n={self.n}, m={self.edge_count})"


class Graph(_BaseGraph):
    """Undirected graph with numbered vertices (BDS operates on these)."""

    directed = False


class Digraph(_BaseGraph):
    """Directed graph (GAP/reachability, DAG LCA, circuits-as-DAGs)."""

    directed = True

    def reversed(self) -> "Digraph":
        result = Digraph(self.n)
        for u, v in self.edges():
            result.add_edge(v, u)
        return result
