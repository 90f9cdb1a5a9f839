"""Lowest common ancestors in trees: Euler tour + RMQ (paper, Section 4(4)).

The classical reduction of LCA to range-minimum queries [5]: write down the
Euler tour of the rooted tree and the depth of each tour entry; the LCA of
u and v is the shallowest vertex between their first occurrences.  After the
PTIME preprocessing (tour + sparse table), every LCA query is O(1).

A per-query baseline :func:`naive_tree_lca` recomputes parents by BFS from
the root each time (Theta(n)) -- the cost the paper's preprocessing removes.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Tuple

from repro.core.cost import CostTracker, ensure_tracker
from repro.core.errors import GraphError
from repro.graphs.graph import Graph
from repro.indexes import columns
from repro.indexes.sparse_table import SparseTable

__all__ = ["EulerTourLCA", "naive_tree_lca", "tree_parents"]


def tree_parents(
    tree: Graph,
    root: int,
    tracker: Optional[CostTracker] = None,
) -> List[int]:
    """Parent array by BFS from ``root``; parent[root] = -1.

    Raises GraphError if the graph is not a connected tree on its vertex set.
    """
    tracker = ensure_tracker(tracker)
    if tree.n == 0:
        raise GraphError("empty graph has no root")
    parent = [-2] * tree.n
    parent[root] = -1
    queue = deque([root])
    seen = 1
    while queue:
        node = queue.popleft()
        tracker.tick(1)
        for neighbor in tree.neighbors(node):
            tracker.tick(1)
            if parent[neighbor] == -2:
                parent[neighbor] = node
                seen += 1
                queue.append(neighbor)
    if seen != tree.n:
        raise GraphError("graph is not connected; not a tree")
    if tree.edge_count != tree.n - 1:
        raise GraphError("graph has extra edges; not a tree")
    return parent


class EulerTourLCA:
    """O(1) LCA queries on a rooted tree after O(n log n) preprocessing."""

    def __init__(self, tree: Graph, root: int = 0, tracker: Optional[CostTracker] = None):
        tracker = ensure_tracker(tracker)
        self.root = root
        self.parent = tree_parents(tree, root, tracker)

        tour: List[int] = []
        depths: List[int] = []
        first: List[int] = [-1] * tree.n
        # Iterative Euler tour: (vertex, depth, child iterator position).
        stack: List[Tuple[int, int, int]] = [(root, 0, 0)]
        while stack:
            vertex, depth, position = stack.pop()
            tracker.tick(1)
            if position == 0:
                first[vertex] = len(tour)
            tour.append(vertex)
            depths.append(depth)
            children = [w for w in tree.neighbors(vertex) if w != self.parent[vertex]]
            if position < len(children):
                stack.append((vertex, depth, position + 1))
                stack.append((children[position], depth + 1, 0))
        # Re-entering a vertex after each child appends it again, so the tour
        # has 2n - 1 entries; but the pop-reappend above also appends the
        # vertex once after the *last* child returns, giving the same bound.
        # tree_parents proved the tree connected, so no -1 sentinel of
        # ``first`` outlives the walk: both tables are position columns.
        self._tour = columns.positions(tour, tree.n)
        self._first = columns.positions(first, len(tour))
        self._rmq = SparseTable(depths, tracker)

    def lca(self, u: int, v: int, tracker: Optional[CostTracker] = None) -> int:
        """The lowest common ancestor of u and v; O(1)."""
        tracker = ensure_tracker(tracker)
        if not (0 <= u < len(self._first) and 0 <= v < len(self._first)):
            raise GraphError(f"vertex out of range: {u}, {v}")
        left, right = self._first[u], self._first[v]
        if left > right:
            left, right = right, left
        tracker.tick(2)
        return self._tour[self._rmq.argmin(left, right, tracker)]

    def is_ancestor(self, u: int, v: int, tracker: Optional[CostTracker] = None) -> bool:
        """Is u an ancestor of v (reflexive)?  O(1) via one LCA query."""
        return self.lca(u, v, tracker) == u

    # -- serialization --------------------------------------------------------

    def to_state(self) -> dict:
        """Plain-data snapshot: parents, tour, first occurrences, depth RMQ."""
        return {
            "root": self.root,
            "parent": columns.pack(self.parent),
            "tour": self._tour[:],
            "first": self._first[:],
            "rmq": self._rmq.to_state(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "EulerTourLCA":
        index = cls.__new__(cls)
        index.root = int(state["root"])
        index.parent = columns.unpack(state["parent"])
        index._tour = columns.positions(state["tour"], len(index.parent))
        index._first = columns.positions(state["first"], len(index._tour))
        index._rmq = SparseTable.from_state(state["rmq"])
        return index


def naive_tree_lca(
    tree: Graph,
    root: int,
    u: int,
    v: int,
    tracker: Optional[CostTracker] = None,
) -> int:
    """Per-query baseline: recompute parents by BFS, then climb.  Theta(n)."""
    tracker = ensure_tracker(tracker)
    parent = tree_parents(tree, root, tracker)

    ancestors = set()
    node = u
    while node != -1:
        tracker.tick(1)
        ancestors.add(node)
        node = parent[node]
    node = v
    while node not in ancestors:
        tracker.tick(1)
        node = parent[node]
    return node
