"""Graph traversals, centrally the paper's Breadth-Depth Search (Example 2).

Breadth-depth search (BDS, after Horowitz & Sahni via [21]) hybridizes BFS
and DFS: the search *visits* every unvisited neighbor of the current node at
once (breadth), pushes them on a stack in reverse numbering order, then
continues from the top of the stack -- the smallest-numbered fresh neighbor
(depth).  The decision problem asks whether ``u`` is visited before ``v``
under the numbering-induced search; it is P-complete [21] and the paper's
ΠTP-complete problem (Theorem 5).

Two independent implementations are provided -- :func:`breadth_depth_search`
(stack-based, used everywhere) and :func:`breadth_depth_search_reference`
(event-queue based) -- so property tests can cross-check them.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Sequence, Set

from repro.core.cost import CostTracker, ensure_tracker
from repro.core.errors import GraphError
from repro.graphs.graph import _BaseGraph

__all__ = [
    "bfs_order",
    "breadth_depth_search",
    "breadth_depth_search_reference",
    "reachable_from",
    "is_reachable",
]


def breadth_depth_search(
    graph: _BaseGraph,
    start: Optional[int] = None,
    tracker: Optional[CostTracker] = None,
) -> List[int]:
    """Visit order of the breadth-depth search induced by the numbering.

    A node is *visited* when it is first reached (the moment Example 5's
    list M records).  The search starts at ``start`` (default: vertex 0) and,
    when the stack runs dry with unvisited vertices remaining, restarts at
    the smallest-numbered unvisited vertex, so the order is total.

    One cost unit is charged per scanned adjacency entry and per stack
    operation: a full run is Theta(n + m), the PTIME bound the preprocessing
    step of Example 5 pays once.
    """
    tracker = ensure_tracker(tracker)
    n = graph.n
    if start is not None and not 0 <= start < n:
        raise GraphError(f"start vertex {start} out of range")
    visited = [False] * n
    order: List[int] = []
    stack: List[int] = []

    def expand(node: int) -> None:
        """Visit all fresh neighbors of ``node``; push them in reverse order."""
        fresh: List[int] = []
        for neighbor in graph.neighbors(node):  # sorted = numbering order
            tracker.tick(1)
            if not visited[neighbor]:
                visited[neighbor] = True
                order.append(neighbor)
                fresh.append(neighbor)
        for neighbor in reversed(fresh):
            tracker.tick(1)
            stack.append(neighbor)

    roots = [start] if start is not None else []
    roots.extend(v for v in range(n) if start is None or v != start)
    for root in roots:
        tracker.tick(1)
        if visited[root]:
            continue
        visited[root] = True
        order.append(root)
        expand(root)
        while stack:
            tracker.tick(1)
            current = stack.pop()
            expand(current)
        if start is not None:
            # Caller asked for the component of `start` only when the graph
            # is connected from it; continue the numbering order regardless
            # to keep the order total, matching the default behaviour.
            continue
    return order


def breadth_depth_search_reference(graph: _BaseGraph) -> List[int]:
    """Independent BDS implementation for cross-checking (tests only).

    Uses an explicit agenda of "expansion events" rather than interleaving
    visit/expand in one loop; intentionally structured differently from
    :func:`breadth_depth_search`.
    """
    n = graph.n
    visited: Set[int] = set()
    order: List[int] = []
    for root in range(n):
        if root in visited:
            continue
        visited.add(root)
        order.append(root)
        agenda = deque([root])  # nodes awaiting expansion, LIFO at the left
        while agenda:
            node = agenda.popleft()
            fresh = [w for w in graph.neighbors(node) if w not in visited]
            for w in fresh:
                visited.add(w)
                order.append(w)
            # Continue from the smallest fresh neighbor first: push the fresh
            # nodes to the front, keeping their ascending order.
            for w in reversed(fresh):
                agenda.appendleft(w)
    return order


def bfs_order(
    graph: _BaseGraph,
    start: int = 0,
    tracker: Optional[CostTracker] = None,
) -> List[int]:
    """Plain BFS visit order from ``start`` (neighbors in numbering order)."""
    tracker = ensure_tracker(tracker)
    graph.neighbors(start)  # vertex check
    visited = [False] * graph.n
    visited[start] = True
    order = [start]
    queue = deque([start])
    while queue:
        node = queue.popleft()
        tracker.tick(1)
        for neighbor in graph.neighbors(node):
            tracker.tick(1)
            if not visited[neighbor]:
                visited[neighbor] = True
                order.append(neighbor)
                queue.append(neighbor)
    return order


def reachable_from(
    graph: _BaseGraph,
    source: int,
    tracker: Optional[CostTracker] = None,
) -> Set[int]:
    """The set of vertices reachable from ``source`` (BFS, Theta(n + m))."""
    return set(bfs_order(graph, source, tracker))


def is_reachable(
    graph: _BaseGraph,
    source: int,
    target: int,
    tracker: Optional[CostTracker] = None,
) -> bool:
    """Per-query BFS reachability -- the no-preprocessing GAP baseline
    (paper, Example 3)."""
    tracker = ensure_tracker(tracker)
    graph.neighbors(target)  # vertex check
    if source == target:
        tracker.tick(1)
        return True
    visited = [False] * graph.n
    visited[source] = True
    queue = deque([source])
    while queue:
        node = queue.popleft()
        tracker.tick(1)
        for neighbor in graph.neighbors(node):
            tracker.tick(1)
            if neighbor == target:
                return True
            if not visited[neighbor]:
                visited[neighbor] = True
                queue.append(neighbor)
    return False


def visit_position(order: Sequence[int]) -> List[int]:
    """Inverse of a visit order: ``position[v]`` = index of v in the order.

    This is exactly the preprocessed structure of Example 5 (the list M,
    inverted for O(1)/O(log) position lookups).
    """
    position = [-1] * len(order)
    for index, vertex in enumerate(order):
        position[vertex] = index
    return position
