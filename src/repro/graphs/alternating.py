"""Alternating graph accessibility (AGAP): a second P-complete case study.

AGAP is the classical P-complete cousin of GAP ([21]; the paper's Example 3
territory): vertices are *existential* (OR) or *universal* (AND), and ``s``
alternating-reaches ``t`` iff

* ``s == t``, or
* ``s`` is existential and **some** successor alternating-reaches ``t``, or
* ``s`` is universal, has at least one successor, and **all** successors
  alternating-reach ``t``.

Like BDS and CVP, AGAP is P-complete yet *can be made Pi-tractable* by the
graph-as-data factorization: a PTIME backward fixpoint per target vertex
precomputes every answer, after which queries are O(1) bit probes.  This
module supplies the substrate: the labelled digraph, the per-query fixpoint
(the naive baseline) and the all-targets preprocessing.
"""

from __future__ import annotations

import random
from collections import deque
from typing import List, Optional, Sequence

from repro.core.cost import CostTracker, ensure_tracker
from repro.core.errors import GraphError
from repro.graphs.graph import Digraph

__all__ = [
    "AlternatingDigraph",
    "alternating_reachable",
    "AlternatingReachabilityIndex",
    "random_alternating_digraph",
]


class AlternatingDigraph:
    """A digraph whose vertices are existential (False) or universal (True)."""

    def __init__(self, graph: Digraph, universal: Sequence[bool]):
        if len(universal) != graph.n:
            raise GraphError("universal-label vector must cover every vertex")
        self.graph = graph
        self.universal = list(universal)

    @property
    def n(self) -> int:
        return self.graph.n

    def is_universal(self, vertex: int) -> bool:
        return self.universal[vertex]

    def encode(self) -> str:
        from repro.core import alphabet

        return alphabet.encode(
            (
                self.graph.n,
                tuple(sorted(self.graph.edges())),
                tuple(self.universal),
            )
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AlternatingDigraph):
            return NotImplemented
        return self.graph == other.graph and self.universal == other.universal

    def __repr__(self) -> str:
        return (
            f"AlternatingDigraph(n={self.n}, m={self.graph.edge_count}, "
            f"universal={sum(self.universal)})"
        )


def _winning_set(agraph: AlternatingDigraph, target: int, tracker: CostTracker) -> List[bool]:
    """All vertices that alternating-reach ``target``: backward induction.

    Queue-based fixpoint with per-vertex pending-successor counters -- the
    standard O(n + m) attractor computation from game theory.
    """
    n = agraph.n
    reverse: List[List[int]] = [[] for _ in range(n)]
    out_degree = [0] * n
    for u, v in agraph.graph.edges():
        tracker.tick(1)
        reverse[v].append(u)
        out_degree[u] += 1

    accessible = [False] * n
    # For universal vertices: number of successors not yet known accessible.
    pending = list(out_degree)
    accessible[target] = True
    queue = deque([target])
    while queue:
        vertex = queue.popleft()
        tracker.tick(1)
        for predecessor in reverse[vertex]:
            tracker.tick(1)
            if accessible[predecessor]:
                continue
            if agraph.is_universal(predecessor):
                pending[predecessor] -= 1
                if pending[predecessor] == 0 and out_degree[predecessor] > 0:
                    accessible[predecessor] = True
                    queue.append(predecessor)
            else:
                accessible[predecessor] = True
                queue.append(predecessor)
    return accessible


def alternating_reachable(
    agraph: AlternatingDigraph,
    source: int,
    target: int,
    tracker: Optional[CostTracker] = None,
) -> bool:
    """Per-query fixpoint: the Theta(n + m) no-preprocessing baseline."""
    tracker = ensure_tracker(tracker)
    if not (0 <= source < agraph.n and 0 <= target < agraph.n):
        raise GraphError(f"vertex out of range: {source}, {target}")
    return _winning_set(agraph, target, tracker)[source]


class AlternatingReachabilityIndex:
    """All-pairs alternating reachability: PTIME build, O(1) queries.

    One backward fixpoint per target -- O(n(n + m)) preprocessing, within
    the PTIME budget of Definition 1 -- stored as per-target bitsets.
    """

    def __init__(self, agraph: AlternatingDigraph, tracker: Optional[CostTracker] = None):
        tracker = ensure_tracker(tracker)
        self.n = agraph.n
        self._winning: List[int] = []
        for target in range(agraph.n):
            bits = 0
            for vertex, ok in enumerate(_winning_set(agraph, target, tracker)):
                if ok:
                    bits |= 1 << vertex
            self._winning.append(bits)

    def reachable(self, source: int, target: int, tracker: Optional[CostTracker] = None) -> bool:
        ensure_tracker(tracker).tick(1)
        if not (0 <= source < self.n and 0 <= target < self.n):
            raise GraphError(f"vertex out of range: {source}, {target}")
        return bool(self._winning[target] >> source & 1)

    def to_state(self) -> dict:
        """Plain-data snapshot: one winning-set bitset (an ``int``) per target."""
        return {"n": self.n, "winning": list(self._winning)}

    @classmethod
    def from_state(cls, state: dict) -> "AlternatingReachabilityIndex":
        index = cls.__new__(cls)
        index.n = state["n"]
        index._winning = list(state["winning"])
        return index


def random_alternating_digraph(
    n: int,
    m: int,
    rng: random.Random,
    *,
    universal_fraction: float = 0.4,
) -> AlternatingDigraph:
    """A random labelled digraph with a mixed accessible/inaccessible profile."""
    from repro.graphs.generators import gnm_digraph

    graph = gnm_digraph(n, m, rng)
    universal = [rng.random() < universal_fraction for _ in range(n)]
    return AlternatingDigraph(graph, universal)
