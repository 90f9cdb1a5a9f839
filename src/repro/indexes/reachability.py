"""Transitive-closure reachability index (paper, Example 3).

Example 3's preprocessing for the Graph Accessibility Problem: "precompute a
matrix that records the reachability between all pairs of nodes, then answer
all queries in O(1)".  The build runs in PTIME:

1. condense the digraph (vertices in one SCC are mutually reachable);
2. sweep the condensation in reverse topological order, OR-ing successor
   reachability bitsets -- O((n + m) * n / wordsize) word operations with
   Python integers as bitsets;
3. answer ``u ->* v`` by one bit test on the component-level closure.

``as_matrix`` exports the vertex-level closure as a numpy Boolean matrix for
cross-checking against the NC matrix-squaring evaluator in
:mod:`repro.parallel.primitives`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.core.cost import CostTracker, ensure_tracker
from repro.core.errors import GraphError
from repro.graphs.graph import Digraph
from repro.graphs.scc import condensation

if TYPE_CHECKING:
    import numpy as np

__all__ = ["TransitiveClosureIndex"]


class TransitiveClosureIndex:
    """O(1) reachability queries after PTIME closure computation."""

    def __init__(self, graph: Digraph, tracker: Optional[CostTracker] = None):
        tracker = ensure_tracker(tracker)
        self.n = graph.n
        dag, component_of = condensation(graph, tracker)
        self._component_of = component_of

        # Component ids are topologically ordered (sources first), so a
        # reverse sweep sees all successors before each vertex.
        words = max(1, dag.n // 64)
        closure: List[int] = [0] * dag.n
        for component in range(dag.n - 1, -1, -1):
            bits = 1 << component
            for successor in dag.neighbors(component):
                bits |= closure[successor]
                tracker.tick(words)
            closure[component] = bits
        self._closure = closure
        self._dag_size = dag.n

    def reachable(self, source: int, target: int, tracker: Optional[CostTracker] = None) -> bool:
        """``source ->* target``; one bit probe, O(1)."""
        tracker = ensure_tracker(tracker)
        if not (0 <= source < self.n and 0 <= target < self.n):
            raise GraphError(f"vertex out of range: {source}, {target}")
        tracker.tick(1)
        return bool(
            self._closure[self._component_of[source]]
            & (1 << self._component_of[target])
        )

    def reachable_fast(self, source: int, target: int) -> bool:
        """Untracked :meth:`reachable`: same bounds check, one bit probe."""
        if not (0 <= source < self.n and 0 <= target < self.n):
            raise GraphError(f"vertex out of range: {source}, {target}")
        component_of = self._component_of
        return bool(
            self._closure[component_of[source]] >> component_of[target] & 1
        )

    # -- delta maintenance (paper, Section 4(7)) ------------------------------

    def insert_edge(self, source: int, target: int, tracker: Optional[CostTracker] = None) -> int:
        """Fold edge ``(source, target)`` into the closure; returns new pairs.

        Italiano-style incremental maintenance at component granularity: the
        new reachable pairs are exactly ``ancestors(source) x
        descendants(target)``, so every component whose closure contains
        ``source``'s component ORs in ``target``'s descendant bitset.  A
        cycle-creating edge is handled without recomputing SCCs -- the
        component partition just stays finer than the true SCCs, which never
        changes vertex-level reachability.  Work is one bit probe per
        component plus one word-OR per changed word (the |dO| part of
        |CHANGED|), versus the full condensation sweep of a rebuild.
        """
        tracker = ensure_tracker(tracker)
        if not (0 <= source < self.n and 0 <= target < self.n):
            raise GraphError(f"vertex out of range: {source}, {target}")
        source_component = self._component_of[source]
        target_component = self._component_of[target]
        tracker.tick(1)
        if self._closure[source_component] >> target_component & 1:
            return 0
        gain = self._closure[target_component]
        new_pairs = 0
        for component in range(self._dag_size):
            if self._closure[component] >> source_component & 1:
                gained = gain & ~self._closure[component]
                if gained:
                    self._closure[component] |= gained
                    gained_count = gained.bit_count()
                    new_pairs += gained_count
                    tracker.tick(gained_count)
                else:
                    tracker.tick(1)
            else:
                tracker.tick(1)
        return new_pairs

    def descendants(self, source: int) -> List[int]:
        """All vertices reachable from ``source`` (reflexive)."""
        bits = self._closure[self._component_of[source]]
        return [
            vertex
            for vertex in range(self.n)
            if bits & (1 << self._component_of[vertex])
        ]

    def reachable_pair_count(self) -> int:
        """Number of ordered reachable vertex pairs (reflexive); an
        equivalence check used by the compression case study."""
        component_sizes = [0] * self._dag_size
        for component in self._component_of:
            component_sizes[component] += 1
        total = 0
        for component, bits in enumerate(self._closure):
            reachable_vertices = 0
            remaining = bits
            while remaining:
                low = remaining & -remaining
                reachable_vertices += component_sizes[low.bit_length() - 1]
                remaining ^= low
            total += component_sizes[component] * reachable_vertices
        return total

    # -- serialization --------------------------------------------------------

    def to_state(self) -> dict:
        """Plain-data snapshot: the condensation map and closure bitsets."""
        return {
            "n": self.n,
            "component_of": list(self._component_of),
            "closure": list(self._closure),
            "dag_size": self._dag_size,
        }

    @classmethod
    def from_state(cls, state: dict) -> "TransitiveClosureIndex":
        index = cls.__new__(cls)
        index.n = int(state["n"])
        index._component_of = list(state["component_of"])
        index._closure = list(state["closure"])
        index._dag_size = int(state["dag_size"])
        return index

    def as_matrix(self) -> np.ndarray:
        """The vertex-level reflexive closure as a Boolean numpy matrix."""
        import numpy as np  # loaded by the first matrix export, not by the index

        matrix = np.zeros((self.n, self.n), dtype=bool)
        for source in range(self.n):
            bits = self._closure[self._component_of[source]]
            for target in range(self.n):
                if bits & (1 << self._component_of[target]):
                    matrix[source, target] = True
        return matrix
