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

from typing import TYPE_CHECKING, Iterator, List, Optional

from repro.core.cost import CostTracker, ensure_tracker
from repro.core.errors import GraphError
from repro.graphs.graph import Digraph
from repro.graphs.scc import condensation

if TYPE_CHECKING:
    import numpy as np

__all__ = ["TransitiveClosureIndex"]


def _members(bits: int) -> Iterator[int]:
    """The positions of ``bits``' set bits, lowest first."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


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
        self._ancestors: Optional[List[int]] = None  # see insert_edge

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
        """Fold edge ``(source, target)`` into the closure; returns the number
        of component pairs that become reachable.

        Italiano-style maintenance at component granularity: the new pairs
        are exactly ``ancestors(source) x descendants(target)``.  A component
        that reaches ``source``'s component gains something iff it does not
        yet reach ``target``'s, so one AND-NOT of two ancestor bitsets names
        exactly the components that OR in ``target``'s descendant bitset; each
        then joins the ancestor sets of the components it now reaches.  A
        cycle-creating edge is handled without recomputing SCCs -- the
        component partition just stays finer than the true SCCs, which never
        changes vertex-level reachability.  The count is of component pairs:
        it equals the new vertex pairs while every component is one vertex
        (an index built over an edgeless graph stays so), and is smaller once
        one holds more.

        Cost: a redundant edge pays its one bit probe.  Otherwise the AND-NOT
        pays one unit per 64 components, as a build's bitset OR does, and
        every gained pair two (its closure bit, its ancestor bit) -- the |dO|
        part of |CHANGED| -- never a visit to a component that gains nothing.
        The ancestor sets are not part of :meth:`to_state`: the first
        non-redundant insert on a built or loaded index derives them, one
        unit per reachable component pair.
        """
        tracker = ensure_tracker(tracker)
        if not (0 <= source < self.n and 0 <= target < self.n):
            raise GraphError(f"vertex out of range: {source}, {target}")
        source_component = self._component_of[source]
        target_component = self._component_of[target]
        closure = self._closure
        tracker.tick(1)
        if closure[source_component] >> target_component & 1:
            return 0
        if self._ancestors is None:
            self._ancestors = self._derive_ancestors(tracker)
        ancestors = self._ancestors
        gain = closure[target_component]
        affected = ancestors[source_component] & ~ancestors[target_component]
        tracker.tick(max(1, self._dag_size // 64))
        new_pairs = 0
        for component in _members(affected):
            gained = gain & ~closure[component]
            closure[component] |= gained
            bit = 1 << component
            for reached in _members(gained):
                ancestors[reached] |= bit
            gained_count = gained.bit_count()
            new_pairs += gained_count
            tracker.tick(2 * gained_count)
        return new_pairs

    def _derive_ancestors(self, tracker: CostTracker) -> List[int]:
        """Per component, the bitset of components that reach it (reflexive)."""
        ancestors = [0] * self._dag_size
        for component, bits in enumerate(self._closure):
            bit = 1 << component
            for reached in _members(bits):
                ancestors[reached] |= bit
            tracker.tick(bits.bit_count())
        return ancestors

    def reachable_pair_count(self) -> int:
        """Number of ordered reachable vertex pairs (reflexive); an
        equivalence check used by the compression case study."""
        component_sizes = [0] * self._dag_size
        for component in self._component_of:
            component_sizes[component] += 1
        return sum(
            component_sizes[component]
            * sum(component_sizes[reached] for reached in _members(bits))
            for component, bits in enumerate(self._closure)
        )

    def __deepcopy__(self, memo: dict) -> "TransitiveClosureIndex":
        """A private copy: new lists over the same (immutable) bitsets."""
        index = type(self).__new__(type(self))
        index.n, index._dag_size = self.n, self._dag_size
        index._component_of, index._closure = self._component_of[:], self._closure[:]
        index._ancestors = None if self._ancestors is None else self._ancestors[:]
        return index

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
        index._ancestors = None
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
