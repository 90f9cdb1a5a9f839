"""A BSP (bulk-synchronous parallel) cost model (paper, Section 8, issue (1)).

The paper's first open issue: NC's PRAM "may not be accurate for parallel
systems such as MapReduce and its variants", and calls for models that
account both computation and *coordination* (synchronisation rounds) -- the
measure of [25, 29] and of Valiant's BSP [40].  This module supplies the
standard BSP accounting so the reproduction's algorithms can be re-measured
in round-oriented terms:

    cost = sum over supersteps of ( max local work + g * max messages + L )

with ``g`` the bandwidth coefficient and ``L`` the per-superstep latency
(barrier) charge.  The *number of supersteps* is the coordination complexity
a MapReduce deployment would care about.

Two reachability routes are provided as worked algorithms: frontier BFS
(diameter-many supersteps, light rounds) and repeated matrix squaring
(ceil(log2 n) supersteps, heavy rounds) -- the BSP rendering of Example 3's
trade-off, measured in ``benchmarks/bench_extensions.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Sequence

if TYPE_CHECKING:
    import numpy as np

__all__ = ["BSPMachine", "bsp_reachability_frontier", "bsp_reachability_squaring"]


@dataclass
class _Superstep:
    max_local_work: int
    max_messages: int


@dataclass
class BSPMachine:
    """Superstep ledger with Valiant's cost formula."""

    g: int = 2  #: bandwidth cost per message word
    latency: int = 50  #: barrier/synchronisation charge per superstep
    supersteps: List[_Superstep] = field(default_factory=list)

    def superstep(self, local_work_per_processor: Sequence[int], messages_per_processor: Sequence[int]) -> None:
        """Record one superstep from per-processor work/message profiles."""
        self.supersteps.append(
            _Superstep(
                max_local_work=max(local_work_per_processor, default=0),
                max_messages=max(messages_per_processor, default=0),
            )
        )

    @property
    def rounds(self) -> int:
        """Coordination complexity: the number of global synchronisations."""
        return len(self.supersteps)

    @property
    def total_cost(self) -> int:
        return sum(
            step.max_local_work + self.g * step.max_messages + self.latency
            for step in self.supersteps
        )

    def summary(self) -> str:
        return (
            f"BSP(rounds={self.rounds}, cost={self.total_cost}, "
            f"g={self.g}, L={self.latency})"
        )


def bsp_reachability_frontier(
    adjacency: np.ndarray,
    source: int,
    target: int,
    machine: BSPMachine,
) -> bool:
    """Frontier-expansion BFS: one vertex per processor, one superstep per
    BFS level.  Rounds = eccentricity of the source (up to n), each round
    cheap -- many synchronisations, little work."""
    import numpy as np

    n = adjacency.shape[0]
    visited = np.zeros(n, dtype=bool)
    visited[source] = True
    frontier = np.zeros(n, dtype=bool)
    frontier[source] = True
    while frontier.any():
        if visited[target]:
            return True
        # Each frontier processor scans its adjacency row and messages its
        # unvisited successors.
        successors = adjacency[frontier].any(axis=0) & ~visited
        work = [int(adjacency[v].sum()) + 1 for v in np.flatnonzero(frontier)]
        messages = [int((adjacency[v] & ~visited).sum()) for v in np.flatnonzero(frontier)]
        machine.superstep(work, messages)
        visited |= successors
        frontier = successors
    return bool(visited[target])


def bsp_reachability_squaring(
    adjacency: np.ndarray,
    source: int,
    target: int,
    machine: BSPMachine,
) -> bool:
    """Matrix-squaring reachability: ceil(log2 n) supersteps, each a full
    Boolean matrix product -- few synchronisations, heavy rounds.  This is
    the BSP/MapReduce rendering of the NC algorithm (cf. [28]: NC algorithms
    translate to O(t) MapReduce rounds)."""
    import numpy as np

    n = adjacency.shape[0]
    reach = adjacency.astype(bool) | np.eye(n, dtype=bool)
    rounds = max(1, math.ceil(math.log2(max(n, 2))))
    for _ in range(rounds):
        reach = np.matmul(reach, reach) > 0
        # One processor per matrix row: n^2 multiply-adds of local work,
        # and it exchanges its row (n words) with the others.
        machine.superstep([n * n] * n, [n] * n)
    return bool(reach[source, target])
