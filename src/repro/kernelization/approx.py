"""Approximate Pi-tractability for Vertex Cover (paper, Section 8, issue (5)).

The paper asks: "If a given problem cannot be made Pi-tractable, can we
still preprocess its data set so that approximate parallel polylog-time
algorithms can be developed?"  For Vertex Cover the classical maximal-
matching bound gives exactly that:

* **preprocessing** (O(|E|), PTIME): greedily compute a maximal matching M;
  then |M| <= OPT <= 2|M|.
* **queries** ``k`` (any budget!) answer in O(1): report ``|M| <= k``.

The O(1) answer is a *one-sided approximation* of "OPT <= k":

* an approximate **no** (|M| > k) is always exact (OPT >= |M| > k);
* an approximate **yes** guarantees a cover of size <= 2|M| <= 2k -- every
  exact yes is reported yes, and a yes answer may overshoot the budget by
  at most a factor 2.

So after linear preprocessing, the NP-complete query answers instantly with
a certified bicriteria guarantee -- the approximate escape hatch the paper
sketches for problems outside PiTP.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from repro.core.cost import CostTracker, ensure_tracker
from repro.graphs.graph import Graph

__all__ = ["maximal_matching", "ApproximateVertexCoverOracle"]


def maximal_matching(
    graph: Graph,
    tracker: Optional[CostTracker] = None,
) -> List[Tuple[int, int]]:
    """Greedy maximal matching in edge order; O(|E|)."""
    tracker = ensure_tracker(tracker)
    matched: Set[int] = set()
    matching: List[Tuple[int, int]] = []
    for u, v in graph.edges():
        tracker.tick(1)
        if u not in matched and v not in matched:
            matched.add(u)
            matched.add(v)
            matching.append((u, v))
    return matching


class ApproximateVertexCoverOracle:
    """O(1) one-sided-approximate answers to "has G a cover of size <= k"."""

    def __init__(self, graph: Graph, tracker: Optional[CostTracker] = None):
        tracker = ensure_tracker(tracker)
        self.matching = maximal_matching(graph, tracker)
        #: Lower bound on the optimum cover size.
        self.lower_bound = len(self.matching)
        #: The certified cover: both endpoints of every matched edge.
        self.cover = sorted({v for edge in self.matching for v in edge})

    @property
    def upper_bound(self) -> int:
        """A cover of this size exists (2-approximation witness)."""
        return len(self.cover)

    def probably_coverable(self, budget: int, tracker: Optional[CostTracker] = None) -> bool:
        """O(1) approximate answer to ``OPT <= budget``.

        False answers are exact; True answers certify a cover of size at
        most ``2 * budget`` (one-sided, factor-2 guarantee).
        """
        ensure_tracker(tracker).tick(1)
        return self.lower_bound <= budget
