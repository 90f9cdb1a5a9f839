"""PRAM primitives built on :class:`~repro.parallel.pram.ParallelMachine`.

Each primitive notes whether it is **executed** (the parallel round structure
really runs, charging per element per round) or **charged** (the value is
computed by an efficient sequential/numpy kernel while the textbook PRAM cost
is charged analytically).  Charged primitives exist where honestly executing
the PRAM schedule in pure Python would be quadratic-or-worse overhead without
changing any measured *shape* -- the depth formula is what certification
consumes.

A third category exists for the serving hot path: **untracked** kernels
(:func:`binary_search_untracked`) compute the same value as their executed
twin with zero instrumentation -- the production fast path of the service
layer, where the polylog *shape* is already certified and only the constant
matters.  Analytic callers must keep using the executed primitives.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import TYPE_CHECKING, List, Optional, Sequence, TypeVar

from repro.core.cost import CostTracker, ensure_tracker
from repro.parallel.pram import ParallelMachine

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "parallel_sum",
    "parallel_max",
    "parallel_any",
    "parallel_binary_search",
    "binary_search_untracked",
    "parallel_sort",
    "transitive_closure_squaring",
    "reachability_query_squaring",
]

T = TypeVar("T")


def parallel_sum(values: Sequence[float], machine: ParallelMachine) -> float:
    """Tree-sum (executed): depth O(log n), work O(n)."""

    def combine(a: float, b: float, tracker: CostTracker) -> float:
        tracker.tick(1)
        return a + b

    result = machine.preduce(combine, values, identity=0.0)
    assert result is not None
    return result


def parallel_max(values: Sequence[T], machine: ParallelMachine) -> Optional[T]:
    """Tree-max (executed): depth O(log n), work O(n); None on empty input."""

    def combine(a: T, b: T, tracker: CostTracker) -> T:
        tracker.tick(1)
        return a if a >= b else b  # type: ignore[operator]

    return machine.preduce(combine, values)


def parallel_any(flags: Sequence[bool], machine: ParallelMachine) -> bool:
    """Tree-OR (executed): depth O(log n), work O(n)."""

    def combine(a: bool, b: bool, tracker: CostTracker) -> bool:
        tracker.tick(1)
        return a or b

    result = machine.preduce(combine, flags, identity=False)
    return bool(result)


def parallel_binary_search(
    sorted_values: Sequence[T],
    key: T,
    tracker: Optional[CostTracker] = None,
) -> int:
    """Leftmost insertion point of ``key`` in ``sorted_values`` (executed).

    Binary search is already in NC -- a single processor, O(log n) depth --
    which is exactly the paper's Example 1/Example 5 query step.  One unit is
    charged per comparison.
    """
    tracker = ensure_tracker(tracker)
    lo, hi = 0, len(sorted_values)
    while lo < hi:
        mid = (lo + hi) // 2
        tracker.tick(1)
        if sorted_values[mid] < key:  # type: ignore[operator]
            lo = mid + 1
        else:
            hi = mid
    return lo


def binary_search_untracked(sorted_values: Sequence[T], key: T) -> int:
    """Leftmost insertion point of ``key`` (untracked; C ``bisect``).

    The production twin of :func:`parallel_binary_search`: identical result
    for every input (both compute the leftmost insertion point), but the
    comparisons run inside CPython's C ``bisect_left`` with no per-step
    charge -- the kernel behind the service layer's untracked serving
    fast path.
    """
    return bisect_left(sorted_values, key)  # type: ignore[arg-type]


def parallel_sort(
    values: Sequence[T],
    machine: ParallelMachine,
    *,
    key=None,
) -> List[T]:
    """Sort (charged): bitonic-network cost -- depth O(log^2 n), work
    O(n log^2 n).

    The values are produced by Python's sort; the charge follows Batcher's
    bitonic sorting network, the standard NC sorting bound used when citing
    "sorting is in NC".
    """
    n = len(values)
    result = sorted(values, key=key)
    if n > 1:
        rounds = math.ceil(math.log2(n)) ** 2
        machine.tracker.tick(work=n * rounds, depth=rounds)
    return result


def transitive_closure_squaring(
    adjacency: np.ndarray,
    machine: ParallelMachine,
) -> np.ndarray:
    """Reflexive-transitive closure by repeated Boolean squaring (charged).

    This is the classical NC algorithm for the Graph Accessibility Problem
    (paper, Example 3: GAP is NL-complete and NL is contained in NC): square
    the Boolean matrix ceil(log2 n) times.  Each squaring charges n^3 work
    (one processor per (i, j, k) triple) and log2(n) + 1 depth (an AND, then
    an OR-reduction tree over n terms); total depth O(log^2 n).

    The value itself is computed with numpy matrix products.
    """
    import numpy as np  # loaded by the first squaring, not by the scalar primitives

    n = adjacency.shape[0]
    if adjacency.shape != (n, n):
        raise ValueError("adjacency must be a square Boolean matrix")
    reach = adjacency.astype(bool) | np.eye(n, dtype=bool)
    if n <= 1:
        return reach
    rounds = math.ceil(math.log2(n))
    depth_per_round = math.ceil(math.log2(n)) + 1
    for _ in range(rounds):
        reach = np.matmul(reach, reach) > 0
        machine.tracker.tick(work=n**3, depth=depth_per_round)
    return reach


def reachability_query_squaring(
    adjacency: np.ndarray,
    source: int,
    target: int,
    machine: ParallelMachine,
) -> bool:
    """Answer one s-t reachability query in NC *without preprocessing*.

    Used by the Example 3 experiment to contrast three regimes: per-query BFS
    (PTIME), per-query NC matrix squaring (polylog depth, n^3 log n work),
    and O(1) lookup in a precomputed closure (Pi-tractable regime).
    """
    closure = transitive_closure_squaring(adjacency, machine)
    machine.tracker.tick(1)
    return bool(closure[source, target])
