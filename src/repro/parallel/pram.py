"""A work--depth PRAM simulator (the paper's NC substrate).

The paper's online query-answering bound is **NC**: O(log^O(1) n) time on a
PRAM with n^O(1) processors (Section 2, "P and NC").  We cannot run a PRAM,
so this module *simulates* one at the cost-model level: parallel constructs
execute their branches sequentially in Python while accounting cost as a PRAM
would -- ``work = sum`` over branches, ``depth = max`` over branches (plus
O(1) fork/join overhead).  Measured depth is what the tractability certifier
feeds to the scaling classifier.

Two kinds of primitives exist in :mod:`repro.parallel`:

* **executed** primitives really perform the round structure of the parallel
  algorithm (pointer jumping, tree reduction, Hillis--Steele scan), charging
  per-element per-round; and
* **charged** primitives compute the value with an efficient sequential or
  numpy kernel but charge the textbook PRAM cost analytically (Boolean matrix
  squaring at n^3 work, sorting networks).  Each is documented as such.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, TypeVar

from repro.core.cost import CostTracker, ensure_tracker

__all__ = ["ParallelMachine"]

T = TypeVar("T")
R = TypeVar("R")


class ParallelMachine:
    """One PRAM, charging all parallel constructs to a single tracker.

    Branch callables receive a *forked* tracker; the machine folds branch
    snapshots back with ``work = sum``/``depth = max`` semantics.
    """

    def __init__(self, tracker: Optional[CostTracker] = None) -> None:
        self.tracker = ensure_tracker(tracker)

    # -- data-parallel map ---------------------------------------------------

    def pmap(self, fn: Callable[[T, CostTracker], R], items: Sequence[T]) -> List[R]:
        """Apply ``fn`` to every item on its own processor (executed).

        Depth is the maximum branch depth + O(1); work is the branch sum plus
        one unit per processor activation.
        """
        results: List[R] = []
        costs = []
        for item in items:
            sub = self.tracker.fork()
            sub.tick(1)  # processor activation
            results.append(fn(item, sub))
            costs.append(sub.snapshot())
        self.tracker.parallel(costs)
        return results

    # -- tree reduction --------------------------------------------------------

    def preduce(
        self,
        combine: Callable[[T, T, CostTracker], T],
        items: Sequence[T],
        identity: Optional[T] = None,
    ) -> Optional[T]:
        """Balanced-tree reduction (executed): depth O(log n * d_combine).

        Returns ``identity`` on empty input.
        """
        level = list(items)
        if not level:
            return identity
        while len(level) > 1:
            next_level: List[T] = []
            costs = []
            for i in range(0, len(level) - 1, 2):
                sub = self.tracker.fork()
                next_level.append(combine(level[i], level[i + 1], sub))
                costs.append(sub.snapshot())
            if len(level) % 2 == 1:
                next_level.append(level[-1])
            self.tracker.parallel(costs)
            level = next_level
        return level[0]

    # -- inclusive scan --------------------------------------------------------

    def pscan(self, op: Callable[[T, T], T], items: Sequence[T]) -> List[T]:
        """Hillis--Steele inclusive scan (executed).

        Depth O(log n), work O(n log n); ``op`` must be associative and is
        charged one unit per application.
        """
        values = list(items)
        n = len(values)
        distance = 1
        while distance < n:
            updated = list(values)
            applications = 0
            for i in range(distance, n):
                updated[i] = op(values[i - distance], values[i])
                applications += 1
            # One parallel round: every application runs concurrently.
            self.tracker.tick(work=applications, depth=1)
            values = updated
            distance *= 2
        return values

    # -- pointer jumping ---------------------------------------------------------

    def list_rank(self, successor: Sequence[Optional[int]]) -> List[int]:
        """Rank every node of a linked list by pointer jumping (executed).

        ``successor[i]`` is the next node index or ``None`` at the tail.
        Returns the number of hops from each node to the tail.  Depth
        O(log n), work O(n log n) -- the Wyllie list-ranking algorithm.
        """
        n = len(successor)
        nxt: List[Optional[int]] = list(successor)
        rank = [0 if nxt[i] is None else 1 for i in range(n)]
        rounds = 0
        while any(pointer is not None for pointer in nxt):
            new_rank = list(rank)
            new_next: List[Optional[int]] = list(nxt)
            for i in range(n):
                pointer = nxt[i]
                if pointer is not None:
                    new_rank[i] = rank[i] + rank[pointer]
                    new_next[i] = nxt[pointer]
            # Each of the n processors does O(1) per round.
            self.tracker.tick(work=n, depth=1)
            rank, nxt = new_rank, new_next
            rounds += 1
            if rounds > 2 * n + 2:  # pragma: no cover - guards against cycles
                raise ValueError("successor structure is not a forest of lists")
        return rank
