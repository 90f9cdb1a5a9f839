"""Work--depth cost accounting: the paper's complexity claims, made measurable.

The paper defines online query answering to be feasible on big data when it is
in **NC**: parallel polylog *time* on polynomially many processors.  Python
wall-clock cannot witness that claim, so every algorithm in this library is
written against a :class:`CostTracker` that accounts two quantities in the
standard work--depth (PRAM) model:

``work``
    total number of elementary operations across all processors, and

``depth``
    the length of the critical path, i.e. parallel time with unbounded
    processors.

Sequential code charges ``tick(w)`` which advances *both* counters by ``w``.
Parallel constructs combine branch costs with ``work = sum`` and
``depth = max`` via :meth:`CostTracker.parallel`.  The certification harness
(:mod:`repro.core.tractability`) then fits measured depth curves against
``c * log^k n`` and ``c * n^a`` to decide, empirically, whether an evaluator
is in NC (depth polylog, work polynomial).

Conventions used throughout the library:

* one comparison, hash probe, pointer dereference, or arithmetic operation
  costs ``1`` unit of work;
* functions that accept an optional tracker use ``ensure_tracker`` so that the
  common no-measurement path pays a near-zero price (:data:`NULL_TRACKER`).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

__all__ = [
    "Cost",
    "CostTracker",
    "NullTracker",
    "NULL_TRACKER",
    "ensure_tracker",
]


@dataclass(frozen=True)
class Cost:
    """An immutable (work, depth) pair in the PRAM work--depth model."""

    work: int = 0
    depth: int = 0

    def then(self, other: "Cost") -> "Cost":
        """Sequential composition: work and depth both add."""
        return Cost(self.work + other.work, self.depth + other.depth)

    def __add__(self, other: "Cost") -> "Cost":
        return self.then(other)

    def __bool__(self) -> bool:
        return self.work != 0 or self.depth != 0


class CostTracker:
    """Mutable accumulator of work and depth.

    A tracker models one sequential thread of control.  Parallel sections are
    measured on forked trackers (one per branch) and folded back in with
    :meth:`parallel`.

    Example::

        tracker = CostTracker()
        tracker.tick(3)                      # 3 sequential steps
        branches = []
        for item in items:
            sub = tracker.fork()
            do_work(item, sub)               # charged to the branch
            branches.append(sub.snapshot())
        tracker.parallel(branches)           # work=sum, depth=max
    """

    __slots__ = ("work", "depth")

    def __init__(self) -> None:
        self.work = 0
        self.depth = 0

    # -- charging -----------------------------------------------------------

    def tick(self, work: int = 1, depth: Optional[int] = None) -> None:
        """Charge ``work`` sequential operations.

        ``depth`` defaults to ``work`` (sequential semantics).  Pass an
        explicit smaller ``depth`` only for analytically-charged parallel
        primitives (see :mod:`repro.parallel.primitives`).
        """
        self.work += work
        self.depth += work if depth is None else depth

    def charge(self, cost: Cost) -> None:
        """Sequentially append a measured :class:`Cost`."""
        self.work += cost.work
        self.depth += cost.depth

    def parallel(self, branch_costs: Iterable[Cost], overhead: int = 1) -> None:
        """Fold the costs of parallel branches into this tracker.

        Work is the sum over branches, depth is the maximum, and ``overhead``
        units of depth are charged for the fork/join (a PRAM charges O(1) to
        activate processors).
        """
        total_work = 0
        max_depth = 0
        for cost in branch_costs:
            total_work += cost.work
            if cost.depth > max_depth:
                max_depth = cost.depth
        self.work += total_work + overhead
        self.depth += max_depth + overhead

    # -- measurement --------------------------------------------------------

    def fork(self) -> "CostTracker":
        """A fresh tracker for measuring one parallel branch."""
        return CostTracker()

    def snapshot(self) -> Cost:
        """The cost accumulated so far."""
        return Cost(self.work, self.depth)

    @contextmanager
    def measure(self) -> Iterator["_Measurement"]:
        """Context manager yielding the cost delta of the enclosed block::

            with tracker.measure() as m:
                evaluate(..., tracker)
            print(m.cost.depth)
        """
        measurement = _Measurement()
        start_work, start_depth = self.work, self.depth
        try:
            yield measurement
        finally:
            measurement.cost = Cost(self.work - start_work, self.depth - start_depth)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CostTracker(work={self.work}, depth={self.depth})"


class _Measurement:
    """Holder populated by :meth:`CostTracker.measure` on block exit."""

    __slots__ = ("cost",)

    def __init__(self) -> None:
        self.cost = Cost()


class NullTracker(CostTracker):
    """A tracker that ignores all charges.

    Used as the default in hot paths (index probes inside large benchmarks)
    so un-instrumented callers pay almost nothing.  ``fork`` returns the
    shared singleton, so branch measurement is free as well.
    """

    __slots__ = ()

    def tick(self, work: int = 1, depth: Optional[int] = None) -> None:
        pass

    def charge(self, cost: Cost) -> None:
        pass

    def parallel(self, branch_costs: Iterable[Cost], overhead: int = 1) -> None:
        # The iterable may be lazy (a generator of snapshots); drain it so the
        # branch computations still run identically with or without tracking.
        for _ in branch_costs:
            pass

    def fork(self) -> "CostTracker":
        return self


NULL_TRACKER = NullTracker()


def ensure_tracker(tracker: Optional[CostTracker]) -> CostTracker:
    """Return ``tracker`` itself, or the shared no-op tracker for ``None``."""
    return NULL_TRACKER if tracker is None else tracker
