"""Unit tests for the work--depth cost model (repro.core.cost)."""

from repro.core.cost import NULL_TRACKER, Cost, CostTracker, NullTracker, ensure_tracker


class TestCost:
    def test_then_adds_both(self):
        assert Cost(3, 2).then(Cost(4, 5)) == Cost(7, 7)

    def test_beside_sums_work_maxes_depth(self):
        tracker = CostTracker()
        tracker.parallel([Cost(3, 2), Cost(4, 5)], overhead=0)
        assert tracker.snapshot() == Cost(7, 5)

    def test_add_operator_is_sequential(self):
        assert Cost(1, 1) + Cost(2, 2) == Cost(3, 3)

    def test_truthiness(self):
        assert not Cost()
        assert Cost(1, 0)
        assert Cost(0, 1)


class TestCostTracker:
    def test_tick_defaults_depth_to_work(self):
        tracker = CostTracker()
        tracker.tick(5)
        assert tracker.snapshot() == Cost(5, 5)

    def test_tick_with_explicit_depth(self):
        tracker = CostTracker()
        tracker.tick(work=100, depth=3)
        assert tracker.snapshot() == Cost(100, 3)

    def test_parallel_folds_sum_and_max(self):
        tracker = CostTracker()
        tracker.parallel([Cost(10, 4), Cost(20, 7), Cost(5, 2)], overhead=1)
        assert tracker.snapshot() == Cost(36, 8)

    def test_parallel_of_nothing_charges_overhead_only(self):
        tracker = CostTracker()
        tracker.parallel([], overhead=1)
        assert tracker.snapshot() == Cost(1, 1)

    def test_fork_is_independent(self):
        tracker = CostTracker()
        branch = tracker.fork()
        branch.tick(10)
        assert tracker.snapshot() == Cost(0, 0)
        assert branch.snapshot() == Cost(10, 10)

    def test_measure_reports_delta(self):
        tracker = CostTracker()
        tracker.tick(5)
        with tracker.measure() as measurement:
            tracker.tick(7)
        assert measurement.cost == Cost(7, 7)
        assert tracker.snapshot() == Cost(12, 12)

    def test_reset(self):
        # A branch starts from zero whatever its parent has charged.
        tracker = CostTracker()
        tracker.tick(5)
        assert tracker.fork().snapshot() == Cost(0, 0)
        assert tracker.snapshot() == Cost(5, 5)


class TestNullTracker:
    def test_ignores_charges(self):
        tracker = NullTracker()
        tracker.tick(100)
        tracker.charge(Cost(5, 5))
        tracker.parallel([Cost(1, 1)])
        assert tracker.snapshot() == Cost(0, 0)

    def test_fork_returns_self(self):
        assert NULL_TRACKER.fork() is NULL_TRACKER

    def test_parallel_drains_lazy_iterables(self):
        # Branch work must still execute when tracking is off.
        executed = []

        def branches():
            for index in range(3):
                executed.append(index)
                yield Cost(1, 1)

        NULL_TRACKER.parallel(branches())
        assert executed == [0, 1, 2]

    def test_ensure_tracker(self):
        assert ensure_tracker(None) is NULL_TRACKER
        real = CostTracker()
        assert ensure_tracker(real) is real
