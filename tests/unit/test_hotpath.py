"""Unit tests for the serving hot path (ISSUE 5).

Covers the serve-plan fast path and its ownership story (a plan keeps what
it captured until detach, whatever the cache evicts; apply_changes
republishes mutable versions), the vectorized and chunked
batch paths, the sharded per-thread query counters, and the
query-racing-``detach`` regression: a query a caller's thread runs after
detach must raise :class:`~repro.core.errors.UnknownDatasetError` cleanly,
never a ``KeyError``/``AttributeError`` out of half-released session state.
The engine has no serve pool: every concurrent test brings its own threads.
"""

from __future__ import annotations

import gc
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.catalog import build_query_engine
from repro.core.cost import CostTracker
from repro.core.errors import IndexError_, ServiceError, UnknownDatasetError
from repro.incremental.changes import ChangeKind, PointWrite, TupleChange
from repro.queries import (
    fischer_heun_scheme,
    membership_class,
    rmq_class,
    sorted_run_scheme,
)
from repro.service.engine import EngineStats, QueryEngine


def _flat_engine(**kwargs) -> QueryEngine:
    engine = QueryEngine(**kwargs)
    engine.register("membership", membership_class(), sorted_run_scheme())
    engine.register("rmq", rmq_class(), fischer_heun_scheme())
    return engine


# -- queries racing detach (ISSUE 5 satellite) ---------------------------------


def _settled(futures):
    """How many futures answered a bool; the rest must have raised the
    session error (never a KeyError/AttributeError from released internals)."""
    answered = 0
    for future in futures:
        try:
            answer = future.result(timeout=30)
        except UnknownDatasetError:
            continue  # the clean post-detach outcome
        assert isinstance(answer, bool)  # ran before the detach won
        answered += 1
    return answered


def test_submitted_futures_after_detach_raise_unknown_dataset_cleanly():
    """Queries queued on test-owned threads that run after detach() fail with
    the session error; the ones that ran before it are counted exactly."""
    for _ in range(10):
        engine = _flat_engine()
        ds = engine.attach("events", tuple(range(256)), kinds=["membership"])
        ds.warm()
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(ds.query, "membership", q) for q in range(64)]
            ds.detach()
            answered = _settled(futures)
        # Lock-free per-thread counters, folded on read: no answer is lost.
        assert engine.stats().per_kind["membership"].queries == answered
        engine.close()


def test_submitted_futures_after_mutable_detach_raise_cleanly():
    for _ in range(5):
        engine = _flat_engine()
        ds = engine.attach("events", tuple(range(128)), mutable=True)
        ds.query("membership", 5)
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(ds.query, "membership", q) for q in range(32)]
            writer = pool.submit(
                ds.apply_changes, [TupleChange(ChangeKind.INSERT, (999,))]
            )
            ds.detach()
            try:
                writer.result(timeout=30)
            except UnknownDatasetError:
                pass  # the write lost the race too
            answered = _settled(futures)
        assert engine.stats().per_kind["membership"].queries == 1 + answered
        engine.close()


def test_submit_racing_engine_close_raises_service_error():
    """A query that loses the race against close() surfaces the engine's
    ServiceError (UnknownDatasetError is one), nothing rawer."""
    engine = _flat_engine()
    ds = engine.attach("events", tuple(range(64)), kinds=["membership"])
    ds.warm()
    outcomes = []

    def caller():
        for query in range(5000):
            try:
                ds.query("membership", query)
            except ServiceError as exc:
                outcomes.append(exc)
                return
            except BaseException as exc:  # pragma: no cover - the regression
                outcomes.append(exc)
                raise

    thread = threading.Thread(target=caller)
    thread.start()
    engine.close()
    thread.join(timeout=30)
    assert not thread.is_alive()
    # Whatever point the race reached, only the engine's own error escaped.
    assert all(isinstance(outcome, ServiceError) for outcome in outcomes), outcomes


# -- serve plans ----------------------------------------------------------------


def test_plan_is_cached_after_first_query_and_dropped_on_detach():
    with _flat_engine() as engine:
        ds = engine.attach("events", (5, 1, 4), kinds=["membership"])
        assert ds._plans == {}
        assert ds.query("membership", 5) is True
        assert "membership" in ds._plans
        ds.detach()
        assert ds._plans == {}
        with pytest.raises(UnknownDatasetError):
            ds.query("membership", 5)


def test_live_plan_keeps_its_structure_through_evictions():
    """A serve plan owns what it captured: evicting its structure from the
    LRU leaves the plan in place, and its next query builds nothing."""
    with _flat_engine(cache_entries=1) as engine:
        ds = engine.attach("events", (5, 1, 4), kinds=["membership"])
        assert ds.query("membership", 5) is True
        plan = ds._plans["membership"]
        ds2 = engine.attach("arrays", (3, 1, 2), kinds=["rmq"])
        assert ds2.query("rmq", (0, 2, 1)) is True  # evicts the membership build
        assert engine.stats().cache.evictions == 1
        assert ds._plans["membership"] is plan
        assert ds.query("membership", 1) is True
        assert engine.stats().per_kind["membership"].builds == 1


def test_live_sessions_past_cache_capacity_build_once_each():
    """More live structures than ``cache_entries`` still serve from their
    plans: 10 sessions over an 8-entry cache, queried round-robin, build
    10 times -- not once per query as the LRU thrashes."""
    with build_query_engine(cache_entries=8) as engine:
        sessions = [
            engine.attach(f"s{i}", tuple(range(i, i + 64)), kinds=["list-membership"])
            for i in range(10)
        ]
        for _round in range(4):
            for i, ds in enumerate(sessions):
                assert ds.query("list-membership", i + 5) is True
        stats = engine.stats()
        assert stats.cache.evictions > 0
        assert stats.per_kind["list-membership"].builds == 10


def test_mutable_sharded_writes_cost_a_neighbour_no_rebuild():
    """Fallback rebuilds of a mutable sharded session fill the shared LRU
    past capacity; a warmed neighbour's plan keeps serving without a
    rebuild."""
    with build_query_engine() as engine:
        rmq = engine.attach(
            "array", tuple(range(256, 0, -1)), kinds=["minimum-range-query"]
        ).warm()
        events = engine.attach(
            "events", tuple(range(4096)), kinds=["list-membership"],
            shards=4, mutable=True,
        )
        assert events.query("list-membership", 7) is True
        for value in range(80):
            events.apply_changes([TupleChange(ChangeKind.INSERT, (10_000 + value,))])
        assert events.query("list-membership", 10_079) is True
        assert rmq.query("minimum-range-query", (0, 255, 255)) is True
        stats = engine.stats()
        assert stats.cache.evictions > 0
        assert stats.per_kind["minimum-range-query"].builds == 1


def test_eviction_of_unrelated_keys_spares_other_sessions_plans():
    """A cache big enough for both structures: plans coexist and survive
    each other's resolutions (no global all-plans invalidation)."""
    with _flat_engine(cache_entries=8) as engine:
        ds = engine.attach("events", (5, 1, 4), kinds=["membership"])
        assert ds.query("membership", 5) is True
        plan = ds._plans["membership"]
        ds2 = engine.attach("arrays", (3, 1, 2), kinds=["rmq"])
        assert ds2.query("rmq", (0, 2, 1)) is True
        assert ds._plans["membership"] is plan  # untouched by the rmq build


def test_query_tracked_runs_the_analytic_evaluator_on_mutable_sessions():
    with _flat_engine() as engine:
        ds = engine.attach("events", tuple(range(256)), mutable=True)
        tracker = CostTracker()
        assert ds.query_tracked("membership", 17, tracker) is True
        assert tracker.work > 0  # the cost-charging evaluate ran, not the kernel


def test_serve_seconds_excludes_first_touch_build_time():
    """Resolution on a plan's first query (a sharded plan's every shard,
    mutable first touch) must land in build counters, never in
    serve_seconds."""
    with _flat_engine() as engine:
        # 2^16 values: a shard build (~1 ms) dwarfs one probe (~1 us) even
        # when a scheduler hiccup lands on the probe.
        ds = engine.attach("events", tuple(range(1 << 16)), kinds=["membership"], shards=4)
        assert ds.query("membership", 17) is True  # builds every shard
        stats = ds.stats()["kinds"]["membership"]
        assert stats["build_seconds"] > 0
        assert stats["serve_seconds"] < stats["build_seconds"]


def test_invalidate_spares_plans_of_attached_equal_content_sessions():
    with _flat_engine() as engine:
        ds = engine.attach("events", (5, 1, 4), kinds=["membership"])
        assert ds.query("membership", 5) is True
        # A second session with equal content shares the cached build;
        # detaching it must not evict (the first session still serves).
        twin = engine.attach("twin", [5, 1, 4], kinds=["membership"])
        assert twin.query("membership", 5) is True
        twin.detach()
        assert "membership" in ds._plans  # the plan survived
        assert ds.query("membership", 1) is True


def test_mutable_plan_reflects_apply_changes_without_restitching():
    """The mutable serve plan reads the current structure per query, so a
    delta batch (in-place) and a fallback rebuild (structure swap) are both
    picked up immediately."""
    with _flat_engine() as engine:
        ds = engine.attach("events", (5, 1, 4), mutable=True)
        assert ds.query("membership", 9) is False
        ds.apply_changes([TupleChange(ChangeKind.INSERT, (9,))])
        assert ds.query("membership", 9) is True  # delta-maintained in place
        ds.apply_changes([PointWrite(0, -7)])  # membership refuses -> rebuild
        assert ds.query("membership", -7) is True
        assert ds.query("membership", 5) is False


@pytest.mark.parametrize("shards", [1, 4])
def test_answers_over_numpy_ints_are_plain_bools(shards):
    """An answer's type depends on neither the data's element type nor the
    shard count: plans bind the kernels directly, so a kernel over a run
    of numpy ints must itself answer ``bool``, on every path."""
    queries = {"list-membership": [3, 4, 198, -1],
               "minimum-range-query": [(1, 5, 1), (1, 5, 2), (0, 66, 0)]}
    pairs = [(kind, query) for kind, batch in queries.items() for query in batch]
    with build_query_engine() as engine:
        ds = engine.attach("a", np.arange(0, 200, 3), kinds=sorted(queries),
                           shards=shards)
        answers = [ds.query(kind, query) for kind, query in pairs]
        answers += ds.query_batch(pairs)
        answers += [ds.query_tracked(kind, query, CostTracker())
                    for kind, query in pairs]
    assert [type(answer) for answer in answers] == [bool] * 3 * len(pairs)
    assert answers == [True, False, True, False, True, False, True] * 3


# -- fast path == tracked path over exceptional queries -------------------------


def test_fast_path_error_parity_on_malformed_queries():
    with _flat_engine() as engine:
        ds = engine.attach("events", (3, 1, 2), kinds=["rmq"])
        with pytest.raises(IndexError_):
            ds.query_tracked("rmq", (2, 99, 0), CostTracker())
        with pytest.raises(IndexError_):
            ds.query("rmq", (2, 99, 0))


def test_query_tracked_charges_the_given_tracker():
    with _flat_engine() as engine:
        ds = engine.attach("events", tuple(range(512)), kinds=["membership"])
        tracker = CostTracker()
        assert ds.query_tracked("membership", 17, tracker) is True
        assert tracker.work > 0  # the analytic evaluator really ran
        before = tracker.work
        assert ds.query("membership", 17) is True  # untracked kernel
        assert tracker.work == before


# -- vectorized batches ----------------------------------------------------------


def test_query_batch_groups_by_kind_and_preserves_order():
    with _flat_engine() as engine:
        data = tuple(range(64))
        ds = engine.attach("events", data)
        pairs = []
        for i in range(50):  # interleave two kinds
            pairs.append(("membership", i * 3))
            pairs.append(("rmq", (0, 63, 0)))
        answers = ds.query_batch(pairs)
        expected = [ds.query(kind, q) for kind, q in pairs]
        assert answers == expected
        assert ds.query_batch([]) == []


def test_mutable_query_batch_stays_batch_atomic_under_writes():
    """Grouped mutable batches still hold one latch: a concurrent writer can
    never tear a batch (all answers pre-batch or all post-batch)."""
    engine = _flat_engine()
    ds = engine.attach("events", (1, 2, 3), mutable=True)
    ds.warm(["membership"])
    stop = threading.event = threading.Event()
    torn = []

    def reader():
        while not stop.is_set():
            # 999 and -999 are inserted by the same batch: a snapshot-
            # consistent batch answers both the same way.
            low, high = ds.query_batch([("membership", 999), ("membership", -999)])
            if low != high:
                torn.append((low, high))
                return

    threads = [threading.Thread(target=reader) for _ in range(3)]
    for thread in threads:
        thread.start()
    for _ in range(40):
        ds.apply_changes(
            [
                TupleChange(ChangeKind.INSERT, (999,)),
                TupleChange(ChangeKind.INSERT, (-999,)),
            ]
        )
        ds.apply_changes(
            [
                TupleChange(ChangeKind.DELETE, (999,)),
                TupleChange(ChangeKind.DELETE, (-999,)),
            ]
        )
    stop.set()
    for thread in threads:
        thread.join()
    assert torn == []
    engine.close()


# -- sharded query counters -------------------------------------------------------


def test_stats_fold_across_threads():
    with _flat_engine() as engine:
        data = tuple(range(128))
        ds = engine.attach("events", data, kinds=["membership"])
        ds.warm()

        def worker():
            for q in range(25):
                ds.query("membership", q)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = ds.stats()["kinds"]["membership"]
        assert stats["queries"] == 100
        assert stats["serve_seconds"] > 0
        before = engine.stats().per_kind["membership"]
        ds.query("membership", 1)
        after = engine.stats().per_kind["membership"]
        assert after.queries - before.queries == 1
        assert after.serve_seconds > before.serve_seconds


def test_dead_threads_retire_their_counters_and_read_slots():
    """Thread-per-request traffic: each short-lived thread leaves a counter
    shard and a read slot behind, and both are retired when it exits --
    the counts fold in (none lost), the registries keep live threads only."""
    with _flat_engine() as engine:
        fixed = engine.attach("fixed", tuple(range(64)), kinds=["membership"]).warm()
        live = engine.attach("live", tuple(range(64)), kinds=["membership"], mutable=True)
        live.warm()  # this thread's read slot: the one live reader left

        def request(value):
            assert fixed.query("membership", value) is True
            assert live.query("membership", value) is True

        for start in range(0, 200, 20):
            threads = [threading.Thread(target=request, args=(value % 64,))
                       for value in range(start, start + 20)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        gc.collect()
        assert engine._query_counters._shards == []  # no dead thread's shard
        assert engine.stats().per_kind["membership"].queries == 400
        assert len(live._mutable._versions._indicator._slots) == 1


# -- stats shape under concurrency (ISSUE 7 satellite) -------------------------


def test_stats_snapshot_shape_stays_stable_under_concurrent_readers_and_writer():
    """``Dataset.stats()`` / ``stats_snapshot()`` keep their documented dict
    shape while reader threads hammer them against one mutating writer --
    no KeyError/RuntimeError out of half-updated counter state."""
    health_keys = set(EngineStats.HEALTH_FIELDS)
    with _flat_engine() as engine:
        ds = engine.attach("events", (1, 2, 3), kinds=["membership"], mutable=True)
        ds.query("membership", 1)
        failures = []
        stop = threading.Event()

        def reader():
            try:
                while not stop.is_set():
                    session = ds.stats()
                    assert session["dataset"] == "events"
                    assert session["mutable"] is True
                    assert isinstance(session["version"], int)
                    counters = session["kinds"]["membership"]
                    assert set(counters) >= {"queries", "hit_rate", "delta_batches"}
                    snapshot = engine.stats().stats_snapshot()
                    assert set(snapshot["health"]) == health_keys
                    assert all(
                        isinstance(value, int) and value >= 0
                        for value in snapshot["health"].values()
                    )
                    assert "membership" in snapshot["per_kind"]
            except BaseException as exc:  # surfaced after join
                failures.append(exc)

        readers = [threading.Thread(target=reader) for _ in range(3)]
        for thread in readers:
            thread.start()
        for value in range(200):
            ds.apply_changes([TupleChange(ChangeKind.INSERT, (value,))])
            ds.query("membership", value)
        stop.set()
        for thread in readers:
            thread.join()
        assert not failures, failures
        assert ds.stats()["kinds"]["membership"]["delta_batches"] == 200


# -- hot-path floors -------------------------------------------------------------


def test_fast_path_and_vectorized_batch_stay_ahead_of_tracked_dispatch():
    """What the serve plans buy, held as a floor at |D| = 2^12: the fast
    path's p50 is at least 2.5x under tracked dispatch (measured ~3.2x), and
    a 1024-pair ``query_batch`` at least 4x faster than a plain loop of
    ``query_tracked`` on the calling thread (measured 5.0-7.4x).  The best of five
    back-to-back ratios is judged: one shot dips under 2.5x about once in
    40 runs on a busy host, while a refactor that drops the plans or the
    vectorized path reads ~1x on all five."""
    kind = "list-membership"
    with build_query_engine() as engine:
        query_class, _ = engine.registration(kind)
        data, queries = query_class.sample_workload(2**12, 20130826, 64)
        ds = engine.attach("floor", data).warm([kind])
        for query in queries:  # steady state on both paths
            assert ds.query(kind, query) == ds.query_tracked(kind, query)
        pairs = [(kind, query) for query in queries] * 16

        def p50(run_one):
            samples = []
            for position in range(600):
                query = queries[position % len(queries)]
                started = time.perf_counter()
                run_one(kind, query)
                samples.append(time.perf_counter() - started)
            return statistics.median(samples)

        def timed(run):
            started = time.perf_counter()
            answers = run()
            return time.perf_counter() - started, answers

        single, batch = [], []
        for _ in range(5):
            single.append(p50(ds.query_tracked) / p50(ds.query))
            looped_s, looped = timed(lambda: [ds.query_tracked(*pair) for pair in pairs])
            vector_s, vector = timed(lambda: ds.query_batch(pairs))
            assert looped == vector
            batch.append(looped_s / vector_s)
    assert max(single) >= 2.5, single
    assert max(batch) >= 4.0, batch
