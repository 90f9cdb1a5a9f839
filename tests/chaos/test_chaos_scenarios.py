"""Chaos suite: every registered fault scenario, pinned to its recovery.

One test per :data:`repro.service.faults.SCENARIOS` entry.  Each test arms
the scenario against a real serving stack, asserts the *defined* recovery
behavior (the "Failure model" table in ``docs/architecture.md``), and
asserts the exact health counters the scenario must move
(``stats_snapshot()["health"]``).  A completeness test at the bottom keeps
the registry and this file in lockstep: adding a scenario without pinning
it here fails CI.

The suite is deselected from tier-1 by the ``chaos`` marker (see
``pyproject.toml``); the CI chaos job runs it under three fixed seeds via
``CHAOS_SEED``.
"""

from __future__ import annotations

import os
import random
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.catalog import build_query_engine
from repro.core.errors import ShardFailedError, WriteBehindError
from repro.incremental.changes import ChangeKind, TupleChange
from repro.service import faults
from repro.service.artifacts import ArtifactStore
from repro.service.faults import (
    SCENARIOS,
    DegradedAnswer,
    RecoveryPolicy,
    scenario,
)

pytestmark = pytest.mark.chaos

#: The CI chaos job sweeps this over three fixed seeds; locally it is 0.
CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))

#: Fast backoffs/thresholds so retry loops resolve in milliseconds.
FAST_POLICY = RecoveryPolicy(
    writebehind_attempts=2,
    writebehind_backoff_seconds=0.001,
    slow_shard_seconds=0.005,
    slow_load_seconds=0.005,
)


@pytest.fixture(autouse=True)
def _always_disarm():
    """No test may leak an armed plan into the next (or into teardown)."""
    yield
    faults.clear_fault_plan()


def _insert(*row):
    return TupleChange(ChangeKind.INSERT, tuple(row))


def _persisted_membership(tmp_path, data):
    """Build and persist the list-membership artifact, then return a fresh
    engine whose first query must come from the store."""
    store = ArtifactStore(tmp_path)
    with build_query_engine(store=store) as warmup:
        warmup.attach("d", data, kinds=["list-membership"]).warm()
    return build_query_engine(store=store)


# -- store.read ----------------------------------------------------------------


def test_corrupt_artifact_recovers_by_bounded_retry(tmp_path):
    """One corrupt read (default ``times=1``): the engine counts the
    checksum failure, retries the read, and serves from the now-clean file
    -- no rebuild, no deleted artifact."""
    data = tuple(range(64))
    with _persisted_membership(tmp_path, data) as engine:
        ds = engine.attach("d", data, kinds=["list-membership"])
        with scenario("corrupt-artifact", seed=CHAOS_SEED).armed():
            assert ds.query("list-membership", 7)
            assert not ds.query("list-membership", 99)
        health = engine.stats().health()
        assert health["checksum_failures"] == 1
        assert health["rebuild_retries"] == 1
        stats = engine.stats().per_kind["list-membership"]
        assert stats.store_hits == 1  # the retry read the clean file
        assert stats.builds == 0  # recovery never fell back to a rebuild
        assert engine._store.contains(ds.artifact_key("list-membership"))


def test_corrupt_artifact_persistent_rebuilds_from_source(tmp_path):
    """Every read corrupt (``times=None``): retries exhaust, the bad
    artifact is deleted, and the structure rebuilds from source -- always
    safe, artifacts are pure caches of PTIME-recomputable state."""
    data = tuple(range(64))
    with _persisted_membership(tmp_path, data) as engine:
        ds = engine.attach("d", data, kinds=["list-membership"])
        with scenario("corrupt-artifact", seed=CHAOS_SEED, times=None).armed():
            assert ds.query("list-membership", 7)
        health = engine.stats().health()
        assert health["checksum_failures"] == 2  # first read + one retry
        assert health["rebuild_retries"] == 1
        stats = engine.stats().per_kind["list-membership"]
        assert stats.store_hits == 0
        assert stats.builds == 1
    # The rebuild re-persisted a clean artifact: a third engine store-hits.
    with build_query_engine(store=ArtifactStore(tmp_path)) as engine:
        assert engine.attach("d", data, kinds=["list-membership"]).query(
            "list-membership", 7
        )
        assert engine.stats().per_kind["list-membership"].store_hits == 1


def test_truncate_artifact_detected_and_recovered(tmp_path):
    """Truncation trips the length/checksum integrity checks -- the same
    recovery family as bit rot: count, retry, serve."""
    data = tuple(range(64))
    with _persisted_membership(tmp_path, data) as engine:
        ds = engine.attach("d", data, kinds=["list-membership"])
        with scenario("truncate-artifact", seed=CHAOS_SEED).armed():
            assert ds.query("list-membership", 7)
        health = engine.stats().health()
        assert health["checksum_failures"] == 1
        assert health["rebuild_retries"] == 1
        assert engine.stats().per_kind["list-membership"].store_hits == 1


def test_slow_artifact_read_counts_slow_loads(tmp_path):
    """A slow read still serves correctly; the latency is observable as a
    ``slow_loads`` tick instead of a silent stall."""
    data = tuple(range(64))
    with _persisted_membership(tmp_path, data) as engine:
        ds = engine.attach("d", data, kinds=["list-membership"])
        plan = scenario("slow-artifact-read", seed=CHAOS_SEED, policy=FAST_POLICY)
        with plan.armed():
            assert ds.query("list-membership", 7)
        assert plan.fired_count("store.read") == 1
        health = engine.stats().health()
        assert health["slow_loads"] >= 1
        assert health["checksum_failures"] == 0
        assert engine.stats().per_kind["list-membership"].store_hits == 1


# -- shard.partial -------------------------------------------------------------


def test_dead_shard_union_degrades_explicitly():
    """Union-merge kinds answer from the surviving shards, but the answer
    is a :class:`DegradedAnswer` -- partial, loud, never silently wrong."""
    data = tuple(range(64))
    with build_query_engine() as engine:
        ds = engine.attach("d", data, kinds=["list-membership"], shards=3)
        assert ds.query("list-membership", 7)  # warm all routed state
        plan = scenario("dead-shard", kind="list-membership", seed=CHAOS_SEED)
        with plan.armed():
            answer = ds.query("list-membership", 7)
        assert isinstance(answer, DegradedAnswer)
        assert answer.partial is True
        assert answer.failed_shards  # names which shard was lost
        assert answer == answer or True  # int-compatible; never raises
        health = engine.stats().health()
        assert health["degraded_answers"] == 1
        assert health["shard_failures"] == 0  # union never fails fast
        # Disarmed, the same probe is whole again -- and unmarked.
        recovered = ds.query("list-membership", 7)
        assert recovered and not getattr(recovered, "partial", False)


def test_dead_shard_monoid_fails_fast():
    """Monoid-combine kinds (RMQ) cannot tolerate a missing partial: a lost
    shard raises :class:`ShardFailedError` instead of guessing."""
    data = tuple(range(48))
    with build_query_engine() as engine:
        ds = engine.attach("d", data, kinds=["minimum-range-query"], shards=3)
        assert ds.query("minimum-range-query", (0, 47, 0))  # warm
        with scenario("dead-shard", kind="minimum-range-query", seed=CHAOS_SEED).armed():
            with pytest.raises(ShardFailedError):
                ds.query("minimum-range-query", (0, 47, 0))
        health = engine.stats().health()
        assert health["shard_failures"] == 1
        assert health["degraded_answers"] == 0
        assert ds.query("minimum-range-query", (0, 47, 0))  # recovered


def test_dead_shard_kway_fails_fast():
    """K-way-merge kinds (top-k) are fail-fast like monoids: a global
    ranking cannot be cut down to the shards that answered."""
    data = tuple((i, 100 - i) for i in range(16))  # every row aggregates to 100
    with build_query_engine() as engine:
        ds = engine.attach("d", data, kinds=["topk-threshold"], shards=3)
        assert ds.query("topk-threshold", ((1, 1), 3, 100))  # warm
        with scenario("dead-shard", kind="topk-threshold", seed=CHAOS_SEED).armed():
            with pytest.raises(ShardFailedError):
                ds.query("topk-threshold", ((1, 1), 3, 100))
        assert engine.stats().health()["shard_failures"] == 1
        assert ds.query("topk-threshold", ((1, 1), 3, 100))


def test_slow_shard_counts_timeouts_and_stays_correct():
    data = tuple(range(64))
    with build_query_engine() as engine:
        ds = engine.attach("d", data, kinds=["list-membership"], shards=3)
        assert ds.query("list-membership", 7)
        plan = scenario(
            "slow-shard", kind="list-membership", seed=CHAOS_SEED, policy=FAST_POLICY
        )
        with plan.armed():
            answer = ds.query("list-membership", 7)
        assert answer and not getattr(answer, "partial", False)
        health = engine.stats().health()
        assert health["shard_timeouts"] >= 1
        assert health["degraded_answers"] == 0


# -- cache.put -----------------------------------------------------------------


def test_eviction_storm_never_changes_answers():
    """Every cache insert force-evicts a batch of entries, racing the
    serve-plan invalidation watchers.  Serving survives: structures
    re-resolve through the ordinary layers and answers never change."""
    data = tuple(range(64))
    with build_query_engine(cache_entries=8) as engine:
        ds = engine.attach(
            "d", data, kinds=["list-membership", "minimum-range-query"]
        )
        expected_member = [(probe, probe in data) for probe in range(-4, 70, 7)]
        plan = scenario("eviction-storm", seed=CHAOS_SEED, storm_size=2)
        with plan.armed():
            for _ in range(5):
                for probe, expected in expected_member:
                    assert ds.query("list-membership", probe) == expected
                assert ds.query("minimum-range-query", (0, 63, 0))
        assert plan.fired_count("cache.put") > 0
        assert engine.stats().cache.evictions > 0
        assert engine.stats().health()["cache_listener_errors"] == 0


# -- mutable.delta -------------------------------------------------------------


def test_failed_delta_apply_commits_batch_and_repairs():
    """``apply_delta`` crashes mid-batch: the batch still commits (content
    is the source of truth) and the structure is repaired by rebuild, so no
    torn snapshot is ever published."""
    with build_query_engine() as engine:
        ds = engine.attach("d", (1, 2, 3), kinds=["list-membership"], mutable=True)
        assert ds.query("list-membership", 2)  # materialize the structure
        with scenario("failed-delta-apply", kind="list-membership", seed=CHAOS_SEED).armed():
            ds.apply_changes([_insert(9)])
            # The faulted batch is fully visible -- no torn state.
            assert ds.query("list-membership", 9)
            assert ds.query("list-membership", 2)
        health = engine.stats().health()
        assert health["write_rollbacks"] == 1
        stats = engine.stats().per_kind["list-membership"]
        assert stats.fallback_rebuilds == 1
        assert stats.delta_batches == 0  # the crashed fold never counted
        # Disarmed, the next batch folds in place again.
        ds.apply_changes([_insert(11)])
        assert ds.query("list-membership", 11)
        assert engine.stats().per_kind["list-membership"].delta_batches == 1


def test_failed_delta_apply_repair_is_visible_on_the_tracked_path():
    """Same torn-batch guard through the analytic evaluator
    (``query_tracked``), on a session warmed instead of first-queried."""
    with build_query_engine() as engine:
        ds = engine.attach("d", (1, 2, 3), kinds=["list-membership"], mutable=True)
        ds.warm()
        with scenario("failed-delta-apply", seed=CHAOS_SEED).armed():
            ds.apply_changes([_insert(9)])
            assert ds.query_tracked("list-membership", 9)
        health = engine.stats().health()
        assert health["write_rollbacks"] == 1
        assert engine.stats().per_kind["list-membership"].fallback_rebuilds == 1


# -- store.write ---------------------------------------------------------------


def test_disk_full_writebehind_retries_then_flush_raises(tmp_path):
    """Write-behind hits a full disk: retries with backoff, keeps serving
    from memory, and ``flush()`` surfaces the terminal error instead of
    silently leaving a stale artifact.  Clearing the fault heals."""
    store = ArtifactStore(tmp_path)
    with build_query_engine(store=store) as engine:
        ds = engine.attach("d", (1, 2, 3), kinds=["list-membership"], mutable=True)
        assert ds.query("list-membership", 2)
        plan = scenario(
            "disk-full-writebehind", seed=CHAOS_SEED, times=None, policy=FAST_POLICY
        )
        with plan.armed():
            ds.apply_changes([_insert(9)])
            assert ds.query("list-membership", 9)  # memory stays current
            with pytest.raises(WriteBehindError) as excinfo:
                ds.flush()
            assert isinstance(excinfo.value.__cause__, OSError)
        health = engine.stats().health()
        assert health["writebehind_retries"] >= 1
        assert health["writebehind_failures"] >= 1
        ds.flush()  # disk "freed": the sync re-persist succeeds and heals
        assert ds.query("list-membership", 9)


def test_disk_full_sync_build_serves_from_memory(tmp_path):
    """A cold build whose synchronous persist fails still serves -- only
    durability is lost, and ``persist_failures`` makes that observable."""
    data = tuple(range(64))
    store = ArtifactStore(tmp_path)
    with build_query_engine(store=store) as engine:
        ds = engine.attach("d", data, kinds=["list-membership"])
        with scenario("disk-full-writebehind", seed=CHAOS_SEED, times=None).armed():
            assert ds.query("list-membership", 7)
            assert not ds.query("list-membership", 99)
        health = engine.stats().health()
        assert health["persist_failures"] == 1
        assert not store.contains(ds.artifact_key("list-membership"))
        assert engine.stats().per_kind["list-membership"].builds == 1


# -- worker.serve --------------------------------------------------------------


def _fast_worker_policy():
    return RecoveryPolicy(
        worker_restart_attempts=3,
        worker_restart_backoff_seconds=0.01,
    )


def _await_full_strength(supervisor, budget_seconds=10.0):
    """Poll until every worker slot is healthy again; the budget bounds the
    whole restart story (backoff + spawn + engine boot + replay)."""
    deadline = time.monotonic() + budget_seconds
    while time.monotonic() < deadline:
        health = supervisor.health()
        if health["healthy_workers"] == health["workers"]:
            return health
        time.sleep(0.02)
    return supervisor.health()


def test_dead_worker_reads_retry_once_and_pool_restores(tmp_path):
    """A worker killed mid-read (``worker.serve`` crash on worker 0): the
    in-flight read is retried once on a healthy sibling -- every answer
    stays exactly right, no call errors -- and the slot restarts within the
    backoff budget, re-attaching the dataset from the supervisor's table."""
    from repro.service.frontend.supervisor import Supervisor

    data = tuple(range(64))
    expected = set(data)
    plan = scenario("dead-worker", seed=CHAOS_SEED, after=2 + CHAOS_SEED % 3)
    supervisor = Supervisor(
        2,
        store_root=str(tmp_path),
        policy=_fast_worker_policy(),
        fault_plan=plan,
        fault_workers=(0,),
        poll_seconds=0.005,
    )
    supervisor.start()
    try:
        supervisor.call(
            "attach", dataset="d",
            value={"name": "d", "data": data, "kinds": ["list-membership"],
                   "shards": 1, "mutable": False},
        )
        for query in range(-4, 36):
            answer = supervisor.call(
                "query", dataset="d",
                value={"kind": "list-membership", "query": query},
            )
            assert answer is (query in expected)  # never silently wrong
        health = _await_full_strength(supervisor)
        assert health["healthy_workers"] == 2
        assert health["crashes_detected"] == 1
        assert health["worker_restarts"] >= 1
        assert health["retried_requests"] >= 1
        assert health["failed_requests"] == 0
        # The restarted slot serves from the replayed attach table.
        assert supervisor.call(
            "query", dataset="d",
            value={"kind": "list-membership", "query": 7},
        ) is True
    finally:
        supervisor.close()


def test_dead_worker_rehomes_mutable_dataset_with_its_journal(tmp_path):
    """The crashed worker *homed* a mutable dataset: the supervisor replays
    the attach frame plus every acknowledged change batch onto a healthy
    worker, so post-crash reads see all pre-crash writes."""
    from repro.service.frontend.supervisor import Supervisor

    data = tuple(range(32))
    plan = scenario("dead-worker", seed=CHAOS_SEED, after=1)
    supervisor = Supervisor(
        2,
        store_root=str(tmp_path),
        policy=_fast_worker_policy(),
        fault_plan=plan,
        fault_workers=(0,),
        poll_seconds=0.005,
    )
    supervisor.start()
    try:
        ack = supervisor.call(
            "attach", dataset="mut",
            value={"name": "mut", "data": data, "kinds": ["list-membership"],
                   "shards": 1, "mutable": True},
        )
        assert ack["mutable"] is True

        def read(query):
            return supervisor.call(
                "query", dataset="mut",
                value={"kind": "list-membership", "query": query},
            )

        supervisor.call(
            "apply_changes", dataset="mut",
            value={"changes": [_insert(99)]},
        )
        supervisor.call(
            "apply_changes", dataset="mut",
            value={"changes": [TupleChange(ChangeKind.DELETE, (5,))]},
        )
        assert read(99) is True    # 1st home read: skipped by after=1
        assert read(5) is False    # 2nd: the home worker dies mid-read,
        #                            the retry lands after journal replay
        assert read(31) is True
        health = _await_full_strength(supervisor)
        assert health["healthy_workers"] == 2
        assert health["crashes_detected"] == 1
        assert health["rehomed_datasets"] == 1
        assert health["retried_requests"] >= 1
        # The re-homed copy keeps versioning from the replayed journal.
        stats = supervisor.call("stats", dataset="mut")
        assert stats["version"] == 2
        assert stats["frontend"]["worker_restarts"] >= 1
    finally:
        supervisor.close()


def test_slow_worker_expired_reads_surface_typed_deadline_errors(tmp_path):
    """A persistently slow worker (``worker.serve`` slow on worker 0) under
    a per-request deadline: every read that lands on the slow copy surfaces
    a typed :class:`DeadlineExceededError` well inside the client timeout --
    never a silent stall -- and the breaker isolates the slow worker so the
    healthy sibling keeps answering exactly right."""
    from repro.core.errors import DeadlineExceededError
    from repro.service.frontend import RemoteClient, ServingFront

    data = tuple(range(64))
    expected = set(data)
    policy = RecoveryPolicy(
        slow_worker_seconds=0.25,
        breaker_failure_threshold=3,
        breaker_reset_seconds=60.0,  # stays open for the whole test
    )
    plan = scenario("slow-worker", seed=CHAOS_SEED, policy=policy)
    with ServingFront(
        workers=2, store_root=str(tmp_path), fault_plan=plan,
        fault_workers=(0,), hedge_delay_ms=None,
    ) as front:
        client = RemoteClient(*front.address, retry_budget=0)
        try:
            ds = client.attach("d", data, kinds=["list-membership"])
            ds.set_deadline(80.0)
            expired = served = 0
            for query in range(16):
                start = time.monotonic()
                try:
                    answer = ds.query("list-membership", query)
                except DeadlineExceededError as exc:
                    expired += 1
                    assert exc.op == "query"
                    assert exc.dataset == "d"
                else:
                    served += 1
                    assert answer is (query in expected)
                # typed shedding, not a stall: each call resolves fast
                assert time.monotonic() - start < 5.0
            health = front.supervisor.health()
            assert expired >= 1 and served >= 1
            assert (
                health["deadline_expired_supervisor"]
                + health["deadline_expired_worker"]
            ) >= expired
            # deadline expiries are shed work, not infrastructure failures
            assert health["failed_requests"] == 0
            assert health["breakers"]["0"] == "open"
            assert health["breakers"]["1"] == "closed"
            assert health["breaker_opened"] == 1
        finally:
            client.close()


def test_slow_worker_breaker_opens_then_halfopen_probe_recloses(tmp_path):
    """The full breaker cycle: deadline expiries on the slow worker trip
    its breaker (closed -> open), traffic routes around it, and once the
    injected slowness is exhausted a half-open probe re-admits the worker
    (open -> half_open -> closed)."""
    from repro.core.errors import DeadlineExceededError
    from repro.service.frontend import RemoteClient, ServingFront

    data = tuple(range(64))
    expected = set(data)
    policy = RecoveryPolicy(
        slow_worker_seconds=0.2,
        breaker_failure_threshold=3,
        breaker_reset_seconds=0.3,
    )
    # Finite firings: after six slow serves worker 0 is fast again, so the
    # half-open probe that lands there can succeed and close the breaker.
    plan = scenario("slow-worker", seed=CHAOS_SEED, policy=policy, times=6)
    with ServingFront(
        workers=2, store_root=str(tmp_path), fault_plan=plan,
        fault_workers=(0,), hedge_delay_ms=None,
    ) as front:
        client = RemoteClient(*front.address, retry_budget=0)
        try:
            ds = client.attach("d", data, kinds=["list-membership"])
            ds.set_deadline(60.0)
            expired = 0
            for query in range(16):
                try:
                    answer = ds.query("list-membership", query)
                except DeadlineExceededError:
                    expired += 1
                else:
                    assert answer is (query in expected)
            health = front.supervisor.health()
            assert expired >= policy.breaker_failure_threshold
            assert health["breakers"]["0"] == "open"
            assert health["breaker_opened"] == 1
            # Past the reset window, traffic itself probes and re-admits.
            time.sleep(policy.breaker_reset_seconds + 0.1)
            ds.set_deadline(None)
            for query in range(12):
                assert ds.query("list-membership", query) is True
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                health = front.supervisor.health()
                if health["breakers"]["0"] == "closed":
                    break
                ds.query("list-membership", 1)
                time.sleep(0.02)
            assert health["breakers"]["0"] == "closed"
            assert health["breaker_probes"] >= 1
            assert health["breaker_closed"] >= 1
        finally:
            client.close()


def test_slow_worker_hedged_reads_keep_tail_bounded(tmp_path):
    """With hedging on (and no deadline), reads stuck on the slow worker
    are raced against a healthy sibling after ``hedge_delay_ms``: the first
    answer wins, every answer stays exactly right, and the run finishes in
    a fraction of the unhedged worst case."""
    from repro.service.frontend import RemoteClient, ServingFront

    data = tuple(range(64))
    expected = set(data)
    slow = 0.4
    policy = RecoveryPolicy(slow_worker_seconds=slow)
    plan = scenario("slow-worker", seed=CHAOS_SEED, policy=policy)
    with ServingFront(
        workers=2, store_root=str(tmp_path), fault_plan=plan,
        fault_workers=(0,), hedge_delay_ms=25.0,
    ) as front:
        client = RemoteClient(*front.address)
        try:
            ds = client.attach("d", data, kinds=["list-membership"])
            count = 8
            slowest = 0.0
            start = time.monotonic()
            for query in range(count):
                began = time.monotonic()
                assert ds.query("list-membership", query) is (query in expected)
                slowest = max(slowest, time.monotonic() - began)
            elapsed = time.monotonic() - start
            health = front.supervisor.health()
            assert health["hedged_requests"] >= 1
            assert health["hedge_wins"] >= 1
            assert health["failed_requests"] == 0
            # Round-robin parks ~half the reads on the slow worker; without
            # hedging that alone costs ~(count / 2) * slow seconds.
            assert elapsed < (count / 2) * slow
            # And the race caps each read, not just their sum: none waits
            # out even half the injected delay.
            assert slowest < 0.5 * slow
        finally:
            client.close()


# -- no plan armed: the disturbance is a writer ----------------------------------

READ_TAIL_SIZE = 2**12
READ_TAIL_OPS = 6000  # per thread: >= 10 samples beyond the pooled read p999


def _pooled_read_p999(ds, write_every):
    """Two threads over one mutable session; every ``write_every``-th op of
    each is a one-row insert (0 = never).  The p999 of all read latencies."""

    def loop(worker):
        rng = random.Random(CHAOS_SEED * 2 + worker)
        samples = []
        for step in range(READ_TAIL_OPS):
            if write_every and step % write_every == write_every - 1:
                ds.apply_changes([_insert(READ_TAIL_SIZE + 2 * step + worker)])
                continue
            query = rng.randrange(2 * READ_TAIL_SIZE)
            began = time.perf_counter()
            ds.query("list-membership", query)
            samples.append(time.perf_counter() - began)
        return samples

    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = [pool.submit(loop, worker) for worker in range(2)]
        # result() re-raises whatever its thread raised
        samples = sorted(s for future in futures for s in future.result(timeout=120))
    return samples[int(0.999 * (len(samples) - 1))]


def test_writers_do_not_multiply_the_mutable_read_tail():
    """90/10 read/write against a pure-read control on an identical mutable
    session: readers pin published versions without a lock, so writers in
    the mix may cost the read p999 at most 2x the control's.  A tail timing,
    hence chaos-marked: on a 2-core host the ratio wanders 0.4-2.5x around
    a ~25 us p999, so the absolute guard ignores gaps under 200 us (seen:
    within +-50 us), while reads put back behind the writer mutex open a
    0.5-4 ms gap at 14-80x."""
    data = tuple(range(READ_TAIL_SIZE))
    with build_query_engine() as engine:
        control_ds = engine.attach("control", data, kinds=["list-membership"], mutable=True)
        control = _pooled_read_p999(control_ds, write_every=0)
        mixed_ds = engine.attach("mixed", data, kinds=["list-membership"], mutable=True)
        mixed = _pooled_read_p999(mixed_ds, write_every=10)
        assert mixed_ds.version == 2 * (READ_TAIL_OPS // 10)
    assert mixed <= 2.0 * control or mixed - control <= 200e-6, (
        f"90/10 read p999 {mixed * 1e6:.0f} us vs pure-read control "
        f"{control * 1e6:.0f} us: the mutable read path must stay lock-free"
    )


# -- registry completeness -----------------------------------------------------

#: scenario name -> the test(s) above that pin its recovery contract.
PINNED = {
    "dead-worker": (
        test_dead_worker_reads_retry_once_and_pool_restores,
        test_dead_worker_rehomes_mutable_dataset_with_its_journal,
    ),
    "corrupt-artifact": (
        test_corrupt_artifact_recovers_by_bounded_retry,
        test_corrupt_artifact_persistent_rebuilds_from_source,
    ),
    "truncate-artifact": (test_truncate_artifact_detected_and_recovered,),
    "slow-artifact-read": (test_slow_artifact_read_counts_slow_loads,),
    "dead-shard": (
        test_dead_shard_union_degrades_explicitly,
        test_dead_shard_monoid_fails_fast,
        test_dead_shard_kway_fails_fast,
    ),
    "slow-shard": (test_slow_shard_counts_timeouts_and_stays_correct,),
    "eviction-storm": (test_eviction_storm_never_changes_answers,),
    "failed-delta-apply": (
        test_failed_delta_apply_commits_batch_and_repairs,
        test_failed_delta_apply_repair_is_visible_on_the_tracked_path,
    ),
    "slow-worker": (
        test_slow_worker_expired_reads_surface_typed_deadline_errors,
        test_slow_worker_breaker_opens_then_halfopen_probe_recloses,
        test_slow_worker_hedged_reads_keep_tail_bounded,
    ),
    "disk-full-writebehind": (
        test_disk_full_writebehind_retries_then_flush_raises,
        test_disk_full_sync_build_serves_from_memory,
    ),
}


def test_every_registered_scenario_is_pinned():
    """Adding a scenario to the registry without a chaos test fails here."""
    assert set(PINNED) == set(SCENARIOS)
    for name, tests in PINNED.items():
        assert tests, name
        assert all(callable(test) for test in tests), name
