"""Chaos suite: the worker rows of the failure model, and the registry check.

The worker scenarios need real processes: slot 0 of a spawned pool
crashes or stalls through the seam in ``worker_seam.py``, and each test
asserts the *defined* recovery behaviour (the "Failure model" table in
``docs/architecture.md``) and the exact health counters it must move
(``supervisor.health()``).  The in-process rows (store, shard, cache,
delta) are tier-1, in ``tests/unit/test_failure_model.py``.  A completeness
test at the bottom keeps :data:`fault_seams.SCENARIOS` and the pinning tests
in lockstep: adding a scenario without pinning it fails CI.

The suite is deselected from tier-1 by the ``chaos`` marker (see
``pyproject.toml``); the CI chaos job runs it under three fixed seeds via
``CHAOS_SEED``.
"""

from __future__ import annotations

import ast
import os
import random
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from fault_seams import SCENARIOS
from worker_seam import crash_slot_zero, stall_slot_zero

from repro.catalog import build_query_engine
from repro.incremental.changes import ChangeKind, TupleChange
from repro.service.faults import RecoveryPolicy

pytestmark = pytest.mark.chaos

#: The CI chaos job sweeps this over three fixed seeds; locally it is 0.
CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))


def _insert(*row):
    return TupleChange(ChangeKind.INSERT, tuple(row))


# -- worker processes ----------------------------------------------------------


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


def test_dead_worker_reads_retry_once_and_pool_restores(tmp_path, monkeypatch):
    """A worker killed mid-read (slot 0 crashes on a read frame): the
    in-flight read is retried once on a healthy sibling -- every answer
    stays exactly right, no call errors -- and the slot restarts within the
    backoff budget, re-attaching the dataset from the supervisor's table."""
    from repro.service.frontend.supervisor import Supervisor

    data = tuple(range(64))
    expected = set(data)
    crash_slot_zero(monkeypatch, tmp_path / "crashed", after=2 + CHAOS_SEED % 3)
    supervisor = Supervisor(
        2,
        store_root=str(tmp_path / "store"),
        policy=_fast_worker_policy(),
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


def test_dead_worker_rehomes_mutable_dataset_with_its_journal(tmp_path, monkeypatch):
    """The crashed worker *homed* a mutable dataset: the supervisor replays
    the attach frame plus every acknowledged change batch onto a healthy
    worker, so post-crash reads see all pre-crash writes."""
    from repro.service.frontend.supervisor import Supervisor

    data = tuple(range(32))
    crash_slot_zero(monkeypatch, tmp_path / "crashed", after=1)
    supervisor = Supervisor(
        2,
        store_root=str(tmp_path / "store"),
        policy=_fast_worker_policy(),
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


def test_dead_home_replays_a_long_journal_it_never_checkpointed(tmp_path, monkeypatch):
    """The home dies holding a journal that has not reached its first
    checkpoint yet holds more batches than a worker owes frames at most
    (``MAX_QUEUE_PER_WORKER``): one-row batches whose bytes fall short of a
    2^16-int baseline's.  The re-home replays the attach frame and every
    one of them, so every acknowledged write is present, every read equals
    the naive answer on the acknowledged content, and the version counts
    on from the last ack."""
    from repro.queries import membership_class
    from repro.service.frontend import protocol
    from repro.service.frontend.supervisor import MAX_QUEUE_PER_WORKER, Supervisor

    rng = random.Random(CHAOS_SEED)
    data = tuple(range(0, 1 << 17, 2))
    attach = {"name": "long", "data": data, "kinds": ["list-membership"],
              "shards": 1, "mutable": True}
    crash_slot_zero(monkeypatch, tmp_path / "crashed")
    supervisor = Supervisor(
        2,
        store_root=str(tmp_path / "store"),
        policy=_fast_worker_policy(),
        poll_seconds=0.005,
    )
    supervisor.start()
    try:
        supervisor.call("attach", dataset="long", value=attach)
        baseline = len(protocol.encode_body(attach))
        content, present, journaled = set(data), list(data), 0
        writes = MAX_QUEUE_PER_WORKER + 256
        for version in range(1, writes + 1):
            if rng.random() < 0.25:             # delete a present baseline value
                slot = rng.randrange(len(present))
                present[slot], present[-1] = present[-1], present[slot]
                value = present.pop()
                change = TupleChange(ChangeKind.DELETE, (value,))
                content.discard(value)
            else:                               # insert a fresh odd value
                value = 2 * rng.randrange(1 << 16, 1 << 19) + 1
                while value in content:
                    value += 2
                change = _insert(value)
                content.add(value)
            batch = {"changes": [change]}
            journaled += len(protocol.encode_body(batch))
            ack = supervisor.call("apply_changes", dataset="long", value=batch)
            assert ack == {"version": version}
        assert journaled < baseline             # so no checkpoint was due
        assert supervisor.health()["journal_checkpoints"] == 0

        # The first read on the home (slot 0) kills it; its retry is served
        # from the replayed journal.  Every touched value and random probes
        # against the acknowledged content, a sample against the naive
        # evaluation itself (a linear scan of 2^16 values per query).
        touched = sorted(content.symmetric_difference(data))
        probes = touched + rng.sample(range(-8, 1 << 20), 64)
        answers = supervisor.call(
            "query_batch", dataset="long",
            value={"pairs": [["list-membership", query] for query in probes]},
        )
        assert answers == [query in content for query in probes]
        naive, members = membership_class(), tuple(sorted(content))
        for query in rng.sample(touched, 12) + probes[-12:]:
            assert supervisor.call(
                "query", dataset="long",
                value={"kind": "list-membership", "query": query},
            ) is naive.pair_in_language(members, query), query
        health = _await_full_strength(supervisor)
        assert health["crashes_detected"] == 1
        assert health["rehomed_datasets"] == 1
        assert health["retried_requests"] >= 1
        assert health["replay_errors"] == 0
        assert health["failed_requests"] == 0
        assert health["journal_checkpoints"] == 0
        ack = supervisor.call("apply_changes", dataset="long",
                              value={"changes": [_insert(3)]})
        assert ack == {"version": writes + 1}
        assert supervisor.call(
            "query", dataset="long",
            value={"kind": "list-membership", "query": 3},
        ) is True
    finally:
        supervisor.close()


def test_slow_worker_expired_reads_surface_typed_deadline_errors(tmp_path, monkeypatch):
    """A persistently slow worker (slot 0 stalls every read frame) under
    a per-request deadline: every read that lands on the slow copy surfaces
    a typed :class:`DeadlineExceededError` well inside the client timeout --
    never a silent stall -- and the breaker isolates the slow worker so the
    healthy sibling keeps answering exactly right."""
    from repro.core.errors import DeadlineExceededError
    from repro.service.frontend import RemoteClient, RemoteDataset, ServingFront

    data = tuple(range(64))
    expected = set(data)
    policy = RecoveryPolicy(
        breaker_failure_threshold=3,
        breaker_reset_seconds=60.0,  # stays open for the whole test
    )
    stall_slot_zero(monkeypatch, 0.25)
    with ServingFront(
        workers=2, store_root=str(tmp_path), policy=policy, hedge_delay_ms=None,
    ) as front:
        client = RemoteClient(*front.address, retry_budget=0)
        # A budget is client-wide: the reads go through a second client
        # that carries it, so the attach runs unbudgeted.
        budgeted = RemoteClient(*front.address, retry_budget=0, deadline_ms=80.0)
        try:
            client.attach("d", data, kinds=["list-membership"])
            ds = RemoteDataset(budgeted, "d", ["list-membership"], False, data)
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
            budgeted.close()
            client.close()


def test_slow_worker_breaker_opens_then_halfopen_probe_recloses(tmp_path, monkeypatch):
    """The full breaker cycle: deadline expiries on the slow worker trip
    its breaker (closed -> open), traffic routes around it, and once the
    stalls are spent a half-open probe re-admits the worker
    (open -> half_open -> closed)."""
    from repro.core.errors import DeadlineExceededError
    from repro.service.frontend import RemoteClient, RemoteDataset, ServingFront

    data = tuple(range(64))
    expected = set(data)
    policy = RecoveryPolicy(
        breaker_failure_threshold=3,
        breaker_reset_seconds=0.3,
    )
    # Finite stalls: after six slow serves worker 0 is fast again, so the
    # half-open probe that lands there can succeed and close the breaker.
    stall_slot_zero(monkeypatch, 0.2, times=6)
    with ServingFront(
        workers=2, store_root=str(tmp_path), policy=policy, hedge_delay_ms=None,
    ) as front:
        client = RemoteClient(*front.address, retry_budget=0)
        budgeted = RemoteClient(*front.address, retry_budget=0, deadline_ms=60.0)
        try:
            ds = client.attach("d", data, kinds=["list-membership"])
            tight = RemoteDataset(budgeted, "d", ["list-membership"], False, data)
            expired = 0
            for query in range(16):
                try:
                    answer = tight.query("list-membership", query)
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
            for query in range(12):  # the unbudgeted client
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
            budgeted.close()
            client.close()


def test_slow_worker_hedged_reads_keep_tail_bounded(tmp_path, monkeypatch):
    """With hedging on (and no deadline), reads stuck on the slow worker
    are raced against a healthy sibling after ``hedge_delay_ms``: the first
    answer wins, every answer stays exactly right, and the run finishes in
    a fraction of the unhedged worst case."""
    from repro.service.frontend import RemoteClient, ServingFront

    data = tuple(range(64))
    expected = set(data)
    slow = 0.4
    stall_slot_zero(monkeypatch, slow)
    with ServingFront(
        workers=2, store_root=str(tmp_path), hedge_delay_ms=25.0,
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
            # out even half the stall.
            assert slowest < 0.5 * slow
        finally:
            client.close()


# -- no fault: the disturbance is a writer --------------------------------------

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

#: scenario name -> the tests (``file::function`` under ``tests/``) that pin
#: its recovery contract.
PINNED = {
    "corrupt-artifact": (
        "unit/test_failure_model.py::test_corrupt_artifact_recovers_by_bounded_retry",
        "unit/test_failure_model.py::test_corrupt_artifact_persistent_rebuilds_from_source",
    ),
    "truncate-artifact": (
        "unit/test_failure_model.py::test_truncate_artifact_detected_and_recovered",
    ),
    "slow-artifact-read": (
        "unit/test_failure_model.py::test_slow_artifact_read_counts_slow_loads",
    ),
    "disk-full": (
        "unit/test_failure_model.py::test_disk_full_sync_build_serves_from_memory",
    ),
    "dead-shard": (
        "unit/test_failure_model.py::test_dead_shard_raises_and_is_counted",
    ),
    "slow-shard": (
        "unit/test_failure_model.py::test_slow_shard_answer_stays_whole_and_correct",
    ),
    "eviction-storm": (
        "unit/test_failure_model.py::test_eviction_storm_never_changes_answers",
    ),
    "failed-delta-apply": (
        "unit/test_failure_model.py::test_failed_delta_apply_commits_batch_and_repairs",
        "unit/test_failure_model.py::test_failed_delta_apply_repair_is_visible_on_the_tracked_path",
    ),
    "dead-worker": (
        "chaos/test_chaos_scenarios.py::test_dead_worker_reads_retry_once_and_pool_restores",
        "chaos/test_chaos_scenarios.py::test_dead_worker_rehomes_mutable_dataset_with_its_journal",
    ),
    "crash-before-checkpoint": (
        "chaos/test_chaos_scenarios.py::test_dead_home_replays_a_long_journal_it_never_checkpointed",
    ),
    "slow-worker": (
        "chaos/test_chaos_scenarios.py::test_slow_worker_expired_reads_surface_typed_deadline_errors",
        "chaos/test_chaos_scenarios.py::test_slow_worker_breaker_opens_then_halfopen_probe_recloses",
        "chaos/test_chaos_scenarios.py::test_slow_worker_hedged_reads_keep_tail_bounded",
    ),
}


def test_every_registered_scenario_is_pinned():
    """Adding a scenario to the registry without a test fails here, and so
    does a pinned name that no longer is a test function."""
    assert set(PINNED) == set(SCENARIOS)
    tests_root = Path(__file__).resolve().parents[1]
    defined = {}
    for name, tests in PINNED.items():
        assert tests, name
        for test in tests:
            path, function = test.split("::")
            if path not in defined:
                tree = ast.parse((tests_root / path).read_text())
                defined[path] = {node.name for node in tree.body
                                 if isinstance(node, ast.FunctionDef)}
            assert function in defined[path], (name, test)
