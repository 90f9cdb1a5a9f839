"""Journals and the router, driven with an explicit clock and no processes.

``placement.py`` is pure bookkeeping, so every policy the serving front
states about worker choice and replay is checked here deterministically:
the breaker cycle, who may (never) receive a routed or hedged frame, the
restart schedule, and that a checkpoint truncates exactly the batches
its snapshot contains.
"""

import json

import pytest

from repro.core.errors import WorkerFailedError
from repro.core.fitting import ScalingKind, classify_scaling
from repro.incremental.changes import ChangeKind, TupleChange
from repro.service.faults import RecoveryPolicy
from repro.service.frontend import protocol
from repro.service.frontend.placement import Journal, Router

CODEC = protocol.CODEC_JSON
POLICY = RecoveryPolicy(
    breaker_failure_threshold=3,
    breaker_reset_seconds=1.0,
    worker_restart_attempts=2,
    worker_restart_backoff_seconds=0.5,
)


def make_router(workers=3, policy=POLICY):
    router = Router(policy)
    for _ in range(workers):
        router.add_worker()
    return router


def open_breaker(router, worker_id, now):
    for _ in range(POLICY.breaker_failure_threshold):
        router.failure(worker_id, now)


def picks(router, now, count=12):
    return {router.pick_read(now) for _ in range(count)}


# -- circuit breaker cycle -------------------------------------------------------


def test_breaker_opens_after_threshold_consecutive_failures():
    router = make_router()
    router.failure(0, 0.0)
    router.failure(0, 0.0)
    router.success(0)            # an answer resets the streak
    router.failure(0, 0.0)
    router.failure(0, 0.0)
    assert router.breaker_states()["0"] == "closed"
    router.failure(0, 0.0)
    assert router.breaker_states() == {"0": "open", "1": "closed", "2": "closed"}
    assert router.counters["breaker_opened"] == 1
    assert 0 not in picks(router, 0.5)


def test_exactly_one_half_open_probe_per_reset_window_then_close():
    router = make_router()
    open_breaker(router, 0, 10.0)
    assert 0 not in picks(router, 10.99)            # window not over
    assert router.pick_read(11.0) == 0              # the probe goes first
    assert router.breaker_states()["0"] == "half_open"
    assert router.counters["breaker_probes"] == 1
    assert 0 not in picks(router, 11.0)             # ...and only one
    assert 0 not in picks(router, 50.0)             # until it is answered
    router.success(0)
    assert router.breaker_states()["0"] == "closed"
    assert router.counters["breaker_closed"] == 1
    assert 0 in picks(router, 50.0)


def test_failed_probe_reopens_for_a_full_window():
    router = make_router()
    open_breaker(router, 0, 0.0)
    assert router.pick_read(1.0) == 0
    router.failure(0, 1.2)                          # the probe failed
    assert router.breaker_states()["0"] == "open"
    assert router.counters["breaker_opened"] == 2
    assert 0 not in picks(router, 2.1)              # 0.9s after re-open
    assert router.pick_read(2.2) == 0               # 1.0s after re-open
    assert router.counters["breaker_probes"] == 2


# -- placement -------------------------------------------------------------------


def test_reads_round_robin_over_closed_dispatchable_workers_only():
    router = make_router(4)
    router.set_draining(1, True)
    router.crashed(2, 0.0)
    open_breaker(router, 3, 0.0)
    assert picks(router, 0.1) == {0}
    router.set_draining(1, False)
    assert picks(router, 0.1) == {0, 1}
    assert router.healthy() == [0, 1, 3]            # broadcasts reach 3 too


def test_all_breakers_open_falls_back_instead_of_failing():
    router = make_router(2)
    open_breaker(router, 0, 0.0)
    open_breaker(router, 1, 0.0)
    assert picks(router, 0.1) == {0, 1}


def test_no_dispatchable_worker_fails_loudly():
    router = make_router(2)
    router.crashed(0, 0.0)
    router.set_draining(1, True)
    with pytest.raises(WorkerFailedError):
        router.pick_read(0.1)
    with pytest.raises(WorkerFailedError):
        router.pick_home([])


def test_hedge_target_is_a_different_closed_dispatchable_worker_or_none():
    router = make_router(4)
    for _ in range(12):
        assert router.pick_hedge(exclude=0) in {1, 2, 3}
    router.set_draining(1, True)
    router.crashed(2, 0.0)
    open_breaker(router, 3, 0.0)
    assert router.pick_hedge(exclude=0) is None     # never a suspect worker
    assert router.pick_hedge(exclude=1) == 0
    assert make_router(1).pick_hedge(exclude=0) is None


def journal(name, *, home, mutable=True):
    return Journal(name, {"op": "attach"}, b"", mutable=mutable, home=home)


def test_pick_home_takes_the_least_loaded_dispatchable_worker():
    router = make_router(3)
    homed = [journal("a", home=0), journal("b", home=0), journal("c", home=1),
             journal("imm", home=None, mutable=False)]
    assert router.pick_home(homed) == 2
    router.set_draining(2, True)
    assert router.pick_home(homed) == 1
    assert router.pick_home([]) == 0                # ties go to the lowest id


def test_route_sends_mutable_datasets_home_and_the_rest_round_robin():
    router = make_router(3)
    homed = journal("m", home=2)
    assert {router.route(homed, 0.0) for _ in range(6)} == {2}
    router.set_draining(2, True)                    # a draining home still serves
    assert router.route(homed, 0.0) == 2
    assert {router.route(None, 0.0) for _ in range(6)} == {0, 1}
    assert {router.route(journal("i", home=None, mutable=False), 0.0)
            for _ in range(6)} == {0, 1}
    router.crashed(2, 0.0)
    with pytest.raises(WorkerFailedError, match="lost its home"):
        router.route(homed, 0.0)
    homed.home_lost()
    with pytest.raises(WorkerFailedError):
        router.route(homed, 0.0)


# -- restart schedule ------------------------------------------------------------


def test_restart_backoff_doubles_and_a_spent_slot_is_lost():
    router = make_router(2)                         # 2 attempts, 0.5s base
    router.crashed(0, 100.0)
    assert router.healthy() == [1]
    assert router.restartable(100.49) == []
    assert router.restartable(100.5) == [0]
    router.restarted(0, 100.6, ok=False)            # spawn failed: 2nd try at 2x
    assert router.restartable(101.59) == []
    assert router.restartable(101.6) == [0]
    router.restarted(0, 101.7, ok=True)
    assert router.healthy() == [0, 1]
    assert router.restartable(1e9) == []
    assert router.counters["workers_lost"] == 0
    router.crashed(0, 200.0)                        # both attempts are spent
    assert router.counters["workers_lost"] == 1
    assert router.restartable(1e9) == []
    assert router.breaker_states()["0"] == "closed"  # 2 crashes < threshold 3


def test_breaker_survives_a_restart():
    router = make_router(2)
    open_breaker(router, 0, 0.0)
    router.crashed(0, 0.0)
    router.restarted(0, 0.6, ok=True)
    assert router.breaker_states()["0"] == "open"
    assert 0 not in picks(router, 0.7)


# -- journal ---------------------------------------------------------------------


def attach_frame(data, **extra):
    header = {"op": "attach", "rid": 7, "dataset": "d", **extra}
    params = {"name": "d", "data": data, "kinds": ["list-membership"],
              "mutable": True}
    return header, protocol.encode_body(params, CODEC)


def batch(n, changes=1):
    """An acknowledged ``apply_changes`` body: ``changes`` one-row inserts
    of ``n``.  One of them weighs just under :func:`make_journal`'s
    baseline, so two outweigh it; ``changes=2`` outweighs it alone."""
    inserts = [TupleChange(ChangeKind.INSERT, (n,))] * changes
    return protocol.encode_body({"changes": inserts}, CODEC)


def replayed(journal):
    """The batches a replay of ``journal`` applies after its attach frame,
    each as the value its first change inserts."""
    attach, *rest = journal.frames()
    assert attach == (journal.header, journal.body)
    if not rest:
        return []
    (header, body), = rest
    assert header == {"op": "replay", "rid": 0, "dataset": "d"}
    return [params["changes"][0].row[0]
            for params in protocol.decode_body(body, CODEC)]


def snapshot_reply(data, version):
    """A worker's ``snapshot`` reply: the complete attach body, and a
    header stamped with its name, version and mutability."""
    params = {"name": "d", "data": data, "kinds": ["list-membership"],
              "shards": 1, "mutable": True, "version": version}
    return stamp(version=version), protocol.encode_body(params, CODEC)


def stamp(**fields):
    return {"rid": 0, "ok": True, "op": "snapshot", "name": "d",
            "mutable": True, "version": 2, **fields}


def make_journal(**extra):
    header, body = attach_frame((1, 2, 3), **extra)
    return Journal("d", header, body, mutable=True, home=0)


def test_replay_order_is_attach_then_batches_and_carries_no_deadline():
    """The attach frame, then every batch in order in one ``replay`` frame
    whose body is the batches' own bodies, spliced undecoded."""
    journal = make_journal(deadline_ms=50, deadline_mono=123.4)
    assert replayed(journal) == []                  # the attach alone
    journal.record(batch(1))
    journal.record(batch(2, changes=2))
    frames = journal.frames()
    assert [h["op"] for h, _ in frames] == ["attach", "replay"]
    assert [h["rid"] for h, _ in frames] == [7, 0]
    for header, _ in frames:
        assert not any(key.startswith("deadline_") for key in header)
    assert frames[1][1] == protocol.join_bodies([batch(1), batch(2, changes=2)])
    assert protocol.decode_body(frames[1][1], CODEC) == [
        protocol.decode_body(batch(1), CODEC),
        protocol.decode_body(batch(2, changes=2), CODEC)]


def test_checkpoint_truncates_exactly_what_the_snapshot_contains():
    journal = make_journal()
    # Due once the batches' bytes reach the baseline's: here, at the second.
    assert len(batch(1)) < len(journal.body) <= 2 * len(batch(1))
    assert journal.record(batch(1)) is None
    request = journal.record(batch(2))
    assert request == {"op": "snapshot", "rid": 0, "dataset": "d"}
    # Acknowledged while the snapshot is outstanding: FIFO puts it *in*
    # the snapshot, and it must not trigger a second one.
    assert journal.record(batch(3)) is None
    header, snapshot = snapshot_reply((1, 2, 3, 9), 3)
    assert journal.finish_checkpoint(header, snapshot) is True
    assert journal.frames() == [(journal.header, snapshot)]  # verbatim
    params = protocol.decode_body(journal.body, CODEC)
    assert params["data"] == (1, 2, 3, 9)           # the new baseline...
    assert params["version"] == 3                   # ...at the snapshot's version
    assert params["kinds"] == ["list-membership"] and params["mutable"] is True
    # ...and every later batch is kept, in order, behind it, weighed
    # against the new baseline from zero: two outweigh it again.
    assert len(batch(4)) < len(snapshot) <= 2 * len(batch(4))
    assert journal.record(batch(4)) is None
    assert journal.record(batch(5)) is not None
    assert replayed(journal) == [4, 5]


@pytest.mark.parametrize("ok, body", [(False, b""), (True, b"not a body")])
def test_failed_checkpoint_keeps_every_batch_and_rearms(ok, body):
    """A failed reply, or one whose header carries no snapshot stamp."""
    journal = make_journal()
    journal.record(batch(1))
    assert journal.record(batch(2)) is not None
    header = {"rid": 0, "ok": ok, "op": "snapshot"}
    assert journal.finish_checkpoint(header, body) is False
    assert replayed(journal) == [1, 2]
    assert journal.record(batch(3)) is not None    # next ack asks again


@pytest.mark.parametrize("header, body", [
    (stamp(version=-1), b"{}"),
    (stamp(version=True), b"{}"),
    (stamp(name="other"), b"{}"),
    (stamp(mutable=False), b"{}"),
    ({"rid": 0, "ok": True, "op": "snapshot"}, b"{}"),
    (stamp(), b""),
    (stamp(ok=False), b"{}"),
], ids=["negative-version", "bool-version", "other-name", "immutable",
        "missing-fields", "empty-body", "not-ok"])
def test_checkpoint_refuses_a_reply_that_is_not_this_journals_attach_body(header, body):
    journal = make_journal()
    baseline = journal.body
    assert journal.record(batch(1, changes=2)) is not None
    assert journal.finish_checkpoint(header, body) is False
    assert journal.body == baseline and len(journal.batches) == 1


def test_checkpoint_never_tag_decodes_or_re_encodes_on_the_loop(monkeypatch):
    """The front's event loop owns every socket: adopting a 2^16-int
    snapshot reads its header and parses nothing -- no ``json.loads``, no
    decode-patch-encode."""
    header, reply = snapshot_reply(tuple(range(1 << 16)), 9)
    journal = make_journal()
    assert journal.record(batch(1, changes=2)) is not None

    def refuse(*args, **kwargs):
        raise AssertionError("finish_checkpoint parsed the snapshot body")

    monkeypatch.setattr(json, "loads", refuse)
    monkeypatch.setattr(protocol, "decode_value", refuse)
    monkeypatch.setattr(protocol, "encode_value", refuse)
    assert journal.finish_checkpoint(header, reply) is True
    assert journal.body is reply and journal.batches == []


def test_losing_the_home_cancels_the_outstanding_snapshot():
    journal = make_journal()
    assert journal.record(batch(1, changes=2)) is not None
    journal.home_lost()
    assert journal.home is None and not journal.checkpointing
    assert journal.record(batch(2)) is not None


#: Batches of 4 one-row inserts per |D|, as ``wire-mixed-rw`` writes them.
SCALING_BATCHES = 4096


def test_snapshot_bytes_per_acked_change_stay_constant_across_sizes():
    """ROADMAP 13(c): at |D| = 2^12..2^16, feed real 4-change
    ``apply_changes`` bodies and adopt every requested snapshot at full
    size.  Snapshot bytes per acknowledged change must not grow with |D|
    (a fixed batch count makes them linear in it), and, telescoped over
    the run, the snapshots weigh at most the batches plus the baseline's
    growth: each was requested once the batches outweighed the last one."""
    sizes = [1 << k for k in range(12, 17)]
    per_change, overweight = [], {}
    for n in sizes:
        content = list(range(n))
        header, body = attach_frame(tuple(content))
        journal = Journal("d", header, body, mutable=True, home=0)
        batch_bytes = snapshot_bytes = 0
        for version in range(1, SCALING_BATCHES + 1):
            values = [8 * n + 4 * version + i for i in range(4)]
            content.extend(values)
            changes = [TupleChange(ChangeKind.INSERT, (v,)) for v in values]
            write = protocol.encode_body({"changes": changes}, CODEC)
            batch_bytes += len(write)
            if journal.record(write) is None:
                continue
            reply_header, reply = snapshot_reply(tuple(content), version)
            assert journal.finish_checkpoint(reply_header, reply) is True
            snapshot_bytes += len(reply)
        assert snapshot_bytes > 0, f"no checkpoint at |D| = {n}"
        per_change.append(snapshot_bytes / (4 * SCALING_BATCHES))
        growth = len(journal.body) - len(body)
        if snapshot_bytes > batch_bytes + growth:
            overweight[n] = (snapshot_bytes, batch_bytes, growth)
    verdict = classify_scaling(sizes, per_change)
    assert verdict.kind is ScalingKind.CONSTANT, (
        f"snapshot bytes per acked change {per_change} at |D| = {sizes}: "
        f"{verdict.kind.name}")
    assert overweight == {}, "|D| -> (snapshot, batch, growth) bytes"
