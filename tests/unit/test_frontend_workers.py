"""In-process tests of the worker's request handling.

``handle_frame`` is the whole worker minus its socket loop, so the protocol
semantics are driven here without spawning anything.
"""

from __future__ import annotations

import sys

import pytest

from repro.catalog import build_query_engine
from repro.service.engine import SchemeStats
from repro.service.frontend import protocol
from repro.service.frontend.workers import handle_frame, merge_stats


def _frame(engine, op, dataset, value):
    """One request through ``handle_frame``: ``(ok, decoded response body)``."""
    header = protocol.request_header(op, 1, dataset, value)
    response, body = handle_frame(
        engine, header, protocol.encode_body(value), protocol.CODEC_JSON
    )
    return response["ok"], protocol.decode_body(body, protocol.CODEC_JSON)


@pytest.mark.parametrize("version", ["7", 2.5, True, -1, None], ids=repr)
def test_attach_refuses_a_malformed_version_and_leaves_nothing_attached(version):
    """The body comes from outside: a bad ``version`` must be refused *before*
    the session exists, or the name stays wedged until the worker restarts."""
    body = {"name": "d", "data": (1, 2, 3), "kinds": ["list-membership"], "mutable": True}
    with build_query_engine() as engine:
        ok, error = _frame(engine, "attach", "d", {**body, "version": version})
        assert not ok and error["type"] == "ProtocolError", error
        assert "version" in error["message"]
        assert engine.datasets() == []
        # The corrected retry succeeds; a checkpointed baseline's version resumes.
        ok, ack = _frame(engine, "attach", "d", {**body, "version": 6})
        assert ok and ack["version"] == 6 and engine.datasets() == ["d"]
        ok, answer = _frame(engine, "query", "d", {"kind": "list-membership", "query": 2})
        assert ok and answer is True


@pytest.mark.parametrize("header", [
    {"dataset": "other"},                       # the front journalled another name
    {"mutable": True},                          # ...or homed what the body replicates
    {"dataset": None},
], ids=repr)
def test_attach_refuses_a_body_that_disagrees_with_its_header(header):
    """The front routes by the header without reading the body, so a worker
    must not attach under a name, or a mutability, the front did not route."""
    value = {"name": "d", "data": (1, 2, 3), "kinds": ["list-membership"]}
    with build_query_engine() as engine:
        request = {**protocol.request_header("attach", 1, "d", value), **header}
        response, body = handle_frame(
            engine, request, protocol.encode_body(value), protocol.CODEC_JSON)
        error = protocol.decode_body(body, protocol.CODEC_JSON)
        assert not response["ok"] and error["type"] == "ProtocolError", error
        assert "header" in error["message"]
        assert engine.datasets() == []
        ok, ack = _frame(engine, "attach", "d", value)
        assert ok and ack["mutable"] is False and engine.datasets() == ["d"]


@pytest.mark.parametrize(
    "kinds", ["list-membership", ["list-membership", "nope"], [["list-membership"]], 7, {}],
    ids=repr)
def test_attach_refuses_malformed_kinds_before_importing_any(kinds):
    """``kinds`` decides what a worker imports: one bad name refuses the whole
    list, resolves nothing and leaves no session."""
    with build_query_engine() as engine:
        before = set(sys.modules)
        ok, error = _frame(engine, "attach", "d", {"name": "d", "data": (1, 2), "kinds": kinds})
        assert not ok and error["type"] == "ServiceError", error
        assert "known kinds" in error["message"] and "list-membership" in error["message"]
        assert set(sys.modules) == before
        assert engine.datasets() == [] and engine.stats().per_kind == {}


def test_merge_stats_recomputes_hit_rate_from_the_merged_counters():
    """One worker built, the other loaded from the store: half of the
    resolutions skipped a build, whoever answered first."""
    def snapshot(**counters):
        return {"dataset": "d", "version": 0, "mutable": False,
                "kinds": {"k": SchemeStats(scheme="s", **counters).stats_snapshot()}}

    built, loaded = snapshot(builds=1, queries=3), snapshot(store_hits=1, queries=2)
    assert (built["kinds"]["k"]["hit_rate"], loaded["kinds"]["k"]["hit_rate"]) == (0.0, 1.0)
    for first, second in ((built, loaded), (loaded, built)):
        merged = {**first, "kinds": {"k": dict(first["kinds"]["k"])}}
        merge_stats(merged, second)
        kind = merged["kinds"]["k"]
        assert (kind["builds"], kind["store_hits"], kind["queries"]) == (1, 1, 5)
        assert kind["hit_rate"] == 0.5
        assert kind["scheme"] == "s" and "shards" not in kind
        # The front's formula is SchemeStats.hit_rate's, restated over the keys.
        fields = {key: kind[key] for key in SchemeStats().stats_snapshot() if key != "hit_rate"}
        assert SchemeStats(**fields).hit_rate == kind["hit_rate"]
    idle = snapshot()
    merge_stats(idle, snapshot())
    assert idle["kinds"]["k"]["hit_rate"] == 0.0  # no resolutions: no division


def test_snapshot_replies_with_an_attach_body_a_fresh_worker_accepts():
    """The front adopts a ``snapshot`` reply verbatim as the attach frame it
    replays on re-home, so the reply must be exactly such a body: same name,
    kinds, shard count and mutability, the current content and version."""
    from repro.incremental.changes import ChangeKind, TupleChange

    body = {"name": "d", "data": (1, 2, 3), "kinds": ["list-membership"],
            "shards": 2, "mutable": True}
    with build_query_engine() as engine:
        assert _frame(engine, "attach", "d", body)[0]
        change = TupleChange(ChangeKind.INSERT, (9,))
        assert _frame(engine, "apply_changes", "d", {"changes": [change]})[0]
        ok, snapshot = _frame(engine, "snapshot", "d", None)
    assert ok and snapshot == {**body, "data": (1, 2, 3, 9), "version": 1}
    with build_query_engine() as engine:
        ok, ack = _frame(engine, "attach", "d", snapshot)
        assert ok and ack["version"] == 1
        assert _frame(engine, "query", "d", {"kind": "list-membership", "query": 9}) == (True, True)


def test_a_snapshot_reply_header_carries_its_bodys_name_version_and_mutability():
    """The front adopts a checkpoint by its reply's header without parsing
    the body, so the header must describe the body exactly -- after writes,
    and after an attach that resumed a checkpointed version."""
    from repro.incremental.changes import ChangeKind, TupleChange

    def snapshot(engine):
        header = protocol.request_header("snapshot", 1, "d", None)
        response, body = handle_frame(engine, header, b"", protocol.CODEC_JSON)
        params = protocol.decode_body(body, protocol.CODEC_JSON)
        assert response["ok"] and body
        assert ({key: response[key] for key in ("name", "version", "mutable")}
                == {key: params[key] for key in ("name", "version", "mutable")})
        return response

    for resumed in (None, 6):
        body = {"name": "d", "data": (1, 2, 3), "kinds": ["list-membership"],
                "mutable": True}
        if resumed is not None:
            body["version"] = resumed
        with build_query_engine() as engine:
            assert _frame(engine, "attach", "d", body)[0]
            assert snapshot(engine)["version"] == (resumed or 0)
            for value in (7, 8, 9):
                change = TupleChange(ChangeKind.INSERT, (value,))
                assert _frame(engine, "apply_changes", "d", {"changes": [change]})[0]
            assert snapshot(engine)["version"] == (resumed or 0) + 3


def test_a_write_acks_the_version_a_local_session_acks_across_a_rehome():
    """A worker forwards the session's acknowledgement verbatim: after an
    attach that resumes a checkpointed baseline at version 6, the wire and a
    local session resumed at the same version ack each batch with the same
    ``{"version": n}`` -- a screened batch with the unchanged one."""
    from repro.incremental.changes import ChangeKind, TupleChange

    body = {"name": "d", "data": (1, 2, 3), "kinds": ["list-membership"],
            "mutable": True, "version": 6}
    batches = [
        [TupleChange(ChangeKind.INSERT, (9,))],
        [TupleChange(ChangeKind.DELETE, (42,))],  # screened to nothing
        [TupleChange(ChangeKind.DELETE, (9,)), TupleChange(ChangeKind.DELETE, (43,))],
    ]
    with build_query_engine() as engine:
        assert _frame(engine, "attach", "d", body)[0]
        wire = [_frame(engine, "apply_changes", "d", {"changes": batch})
                for batch in batches]
    with build_query_engine() as engine:
        local = engine.attach("d", (1, 2, 3), kinds=["list-membership"], mutable=True)
        local.resume_at(6)
        acks = [local.apply_changes(batch) for batch in batches]
    assert acks == [{"version": 7}, {"version": 7}, {"version": 8}]
    assert wire == [(True, ack) for ack in acks]


def test_a_replay_frame_applies_each_batch_as_its_own():
    """A re-home sends a journal's batches as one ``replay`` frame, their
    bodies spliced undecoded: the worker must reach the content *and* the
    version the batches reached one frame at a time -- a screened batch
    keeps the version, so a merged batch would not."""
    from repro.incremental.changes import ChangeKind, TupleChange

    body = {"name": "d", "data": (1, 2, 3), "kinds": ["list-membership"],
            "mutable": True, "version": 6}
    batches = [
        {"changes": [TupleChange(ChangeKind.INSERT, (9,))]},
        {"changes": [TupleChange(ChangeKind.DELETE, (42,))]},  # screened
        {"changes": [TupleChange(ChangeKind.DELETE, (1,))]},
    ]
    joined = protocol.join_bodies([protocol.encode_body(b) for b in batches])
    with build_query_engine() as engine:
        assert _frame(engine, "attach", "d", body)[0]
        response, ack = handle_frame(
            engine, protocol.request_header("replay", 1, "d", None), joined,
            protocol.CODEC_JSON)
        assert response["ok"], protocol.decode_body(ack, protocol.CODEC_JSON)
        assert protocol.decode_body(ack, protocol.CODEC_JSON) == {"version": 8}
        for query, member in ((9, True), (1, False), (2, True)):
            assert _frame(engine, "query", "d",
                          {"kind": "list-membership", "query": query}) == (True, member)
        change = TupleChange(ChangeKind.INSERT, (5,))
        assert _frame(engine, "apply_changes", "d",
                      {"changes": [change]}) == (True, {"version": 9})
