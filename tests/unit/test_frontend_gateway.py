"""Gateway admission-control unit tests (ISSUE 9, satellite c).

The gateway is tested against stub backends -- no worker pool, no engine --
so these tests pin the *admission* semantics in isolation:

* up to ``max_inflight_per_dataset`` requests dispatch concurrently,
* up to ``queue_watermark`` more wait for a permit,
* everything past the watermark is rejected immediately with a structured
  ``Overloaded`` error frame (bounded buffering: the backend never sees
  more than ``max_inflight`` requests at once),
* per-dataset isolation: one saturated dataset does not shed another's
  traffic,
* protocol violations (unknown op, mistyped header fields, bad magic,
  oversized frame) answer structurally instead of silently dropping the
  connection,
* the admission map holds only datasets with requests in flight.
"""

from __future__ import annotations

import asyncio
import contextlib
import socket
import threading
import time

import pytest

from repro.core.errors import ProtocolError, UnknownDatasetError
from repro.service.frontend import protocol
from repro.service.frontend.server import Gateway, GatewayConfig


class _BlackHoleBackend:
    """Accepts requests and never answers: the saturated-pool stand-in."""

    def __init__(self):
        self.submitted = []

    def submit(self, header, body, on_done):
        self.submitted.append((header, on_done))

    def health(self):
        return {}

    def close(self):
        pass


class _EchoBackend:
    """Answers every request immediately with an ok frame."""

    def submit(self, header, body, on_done):
        rheader = {"rid": header.get("rid"), "ok": True, "op": header.get("op")}
        on_done(rheader, protocol.encode_body("pong"))

    def health(self):
        return {}

    def close(self):
        pass


class _RaisingBackend:
    """Raises synchronously from submit, like the supervisor does for an
    unknown dataset or a full worker queue."""

    def submit(self, header, body, on_done):
        raise UnknownDatasetError(f"no dataset {header.get('dataset')!r}")

    def health(self):
        return {}

    def close(self):
        pass


@contextlib.contextmanager
def serving(backend, config=None):
    """Run a Gateway on a private event-loop thread; yield it, then drain."""
    gateway = Gateway(backend, config)
    loop = asyncio.new_event_loop()
    started = threading.Event()

    def run():
        asyncio.set_event_loop(loop)
        loop.run_until_complete(gateway.start())
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(10), "gateway did not start"
    try:
        yield gateway
    finally:
        async def drain():
            gateway.close()
            tasks = [t for t in asyncio.all_tasks() if t is not asyncio.current_task()]
            for t in tasks:
                t.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)

        asyncio.run_coroutine_threadsafe(drain(), loop).result(timeout=10)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)


@contextlib.contextmanager
def raw_connection(gateway):
    sock = socket.create_connection(("127.0.0.1", gateway.port), timeout=10)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    stream = sock.makefile("rwb")
    try:
        yield stream
    finally:
        stream.close()
        sock.close()


def _send(stream, op, rid, dataset, value=None):
    stream.write(protocol.pack_frame({"op": op, "rid": rid, "dataset": dataset}, value))
    stream.flush()


def _recv_error(stream):
    frame = protocol.read_frame(stream)
    assert frame is not None
    header, body, codec = frame
    assert header["ok"] is False
    return header, protocol.decode_body(body, codec)


def test_watermark_sheds_with_structured_overloaded_frames():
    backend = _BlackHoleBackend()
    config = GatewayConfig(max_inflight_per_dataset=2, queue_watermark=3)
    with serving(backend, config) as gateway:
        with raw_connection(gateway) as stream:
            # Pipeline 9 queries without reading: 2 dispatch, 3 wait for a
            # permit, 4 cross the watermark and must be shed.
            for rid in range(9):
                _send(stream, "query", rid, "d", {"kind": "k", "query": rid})
            rejected = [_recv_error(stream) for _ in range(4)]
            for header, payload in rejected:
                assert payload["type"] == "OverloadedError"
                assert "back off" in payload["message"]
            assert sorted(h["rid"] for h, _ in rejected) == [5, 6, 7, 8]
        assert gateway.counters["overloaded_rejections"] == 4
        # Bounded buffering: the backend saw exactly the permit holders.
        deadline = time.monotonic() + 5
        while len(backend.submitted) < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(backend.submitted) == 2


def test_admission_is_per_dataset():
    backend = _BlackHoleBackend()
    config = GatewayConfig(max_inflight_per_dataset=1, queue_watermark=0)
    with serving(backend, config) as gateway:
        with raw_connection(gateway) as stream:
            _send(stream, "query", 1, "a", {"kind": "k", "query": 1})
            _send(stream, "query", 2, "a", {"kind": "k", "query": 2})  # shed
            _send(stream, "query", 3, "b", {"kind": "k", "query": 3})  # admitted
            header, payload = _recv_error(stream)
            assert header["rid"] == 2
            assert payload["type"] == "OverloadedError"
        assert gateway.counters["overloaded_rejections"] == 1


def test_every_client_connection_reads_in_bounded_chunks(monkeypatch):
    """asyncio's default 256 KiB read is a fresh block per frame that glibc
    maps and unmaps unless a larger one was freed first, so the front's
    cost per request would hang on the largest frame it had read."""
    sizes = []
    bound = protocol.bound_reads

    def spy(writer):
        bound(writer)
        sizes.append(writer.transport.max_size)

    monkeypatch.setattr(protocol, "bound_reads", spy)
    with serving(_EchoBackend()) as gateway:
        for _ in range(2):
            with raw_connection(gateway) as stream:
                _send(stream, "ping", 1, "")
                assert protocol.read_frame(stream)[0]["ok"] is True
    assert sizes == [protocol.READ_CHUNK_BYTES] * 2


def test_unknown_op_answers_and_keeps_the_connection():
    with serving(_EchoBackend()) as gateway:
        with raw_connection(gateway) as stream:
            # ``replay`` is the supervisor's own op: from a client it would
            # change a homed dataset behind its journal.
            for rid, op in enumerate(("shutdown", "replay"), 1):
                _send(stream, op, rid, "d")
                header, payload = _recv_error(stream)
                assert payload["type"] == "ProtocolError"
                assert f"unknown op {op!r}" in payload["message"]
            # The stream position is intact: the next request still serves.
            _send(stream, "ping", 3, "")
            frame = protocol.read_frame(stream)
            assert frame is not None and frame[0]["ok"] is True
        assert gateway.counters["protocol_errors"] == 2
        assert gateway.counters["frames"] == 3


def test_malformed_frame_answers_then_hangs_up():
    with serving(_EchoBackend()) as gateway:
        with raw_connection(gateway) as stream:
            stream.write(b"XX" + bytes(10))
            stream.flush()
            _, payload = _recv_error(stream)
            assert payload["type"] == "ProtocolError"
            # A corrupt stream position cannot be resynchronized: EOF next.
            assert protocol.read_frame(stream) is None
        assert gateway.counters["protocol_errors"] == 1


def test_oversized_frame_rejected_without_buffering():
    config = GatewayConfig(max_frame_bytes=256)
    with serving(_EchoBackend(), config) as gateway:
        with raw_connection(gateway) as stream:
            oversized = protocol.pack_frame(
                {"op": "attach", "rid": 1, "dataset": "d"}, list(range(512))
            )
            assert len(oversized) > 256
            stream.write(oversized)
            stream.flush()
            _, payload = _recv_error(stream)
            assert payload["type"] == "ProtocolError"
            assert "exceeds" in payload["message"]


def test_synchronous_backend_error_maps_to_its_class():
    with serving(_RaisingBackend()) as gateway:
        with raw_connection(gateway) as stream:
            _send(stream, "query", 7, "ghost", {"kind": "k", "query": 1})
            header, payload = _recv_error(stream)
            assert header["rid"] == 7
            assert payload["type"] == "UnknownDatasetError"
            # The permit was released: the next request is admitted too.
            _send(stream, "query", 8, "ghost", {"kind": "k", "query": 1})
            header, payload = _recv_error(stream)
            assert header["rid"] == 8
        assert gateway.counters["overloaded_rejections"] == 0


# -- deadline admission (ISSUE 10) ---------------------------------------------


class _RecordingEchoBackend(_EchoBackend):
    """Echo backend that keeps the headers it was asked to serve."""

    def __init__(self):
        self.headers = []

    def submit(self, header, body, on_done):
        self.headers.append(dict(header))
        super().submit(header, body, on_done)


def _send_with_deadline(stream, op, rid, dataset, deadline_ms, value=None):
    header = {"op": op, "rid": rid, "dataset": dataset, "deadline_ms": deadline_ms}
    stream.write(protocol.pack_frame(header, value))
    stream.flush()


def test_expired_deadline_rejected_before_admission():
    """``deadline_ms <= 0`` means the budget was spent before the frame
    arrived: the gateway sheds it with a typed error without touching the
    admission permits or the backend, and the connection stays usable."""
    backend = _RecordingEchoBackend()
    with serving(backend) as gateway:
        with raw_connection(gateway) as stream:
            _send_with_deadline(stream, "query", 1, "d", 0,
                                {"kind": "k", "query": 1})
            header, payload = _recv_error(stream)
            assert header["rid"] == 1
            assert payload["type"] == "DeadlineExceededError"
            assert payload["details"]["op"] == "query"
            assert payload["details"]["dataset"] == "d"
            _send(stream, "ping", 2, "")
            assert protocol.read_frame(stream)[0]["ok"] is True
        assert gateway.counters["deadline_expired"] == 1
        assert gateway.counters["protocol_errors"] == 0
        # The expired frame never reached the backend.
        assert [h["op"] for h in backend.headers] == ["ping"]


def test_admitted_deadline_forwards_remaining_budget():
    """An in-budget frame is forwarded with ``deadline_ms`` rewritten to
    what is *left* after the permit wait -- never more than the client
    sent."""
    backend = _RecordingEchoBackend()
    with serving(backend) as gateway:
        with raw_connection(gateway) as stream:
            _send_with_deadline(stream, "query", 1, "d", 5000.0,
                                {"kind": "k", "query": 1})
            frame = protocol.read_frame(stream)
            assert frame is not None and frame[0]["ok"] is True
        (header,) = backend.headers
        assert 0 < header["deadline_ms"] <= 5000.0
        assert gateway.counters["deadline_expired"] == 0


def test_deadline_expiring_in_the_permit_queue_is_shed():
    """A request whose budget dies while waiting for an admission permit is
    shed *after* the wait with the same typed error, instead of burning a
    worker on an answer nobody wants."""
    backend = _BlackHoleBackend()
    config = GatewayConfig(max_inflight_per_dataset=1, queue_watermark=2)
    with serving(backend, config) as gateway:
        with raw_connection(gateway) as stream:
            # rid 1 holds the only permit forever (black-hole backend);
            # rid 2 queues behind it with a 50 ms budget.
            _send(stream, "query", 1, "d", {"kind": "k", "query": 1})
            _send_with_deadline(stream, "query", 2, "d", 50.0,
                                {"kind": "k", "query": 2})
            header, payload = _recv_error(stream)
            assert header["rid"] == 2
            assert payload["type"] == "DeadlineExceededError"
            assert "permit" in payload["message"]
        assert gateway.counters["deadline_expired"] == 1
        assert len(backend.submitted) == 1  # only the permit holder


def test_non_numeric_deadline_is_a_protocol_error():
    backend = _RecordingEchoBackend()
    with serving(backend) as gateway:
        with raw_connection(gateway) as stream:
            _send_with_deadline(stream, "query", 1, "d", "soon",
                                {"kind": "k", "query": 1})
            header, payload = _recv_error(stream)
            assert header["rid"] == 1
            assert payload["type"] == "ProtocolError"
            assert "deadline_ms" in payload["message"]
        assert gateway.counters["protocol_errors"] == 1
        assert backend.headers == []


@pytest.mark.parametrize(
    "field, value",
    [
        ("op", ["query"]),
        ("dataset", [1, 2]),
        ("dataset", {"a": 1}),
        ("deadline_ms", True),
        pytest.param("deadline_ms", 10**400, id="deadline_ms-overflows-float"),
    ],
)
def test_mistyped_header_field_is_a_protocol_error(field, value):
    """Header fields are type-checked before admission hashes or compares
    them: an error frame comes back, the backend sees nothing, and the same
    connection then serves a valid frame."""
    backend = _RecordingEchoBackend()
    with serving(backend) as gateway:
        with raw_connection(gateway) as stream:
            header = {"op": "query", "rid": 1, "dataset": "d", field: value}
            stream.write(protocol.pack_frame(header, {"kind": "k", "query": 1}))
            stream.flush()
            rheader, payload = _recv_error(stream)
            assert rheader["rid"] == 1
            assert payload["type"] == "ProtocolError"
            assert backend.headers == []
            _send(stream, "ping", 2, "")
            frame = protocol.read_frame(stream)
            assert frame is not None and frame[0]["ok"] is True
        assert gateway.counters["protocol_errors"] == 1
        assert [h["op"] for h in backend.headers] == ["ping"]


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999", "-1e999"])
def test_non_finite_json_literal_is_a_protocol_error(literal):
    """The decoder reads only what the encoder can write: a header carrying
    a non-finite literal, or one that overflows a float, takes the
    malformed-frame path instead of reaching admission or the backend."""
    backend = _RecordingEchoBackend()
    raw = ('{"op":"query","rid":1,"dataset":"d","deadline_ms":%s}' % literal).encode()
    body = protocol.encode_body({"kind": "k", "query": 1})
    with serving(backend) as gateway:
        with raw_connection(gateway) as stream:
            stream.write(
                protocol._PREFIX.pack(protocol.MAGIC, protocol.PROTOCOL_VERSION,
                                      protocol.CODEC_JSON, len(raw), len(body))
                + raw + body
            )
            stream.flush()
            _, payload = _recv_error(stream)
            assert payload["type"] == "ProtocolError"
            assert protocol.read_frame(stream) is None
        assert gateway.counters["protocol_errors"] == 1
        assert backend.headers == []
    with pytest.raises(ProtocolError):
        protocol.decode_body(b'{"$":"l","v":[%s]}' % literal.encode())


def test_admission_map_forgets_idle_datasets():
    """One admission entry per dataset in flight, not per name ever sent."""
    with serving(_EchoBackend()) as gateway:
        with raw_connection(gateway) as stream:
            for rid in range(50):
                _send(stream, "query", rid, f"d{rid}", {"kind": "k", "query": rid})
                frame = protocol.read_frame(stream)
                assert frame is not None and frame[0]["ok"] is True
        # The entry goes after the answer is written: poll briefly.
        deadline = time.monotonic() + 1
        while gateway._admission and time.monotonic() < deadline:
            time.sleep(0.01)
        assert gateway._admission == {}


def test_clean_disconnect_is_not_a_protocol_error():
    with serving(_EchoBackend()) as gateway:
        with raw_connection(gateway) as stream:
            _send(stream, "ping", 1, "")
            assert protocol.read_frame(stream)[0]["ok"] is True
        deadline = time.monotonic() + 5
        while gateway.counters["connections"] < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert gateway.counters["protocol_errors"] == 0
