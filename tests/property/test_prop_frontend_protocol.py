"""Property tests for the serving-front wire format (ISSUE 9, satellite c).

Three families of properties:

* **value round-trip**: every value the serving surface speaks -- nested
  containers, bytes, change objects -- survives
  ``decode_body(encode_body(v))`` with *exact* types (tuple stays tuple,
  set stays set);
* **frame round-trip**: ``unpack_frame(pack_frame(...))`` returns the
  header and body unchanged, for request, response and error frames, and
  streams of concatenated frames parse one by one off a blocking reader;
* **rejection**: oversized frames are refused from the length prefix
  alone (before any body byte is read), and bad magic / version / codec /
  truncation all raise :class:`~repro.core.errors.ProtocolError` instead
  of returning garbage.
"""

from __future__ import annotations

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import errors as error_mod
from repro.core.errors import (
    OverloadedError,
    ProtocolError,
    ServiceError,
    UnknownDatasetError,
    WorkerFailedError,
)
from repro.incremental.changes import ChangeKind, EdgeChange, PointWrite, TupleChange
from repro.service.frontend import protocol

#: Every codec the format speaks.
CODECS = [protocol.CODEC_JSON]

scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**53), max_value=2**53)
    | st.floats(allow_nan=False, allow_infinity=False, width=64)
    | st.text(max_size=24)
)

hashables = scalars | st.binary(max_size=24)

changes = (
    st.builds(
        TupleChange,
        st.sampled_from(list(ChangeKind)),
        st.lists(scalars, max_size=3).map(tuple),
    )
    | st.builds(
        EdgeChange,
        st.sampled_from(list(ChangeKind)),
        st.integers(0, 100),
        st.integers(0, 100),
    )
    | st.builds(PointWrite, st.integers(0, 100), scalars)
)

wire_values = st.recursive(
    scalars | st.binary(max_size=24) | changes,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(hashables, inner, max_size=4)
        | st.sets(hashables, max_size=4)
        | st.frozensets(hashables, max_size=4)
    ),
    max_leaves=12,
)


def assert_wire_equal(decoded, original):
    """Equality plus *type* fidelity: `==` alone would let a tuple pass as
    a list."""
    if isinstance(original, bool) or original is None:
        assert decoded is original
        return
    assert type(decoded) is type(original), (decoded, original)
    if isinstance(original, tuple) and not hasattr(original, "_fields"):
        assert len(decoded) == len(original)
        for d, o in zip(decoded, original):
            assert_wire_equal(d, o)
    elif isinstance(original, list):
        assert len(decoded) == len(original)
        for d, o in zip(decoded, original):
            assert_wire_equal(d, o)
    elif isinstance(original, dict):
        assert decoded == original
    else:
        assert decoded == original


@pytest.mark.parametrize("codec", CODECS)
@settings(max_examples=150, deadline=None)
@given(value=wire_values)
def test_body_round_trip_is_type_exact(codec, value):
    assert_wire_equal(protocol.decode_body(protocol.encode_body(value, codec), codec), value)


@pytest.mark.parametrize("codec", CODECS)
@pytest.mark.parametrize("op", sorted(protocol.REQUEST_OPS))
@settings(max_examples=40, deadline=None)
@given(rid=st.integers(0, 2**31), dataset=st.text(max_size=16), value=wire_values)
def test_request_frame_round_trip(codec, op, rid, dataset, value):
    header = {"op": op, "rid": rid, "dataset": dataset}
    raw = protocol.pack_frame(header, value, codec=codec)
    rheader, rbody, rcodec = protocol.unpack_frame(raw)
    assert rheader == header
    assert rcodec == codec
    assert_wire_equal(protocol.decode_body(rbody, rcodec), value)


@settings(max_examples=40, deadline=None)
@given(rid=st.integers(0, 2**31), value=wire_values)
def test_response_and_error_frames_round_trip(rid, value):
    ok_raw = protocol.pack_frame({"rid": rid, "ok": True, "op": "query"}, value)
    header, body, codec = protocol.unpack_frame(ok_raw)
    assert header["ok"] is True
    assert_wire_equal(protocol.decode_body(body, codec), value)

    err = UnknownDatasetError("no dataset 'd'")
    err_raw = protocol.pack_frame(
        {"rid": rid, "ok": False, "op": "query"}, protocol.error_payload(err)
    )
    header, body, codec = protocol.unpack_frame(err_raw)
    assert header["ok"] is False
    payload = protocol.decode_body(body, codec)
    assert payload == {"type": "UnknownDatasetError", "message": "no dataset 'd'"}


@settings(max_examples=25, deadline=None)
@given(values=st.lists(wire_values, min_size=1, max_size=5))
def test_frame_stream_parses_one_by_one(values):
    raw = b"".join(
        protocol.pack_frame({"op": "query", "rid": i, "dataset": "d"}, value)
        for i, value in enumerate(values)
    )
    stream = io.BytesIO(raw)
    for i, value in enumerate(values):
        frame = protocol.read_frame(stream)
        assert frame is not None
        header, body, codec = frame
        assert header["rid"] == i
        assert_wire_equal(protocol.decode_body(body, codec), value)
    assert protocol.read_frame(stream) is None  # clean EOF at the boundary


# -- rejection properties ------------------------------------------------------


def test_oversized_frame_rejected_at_pack_time():
    with pytest.raises(ProtocolError, match="exceeds"):
        protocol.pack_frame(
            {"op": "attach", "rid": 1, "dataset": "d"},
            list(range(4096)),
            max_frame_bytes=64,
        )


def test_oversized_frame_rejected_from_prefix_before_body_read():
    """The length prefix alone must trigger rejection: feed *only* the
    10-byte prefix declaring a huge body.  A reader that waited for the
    body would die with "closed mid-frame" instead of "exceeds"."""
    prefix = protocol._PREFIX.pack(
        protocol.MAGIC, protocol.PROTOCOL_VERSION, protocol.CODEC_JSON, 2, 2**31
    )
    with pytest.raises(ProtocolError, match="exceeds"):
        protocol.read_frame(io.BytesIO(prefix))


@settings(max_examples=60, deadline=None)
@given(cut=st.integers(min_value=1, max_value=200), value=wire_values)
def test_truncated_frame_raises_never_returns_garbage(cut, value):
    raw = protocol.pack_frame({"op": "query", "rid": 1, "dataset": "d"}, value)
    if cut >= len(raw):
        cut = len(raw) - 1
    with pytest.raises(ProtocolError, match="mid-frame"):
        protocol.read_frame(io.BytesIO(raw[:cut]))


def test_bad_magic_version_and_codec_rejected():
    good = protocol.pack_frame({"op": "ping", "rid": 1, "dataset": ""}, None)
    with pytest.raises(ProtocolError, match="magic"):
        protocol.unpack_frame(b"XX" + good[2:])
    with pytest.raises(ProtocolError, match="version"):
        protocol.unpack_frame(good[:2] + bytes([99]) + good[3:])
    with pytest.raises(ProtocolError, match="codec"):
        protocol.unpack_frame(good[:3] + bytes([7]) + good[4:])


def test_unencodable_value_and_unknown_tag_rejected():
    with pytest.raises(ProtocolError, match="cannot encode"):
        protocol.encode_value(object())
    with pytest.raises(ProtocolError, match="unknown wire tag"):
        protocol.decode_value({"$": "mystery", "v": 1})
    with pytest.raises(ProtocolError, match="unknown change type"):
        protocol.decode_value({"$": "c", "c": "Nope", "v": {}})
    with pytest.raises(ProtocolError, match="bare array"):
        protocol.decode_value([1, 2, 3])


def test_msgpack_codec_without_msgpack_is_a_structured_error():
    """Codec byte 1 is refused by name, in a call and in a frame prefix."""
    with pytest.raises(ProtocolError, match=r"codec byte 1 \(msgpack\)"):
        protocol.encode_body(1, 1)
    with pytest.raises(ProtocolError, match=r"codec byte 1 \(msgpack\)"):
        protocol.decode_body(b"1", 1)
    raw = protocol.pack_frame({"op": "ping", "rid": 1, "dataset": ""}, None)
    tampered = raw[:3] + bytes([1]) + raw[4:]
    with pytest.raises(ProtocolError, match=r"codec byte 1 \(msgpack\)"):
        protocol.unpack_frame(tampered)


# -- structured error mapping --------------------------------------------------


def test_every_library_error_maps_back_to_its_class():
    assert "UnknownDatasetError" in protocol.ERROR_TYPES
    assert "OverloadedError" in protocol.ERROR_TYPES
    for name, cls in protocol.ERROR_TYPES.items():
        with pytest.raises(cls) as excinfo:
            protocol.raise_remote({"type": name, "message": "boom"})
        assert type(excinfo.value) is cls
        assert "boom" in str(excinfo.value)


def test_new_error_types_map_without_protocol_edits():
    """ERROR_TYPES is built from the errors module, so the three frontend
    errors introduced by this PR are already on the wire map."""
    for cls in (ProtocolError, OverloadedError, WorkerFailedError):
        assert protocol.ERROR_TYPES[cls.__name__] is cls
        assert issubclass(cls, error_mod.ServiceError)


def test_unknown_remote_error_degrades_to_service_error():
    with pytest.raises(ServiceError, match="remote KeyError: lost"):
        protocol.raise_remote({"type": "KeyError", "message": "lost"})


# -- v2 deadlines (ISSUE 10) ---------------------------------------------------


@pytest.mark.parametrize("codec", CODECS)
@settings(max_examples=60, deadline=None)
@given(
    rid=st.integers(0, 2**31),
    deadline_ms=st.floats(
        min_value=0.001, max_value=1e9, allow_nan=False, allow_infinity=False
    ),
)
def test_deadline_header_round_trips_in_both_codecs(codec, rid, deadline_ms):
    """``deadline_ms`` is an *optional* header field: frames that carry it
    round-trip it exactly, frames that omit it carry no deadline."""
    header = {"op": "query", "rid": rid, "dataset": "d", "deadline_ms": deadline_ms}
    rheader, _, rcodec = protocol.unpack_frame(
        protocol.pack_frame(header, {"kind": "k", "query": 1}, codec=codec)
    )
    assert rcodec == codec
    assert rheader["deadline_ms"] == pytest.approx(deadline_ms)
    bare = {"op": "query", "rid": rid, "dataset": "d"}
    rheader, _, _ = protocol.unpack_frame(protocol.pack_frame(bare, None, codec=codec))
    assert "deadline_ms" not in rheader


@settings(max_examples=40, deadline=None)
@given(rid=st.integers(0, 2**31), value=wire_values)
def test_v1_frames_are_refused_naming_the_version(rid, value):
    """Nothing emits v1 any more: a frame that differs from a valid one only
    in its version byte is a ``ProtocolError`` that says which version."""
    raw = protocol.pack_frame({"op": "query", "rid": rid, "dataset": "d"}, value)
    assert raw[2] == protocol.PROTOCOL_VERSION == 2
    with pytest.raises(ProtocolError, match="unsupported protocol version 1;"):
        protocol.unpack_frame(raw[:2] + bytes([1]) + raw[3:])


@pytest.mark.parametrize("codec", CODECS)
@settings(max_examples=60, deadline=None)
@given(
    op=st.sampled_from(sorted(protocol.REQUEST_OPS)),
    dataset=st.text(min_size=1, max_size=16),
    elapsed_ms=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    budget_ms=st.none()
    | st.floats(min_value=0.001, max_value=1e6, allow_nan=False),
)
def test_deadline_error_details_survive_the_wire(codec, op, dataset, elapsed_ms, budget_ms):
    """A worker-side DeadlineExceededError reconstructs client-side with
    its op/dataset/budget arithmetic intact (via wire_details ->
    error_payload -> raise_remote)."""
    original = error_mod.DeadlineExceededError(
        "budget expired", op=op, dataset=dataset,
        elapsed_ms=elapsed_ms, budget_ms=budget_ms,
    )
    payload = protocol.decode_body(
        protocol.encode_body(protocol.error_payload(original), codec), codec
    )
    assert payload["type"] == "DeadlineExceededError"
    with pytest.raises(error_mod.DeadlineExceededError) as excinfo:
        protocol.raise_remote(payload)
    remote = excinfo.value
    assert remote.op == op
    assert remote.dataset == dataset
    assert remote.elapsed_ms == pytest.approx(elapsed_ms)
    if budget_ms is None:
        assert remote.budget_ms is None
    else:
        assert remote.budget_ms == pytest.approx(budget_ms)
