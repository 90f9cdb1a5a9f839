"""The body codec's fast paths: one JSON decoder for every frame, and runs
of scalars carried in one pass -- with the refusals and the types of the
item-by-item codec kept."""

import enum
import json

import pytest

from repro.core.errors import ProtocolError
from repro.incremental.changes import ChangeKind, PointWrite, TupleChange
from repro.service.frontend import protocol


@pytest.fixture
def no_new_decoder(monkeypatch):
    """Fail any ``JSONDecoder`` built while the test runs."""

    def refuse(self, *args, **kwargs):
        raise AssertionError("a JSONDecoder was built for one document")

    monkeypatch.setattr(json.JSONDecoder, "__init__", refuse)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999", "-1e999"])
def test_non_finite_numbers_are_refused_by_the_shared_decoder(literal):
    for raw in (literal, '{"op":"query","deadline_ms":%s}' % literal, "[1,%s]" % literal):
        with pytest.raises(ProtocolError):
            protocol._loads(raw.encode(), protocol.CODEC_JSON)


def test_a_frame_is_decoded_without_building_a_decoder(no_new_decoder):
    raw = protocol.pack_frame({"op": "query", "rid": 3, "dataset": "d"},
                              {"kind": "k", "query": (1, 2.5, "x", None, True)})
    header, body, codec = protocol.unpack_frame(raw)
    assert header == {"op": "query", "rid": 3, "dataset": "d"}
    assert protocol.decode_body(body, codec) == {"kind": "k", "query": (1, 2.5, "x", None, True)}


class _Small(enum.IntEnum):
    ONE = 1


def test_scalar_runs_keep_their_container_and_item_types():
    """A run of plain scalars is one pass either way; a run holding an
    ``IntEnum`` still goes item by item, so it reaches the wire as before."""
    for value in ((1, "a", None, 2.5, False), [1, "a", None, 2.5, False], (), []):
        decoded = protocol.decode_body(protocol.encode_body(value))
        assert decoded == value and type(decoded) is type(value)
        assert [type(item) for item in decoded] == [type(item) for item in value]
    assert protocol.encode_body([_Small.ONE, 2]) == b'{"$":"l","v":[1,2]}'
    nested = protocol.decode_body(protocol.encode_body([(1, 2), [3]]))
    assert nested == [(1, 2), [3]] and type(nested[0]) is tuple


@pytest.mark.parametrize("tag", ["t", "l"])
def test_a_bare_array_inside_a_container_is_still_refused(tag):
    with pytest.raises(ProtocolError, match="bare array"):
        protocol.decode_value({"$": tag, "v": [1, [2, 3]]})


def test_change_kinds_decode_by_value_and_refuse_unknown_ones():
    changes = [TupleChange(ChangeKind.INSERT, (1, "a")), TupleChange(ChangeKind.DELETE, (2,)),
               PointWrite(3, 4), ChangeKind.DELETE]
    assert protocol.decode_body(protocol.encode_body(changes)) == changes
    for kind in ("upsert", ["insert"]):
        with pytest.raises(ValueError):
            protocol.decode_value({"$": "ck", "v": kind})


@pytest.mark.parametrize("number", [float("nan"), float("inf"), float("-inf")])
def test_a_non_finite_body_value_is_a_protocol_error_naming_it(number):
    """The encoder refuses what the decoder refuses, with the same error
    class: ``json``'s bare ``ValueError`` never escapes the codec."""
    for value in ({"kind": "k", "query": number}, {"pairs": [("k", (1, number))]}):
        with pytest.raises(ProtocolError, match=f"non-finite number {number!r}"):
            protocol.encode_body(value)


@pytest.mark.parametrize("number", [float("nan"), float("inf"), float("-inf")])
def test_a_non_finite_header_value_is_a_protocol_error_naming_it(number):
    header = {"op": "query", "rid": 1, "dataset": "d", "deadline_ms": number}
    with pytest.raises(ProtocolError, match=f"non-finite number {number!r}"):
        protocol.pack_frame(header, {"kind": "k", "query": 1})
