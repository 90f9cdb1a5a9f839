"""Versioned, length-prefixed wire format for the serving front.

One frame on the wire::

    magic    2 bytes   b"PF"
    version  u8        PROTOCOL_VERSION (the only version accepted)
    codec    u8        0 = JSON (the one codec; any other byte is refused)
    hlen     u16 BE    header byte length
    blen     u32 BE    body byte length
    header   hlen bytes   codec-encoded *plain* dict (op, rid, dataset, ok)
    body     blen bytes   codec-encoded *tagged* value (params / answer / error),
                          or a packed attach body (below)

The header carries only what the gateway needs to route and admit a
request -- the op name, the client's request id and the dataset name -- so
the gateway never decodes the body: it relays the opaque body bytes to a
worker process, which pays the decode cost in parallel with every other
worker.  The header may carry one *optional* field, ``deadline_ms``: the
request's remaining end-to-end budget in milliseconds at send time (a
frame without it simply has no deadline).  An ``attach`` header also says
``mutable`` (:func:`request_header`): the front homes a mutable dataset on
one worker and replicates an immutable one, and decides that without
parsing the payload; the worker refuses a body that disagrees with its
header.  Both sides speak exactly
``PROTOCOL_VERSION`` (3: packed attach bodies; 2 added ``deadline_ms``); a
frame stamped with any other version is refused with a
:class:`~repro.core.errors.ProtocolError` naming the version.  Frames whose
total size exceeds ``max_frame_bytes`` are rejected with the same error
*before* the body is read: the gateway refuses to buffer what it will not
serve.

Bodies are encoded through a small tagged codec (:func:`encode_value` /
:func:`decode_value`) that round-trips everything the serving surface
speaks -- tuples vs lists, sets, bytes and the change dataclasses of
:mod:`repro.incremental.changes` -- as JSON.  An answer is a plain
``bool`` (or a list of them), which JSON carries as is.  A value JSON
cannot carry (a NaN or an infinite float, in a body or a header) is a
:class:`~repro.core.errors.ProtocolError` naming it, on either side.  The
codec byte stays in the prefix so a second codec would not need a new
frame layout, but exactly one is spoken: a frame or call naming any other
byte gets a structured :class:`~repro.core.errors.ProtocolError` back that
names it.

An attach body -- a client's ``attach`` request, and a worker's
``snapshot`` reply, which the front adopts verbatim as the attach it
replays on a re-home -- is written by :func:`encode_attach`.  When its
``data`` is a tuple or list of plain ints (exact ``int``, all held by one
64-bit word: no ``bool``, ``IntEnum`` or numpy int), the run travels as
one packed column under the body tag ``0x00``, which no JSON text starts
with::

    tag      u8        0x00
    kind     1 byte    b"t" (tuple) or b"l" (list)
    code     1 byte    the column's typecode, or b"*" for the bytes form
    jlen     u32 BE    byte length of the JSON that follows
    fields   jlen bytes   the tagged dict of every other field
    column   the rest  :func:`repro.indexes.columns.pack`'s column: its
                       bytes form, or its machine words little-endian

Every other body is tagged JSON, as before; the form follows the payload's
type, with no option and no size threshold.  :func:`decode_body` rebuilds
the tuple or list; a worker decodes with ``keep_packed=True`` and gets a
:class:`~repro.storage.packed.PackedRun`, which its engine fingerprints,
and builds from for an immutable session, without boxing a value (only a
sharded split, a mutable session and ``Dataset.data`` materialize it).  A column is
refused as a :class:`~repro.core.errors.ProtocolError` unless it is in
the word :func:`repro.indexes.columns.words` picks for its values (so it
hashes like them) and declares at most :data:`MAX_PACKED_VALUES` values,
which is checked before anything is allocated.  The column codec
is imported by the first packed body a process writes or reads, so the
front, which relays attach bodies unread, never loads it.

Errors travel as structured frames: ``{"type": <exception class name>,
"message": ...}`` with ``ok=False`` in the header.  :func:`raise_remote`
maps the name back onto the :class:`~repro.core.errors.ReproError`
hierarchy, so a remote :class:`~repro.core.errors.UnknownDatasetError` is
raised as exactly that class client-side; unknown names degrade to
:class:`~repro.core.errors.ServiceError` (never a silent success).

    >>> from repro.service.frontend import protocol
    >>> raw = protocol.pack_frame({"op": "query", "rid": 1, "dataset": "d"},
    ...                           {"kind": "list-membership", "query": 7})
    >>> header, body, codec = protocol.unpack_frame(raw)
    >>> header["op"], protocol.decode_body(body, codec)["query"]
    ('query', 7)
    >>> body = protocol.encode_attach({"name": "d", "data": tuple(range(1000))})
    >>> len(body) < 1000, protocol.decode_body(body)["data"] == tuple(range(1000))
    (True, True)
"""

from __future__ import annotations

import base64
import io
import json
import math
import struct
from typing import Any, BinaryIO, Callable, Dict, Optional, Sequence, Tuple

from repro.core import errors as _errors
from repro.core.errors import ProtocolError
from repro.incremental.changes import (
    ChangeKind,
    EdgeChange,
    PointWrite,
    TupleChange,
)

__all__ = [
    "PROTOCOL_VERSION",
    "MAGIC",
    "CODEC_JSON",
    "DEFAULT_MAX_FRAME_BYTES",
    "MAX_PACKED_VALUES",
    "MAX_FRAME_BYTES",
    "REQUEST_OPS",
    "request_header",
    "encode_value",
    "decode_value",
    "encode_body",
    "encode_attach",
    "decode_body",
    "join_bodies",
    "pack_frame",
    "unpack_frame",
    "read_frame",
    "read_frame_async",
    "bound_reads",
    "error_payload",
    "raise_remote",
]

MAGIC = b"PF"
#: The one version this side emits and accepts (3 = packed attach bodies;
#: 2 added the optional ``deadline_ms`` header field).
PROTOCOL_VERSION = 3
CODEC_JSON = 0
#: 8 MiB: comfortably holds a 2^16-element attach payload or a
#: multi-thousand-query batch, small enough that one bad peer cannot make
#: the gateway buffer unboundedly.
DEFAULT_MAX_FRAME_BYTES = 8 * 1024 * 1024
#: The most values a packed attach run may decode to: what a JSON attach in
#: a default-size frame carries (a digit and a comma each).  A packed column
#: declares its count in a few bytes -- a width-0 patched plane takes none
#: per value -- so a worker checks the count before it allocates, and one
#: small frame cannot make every worker fill gigabytes.
MAX_PACKED_VALUES = DEFAULT_MAX_FRAME_BYTES // 2

_PREFIX = struct.Struct(">2sBBHI")
#: The largest frame the format can express: the ceiling between the
#: supervisor and its own workers.  The 8 MiB limit protecting the front is
#: the gateway's, and a stamped header is a few bytes longer than admitted.
MAX_FRAME_BYTES = _PREFIX.size + 0xFFFF + 0xFFFFFFFF

#: Every request op a frontend peer may send.  ``snapshot`` returns a
#: dataset's attach body at its current content + version; the supervisor
#: uses it to checkpoint mutable-dataset journals (bounded re-home replay).
#: The supervisor's own ``replay`` op (a journal's batches in one frame) is
#: not among them: from a peer it would change a dataset behind its journal.
REQUEST_OPS = frozenset(
    {"attach", "query", "query_batch", "apply_changes", "stats", "detach",
     "ping", "snapshot"}
)


def request_header(op: str, rid: int, dataset: Optional[str], value: Any) -> Dict[str, Any]:
    """The routing header of one request: everything the front reads.  For
    an ``attach`` that includes ``mutable``, copied from the body ``value``."""
    header: Dict[str, Any] = {"op": op, "rid": rid, "dataset": dataset}
    if op == "attach":
        header["mutable"] = isinstance(value, dict) and bool(value.get("mutable"))
    return header


_CHANGE_TYPES: Dict[str, type] = {
    "TupleChange": TupleChange,
    "EdgeChange": EdgeChange,
    "PointWrite": PointWrite,
}
_CHANGE_KINDS: Dict[str, ChangeKind] = {kind.value: kind for kind in ChangeKind}

#: The types that pass the codec untouched, exactly: a run of only these is
#: carried or rebuilt in one pass (a subclass -- an ``IntEnum``, a numpy
#: float -- goes item by item, as it always did).
_SCALARS = frozenset({type(None), bool, int, float, str})


def _scalar_run(items: Any) -> bool:
    return set(map(type, items)) <= _SCALARS


def _change_kind(value: Any) -> ChangeKind:
    try:
        return _CHANGE_KINDS[value]
    except (KeyError, TypeError):
        return ChangeKind(value)  # raises the ValueError it always did


# -- tagged value codec --------------------------------------------------------
#
# Scalars pass through; containers and domain types become {"$": tag, ...}
# dicts, which JSON carries natively.  Decode rejects unknown tags instead
# of guessing.


def encode_value(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (tuple, list)):
        tag = "t" if isinstance(value, tuple) else "l"
        if _scalar_run(value):
            return {"$": tag, "v": list(value)}
        return {"$": tag, "v": [encode_value(item) for item in value]}
    if isinstance(value, dict):
        return {
            "$": "d",
            "v": [[encode_value(k), encode_value(v)] for k, v in value.items()],
        }
    if isinstance(value, frozenset):
        return {"$": "fs", "v": sorted((encode_value(item) for item in value), key=repr)}
    if isinstance(value, set):
        return {"$": "s", "v": sorted((encode_value(item) for item in value), key=repr)}
    if isinstance(value, (bytes, bytearray)):
        return {"$": "b", "v": base64.b64encode(bytes(value)).decode("ascii")}
    if isinstance(value, ChangeKind):
        return {"$": "ck", "v": value.value}
    if isinstance(value, TupleChange):
        return {
            "$": "c",
            "c": "TupleChange",
            "v": {"kind": value.kind.value, "row": encode_value(value.row)},
        }
    if isinstance(value, EdgeChange):
        return {
            "$": "c",
            "c": "EdgeChange",
            "v": {
                "kind": value.kind.value,
                "source": value.source,
                "target": value.target,
            },
        }
    if isinstance(value, PointWrite):
        return {
            "$": "c",
            "c": "PointWrite",
            "v": {"position": value.position, "value": encode_value(value.value)},
        }
    raise ProtocolError(
        f"cannot encode {type(value).__name__} for the wire; supported: "
        "scalars, tuple/list/dict/set/bytes, change objects"
    )


def decode_value(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, list):
        # Bare arrays only occur inside tags, so reject them at top level.
        raise ProtocolError("bare array outside a tagged container")
    if not isinstance(value, dict):
        raise ProtocolError(f"undecodable wire value of type {type(value).__name__}")
    tag = value.get("$")
    if tag == "t":
        items = value["v"]
        return tuple(items if _scalar_run(items) else map(decode_value, items))
    if tag == "l":
        items = value["v"]
        return list(items if _scalar_run(items) else map(decode_value, items))
    if tag == "d":
        return {decode_value(k): decode_value(v) for k, v in value["v"]}
    if tag == "s":
        return {decode_value(item) for item in value["v"]}
    if tag == "fs":
        return frozenset(decode_value(item) for item in value["v"])
    if tag == "b":
        return base64.b64decode(value["v"])
    if tag == "ck":
        return _change_kind(value["v"])
    if tag == "c":
        cls = _CHANGE_TYPES.get(value.get("c"))
        fields = value.get("v", {})
        if cls is TupleChange:
            return TupleChange(_change_kind(fields["kind"]), decode_value(fields["row"]))
        if cls is EdgeChange:
            return EdgeChange(
                _change_kind(fields["kind"]), fields["source"], fields["target"]
            )
        if cls is PointWrite:
            return PointWrite(fields["position"], decode_value(fields["value"]))
        raise ProtocolError(f"unknown change type {value.get('c')!r}")
    raise ProtocolError(f"unknown wire tag {tag!r}")


def _check_codec(codec: int) -> None:
    if codec != CODEC_JSON:
        # Byte 1 once named a second codec; tell a peer that sends it which.
        name = " (msgpack)" if codec == 1 else ""
        raise ProtocolError(
            f"unsupported codec byte {codec}{name}; this side speaks "
            f"JSON (codec {CODEC_JSON}) only"
        )


def _dumps(obj: Any, codec: int) -> bytes:
    _check_codec(codec)
    try:
        return json.dumps(obj, separators=(",", ":"), allow_nan=False).encode("utf-8")
    except ValueError:  # the one value JSON refuses: a non-finite float
        raise ProtocolError(
            f"non-finite number {_non_finite(obj)!r} is not valid JSON") from None


def _non_finite(obj: Any) -> Optional[float]:
    """The first NaN or infinite float in an encoded value, or None."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else obj
    items = obj.values() if isinstance(obj, dict) else obj if isinstance(obj, list) else ()
    return next((found for found in map(_non_finite, items) if found is not None), None)


def _refuse_constant(name: str) -> Any:
    # json.loads accepts NaN / Infinity / -Infinity, which _dumps refuses to
    # write: decode only what the encoder can produce.
    raise ProtocolError(f"non-finite number {name} is not valid JSON")


def _finite_float(literal: str) -> float:
    # A literal such as 1e999 overflows to inf without reaching
    # parse_constant; refuse it for the same reason.
    value = float(literal)
    if math.isinf(value):
        raise ProtocolError(f"number {literal} overflows a float")
    return value


#: One decoder for every frame, as ``json.loads`` shares its default one:
#: called with hooks, ``json.loads`` builds a new decoder per document.
_DECODER = json.JSONDecoder(parse_constant=_refuse_constant, parse_float=_finite_float)


def _loads(raw: bytes, codec: int) -> Any:
    _check_codec(codec)
    try:
        return _DECODER.decode(raw.decode("utf-8"))
    except Exception as exc:
        raise ProtocolError(f"undecodable frame payload: {exc}") from exc


def encode_body(value: Any, codec: int = CODEC_JSON) -> bytes:
    return _dumps(encode_value(value), codec)


#: A packed attach body's head: the tag, the run's kind and typecode, and
#: the byte length of the JSON fields before the column.
_PACKED = struct.Struct(">cccI")
_PACKED_TAG = b"\x00"  # no JSON text starts with it
_KINDS = {b"t": tuple, b"l": list}


def encode_attach(value: Any, codec: int = CODEC_JSON) -> bytes:
    """An attach body (a request's, or a ``snapshot`` reply's): its ``data``
    as one packed column when that is a run of plain ints (or a worker's
    :class:`~repro.storage.packed.PackedRun`), else :func:`encode_body`."""
    from repro.storage.packed import PackedRun

    run = PackedRun.of(value.get("data")) if isinstance(value, dict) else None
    if run is None:
        return encode_body(value, codec)
    fields = _dumps(encode_value({k: v for k, v in value.items() if k != "data"}), codec)
    kind = b"t" if run.kind is tuple else b"l"
    head = _PACKED.pack(_PACKED_TAG, kind, run.code.encode("ascii"), len(fields))
    return head + fields + run.raw


def decode_body(body: bytes, codec: int = CODEC_JSON, *, keep_packed: bool = False) -> Any:
    """The value of a body.  A packed attach body's run comes back as the
    tuple or list it encodes, or, with ``keep_packed``, as its
    :class:`~repro.storage.packed.PackedRun`, no value boxed."""
    if body[:1] != _PACKED_TAG:
        return decode_value(_loads(body, codec))
    from repro.storage.packed import PackedRun

    if len(body) < _PACKED.size:
        raise ProtocolError("packed attach body: its head is cut short")
    _, kind, code, size = _PACKED.unpack_from(body)
    end = _PACKED.size + size
    if kind not in _KINDS or end > len(body):
        raise ProtocolError(
            f"packed attach body: kind {kind!r} with {size} bytes of fields "
            f"in a {len(body)}-byte body")
    value = decode_value(_loads(body[_PACKED.size : end], codec))
    if not isinstance(value, dict) or "data" in value:
        raise ProtocolError("packed attach body: its fields are not a mapping without data")
    run = PackedRun(_KINDS[kind], code.decode("latin-1"), body[end:], MAX_PACKED_VALUES)
    value["data"] = run if keep_packed else run.values()
    return value


def join_bodies(bodies: Sequence[bytes]) -> bytes:
    """The body of the list of ``bodies``' values, spliced byte for byte:
    many bodies ride one frame and none of them is decoded to get there."""
    return b'{"$":"l","v":[' + b",".join(bodies) + b"]}"


# -- frame packing -------------------------------------------------------------


def pack_frame(
    header: Dict[str, Any],
    body_value: Any = None,
    *,
    body_bytes: Optional[bytes] = None,
    codec: int = CODEC_JSON,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
) -> bytes:
    """One wire frame: prefix + header + body.

    ``body_bytes`` relays pre-encoded bytes untouched (the gateway path);
    otherwise ``body_value`` is run through the tagged codec.  The header
    must stay a flat dict of scalars -- it is the routing surface, not the
    payload.
    """
    hbytes = _dumps(header, codec)
    if body_bytes is None:
        body_bytes = _dumps(encode_value(body_value), codec)
    if len(hbytes) > 0xFFFF:
        raise ProtocolError(f"frame header of {len(hbytes)} bytes exceeds u16")
    total = _PREFIX.size + len(hbytes) + len(body_bytes)
    if total > max_frame_bytes:
        raise ProtocolError(
            f"frame of {total} bytes exceeds the {max_frame_bytes}-byte limit"
        )
    return (
        _PREFIX.pack(MAGIC, PROTOCOL_VERSION, codec, len(hbytes), len(body_bytes))
        + hbytes
        + body_bytes
    )


def _parse_prefix(
    prefix: bytes, max_frame_bytes: int
) -> Tuple[int, int, int]:
    magic, version, codec, hlen, blen = _PREFIX.unpack(prefix)
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r}")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version}; this side speaks "
            f"{PROTOCOL_VERSION}"
        )
    _check_codec(codec)
    if _PREFIX.size + hlen + blen > max_frame_bytes:
        raise ProtocolError(
            f"frame of {_PREFIX.size + hlen + blen} bytes exceeds the "
            f"{max_frame_bytes}-byte limit"
        )
    return codec, hlen, blen


def unpack_frame(
    raw: bytes, *, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> Tuple[Dict[str, Any], bytes, int]:
    """Parse one complete frame held in memory -> (header, body bytes, codec)."""
    header, body, codec = _read_frame(io.BytesIO(raw).read, max_frame_bytes)
    return header, body, codec


def _read_exact(read: Callable[[int], bytes], n: int) -> Optional[bytes]:
    chunks = []
    remaining = n
    while remaining:
        chunk = read(remaining)
        if not chunk:
            if remaining == n and not chunks:
                return None  # clean EOF on a frame boundary
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _read_frame(
    read: Callable[[int], bytes], max_frame_bytes: int
) -> Tuple[Dict[str, Any], bytes, int]:
    prefix = _read_exact(read, _PREFIX.size)
    if prefix is None:
        raise EOFError
    codec, hlen, blen = _parse_prefix(prefix, max_frame_bytes)
    hbytes = _read_exact(read, hlen) if hlen else b""
    body = _read_exact(read, blen) if blen else b""
    if (hlen and hbytes is None) or (blen and body is None):
        raise ProtocolError("connection closed mid-frame")
    header = _loads(hbytes, codec)
    if not isinstance(header, dict):
        raise ProtocolError("frame header is not a mapping")
    return header, body, codec


def read_frame(
    stream: BinaryIO, *, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> Optional[Tuple[Dict[str, Any], bytes, int]]:
    """Read one frame from a blocking binary stream.

    Returns ``None`` on a clean EOF at a frame boundary; raises
    :class:`~repro.core.errors.ProtocolError` on truncation, bad magic,
    version mismatch or an oversized frame (the length prefix is checked
    *before* the body is read).
    """
    try:
        return _read_frame(stream.read, max_frame_bytes)
    except EOFError:
        return None


#: The most bytes one read of an asyncio stream asks its socket for.  The
#: selector transport asks for 256 KiB, a fresh ``bytes`` per read, and glibc
#: serves a block that size by ``mmap`` -- an ``mmap``, a ``munmap`` and page
#: faults per frame -- until a larger block has been freed, which raises its
#: threshold.  So a front's cost per request hung on the largest frame it
#: had read: a 431 kB JSON attach made every later read cheap, a 148 kB
#: packed one did not (``wire-point`` front CPU ~160 vs ~110 us per read).
#: 64 KiB is below glibc's default threshold of 128 KiB.
READ_CHUNK_BYTES = 64 * 1024


def bound_reads(writer: Any) -> None:
    """Cap each read of ``writer``'s transport at :data:`READ_CHUNK_BYTES`,
    where the transport has that knob (asyncio's selector transports)."""
    transport = writer.transport
    if hasattr(transport, "max_size"):
        transport.max_size = READ_CHUNK_BYTES


async def read_frame_async(
    reader: Any, *, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> Optional[Tuple[Dict[str, Any], bytes, int]]:
    """Async twin of :func:`read_frame` for an :class:`asyncio.StreamReader`."""
    import asyncio

    try:
        prefix = await reader.readexactly(_PREFIX.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-frame") from exc
    codec, hlen, blen = _parse_prefix(prefix, max_frame_bytes)
    try:
        hbytes = await reader.readexactly(hlen) if hlen else b""
        body = await reader.readexactly(blen) if blen else b""
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-frame") from exc
    header = _loads(hbytes, codec)
    if not isinstance(header, dict):
        raise ProtocolError("frame header is not a mapping")
    return header, body, codec


# -- structured error mapping --------------------------------------------------

#: Exception class name -> class, for every public repro error.  Built once
#: from the error module itself so new error types map without edits here.
ERROR_TYPES: Dict[str, type] = {
    name: obj
    for name, obj in vars(_errors).items()
    if isinstance(obj, type) and issubclass(obj, _errors.ReproError)
}


def error_payload(exc: BaseException) -> Dict[str, Any]:
    """The structured body of an error frame.

    Errors exposing a ``wire_details()`` method (e.g.
    :class:`~repro.core.errors.DeadlineExceededError` with its op/dataset/
    elapsed/budget fields) ship those fields alongside type and message, so
    the client-side re-raise carries the same structure the server saw.
    """
    payload: Dict[str, Any] = {"type": type(exc).__name__, "message": str(exc)}
    details = getattr(exc, "wire_details", None)
    if callable(details):
        fields = details()
        if fields:
            payload["details"] = fields
    return payload


def raise_remote(payload: Dict[str, Any]) -> None:
    """Re-raise a structured error frame as its library exception class.

    Names outside the :class:`~repro.core.errors.ReproError` hierarchy
    (a worker bug, say) surface as :class:`~repro.core.errors.ServiceError`
    carrying the original type name -- loud and catchable, never silent.
    ``details`` fields (when the frame carries them and the class accepts
    them as keyword arguments) are restored onto the raised exception.
    """
    name = payload.get("type", "ServiceError")
    message = payload.get("message", "remote error")
    cls = ERROR_TYPES.get(name)
    if cls is None:
        raise _errors.ServiceError(f"remote {name}: {message}")
    details = payload.get("details")
    if isinstance(details, dict) and details:
        try:
            raise cls(message, **details)
        except TypeError:
            pass  # class does not take these kwargs; fall through
    raise cls(message)
