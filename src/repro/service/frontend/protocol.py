"""Versioned, length-prefixed wire format for the serving front.

One frame on the wire::

    magic    2 bytes   b"PF"
    version  u8        PROTOCOL_VERSION (the only version accepted)
    codec    u8        0 = JSON (the one codec; any other byte is refused)
    hlen     u16 BE    header byte length
    blen     u32 BE    body byte length
    header   hlen bytes   codec-encoded *plain* dict (op, rid, dataset, ok)
    body     blen bytes   codec-encoded *tagged* value (params / answer / error)

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
``PROTOCOL_VERSION``; a frame stamped with any other version -- v1
included, which nothing emits any more -- is refused with a
:class:`~repro.core.errors.ProtocolError` naming the version.  Frames whose
total size exceeds ``max_frame_bytes`` are rejected with the same error
*before* the body is read: the gateway refuses to buffer what it will not
serve.

Bodies are encoded through a small tagged codec (:func:`encode_value` /
:func:`decode_value`) that round-trips everything the serving surface
speaks -- tuples vs lists, sets, bytes and the change dataclasses of
:mod:`repro.incremental.changes` -- as JSON.  An answer is a plain
``bool`` (or a list of them), which JSON carries as is.  The codec byte
stays in the prefix so a second codec would not need a new frame layout,
but exactly one is spoken: a frame or call naming any other byte gets a
structured :class:`~repro.core.errors.ProtocolError` back that names it.

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
"""

from __future__ import annotations

import base64
import io
import json
import math
import struct
from typing import Any, BinaryIO, Callable, Dict, Optional, Tuple

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
    "MAX_FRAME_BYTES",
    "REQUEST_OPS",
    "request_header",
    "encode_value",
    "decode_value",
    "encode_body",
    "decode_body",
    "pack_frame",
    "unpack_frame",
    "read_frame",
    "read_frame_async",
    "error_payload",
    "raise_remote",
]

MAGIC = b"PF"
#: The one version this side emits and accepts (2 = optional ``deadline_ms``
#: header field).
PROTOCOL_VERSION = 2
CODEC_JSON = 0
#: 8 MiB: comfortably holds a 2^16-element attach payload or a
#: multi-thousand-query batch, small enough that one bad peer cannot make
#: the gateway buffer unboundedly.
DEFAULT_MAX_FRAME_BYTES = 8 * 1024 * 1024

_PREFIX = struct.Struct(">2sBBHI")
#: The largest frame the format can express: the ceiling between the
#: supervisor and its own workers.  The 8 MiB limit protecting the front is
#: the gateway's, and a stamped header is a few bytes longer than admitted.
MAX_FRAME_BYTES = _PREFIX.size + 0xFFFF + 0xFFFFFFFF

#: Every request op a frontend peer may send.  ``snapshot`` returns a
#: dataset's attach body at its current content + version; the supervisor
#: uses it to checkpoint mutable-dataset journals (bounded re-home replay).
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


# -- tagged value codec --------------------------------------------------------
#
# Scalars pass through; containers and domain types become {"$": tag, ...}
# dicts, which JSON carries natively.  Decode rejects unknown tags instead
# of guessing.


def encode_value(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, tuple):
        return {"$": "t", "v": [encode_value(item) for item in value]}
    if isinstance(value, list):
        return {"$": "l", "v": [encode_value(item) for item in value]}
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
        return tuple(decode_value(item) for item in value["v"])
    if tag == "l":
        return [decode_value(item) for item in value["v"]]
    if tag == "d":
        return {decode_value(k): decode_value(v) for k, v in value["v"]}
    if tag == "s":
        return {decode_value(item) for item in value["v"]}
    if tag == "fs":
        return frozenset(decode_value(item) for item in value["v"])
    if tag == "b":
        return base64.b64decode(value["v"])
    if tag == "ck":
        return ChangeKind(value["v"])
    if tag == "c":
        cls = _CHANGE_TYPES.get(value.get("c"))
        fields = value.get("v", {})
        if cls is TupleChange:
            return TupleChange(ChangeKind(fields["kind"]), decode_value(fields["row"]))
        if cls is EdgeChange:
            return EdgeChange(
                ChangeKind(fields["kind"]), fields["source"], fields["target"]
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
    return json.dumps(obj, separators=(",", ":"), allow_nan=False).encode("utf-8")


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


def _loads(raw: bytes, codec: int) -> Any:
    _check_codec(codec)
    try:
        return json.loads(raw.decode("utf-8"), parse_constant=_refuse_constant,
                          parse_float=_finite_float)
    except Exception as exc:
        raise ProtocolError(f"undecodable frame payload: {exc}") from exc


def encode_body(value: Any, codec: int = CODEC_JSON) -> bytes:
    return _dumps(encode_value(value), codec)


def decode_body(body: bytes, codec: int = CODEC_JSON) -> Any:
    return decode_value(_loads(body, codec))


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
