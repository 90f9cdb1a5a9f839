"""Sigma* encodings: databases and queries as strings (paper, Section 3).

The paper follows the convention of complexity theory: both data ``D`` and
queries ``Q`` are strings over a finite alphabet, ``|D|`` and ``|Q|`` are
string lengths, and a query class is a language of pairs ``<D, Q>``.  This
module supplies the concrete, deterministic, self-delimiting codec the rest
of the library uses whenever the *string* view matters (size measurement,
the ``D#Q`` decision-problem form, factorizations defined on raw strings).

Supported values: ``None``, ``bool``, ``int``, ``str``, and arbitrarily
nested sequences thereof (lists and tuples both encode the same way and
decode as tuples -- the codec is canonical, not type-preserving for the
list/tuple distinction).

Grammar (``encode`` output)::

    token   := none | boolean | integer | string | sequence
    none    := "n;"
    boolean := "b1;" | "b0;"
    integer := "i" ["-"] digits ";"
    string  := "s" escaped ";"
    sequence:= "l" digits ":" token*          -- count-prefixed children

Escaping: ``%`` -> ``%25``, ``;`` -> ``%3B``, ``#`` -> ``%23`` inside string
payloads, so that (a) tokens are parseable by scanning to the next ``;`` and
(b) encoded strings never contain a raw ``#``.  Property (b) makes the
``D#Q`` delimiter of the decision problem ``L_Q = {D#Q}`` unambiguous
(paper, Section 3, "the decision problem of Q").
"""

from __future__ import annotations

from typing import Any, Tuple

from repro.core.errors import EncodingError

__all__ = [
    "encode",
    "decode",
    "encode_pair",
    "decode_pair",
    "PAIR_DELIMITER",
    "PADDING_DELIMITER",
]

#: Delimiter of the decision-problem form D#Q (Section 3).
PAIR_DELIMITER = "#"

#: The special symbol "@" used by the Lemma 2 padding construction; like
#: ``#`` it never occurs in codec output (it is not in the emitted alphabet).
PADDING_DELIMITER = "@"

_ESCAPES = (("%", "%25"), (";", "%3B"), ("#", "%23"), ("@", "%40"))


def _escape(payload: str) -> str:
    for raw, esc in _ESCAPES:
        payload = payload.replace(raw, esc)
    return payload


def _unescape(payload: str) -> str:
    for raw, esc in reversed(_ESCAPES):
        payload = payload.replace(esc, raw)
    return payload


def encode(value: Any) -> str:
    """Encode ``value`` as a self-delimiting string over the codec alphabet."""
    if value is None:
        return "n;"
    # bool must be tested before int (bool is an int subclass).
    if isinstance(value, bool):
        return "b1;" if value else "b0;"
    if isinstance(value, int):
        return f"i{value};"
    if isinstance(value, str):
        return f"s{_escape(value)};"
    if isinstance(value, (list, tuple)):
        children = "".join(encode(child) for child in value)
        return f"l{len(value)}:{children}"
    raise EncodingError(f"cannot encode value of type {type(value).__name__}")


def decode(text: str) -> Any:
    """Decode a string produced by :func:`encode`; inverse up to tuple/list."""
    value, pos = _decode_token(text, 0)
    if pos != len(text):
        raise EncodingError(f"trailing data after token at position {pos}")
    return value


def _decode_token(text: str, pos: int) -> Tuple[Any, int]:
    if pos >= len(text):
        raise EncodingError("unexpected end of input")
    tag = text[pos]
    if tag == "n":
        _expect(text, pos + 1, ";")
        return None, pos + 2
    if tag == "b":
        flag = text[pos + 1 : pos + 2]
        _expect(text, pos + 2, ";")
        if flag not in ("0", "1"):
            raise EncodingError(f"bad boolean payload {flag!r}")
        return flag == "1", pos + 3
    if tag == "i":
        end = text.find(";", pos + 1)
        if end == -1:
            raise EncodingError("unterminated integer token")
        body = text[pos + 1 : end]
        try:
            return int(body), end + 1
        except ValueError as exc:
            raise EncodingError(f"bad integer payload {body!r}") from exc
    if tag == "s":
        end = text.find(";", pos + 1)
        if end == -1:
            raise EncodingError("unterminated string token")
        return _unescape(text[pos + 1 : end]), end + 1
    if tag == "l":
        colon = text.find(":", pos + 1)
        if colon == -1:
            raise EncodingError("unterminated sequence header")
        try:
            count = int(text[pos + 1 : colon])
        except ValueError as exc:
            raise EncodingError("bad sequence count") from exc
        if count < 0:
            raise EncodingError("negative sequence count")
        items = []
        cursor = colon + 1
        for _ in range(count):
            item, cursor = _decode_token(text, cursor)
            items.append(item)
        return tuple(items), cursor
    raise EncodingError(f"unknown token tag {tag!r} at position {pos}")


def _expect(text: str, pos: int, char: str) -> None:
    if pos >= len(text) or text[pos] != char:
        found = text[pos] if pos < len(text) else "<eof>"
        raise EncodingError(f"expected {char!r} at position {pos}, found {found!r}")


def encode_pair(data: Any, query: Any) -> str:
    """The decision-problem string ``D#Q`` for a pair (Section 3)."""
    return encode(data) + PAIR_DELIMITER + encode(query)


def decode_pair(text: str) -> Tuple[Any, Any]:
    """Split and decode a ``D#Q`` string; inverse of :func:`encode_pair`."""
    left, sep, right = text.partition(PAIR_DELIMITER)
    if not sep:
        raise EncodingError("pair string lacks the '#' delimiter")
    if PAIR_DELIMITER in right:
        raise EncodingError("pair string contains more than one '#' delimiter")
    return decode(left), decode(right)

