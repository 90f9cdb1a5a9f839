"""Dataset fingerprints: content addresses for preprocessing artifacts.

The artifact store keys a persisted Pi-structure by *what data it was built
over*, not by object identity: two processes that load the same relation must
resolve to the same artifact.  ``dataset_fingerprint`` therefore streams a
canonical byte form of the dataset into SHA-256 -- the type name (so a list
and a tuple, or a Graph and a Digraph, with equal content do not collide),
then one form per input shape.  Every piece is a frame -- ``tag, u64
little-endian length, body`` -- and each form has its own tags, so no two
forms can collide:

* a flat ``list`` / ``tuple`` is one **column**: ``P`` + the typecode
  :func:`repro.indexes.columns.words` chose, the element count and the
  little-endian machine words (never the sub-word form ``pack`` stores, so
  no artifact key moves when that form does) -- or, when ``words``
  declines (strings, bools, ``None``, nested rows, ints beyond 64 bits,
  the empty run), ``S`` and the Sigma* rendering *of that column*.  A
  :class:`~repro.storage.packed.PackedRun` hashes as the tuple or list it
  encodes, from the machine words it decodes to: no value is boxed;
* a :class:`~repro.storage.relation.Relation` is ``R`` and the schema name,
  a ``T`` frame for each attribute's name and for its type (UTF-8), then
  one column per attribute over the live rows (tombstones do not count: a
  relation with deleted rows equals the compacted one);
* anything else is ``O`` and :func:`canonical_bytes`: an object's own
  ``encode()`` (the graph classes), raw ``bytes``, else ``repr``, which is
  deterministic for the value types this library generates
  (``PYTHONHASHSEED`` does not affect it).

Two datasets get one fingerprint exactly when their type names and
:func:`canonical_bytes` -- the Sigma* reference rendering, which set-up no
longer pays for -- agree.
"""

from __future__ import annotations

import hashlib
import sys
from typing import Any

from repro.core import alphabet
from repro.core.errors import EncodingError
from repro.indexes.columns import words
from repro.storage.packed import PackedRun
from repro.storage.relation import Relation

__all__ = ["dataset_fingerprint", "canonical_bytes"]


def canonical_bytes(data: Any) -> bytes:
    """A deterministic byte rendering of a dataset (not reversible)."""
    encode = getattr(data, "encode", None)
    if callable(encode) and not isinstance(data, (str, bytes)):
        rendered = encode()
        if isinstance(rendered, bytes):
            return rendered
        return str(rendered).encode("utf-8")
    if isinstance(data, bytes):
        return data
    try:
        return alphabet.encode(data).encode("utf-8")
    except EncodingError:
        return repr(data).encode("utf-8")


def _frame(digest: Any, tag: bytes, body: Any) -> None:
    """``len(body)`` counts bytes, or the machine words of a packed column."""
    digest.update(tag + len(body).to_bytes(8, "little"))
    digest.update(body)


def _column(digest: Any, values: Any) -> None:
    column = words(values)
    if isinstance(column, list):  # words declined: not a run of machine words
        _frame(digest, b"S", canonical_bytes(values))
        return
    _words(digest, column)


def _words(digest: Any, column: Any) -> None:
    """The ``P`` frame of a fresh column in :func:`words`' typecode."""
    if sys.byteorder == "big":
        column.byteswap()
    _frame(digest, b"P" + column.typecode.encode("ascii"), column)


def dataset_fingerprint(data: Any) -> str:
    """SHA-256 hex digest identifying a dataset's content and type."""
    digest = hashlib.sha256()
    kind = data.kind if isinstance(data, PackedRun) else type(data)
    digest.update(kind.__name__.encode("ascii", "replace") + b"\x00")
    if isinstance(data, PackedRun):
        # Its words are the ones ``words`` picks for the values: no value is boxed.
        if data:
            _words(digest, data.words())
        else:
            _column(digest, data.values())
    elif isinstance(data, Relation):
        _frame(digest, b"R", data.schema.name.encode("utf-8"))
        for attribute in data.schema.attributes:
            _frame(digest, b"T", attribute.name.encode("utf-8"))
            _frame(digest, b"T", attribute.type.value.encode("utf-8"))
        for column in data.columns():
            _column(digest, column)
    elif isinstance(data, (list, tuple)):
        _column(digest, data)
    else:
        _frame(digest, b"O", canonical_bytes(data))
    return digest.hexdigest()
