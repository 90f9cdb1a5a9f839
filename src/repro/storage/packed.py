"""A run of plain ints held packed: one column, boxed only by code that reads it.

Every answer reads Pi(D), not D.  An attach that crossed the wire as one
packed column (:mod:`repro.service.frontend.protocol`) reaches a worker's
engine as a :class:`PackedRun` -- the column's bytes and the sequence type
they stand for -- and stays that way:

* :func:`~repro.storage.fingerprint.dataset_fingerprint` hashes the machine
  words :func:`~repro.indexes.columns.unpack_words` decodes, boxing no
  value, and gets the digest of the tuple or list the run encodes;
* an immutable session's build is handed those machine words
  (:meth:`PackedRun.words`), which the flat int structures keep as typed
  columns, as a store load does -- so a worker serving an immutable
  unsharded session boxes no value of D, whether it builds Pi(D) or loads
  it;
* :func:`materialize` builds the tuple or list once, for the code that
  still needs boxed values -- a sharded split, a mutable session's working
  copy (whose builds share its ints), ``Dataset.data`` -- and every later
  caller shares it.

A plain int is an exact ``int`` that one machine word holds: a ``bool``, an
``IntEnum``, a numpy int or an int past 64 bits is not, and a run holding
one is not packed (it would not come back as the objects that went in).
"""

from __future__ import annotations

from typing import Any, Optional, Union

from repro.core.errors import ProtocolError
from repro.indexes.columns import from_wire_form, pack, wire_form

__all__ = ["PackedRun", "materialize"]


class PackedRun:
    """A tuple or list of plain ints as one packed column.

    ``kind`` is ``tuple`` or ``list``; ``code`` and ``raw`` are the
    column's :func:`~repro.indexes.columns.wire_form`.  A run read off the
    wire names ``most``, the most values it may decode to: a packed column
    declares its count in a few bytes, so the count is checked before
    anything is allocated.
    """

    __slots__ = ("kind", "code", "raw", "most", "_values")

    def __init__(self, kind: type, code: str, raw: bytes, most: Optional[int] = None) -> None:
        if kind not in (tuple, list):
            raise ProtocolError(f"a packed run is a tuple or a list, not {kind.__name__}")
        self.kind, self.code, self.raw, self.most = kind, code, raw, most
        self._values: Optional[Union[tuple, list]] = None

    @classmethod
    def of(cls, data: Any) -> Optional["PackedRun"]:
        """``data`` packed: a :class:`PackedRun` as it is, a tuple or list of
        plain ints (the empty run too) as its :func:`~repro.indexes.columns.pack`
        column; None for anything else."""
        if isinstance(data, cls):
            return data
        if type(data) not in (tuple, list):
            return None
        column = pack(data)
        if isinstance(column, list):  # not a run one machine word holds
            return None if data else cls(type(data), "B", b"")
        return cls(type(data), *wire_form(column))

    def __bool__(self) -> bool:
        return bool(self.raw)  # a non-empty bytes form has a header

    def words(self) -> Any:
        """The run as a fresh column in the machine word
        :func:`~repro.indexes.columns.words` picks for its values; a column
        no :func:`~repro.indexes.columns.pack` wrote, or one of more than
        ``most`` values, raises :class:`~repro.core.errors.ProtocolError`."""
        try:
            return from_wire_form(self.code, self.raw, self.most)
        except ValueError as exc:
            raise ProtocolError(f"undecodable packed run: {exc}") from None

    def values(self) -> Union[tuple, list]:
        """The tuple or list the run encodes, built on the first call and
        shared by every later one."""
        if self._values is None:
            self._values = self.kind(self.words())
        return self._values


def materialize(data: Any) -> Any:
    """``data``'s values: a :class:`PackedRun`'s tuple or list, anything
    else as it is.  ``Dataset.data`` calls it, for a sharded split, a
    mutable session's working copy and builds, and its own readers; an
    immutable session's build reads the run's machine words instead."""
    return data.values() if isinstance(data, PackedRun) else data
