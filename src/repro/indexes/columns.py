"""Typed columns: the one place an ``array`` typecode is chosen.

*Position* tables (sparse-table levels, block argmins, Euler tours) hold
indices below a bound fixed at build time, so they are ``array.array`` -- a
machine word per entry, not a pointer to a boxed ``int`` -- in memory and in
``to_state`` alike.  *Value* runs hold whatever the dataset holds: lists in
memory (``bisect`` and indexing are faster over a list), packed for
``to_state`` only when every element is a plain ``int`` in a machine word.
"""

from __future__ import annotations

from array import array
from typing import Any, Iterable, List, Sequence, Union

__all__ = ["positions", "pack", "unpack"]


def positions(entries: Iterable[int], bound: int) -> array:
    """A fresh column for ``entries`` drawn from ``[0, bound)``: ``'H'`` up
    to 65 536, then ``'I'``, then ``'Q'``.  Same-typecode input is a memcpy."""
    for code in "HIQ":
        if bound <= 1 << 8 * array(code).itemsize:
            return array(code, entries)
    raise OverflowError(f"no machine word holds positions below {bound}")


def pack(values: Sequence[Any]) -> Union[array, List[Any]]:
    """``values`` in the narrowest typecode that holds them, else a list copy.

    Only plain ``int`` runs are packed (``True``, a float or an int beyond
    64 bits would not come back as the object that went in), unsigned before
    signed: pickle spends 3 bytes on an int below 2^16, so ``'i'`` where
    ``'H'`` fits would *grow* the artifact.
    """
    if values and set(map(type, values)) == {int}:
        for code in "BbHhIiQq":
            try:
                return array(code, values)  # fails at its first misfit
            except OverflowError:
                continue
    return list(values)


def unpack(column: Union[array, Sequence[Any]]) -> List[Any]:
    """The value list a :func:`pack` result (or a plain list) stands for."""
    return list(column)
