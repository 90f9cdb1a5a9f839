"""Typed columns: the one place an ``array`` typecode is chosen.

*Position* tables (sparse-table levels, block argmins, Euler tours) hold
indices below a bound fixed at build time, so they are ``array.array`` -- a
machine word per entry, not a pointer to a boxed ``int`` -- in memory and in
``to_state`` alike; an *id* column (Fischer--Heun's in-block table ids) is
typed by how many ids a parameter lets exist rather than by n.  *Value*
runs hold whatever the dataset holds: lists in memory (``bisect`` and
indexing are faster over a list), packed for ``to_state`` only when every
element is a plain ``int`` in a machine word; a *sorted* run is stored as
its first value plus its gaps when the gaps take a narrower word than the
values do.  A *run-length* column (B+-tree leaf ``counts``) is an
``array.array`` in memory too, typed by the longest list a count can
measure, not by the largest count seen at build time.
"""

from __future__ import annotations

import sys
from array import array
from itertools import accumulate, islice
from operator import sub
from typing import Any, Iterable, List, Optional, Sequence, Tuple, Union

__all__ = ["positions", "ids", "counts", "is_counts", "pack", "pack_sorted", "unpack"]


def positions(entries: Iterable[int], bound: int) -> array:
    """A fresh column for ``entries`` drawn from ``[0, bound)``: ``'H'`` up
    to 65 536, then ``'I'``, then ``'Q'``.  Same-typecode input is a memcpy."""
    for code in "HIQ":
        if bound <= 1 << 8 * array(code).itemsize:
            return array(code, entries)
    raise OverflowError(f"no machine word holds positions below {bound}")


def ids(entries: Iterable[int], bound: int) -> array:
    """A fresh column for ids drawn from ``[0, bound)``: ``'B'`` up to 256,
    else as :func:`positions`."""
    return array("B", entries) if bound <= 1 << 8 else positions(entries, bound)


#: A count never exceeds the length of one list, so ``sys.maxsize`` bounds it.
_COUNT_CODE = positions((), sys.maxsize + 1).typecode


def counts(entries: Iterable[int]) -> array:
    """A fresh run-length column, typed by the longest list, so ``insert``
    can grow any run without an ``OverflowError``: ``'Q'`` on a 64-bit
    build, a word per key and no boxed int.  The collector tracks the column
    (a heap type) but visits none of its entries."""
    return array(_COUNT_CODE, entries)


def is_counts(column: Any) -> bool:
    """Whether ``column`` is a :func:`counts` column."""
    return isinstance(column, array) and column.typecode == _COUNT_CODE


def _narrowest(values: Sequence[int], codes: str = "BbHhIiQq") -> Optional[array]:
    """``values`` (plain ints, not empty) in the first of ``codes`` that
    holds them all, or None."""
    for code in codes:
        try:
            return array(code, values)  # fails at its first misfit
        except OverflowError:
            continue
    return None


def pack(values: Sequence[Any]) -> Union[array, List[Any]]:
    """``values`` in the narrowest typecode that holds them, else a list copy.

    Only plain ``int`` runs are packed (``True``, a float or an int beyond
    64 bits would not come back as the object that went in), unsigned before
    signed: pickle spends 3 bytes on an int below 2^16, so ``'i'`` where
    ``'H'`` fits would *grow* the artifact.
    """
    if values and set(map(type, values)) == {int}:
        return _narrowest(values) or list(values)
    return list(values)


def pack_sorted(values: Sequence[Any]) -> Union[Tuple[int, array], array, List[Any]]:
    """``(first value, gaps)`` for a non-decreasing plain-``int`` run whose
    gaps fit a strictly narrower typecode than the values; else :func:`pack`.

    The two ends of a sorted run fix :func:`pack`'s answer for all of it, and
    a negative gap (the run was not sorted) fits no unsigned code.
    """
    if not values or set(map(type, values)) != {int}:
        return list(values)
    ends = _narrowest((values[0], values[-1]))
    if ends is not None and ends.itemsize > 1 and len(values) > 1:
        gaps = map(sub, islice(values, 1, None), values)
        try:  # the dense case in one pass: ``bytes`` takes only [0, 256)
            return values[0], array("B", bytes(gaps))
        except ValueError:
            gaps = list(map(sub, islice(values, 1, None), values))
        # The unsigned codes above a byte that are narrower than the values'.
        column = _narrowest(gaps, "HI"[: "BHIQ".index(ends.typecode.upper()) - 1])
        if column is not None:
            return values[0], column
    return _narrowest(values) or list(values)


def unpack(column: Union[Tuple[int, array], array, Sequence[Any]]) -> List[Any]:
    """The value list a :func:`pack` / :func:`pack_sorted` result (or a plain
    list) stands for; the gap form is one C-speed running sum."""
    if isinstance(column, tuple):
        first, gaps = column
        return list(accumulate(gaps, initial=first))
    return list(column)
