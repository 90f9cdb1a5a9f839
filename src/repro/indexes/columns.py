"""Typed columns: the one place an ``array`` typecode is chosen.

*Position* tables (sparse-table levels, Euler tours) hold indices below a
bound fixed at build time, so they are ``array.array`` -- a machine word per
entry, not a pointer to a boxed ``int`` -- in memory and in ``to_state``
alike; an *id* column (Fischer--Heun's in-block table ids) is typed by how
many ids a parameter lets exist rather than by n.  A *run-length* column
(B+-tree leaf ``counts``) is an ``array.array`` in memory too, typed by the
longest list a count can measure, not by the largest count seen at build
time.

*Value* runs hold whatever the dataset holds: lists in memory (``bisect``
and indexing are faster over a list).  :func:`words` puts a plain-``int``
run in the narrowest machine word that holds it -- the form the dataset
fingerprint hashes.  At rest (:func:`pack`, for ``to_state``) a
non-negative run takes the bits its largest value needs, not the next
word: with ``w = max.bit_length()`` it is ``w // 8`` whole little-endian
byte *lanes* (lane j holds byte j of every value) plus, when ``w % 8`` is
1, 2 or 3-4, one sub-byte *plane* of 1, 2 or 4 bits per value (``w % 8``
of 5 or more takes one more whole lane instead).  That form is a ``bytes``:
a header byte holding the bits each value takes (``8 * lanes + plane
bits``), a byte counting the plane's padding slots, the lanes one after
another, then the plane.  It is taken only when it is strictly narrower
than the word, so a run exactly 8, 16, 32 or 64 bits wide (or all zero)
keeps its ``array``, and signed runs, bools, floats, ints beyond 64 bits
and the list fallback keep the form :func:`words` gives them.  A *sorted*
run is stored as its first value plus its gaps when the gaps take a
narrower word than the values do, the gaps in the same at-rest form.
Encoding and decoding are strided slices, ``bytes.translate`` and one
big-int OR: no Python loop per element.
"""

from __future__ import annotations

import sys
from array import array
from itertools import accumulate, islice
from operator import sub
from typing import Any, Iterable, List, Optional, Sequence, Tuple, Union

__all__ = ["positions", "ids", "counts", "is_counts", "words", "pack", "pack_sorted", "unpack"]

Packed = Union[array, bytes, List[Any]]


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


def words(values: Sequence[Any]) -> Union[array, List[Any]]:
    """``values`` in the narrowest typecode that holds them, else a list copy.

    Only plain ``int`` runs are packed (``True``, a float or an int beyond
    64 bits would not come back as the object that went in), unsigned before
    signed: pickle spends 3 bytes on an int below 2^16, so ``'i'`` where
    ``'H'`` fits would *grow* the artifact.
    """
    if values and set(map(type, values)) == {int}:
        return _narrowest(values) or list(values)
    return list(values)


# -- the sub-word form ---------------------------------------------------------

#: ``_BITS[b]``: the bits byte ``b`` needs, rounded up to 0, 1, 2, 4 or 8.
#: One ``translate`` through it and a ``memchr`` per class probe a lane's
#: width at C speed (``max`` over a lane boxes every byte).
_BITS = bytes(next(bits for bits in (0, 1, 2, 4, 8) if byte < 1 << bits) for byte in range(256))

#: Unsigned word codes by byte width, so decoding needs no stored typecode.
_UNSIGNED = {width: next(code for code in "BHIQ" if array(code).itemsize >= width)
             for width in range(1, 9)}

#: ``_PUT[bits][i]`` moves a ``bits``-wide value to slot ``i`` of a plane
#: byte; ``_TAKE[bits][i]`` reads it back.
_PUT = {bits: [bytes((v << bits * i) & 0xFF for v in range(256)) for i in range(8 // bits)]
        for bits in (1, 2, 4)}
_TAKE = {bits: [bytes((v >> bits * i) & ((1 << bits) - 1) for v in range(256))
                for i in range(8 // bits)]
         for bits in (1, 2, 4)}


def _top_bits(lane: bytes) -> int:
    """The bits ``lane``'s widest byte needs, as 0 (all zero), 1, 2, 4 or 8."""
    needs = lane.translate(_BITS)
    return next((bits for bits in (8, 4, 2, 1) if bits in needs), 0)


def _sub_word(column: Union[array, List[Any]]) -> Packed:
    """An unsigned ``column`` as whole byte lanes plus at most one sub-byte
    plane, when that is narrower than its word; else ``column`` itself (a
    signed column or a list among them)."""
    if isinstance(column, list) or column.typecode.islower():
        return column
    size, count = column.itemsize, len(column)
    le = column
    if sys.byteorder == "big":
        le = array(column.typecode, column)
        le.byteswap()
    raw = le.tobytes()
    lanes, bits = size, 0
    while lanes and not bits:  # down to the top lane that is not all zero
        lanes -= 1
        top = raw[lanes::size]
        bits = _top_bits(top)
    if bits == 8:  # the top lane is whole: no plane
        lanes, bits = lanes + 1, 0
    if not 0 < 8 * lanes + bits < 8 * size:
        return column
    parts = [raw[lane::size] for lane in range(lanes)]
    pad = 0
    if bits:
        per = 8 // bits
        pad = -count % per
        top += bytes(pad)
        plane = 0  # the sub-planes' bits never overlap: OR is concatenation
        for i, table in enumerate(_PUT[bits]):
            plane |= int.from_bytes(top[i::per].translate(table), "little")
        parts.append(plane.to_bytes((count + pad) // per, "little"))
    return b"".join([bytes((8 * lanes + bits, pad)), *parts])


def _from_sub_word(packed: bytes) -> List[int]:
    """The value list :func:`_sub_word` encoded, via one machine-word buffer."""
    lanes, bits = divmod(packed[0], 8)
    pad, body = packed[1], len(packed) - 2
    per = 8 // bits if bits else 0
    # body = lanes * count + (count + pad) / per bytes
    count = (body * per - pad) // (lanes * per + 1) if bits else body // lanes
    code = _UNSIGNED[lanes + (bits > 0)]
    size = array(code).itemsize
    raw = bytearray(size * count)
    for lane in range(lanes):
        raw[lane::size] = packed[2 + lane * count : 2 + (lane + 1) * count]
    if bits:
        plane = packed[2 + lanes * count :]
        top = bytearray(count + pad)
        for i, table in enumerate(_TAKE[bits]):
            top[i::per] = plane.translate(table)
        raw[lanes::size] = top[:count]
    column = array(code)
    column.frombytes(raw)
    if sys.byteorder == "big":
        column.byteswap()
    return column.tolist()


# -- the at-rest forms ---------------------------------------------------------


def pack(values: Sequence[Any]) -> Packed:
    """``values`` at rest: :func:`words`' column, shrunk to the bits its
    largest value needs when the run is non-negative and that is narrower."""
    return _sub_word(words(values))


def pack_sorted(values: Sequence[Any]) -> Union[Tuple[int, Packed], Packed]:
    """``(first value, gaps)`` for a non-decreasing plain-``int`` run whose
    gaps fit a strictly narrower typecode than the values; else :func:`pack`.

    The two ends of a sorted run fix :func:`words`' answer for all of it, and
    a negative gap (the run was not sorted) fits no unsigned code.  The gaps
    are stored in :func:`pack`'s sub-word form, so the gap form stays
    strictly narrower than the values' form.
    """
    if not values or set(map(type, values)) != {int}:
        return list(values)
    ends = _narrowest((values[0], values[-1]))
    if ends is not None and ends.itemsize > 1 and len(values) > 1:
        gaps = map(sub, islice(values, 1, None), values)
        try:  # the dense case in one pass: ``bytes`` takes only [0, 256)
            return values[0], _sub_word(array("B", bytes(gaps)))
        except ValueError:
            gaps = list(map(sub, islice(values, 1, None), values))
        # The unsigned codes above a byte that are narrower than the values'.
        column = _narrowest(gaps, "HI"[: "BHIQ".index(ends.typecode.upper()) - 1])
        if column is not None:
            return values[0], _sub_word(column)
    return _sub_word(_narrowest(values) or list(values))


def unpack(column: Union[Tuple[int, Packed], Packed]) -> List[Any]:
    """The value list a :func:`pack` / :func:`pack_sorted` result (or a plain
    list) stands for; the gap form is one C-speed running sum."""
    if isinstance(column, tuple):
        first, gaps = column
        if isinstance(gaps, bytes):
            gaps = _from_sub_word(gaps)
        return list(accumulate(gaps, initial=first))
    if isinstance(column, bytes):
        return _from_sub_word(column)
    return list(column)
