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
fingerprint hashes; a typed integer column narrows without a type scan,
an unsigned one by its byte lanes, so no entry is boxed.  At rest
(:func:`pack`, for ``to_state``) a non-negative run takes the bits its
largest value needs, not the next word: with ``w = max.bit_length()``
it is ``w // 8`` whole little-endian byte *lanes* (lane j holds byte j
of every value) plus, when ``w % 8`` is 1, 2 or 3-4, one sub-byte
*plane* of 1, 2 or 4 bits per value (``w % 8`` of 5 or more takes one
more whole lane instead).  That *lane form* is a
``bytes``: a header byte holding the bits each value takes (``8 * lanes +
plane bits``), a byte counting the plane's padding slots, the lanes one
after another, then the plane.  It is taken only when it is strictly
narrower than the word, so a run exactly 8, 16, 32 or 64 bits wide (or all
zero) keeps its ``array``, and signed runs, bools, floats, ints beyond 64
bits and the list fallback keep the form :func:`words` gives them.

A run whose word is a byte (gaps, counts, ids) may instead be *patched*,
in the style of PFOR (Zukowski et al., ICDE 2006), so one outlier no
longer sets every value's width: a reference (the run's minimum), a plane
of ``w`` in {0, 1, 2, 4} bits holding ``(v - ref) mod 2**w``, and an
exception list for the values with ``v - ref >= 2**w`` -- their positions
gap-coded and their high parts ``(v - ref) >> w``, both in the lane form.
:func:`pack` keeps whichever of the lane form and the four patched
candidates is strictly smallest, so a column is never wider than its lane
form.  A patched column is a ``bytes`` whose first byte is ``0x80 | w``.

A *sorted* run is stored as its first value plus its gaps when that, with
a word for the first value, is strictly smaller than the values' own
at-rest form, the gaps in the same forms.  Encoding and decoding are
strided slices, ``bytes.translate``, ``bytes.split``, substring searches
and big-int ORs and popcounts: no Python loop runs per element, only the
patch loop that writes each exception back.  A patched column that no
:func:`pack` can have written is a ``ValueError``, never a wrong list.
"""

from __future__ import annotations

import sys
from array import array
from itertools import accumulate, islice
from operator import sub
from typing import Any, Iterable, List, Optional, Sequence, Tuple, Union

__all__ = ["positions", "ids", "counts", "is_counts", "words", "little_endian",
           "from_little_endian", "pack", "pack_sorted", "unpack"]

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


#: The integer typecodes; upper case is unsigned.
_INT_CODES = "bBhHiIlLqQ"


def words(values: Sequence[Any]) -> Union[array, List[Any]]:
    """``values`` in the narrowest typecode that holds them (always a fresh
    column), else a list copy.

    Only plain ``int`` runs are packed (``True``, a float or an int beyond
    64 bits would not come back as the object that went in), unsigned before
    signed: pickle spends 3 bytes on an int below 2^16, so ``'i'`` where
    ``'H'`` fits would *grow* the artifact.  A typed integer ``array`` needs
    no type scan, and an unsigned one narrows by its byte lanes, boxing no
    entry.
    """
    if isinstance(values, array) and values.typecode in _INT_CODES:
        if not values:
            return []
        return _narrowest(values) if values.typecode.islower() else _narrow_unsigned(values)
    if values and set(map(type, values)) == {int}:
        return _narrowest(values) or list(values)
    return list(values)


def little_endian(column: array) -> bytes:
    """``column``'s machine words as little-endian bytes, whatever the host."""
    if sys.byteorder == "big":
        column = array(column.typecode, column)
        column.byteswap()
    return column.tobytes()


def _from_little_endian(code: str, raw: bytes) -> array:
    """The ``code`` column whose little-endian bytes are ``raw``."""
    column = array(code)
    column.frombytes(raw)
    if sys.byteorder == "big":
        column.byteswap()
    return column


def from_little_endian(raw: bytes, bound: int) -> array:
    """The :func:`positions` column for ``bound`` whose little-endian bytes
    are ``raw``: :func:`little_endian`'s inverse."""
    return _from_little_endian(positions((), bound).typecode, raw)


def _narrow_unsigned(column: array) -> array:
    """An unsigned ``column`` (not empty) in the first of ``B H I Q`` that
    holds it: its top lanes that are all zero are dropped, a strided slice
    per lane kept."""
    size, raw, zero = column.itemsize, little_endian(column), bytes(len(column))
    width = size
    while width > 1 and raw[width - 1 :: size] == zero:
        width -= 1
    code = _UNSIGNED[width]
    narrow = array(code).itemsize
    if narrow == size:
        return _from_little_endian(code, raw)
    kept = bytearray(narrow * len(column))  # lanes past ``width`` stay zero
    for lane in range(width):
        kept[lane::narrow] = raw[lane::size]
    return _from_little_endian(code, kept)


# -- the lane form -------------------------------------------------------------

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


def _plane(top: bytes, bits: int, low: bytes = b"") -> bytes:
    """``top``'s values (each below ``2**bits``, or mapped there by the
    ``translate`` table ``low``) ``8 // bits`` to a byte, slot 0 in the low
    bits, the last byte zero-padded."""
    per = 8 // bits
    plane = 0  # the sub-planes' bits never overlap: OR is concatenation
    for i, table in enumerate(_PUT[bits]):  # a slot past the end reads as 0
        plane |= int.from_bytes(top[i::per].translate(low.translate(table) if low else table),
                                "little")
    return plane.to_bytes(-(-len(top) // per), "little")


def _unplane(plane: bytes, bits: int, count: int, ref: int = 0) -> bytearray:
    """The first ``count`` values of a :func:`_plane`, a byte each, each
    plus ``ref`` (mod 256: the add is folded into the read tables)."""
    per = 8 // bits
    top = bytearray(len(plane) * per)
    add = _ALL[ref:] + _ALL[:ref]
    for i, table in enumerate(_TAKE[bits]):
        top[i::per] = plane.translate(table.translate(add) if ref else table)
    del top[count:]
    return top


def _lanes(column: array, narrower: bool = True) -> Packed:
    """An unsigned ``column`` as whole byte lanes plus at most one sub-byte
    plane: only when that is strictly narrower than its word (else
    ``column`` itself), or -- without ``narrower``, for a column that is not
    all zero -- always."""
    size, count = column.itemsize, len(column)
    raw = little_endian(column)
    lanes, bits = size, 0
    while lanes and not bits:  # down to the top lane that is not all zero
        lanes -= 1
        top = raw[lanes::size]
        bits = _top_bits(top)
    if bits == 8:  # the top lane is whole: no plane
        lanes, bits = lanes + 1, 0
    if narrower and not 0 < 8 * lanes + bits < 8 * size:
        return column
    parts = [raw[lane::size] for lane in range(lanes)]
    if bits:
        parts.append(_plane(top, bits))
    pad = -count % (8 // bits) if bits else 0
    return b"".join([bytes((8 * lanes + bits, pad)), *parts])


def _lane_bits(width: int) -> Tuple[int, int]:
    """The whole lanes and the plane bits of values whose largest is
    ``width`` bits wide."""
    lanes, rest = divmod(width, 8)
    bits = _BITS[(1 << rest) - 1]
    return (lanes + 1, 0) if bits == 8 else (lanes, bits)


def _lane_bytes(width: int, count: int) -> int:
    """The bytes :func:`_lanes` takes for ``count`` values whose largest is
    ``width`` bits wide."""
    lanes, bits = _lane_bits(width)
    return 2 + lanes * count + (count * bits + 7) // 8


def _from_lanes(packed: bytes, count: int) -> array:
    """The ``count`` values of a :func:`_lanes` form, as one machine-word
    column."""
    lanes, bits = divmod(packed[0], 8)
    code = _UNSIGNED[lanes + (bits > 0)]
    size = array(code).itemsize
    raw = bytearray(size * count)
    for lane in range(lanes):
        raw[lane::size] = packed[2 + lane * count : 2 + (lane + 1) * count]
    if bits:
        raw[lanes::size] = _unplane(packed[2 + lanes * count :], bits, count)
    return _from_little_endian(code, raw)


def _lane_header(header: int) -> Tuple[int, int]:
    """The whole lanes and plane bits a lane form's header byte names;
    ``ValueError`` when it names none."""
    lanes, bits = divmod(header, 8)
    if bits not in (0, 1, 2, 4) or not 0 < lanes + (bits > 0) <= 8:
        raise ValueError(f"no lane form has header {header}")
    return lanes, bits


def _lane_part(packed: bytes, at: int, count: int) -> Tuple[array, int]:
    """The ``count`` values of the lane form that starts at ``packed[at]``,
    and the offset just past it; ``ValueError`` when the header names no
    lane form or the bytes run out."""
    if at + 2 > len(packed):
        raise ValueError("patched column: an exception list is missing")
    lanes, bits = _lane_header(packed[at])
    end = at + 2 + lanes * count + (count * bits + 7) // 8
    if end > len(packed):
        raise ValueError("patched column: an exception list is cut short")
    return _from_lanes(packed[at:end], count), end


# -- the patched form ----------------------------------------------------------

#: A patched column's first byte is this flag OR its plane's width; a lane
#: form's header is at most ``8 * 7 + 4``.
_PATCHED = 0x80

_ALL = bytes(range(256))

#: ``_SHIFT[w][v]`` is ``v >> w``: a high part, once ``ref`` is subtracted.
_SHIFT = {w: bytes(v >> w for v in range(256)) for w in (0, 1, 2, 4)}


def _gap_width(marks: bytes) -> int:
    """The bits the largest position gap needs, where ``marks`` holds 1 at
    each exception and 0 elsewhere (at least one 1): a gap of ``2**b`` or
    more is ``2**b - 1`` zeros then a one, a ``memmem`` each."""
    width = 1
    while bytes((1 << width) - 1) + b"\x01" in marks:
        width += 1
    return width


def _patched(raw: bytes) -> Optional[bytes]:
    """A byte-word column (``raw``, a byte per value) as a patched plane
    when one is strictly smaller than its lane form; else None.

    Each width ``w`` of 4, 2, 1 and 0 is a candidate, sized exactly before
    any is built: one ``translate`` marks its exceptions, a popcount
    counts them, the largest value fixes their high parts' width and a
    few substring searches their position gaps'.  A candidate is dropped
    as soon as a floor on its size -- its plane, then a bit per position
    gap and at least as many exceptions as the wider plane had -- reaches
    the best size so far, so a dense exception list is seldom marked.
    """
    count = len(raw)
    present = _ALL.translate(None, _ALL.translate(None, raw))  # distinct bytes, ascending
    ref, top = present[0], present[-1]
    bits = _BITS[top]  # the lane form: the 'B' word itself, or one plane
    size = count if bits in (0, 8) else 2 + (count * bits + 7) // 8
    choice, chosen = None, b""
    head = 3 + 2 * -(-count.bit_length() // 8)
    k = 1  # a floor on the exceptions of every plane narrower than the last one counted
    for w in (4, 2, 1, 0):
        bar, marks = ref + (1 << w), b""
        total = head + (count * w + 7) // 8
        if top >= bar:
            high = ((top - ref) >> w).bit_length()
            if total + 2 + (k + 7) // 8 + _lane_bytes(high, k) >= size:
                continue
            marks = raw.translate(_marks(bar))  # 1 at each exception
            k = int.from_bytes(marks, "little").bit_count()
            total += _lane_bytes(high, k)
            if total + 2 + (k + 7) // 8 >= size:
                continue
            total += _lane_bytes(_gap_width(marks), k)
        if total < size:
            size, choice, chosen = total, w, marks
    return None if choice is None else _patch(raw, ref, choice, chosen)


def _marks(bar: int) -> bytes:
    """A ``translate`` table marking each byte of ``bar`` or more with 1."""
    return bytes(bar) + b"\x01" * (256 - bar)


def _patch(raw: bytes, ref: int, w: int, marks: bytes = b"") -> bytes:
    """``raw`` patched at width ``w`` around ``ref``: ``0x80 | w``, ``ref``,
    the byte width of the two counts, the value count, the exception count,
    the ``w``-bit plane of ``(v - ref) mod 2**w``, then -- when there are
    exceptions -- their position gaps (from position -1, so each is at
    least 1) and their high parts, each list in the lane form.  ``marks``
    is ``raw`` through :func:`_marks` when the caller has it already."""
    bar = ref + (1 << w)
    exceptions = raw.translate(None, _ALL[:bar])  # in column order
    count, k = len(raw), len(exceptions)
    width = -(-count.bit_length() // 8)
    parts = [bytes((_PATCHED | w, ref, width)), count.to_bytes(width, "little"),
             k.to_bytes(width, "little")]
    less = _ALL[-ref:] + _ALL[:-ref]  # v -> v - ref (mod 256)
    if w:  # keep the low w bits, folded into the plane's tables
        parts.append(_plane(raw, w, less.translate(_TAKE[w][0])))
    if k:
        runs = (marks or raw.translate(_marks(bar))).split(b"\x01")
        gaps = _narrowest(list(map((1).__add__, map(len, islice(runs, k)))), "BHIQ")
        highs = exceptions.translate(less.translate(_SHIFT[w]))
        parts += [_lanes(gaps, narrower=False), _lanes(array("B", highs), narrower=False)]
    return b"".join(parts)


def _from_patched(packed: bytes) -> bytearray:
    """The values a :func:`_patch` form encoded, a byte each; ``ValueError``
    for a form :func:`_patch` cannot have written, never a wrong value."""
    if len(packed) < 3:
        raise ValueError("patched column: the header is cut short")
    w, ref, width = packed[0] ^ _PATCHED, packed[1], packed[2]
    if w not in (0, 1, 2, 4):
        raise ValueError(f"patched column: no plane is {w} bits wide")
    at = 3 + 2 * width
    count = int.from_bytes(packed[3 : 3 + width], "little")
    k = int.from_bytes(packed[3 + width : at], "little")
    end = at + (count * w + 7) // 8
    if end > len(packed):
        raise ValueError("patched column: the plane is shorter than the count")
    if w:
        values = _unplane(packed[at:end], w, count, ref)
        if ref + (1 << w) > 256 and values.translate(None, _ALL[ref:]):
            raise ValueError("patched column: a value past a byte")  # it wrapped below ref
    else:
        values = bytearray((ref,)) * count
    if k:
        gaps, end = _lane_part(packed, end, k)
        highs, end = _lane_part(packed, end, k)
        if 0 in gaps:
            raise ValueError("patched column: exception positions not ascending")
        *_, last = spots = list(accumulate(gaps, initial=-1))
        if last >= count:
            raise ValueError(f"patched column: exception position {last} of {count}")
        if 0 in highs:
            raise ValueError("patched column: an exception's high part is 0")
        for spot, high in zip(islice(spots, 1, None), highs):
            values[spot] += high << w  # ValueError past a byte
    if end != len(packed):
        raise ValueError("patched column: its length disagrees with the count")
    return values


def _from_bytes(packed: bytes) -> Union[array, bytearray]:
    """The values of a lane form or a patched form (``list`` of it is the
    value list; a running sum reads it as it is); ``ValueError`` for bytes
    that are neither."""
    if packed and packed[0] & _PATCHED:
        return _from_patched(packed)
    if len(packed) < 2:
        raise ValueError("lane form: the header is cut short")
    lanes, bits = _lane_header(packed[0])
    pad, body = packed[1], len(packed) - 2
    per = 8 // bits if bits else 0
    # body = lanes * count + (count + pad) / per bytes
    count = (body * per - pad) // (lanes * per + 1) if bits else body // lanes
    if count < 0 or 2 + lanes * count + (count * bits + 7) // 8 != len(packed):
        raise ValueError(f"lane form: {len(packed)} bytes fit no count")
    return _from_lanes(packed, count)


# -- the at-rest forms ---------------------------------------------------------


def _at_rest(column: Union[array, List[Any]]) -> Packed:
    """The smallest at-rest form of a :func:`words` column."""
    if isinstance(column, list) or column.typecode.islower():
        return column
    patched = _patched(column.tobytes()) if column.typecode == "B" else None
    return _lanes(column) if patched is None else patched


def _nbytes(packed: Packed) -> int:
    """The payload bytes of an at-rest column (a list is never compared)."""
    return len(packed) if isinstance(packed, bytes) else len(packed) * packed.itemsize


def _lane_size(ends: array, count: int) -> int:
    """The bytes :func:`_at_rest` keeps for a sorted run of ``count``
    values in the word of ``ends`` (its first and last value), when that
    word is not ``'B'``: the word itself, or the lane form when that is
    narrower -- sized without building either."""
    size = ends.itemsize
    if ends.typecode.islower():
        return count * size
    lanes, bits = _lane_bits(ends[-1].bit_length())
    return _lane_bytes(ends[-1].bit_length(), count) if 8 * lanes + bits < 8 * size else count * size


def pack(values: Sequence[Any]) -> Packed:
    """``values`` at rest: :func:`words`' column, shrunk to the bits its
    largest value needs, or patched around its rare outliers, when the run
    is non-negative and that is strictly smaller."""
    return _at_rest(words(values))


def pack_sorted(values: Sequence[Any]) -> Union[Tuple[int, Packed], Packed]:
    """``(first value, gaps)`` for a non-decreasing plain-``int`` run whose
    gaps at rest, plus a word for the first value, are strictly smaller
    than :func:`pack`'s answer; else :func:`pack`'s answer.

    The two ends of a sorted run fix :func:`words`' answer for all of it,
    and a negative gap (the run was not sorted) fits no unsigned code.
    """
    if not values or set(map(type, values)) != {int}:
        return list(values)
    ends = _narrowest((values[0], values[-1]))
    if ends is not None and len(values) > 1:
        gaps = map(sub, islice(values, 1, None), values)
        try:  # the dense case in one pass: ``bytes`` takes only [0, 256)
            column = array("B", bytes(gaps))
        except ValueError:
            column = _narrowest(list(map(sub, islice(values, 1, None), values)), "BHIQ")
        if column is not None:  # sorted: every value is in the ends' word
            packed = _at_rest(column)
            plain = _at_rest(array("B", values)) if ends.typecode == "B" else None
            size = _lane_size(ends, len(values)) if plain is None else _nbytes(plain)
            if _nbytes(packed) + ends.itemsize < size:
                return values[0], packed
            if plain is not None:
                return plain
    return _at_rest(_narrowest(values) or list(values))


def unpack(column: Union[Tuple[int, Packed], Packed]) -> List[Any]:
    """The value list a :func:`pack` / :func:`pack_sorted` result (or a plain
    list) stands for; the gap form is one C-speed running sum.  A patched
    column that :func:`pack` cannot have written raises ``ValueError``."""
    if isinstance(column, tuple):
        first, gaps = column
        if isinstance(gaps, bytes):
            gaps = _from_bytes(gaps)
        return list(accumulate(gaps, initial=first))
    if isinstance(column, bytes):
        column = _from_bytes(column)
    return list(column)
