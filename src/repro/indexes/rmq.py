"""Fischer--Heun range-minimum structure: O(n) words, O(1) query.

The MRQ case study (paper, Section 4(3)) cites Fischer & Heun [18]: a static
array can be preprocessed in linear time into a structure answering every
range-minimum query in constant time.  Three levels:

* **signed blocks** -- A splits into blocks of b = max(1, floor(log2 n) / 4)
  elements.  All blocks sharing a *Cartesian-tree signature* (the push/pop
  sequence of the stack construction, a 2b-bit ballot string) have identical
  argmin positions for every sub-range, so one lookup table per distinct
  signature answers inside a block, and its last entry for the whole block
  is where the block's minimum sits;
* **masked words** -- the block minima group into words of 16.  Block k
  keeps a 16-bit *stack mask*: bit i is set iff minimum i of its word is
  <= every later minimum of the word up to k (the Cartesian-tree stack after
  pushing k, which pops strictly greater values), so the lowest set bit of
  ``mask[r] >> l`` is the leftmost argmin of minima l..r of one word;
* **a sparse table over the word minima** -- a
  :class:`~repro.indexes.sparse_table.SparseTable` over n / 16b values
  answers the whole words between.

What is stored is the array, one table id per block, the tables and one
byte per block that rebuilds its mask from the previous block's (a *cut*:
how far below its own bit the mask keeps the previous one): the block
minima are the tables' answers, and the word table is rebuilt on load
from the n / 16b word minima, in O(n).

The structure is words, not bits: the O(n)-bit succinctness of [18] buys
nothing for Pi-tractability (preprocessing stays PTIME, queries stay O(1)).
That is about the succinct structure, not its columns: at rest the array,
the table ids and the cuts take the bits their values need
(``columns.pack``).  Ties resolve to the leftmost minimum everywhere,
matching :func:`repro.indexes.sparse_table.naive_range_min`.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from repro.core.cost import CostTracker, ensure_tracker
from repro.indexes import columns
from repro.indexes.sparse_table import SparseTable, check_rmq_range

__all__ = ["FischerHeunRMQ"]

_SIGN_CHUNK = 64  # blocks per pass: each pass's lists then fit pymalloc's 512 B
_WORD = 16  # block minima per stack mask

# A stack mask at rest is one *cut* per block (``_MaskedMinima.to_state``),
# coded and decoded a slot at a time across all words on the masks' two
# little-endian byte lanes, through these ``bytes.translate`` tables.

#: ``_KEEP_LOW[slot][cut]`` / ``_KEEP_HIGH[slot][cut]``: the low / high byte
#: of ``(1 << (slot - cut)) - 1``, the previous mask's bits that the block
#: at ``slot`` keeps (0 past ``cut = slot``).
_KEEP = [[(1 << (slot - cut)) - 1 for cut in range(slot + 1)] for slot in range(_WORD)]
_KEEP_LOW = [bytes(keep & 0xFF for keep in row).ljust(256, b"\0") for row in _KEEP]
_KEEP_HIGH = [bytes(keep >> 8 for keep in row).ljust(256, b"\0") for row in _KEEP]

#: A low byte's bit length, and a high byte's in the upper nibble: OR-ed,
#: they name a 16-bit value's bit length w, which ``_CUT[slot]`` turns
#: into ``slot - w`` (0 where no mask of that slot can land).
_WIDTH_LOW = bytes(byte.bit_length() for byte in range(256))
_WIDTH_HIGH = bytes(byte.bit_length() << 4 for byte in range(256))
_WIDTH = [8 + (both >> 4) if both >> 4 else both for both in range(256)]
_CUT = [bytes(max(0, slot - width) for width in _WIDTH) for slot in range(_WORD)]


def _int(lane: bytes) -> int:
    return int.from_bytes(lane, "little")


def _lane(value: int, count: int) -> bytes:
    return value.to_bytes(count, "little")


def _each(byte: int, count: int) -> int:
    """``byte`` in each of ``count`` lane places, as one int."""
    return _int(bytes((byte,)) * count)


def _cartesian_signature(block: Sequence) -> str:
    """The ballot-sequence signature of a block's Cartesian tree.

    Simulates the incremental Cartesian-tree stack: for each element, pop
    strictly-greater stack entries then push.  Two blocks with equal
    signatures agree on the *position* of the leftmost minimum of every
    sub-range.
    """
    stack: List = []
    bits: List[str] = []
    for value in block:
        while stack and stack[-1] > value:
            stack.pop()
            bits.append("0")
        stack.append(value)
        bits.append("1")
    return "".join(bits)


def _in_block_table(block: Sequence) -> List[List[int]]:
    """``table[l][r - l]`` = leftmost argmin offset of block[l..r]."""
    size = len(block)
    table: List[List[int]] = []
    for left in range(size):
        row = [left]
        best = left
        for right in range(left + 1, size):
            if block[right] < block[best]:
                best = right
            row.append(best)
        table.append(row)
    return table


def _catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def _table_bound(b: int, n: int) -> int:
    """How many in-block tables blocks of ``b`` over n values can ever need:
    one per Cartesian-tree shape of b nodes, plus one per shape of the short
    tail block, if there is one (writes re-sign blocks, never resize them)."""
    return _catalan(b) + (_catalan(n % b) if n % b else 0)


def _stack_masks(word: Sequence, start: int = 0, mask: int = 0) -> List[int]:
    """The stack masks of ``word[start:]``, continuing from ``mask`` (the
    mask of ``word[start - 1]``; 0 at the word's start).  Each minimum pops
    the strictly greater ones -- the stack's top is the mask's highest bit --
    and pushes itself."""
    masks = []
    for offset in range(start, len(word)):
        value = word[offset]
        while mask:
            top = mask.bit_length() - 1
            if word[top] <= value:
                break
            mask ^= 1 << top
        mask |= 1 << offset
        masks.append(mask)
    return masks


class _MaskedMinima:
    """Leftmost argmin over any run of block minima in O(1): a stack mask
    per block inside words of ``_WORD`` minima, a sparse table across the
    word minima -- O(n / b) words where a sparse table over every block
    minimum takes O(n / b * log n).

    It reads the structure's ``array``, block size, ``block_table`` and
    ``last`` (the same objects, written in place by
    :meth:`FischerHeunRMQ.point_update`): block k's minimum sits at
    ``k * b + last[block_table[k]]``.  It holds the masks, each word's
    argmin position and the word table; only the masks are stored, as
    cuts (:meth:`to_state`).
    """

    def __init__(self, rmq: "FischerHeunRMQ", masks, tracker=None):
        """Over ``masks``; word minima, their positions and the word table
        are derived."""
        self._array, self._b = rmq._array, rmq._block_size
        self._table_of, self._last, self._masks = rmq._block_table, rmq._last, masks
        words = range(0, len(masks), _WORD)
        self._word_argmin = columns.positions(map(self._word_argmin_at, words), len(self._array))
        self._words = SparseTable(list(map(self._array.__getitem__, self._word_argmin)), tracker)

    @classmethod
    def build(cls, rmq: "FischerHeunRMQ", tracker: CostTracker) -> "_MaskedMinima":
        b, offsets, array = rmq._block_size, rmq._last, rmq._array
        minima = [array[k * b + offsets[t]] for k, t in enumerate(rmq._block_table)]
        masks = columns.positions((), 1 << _WORD)
        for base in range(0, len(minima), _WORD):
            masks.extend(_stack_masks(minima[base : base + _WORD]))
        tracker.tick(2 * len(minima))  # a push per minimum, at most one pop
        return cls(rmq, masks, tracker)

    def _position(self, block: int) -> int:
        """Position of ``block``'s minimum: its table's whole-block answer."""
        return block * self._b + self._last[self._table_of[block]]

    def _word_argmin_at(self, base: int) -> int:
        """Position of the leftmost minimum of the word starting at block
        ``base``: the bottom of the stack after the word's last minimum."""
        mask = self._masks[min(len(self._masks), base + _WORD) - 1]
        return self._position(base + (mask & -mask).bit_length() - 1)

    def argmin(self, first: int, last: int) -> int:
        """Position of the leftmost minimum of blocks ``first..last``: the
        part of the first word, the whole words between, the part of the
        last word.  Positions increase in that order, so ``<`` keeps ties
        leftmost."""
        array, b, table_of, offsets, masks = (
            self._array, self._b, self._table_of, self._last, self._masks
        )
        word, last_word = first // _WORD, last // _WORD
        if word == last_word:
            mask = masks[last] >> first % _WORD
            block = first + (mask & -mask).bit_length() - 1
            return block * b + offsets[table_of[block]]
        mask = masks[word * _WORD + _WORD - 1] >> first % _WORD
        block = first + (mask & -mask).bit_length() - 1
        best = block * b + offsets[table_of[block]]
        if word + 1 < last_word:
            middle = self._word_argmin[self._words.argmin_fast(word + 1, last_word - 1)]
            if array[middle] < array[best]:
                best = middle
        mask = masks[last]
        block = last_word * _WORD + (mask & -mask).bit_length() - 1
        right = block * b + offsets[table_of[block]]
        return right if array[right] < array[best] else best

    def repair(self, block: int, tracker: CostTracker) -> None:
        """Re-mask ``block``'s word from ``block`` on (the stacks before it
        never saw it), in O(``_WORD``), then repair the word table."""
        masks, base = self._masks, block - block % _WORD
        stop = min(len(masks), base + _WORD)
        minima = [self._array[self._position(k)] for k in range(base, stop)]
        below = masks[block - 1] if block > base else 0
        masks[block:stop] = columns.positions(
            _stack_masks(minima, block - base, below), 1 << _WORD
        )
        tracker.tick(2 * (stop - base))
        word = block // _WORD
        self._word_argmin[word] = position = self._word_argmin_at(base)
        self._words.point_update(word, self._array[position], tracker)

    def to_state(self) -> dict:
        """The masks as one *cut* per block, a byte column: the block at
        ``slot`` of its word keeps the previous mask's bits below ``slot -
        cut`` and adds its own, so ``cut = slot - (mask ^ 1 << slot)
        .bit_length()`` -- 0 when it popped nothing, ``slot`` when it
        popped all."""
        raw, cuts = columns.little_endian(self._masks), bytearray(len(self._masks))
        for slot in range(1, _WORD):  # slot 0's cut is always 0
            low, high = raw[2 * slot :: 2 * _WORD], raw[2 * slot + 1 :: 2 * _WORD]
            count, own = len(low), 1 << slot
            low = _lane(_int(low) ^ _each(own & 0xFF, count), count).translate(_WIDTH_LOW)
            high = _lane(_int(high) ^ _each(own >> 8, count), count).translate(_WIDTH_HIGH)
            cuts[slot::_WORD] = _lane(_int(low) | _int(high), count).translate(_CUT[slot])
        return {"cuts": columns.pack(columns.ids(cuts, _WORD))}

    @classmethod
    def from_state(cls, rmq: "FischerHeunRMQ", state: dict) -> "_MaskedMinima":
        """Rebuild the masks from :meth:`to_state`'s cuts a slot at a time
        across all words, ``mask = previous & ((1 << (slot - cut)) - 1) |
        1 << slot``; ``ValueError`` for a cut past its slot or a column
        that is not one cut per block."""
        cuts = bytes(columns.unpack(state["cuts"]))  # ValueError past a byte
        blocks = len(rmq._block_table)
        if len(cuts) != blocks:
            raise ValueError(f"stack masks: {len(cuts)} cuts for {blocks} blocks")
        raw, count = bytearray(2 * blocks), len(cuts[0::_WORD])
        low, high = b"\1" * count, bytes(count)  # slot 0's mask is its own bit
        raw[0 :: 2 * _WORD] = low
        for slot in range(1, _WORD):
            cut = cuts[slot::_WORD]
            count, own = len(cut), 1 << slot
            if count and max(cut) > slot:
                raise ValueError(f"stack masks: a cut of {max(cut)} at slot {slot}")
            low = _lane(_int(low[:count]) & _int(cut.translate(_KEEP_LOW[slot]))
                        | _each(own & 0xFF, count), count)
            high = _lane(_int(high[:count]) & _int(cut.translate(_KEEP_HIGH[slot]))
                         | _each(own >> 8, count), count)
            raw[2 * slot :: 2 * _WORD], raw[2 * slot + 1 :: 2 * _WORD] = low, high
        return cls(rmq, columns.from_little_endian(raw, 1 << _WORD))


class FischerHeunRMQ:
    """O(1) range-minimum queries after linear preprocessing."""

    def __init__(self, array: Sequence, tracker: Optional[CostTracker] = None):
        tracker = ensure_tracker(tracker)
        self._array = list(array)
        n = len(self._array)
        self._sign_blocks(max(1, int(math.log2(n)) // 4) if n >= 2 else 1, tracker)

    def _sign_blocks(self, b: int, tracker: CostTracker) -> None:
        """Per block of ``b``: its in-block table's id.

        Only ``a[i] > a[j]`` (i < j) is asked inside a block, so one bit per
        pair fixes the table: full blocks are coded a column at a time,
        ``_SIGN_CHUNK`` per pass, and only a code's first block is signed.
        """
        array, n = self._array, len(self._array)
        self._block_size, self._tables, self._last, self._table_ids = b, [], [], {}
        pairs = [(i, j) for j in range(b) for i in range(j)]
        ids, block_table = {}, columns.ids((), _table_bound(b, n))
        full = n - n % b
        for start in range(0, full, _SIGN_CHUNK * b):
            stop = min(full, start + _SIGN_CHUNK * b)
            cols = [array[start + offset : stop : b] for offset in range(b)]
            codes = [0] * ((stop - start) // b)
            for i, j in pairs:
                codes = [c + c + 1 if x > y else c + c for c, x, y in zip(codes, cols[i], cols[j])]
            fresh = sorted(set(codes).difference(ids), key=codes.index)
            for code in fresh:
                ids[code] = self._sign_block(start + codes.index(code) * b, tracker)
            tracker.tick(2 * b * (len(codes) - len(fresh)))
            block_table.extend(map(ids.__getitem__, codes))
        block_table.extend(self._sign_block(start, tracker) for start in range(full, n, b))
        self._block_table = block_table
        self._summary = _MaskedMinima.build(self, tracker)

    def _sign_block(self, start: int, tracker: CostTracker) -> int:
        """In-block table id of the block at ``start``, materializing the
        table of a signature not seen before (and, in ``_last``, its
        whole-block argmin offset)."""
        block = self._array[start : start + self._block_size]
        signature = _cartesian_signature(block)
        tracker.tick(2 * len(block))  # a push per value, at most one pop
        table_id = self._table_ids.get(signature)
        if table_id is None:
            table_id = self._table_ids[signature] = len(self._tables)
            table = _in_block_table(block)
            self._tables.append(table)
            self._last.append(table[0][-1])
            tracker.tick(len(block) ** 2)
        return table_id

    def __len__(self) -> int:
        return len(self._array)

    @property
    def block_size(self) -> int:
        return self._block_size

    @property
    def distinct_signatures(self) -> int:
        return len(self._tables)

    def argmin(self, low: int, high: int, tracker: Optional[CostTracker] = None) -> int:
        """Leftmost position of min(A[low..high]); O(1) work and depth: a
        window inside one block is one table lookup, any other is two, one
        summary probe (three masks, one word-table probe) and four
        comparisons."""
        tracker = ensure_tracker(tracker)
        position = self.argmin_fast(low, high)
        tracker.tick(4 if low // self._block_size == high // self._block_size else 14)
        return position

    def argmin_fast(self, low: int, high: int) -> int:
        """Untracked :meth:`argmin`: the part of the first block, the whole
        blocks between, the part of the last block.  Positions increase in
        that order, so ``<`` keeps ties leftmost."""
        array = self._array
        check_rmq_range(low, high, len(array))
        b, tables, table_of = self._block_size, self._tables, self._block_table
        first, last = low // b, high // b
        start = first * b
        if first == last:
            return start + tables[table_of[first]][low - start][high - low]
        best = start + tables[table_of[first]][low - start][start + b - 1 - low]
        if first + 1 < last:
            middle = self._summary.argmin(first + 1, last - 1)
            if array[middle] < array[best]:
                best = middle
        start = last * b
        right = start + tables[table_of[last]][0][high - start]
        return right if array[right] < array[best] else best

    def range_min(self, low: int, high: int, tracker: Optional[CostTracker] = None):
        return self._array[self.argmin(low, high, tracker)]

    def value_at(self, position: int):
        """The array value at ``position`` (for partial-aggregate merging)."""
        return self._array[position]

    # -- delta maintenance (paper, Section 4(7)) ------------------------------

    def point_update(self, position: int, value, tracker: Optional[CostTracker] = None) -> None:
        """``A[position] = value``: re-sign one block, repair the summary.

        A point write lands in exactly one block: its Cartesian signature and
        argmin are recomputed in O(b) = O(log n), a missing lookup table is
        materialized in O(b^2) = O(log^2 n), the block's word is re-masked
        in O(16), and the word table is repaired through
        :meth:`SparseTable.point_update` (the windows the write moved: a
        handful typically, O(n / 16b) for a new global minimum).
        Everything else -- every other block's signature and table -- is
        untouched, which is what makes this a |CHANGED|-bounded repair
        instead of the O(n) rebuild.
        """
        tracker = ensure_tracker(tracker)
        check_rmq_range(position, position, len(self._array))
        self._array[position] = value
        block = position // self._block_size
        self._block_table[block] = self._sign_block(block * self._block_size, tracker)
        self._summary.repair(block, tracker)

    # -- serialization --------------------------------------------------------

    def to_state(self) -> dict:
        """Plain-data snapshot: array, block size, each block's table id,
        in-block tables by signature (in id order) and each stack mask's
        cut.
        Block minima are their tables' answers, and load rebuilds the word
        table over the word minima, so it restores O(1) queries."""
        return {
            "array": columns.pack(self._array),
            "block_size": self._block_size,
            "block_table": columns.pack(self._block_table),
            "tables": {sig: self._tables[i] for sig, i in self._table_ids.items()},
            **self._summary.to_state(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "FischerHeunRMQ":
        rmq = cls.__new__(cls)
        rmq._array = columns.unpack(state["array"])
        n = len(rmq._array)
        rmq._block_size = int(state["block_size"])
        bound = _table_bound(rmq._block_size, n)
        rmq._block_table = columns.ids(columns.unpack(state["block_table"]), bound)
        rmq._table_ids = {signature: i for i, signature in enumerate(state["tables"])}
        rmq._tables = [[list(row) for row in table] for table in state["tables"].values()]
        rmq._last = [table[0][-1] for table in rmq._tables]
        rmq._summary = _MaskedMinima.from_state(rmq, state)
        return rmq
