"""Fischer--Heun range-minimum structure: O(n) words, O(1) query.

The MRQ case study (paper, Section 4(3)) cites Fischer & Heun [18]: a static
array can be preprocessed in linear time into a structure answering every
range-minimum query in constant time.  This is the standard block
decomposition:

* split A into blocks of b = max(1, floor(log2 n) / 4) elements;
* a :class:`~repro.indexes.sparse_table.SparseTable` over the per-block
  minima answers the block-aligned middle of any query;
* within blocks, all blocks sharing a *Cartesian-tree signature* (the
  push/pop sequence of the stack construction, a 2b-bit ballot string) have
  identical argmin positions for every sub-range, so one lookup table per
  distinct signature suffices.

We store words, not bits: the O(n)-bit succinctness of [18] buys nothing for
Pi-tractability (preprocessing stays PTIME, queries stay O(1)).  Ties
resolve to the leftmost minimum everywhere, matching
:func:`repro.indexes.sparse_table.naive_range_min`.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from repro.core.cost import CostTracker, ensure_tracker
from repro.indexes import columns
from repro.indexes.sparse_table import SparseTable, check_rmq_range

__all__ = ["FischerHeunRMQ"]

_SIGN_CHUNK = 64  # blocks per pass: each pass's lists then fit pymalloc's 512 B


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


class FischerHeunRMQ:
    """O(1) range-minimum queries after linear preprocessing."""

    def __init__(self, array: Sequence, tracker: Optional[CostTracker] = None):
        tracker = ensure_tracker(tracker)
        self._array = list(array)
        n = len(self._array)
        self._sign_blocks(max(1, int(math.log2(n)) // 4) if n >= 2 else 1, tracker)

    def _sign_blocks(self, b: int, tracker: CostTracker) -> None:
        """Per block of ``b``: its minimum's position and its table's id.

        Only ``a[i] > a[j]`` (i < j) is asked inside a block, so one bit per
        pair fixes both: full blocks are coded a column at a time,
        ``_SIGN_CHUNK`` per pass, and only a code's first block is signed.
        """
        array, n = self._array, len(self._array)
        self._block_size, self._tables, self._table_ids = b, [], {}
        pairs = [(i, j) for j in range(b) for i in range(j)]
        ids, offsets = {}, {}
        block_argmin, block_table = columns.positions((), n), columns.positions((), n)
        full = n - n % b
        for start in range(0, full, _SIGN_CHUNK * b):
            stop = min(full, start + _SIGN_CHUNK * b)
            cols = [array[start + offset : stop : b] for offset in range(b)]
            codes = [0] * ((stop - start) // b)
            for i, j in pairs:
                codes = [c + c + 1 if x > y else c + c for c, x, y in zip(codes, cols[i], cols[j])]
            fresh = sorted(set(codes).difference(ids), key=codes.index)
            for code in fresh:
                first = start + codes.index(code) * b
                argmin, ids[code] = self._sign_block(first, tracker)
                offsets[code] = argmin - first
            tracker.tick(2 * b * (len(codes) - len(fresh)))
            block_argmin.extend([s + offsets[c] for s, c in zip(range(start, stop, b), codes)])
            block_table.extend(map(ids.__getitem__, codes))
        for start in range(full, n, b):  # the short tail block, if any
            argmin, table_id = self._sign_block(start, tracker)
            block_argmin.append(argmin)
            block_table.append(table_id)
        self._block_argmin, self._block_table = block_argmin, block_table
        self._summary = SparseTable([array[p] for p in block_argmin], tracker)

    def _sign_block(self, start: int, tracker: CostTracker) -> Tuple[int, int]:
        """(absolute argmin, in-block table id) of the block at ``start``,
        materializing the table of a signature not seen before."""
        block = self._array[start : start + self._block_size]
        tracker.tick(len(block))
        best = 0
        for offset in range(1, len(block)):
            if block[offset] < block[best]:
                best = offset
        signature = _cartesian_signature(block)
        tracker.tick(len(block))
        table_id = self._table_ids.get(signature)
        if table_id is None:
            table_id = self._table_ids[signature] = len(self._tables)
            self._tables.append(_in_block_table(block))
            tracker.tick(len(block) ** 2)
        return start + best, table_id

    def __len__(self) -> int:
        return len(self._array)

    @property
    def block_size(self) -> int:
        return self._block_size

    @property
    def distinct_signatures(self) -> int:
        return len(self._tables)

    def _block_query(self, block_index: int, left_offset: int, right_offset: int) -> int:
        table = self._tables[self._block_table[block_index]]
        return (
            block_index * self._block_size
            + table[left_offset][right_offset - left_offset]
        )

    def argmin(self, low: int, high: int, tracker: Optional[CostTracker] = None) -> int:
        """Leftmost position of min(A[low..high]); O(1) work and depth."""
        tracker = ensure_tracker(tracker)
        n = len(self._array)
        check_rmq_range(low, high, n)
        b = self._block_size
        first_block, last_block = low // b, high // b
        tracker.tick(4)
        if first_block == last_block:
            return self._block_query(first_block, low % b, high % b)

        candidates: List[int] = [
            self._block_query(first_block, low % b, min(n - 1, (first_block + 1) * b - 1) % b),
            self._block_query(last_block, 0, high % b),
        ]
        if first_block + 1 <= last_block - 1:
            middle_block = self._summary.argmin(first_block + 1, last_block - 1, tracker)
            candidates.append(self._block_argmin[middle_block])

        best = min(
            candidates,
            key=lambda position: (self._array[position], position),
        )
        tracker.tick(len(candidates))
        return best

    def argmin_fast(self, low: int, high: int) -> int:
        """Untracked :meth:`argmin`: identical candidate logic, no charging."""
        array = self._array
        n = len(array)
        check_rmq_range(low, high, n)
        b = self._block_size
        first_block, last_block = low // b, high // b
        if first_block == last_block:
            return self._block_query(first_block, low % b, high % b)
        candidates = [
            self._block_query(
                first_block, low % b, min(n - 1, (first_block + 1) * b - 1) % b
            ),
            self._block_query(last_block, 0, high % b),
        ]
        if first_block + 1 <= last_block - 1:
            middle_block = self._summary.argmin_fast(first_block + 1, last_block - 1)
            candidates.append(self._block_argmin[middle_block])
        return min(candidates, key=lambda position: (array[position], position))

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
        materialized in O(b^2) = O(log^2 n), and the block-minima summary is
        repaired through :meth:`SparseTable.point_update` (the windows the
        write moved: a handful typically, O(n / b) for a new global minimum).
        Everything else -- every other block's signature and table -- is
        untouched, which is what makes this a |CHANGED|-bounded repair
        instead of the O(n) rebuild.
        """
        tracker = ensure_tracker(tracker)
        check_rmq_range(position, position, len(self._array))
        self._array[position] = value
        block_index = position // self._block_size
        argmin, table_id = self._sign_block(block_index * self._block_size, tracker)
        self._block_argmin[block_index] = argmin
        self._block_table[block_index] = table_id
        self._summary.point_update(block_index, self._array[argmin], tracker)

    # -- serialization --------------------------------------------------------

    def to_state(self) -> dict:
        """Plain-data snapshot: array, per-block columns, in-block tables by
        signature (in id order) and the summary's levels (its values are a
        gather of ``array`` through ``block_argmin``), so load restores O(1)
        queries."""
        return {
            "array": columns.pack(self._array),
            "block_size": self._block_size,
            "block_argmin": self._block_argmin[:],
            "block_table": self._block_table[:],
            "tables": {sig: self._tables[i] for sig, i in self._table_ids.items()},
            "summary": self._summary.to_state()["levels"],
        }

    @classmethod
    def from_state(cls, state: dict) -> "FischerHeunRMQ":
        rmq = cls.__new__(cls)
        rmq._array = columns.unpack(state["array"])
        n = len(rmq._array)
        rmq._block_size = int(state["block_size"])
        rmq._block_argmin = columns.positions(state["block_argmin"], n)
        rmq._block_table = columns.positions(state["block_table"], n)
        rmq._table_ids = {signature: i for i, signature in enumerate(state["tables"])}
        rmq._tables = [[list(row) for row in table] for table in state["tables"].values()]
        minima = list(map(rmq._array.__getitem__, rmq._block_argmin))
        rmq._summary = SparseTable.from_state({"array": minima, "levels": state["summary"]})
        return rmq
