"""A B+-tree, from scratch (paper, Example 1 and Section 4(1)).

This is the preprocessing structure of the paper's motivating example: build
it once over a column in PTIME (one O(n log n) sort plus a linear bottom-up
bulk load), then answer point and range selection queries in O(log n) --
seconds instead of 1.9 days on the petabyte thought experiment.

Design notes
------------
* Order ``order`` bounds the number of keys per node; nodes split at
  ``order`` keys and (except the root) rebalance below ``order // 2``.  The
  default, 64, is the widest node whose lists stay inside pymalloc's 512 B
  small-object limit: 2^16 keys bulk-load into half the leaves of order 32
  and one level less, while order 128's key lists spill to ``malloc``
  (+1.9 MiB resident on the local-point yardstick).
* The tree indexes a value multiset -- the selection queries are Boolean,
  so no row id is stored.  A leaf holds its distinct ``keys`` and their
  occurrence ``counts`` as a typed column
  (:func:`repro.indexes.columns.counts`: a machine word per key, no boxed
  int, no entry for the collector to visit); a duplicate raises its key's
  count, and a key leaves the tree when its count reaches zero.  Leaves are
  chained left-to-right for range probes; the untracked kernels read
  ``keys`` only.
* The counts word is the tree's, not the leaf's: every leaf counts in one
  unsigned word, the narrowest that holds the largest count when the tree
  is bulk-loaded -- a byte per key when no key occurs 256 times.  An
  ``insert`` that would overflow it re-types every leaf at once
  (:meth:`BPlusTree._widen`, at most three times in a tree's life), so a
  split, borrow, merge or leaf walk never meets two words in one
  ``array`` operation.
* Internal separator invariant: ``children[i]`` holds keys < ``keys[i]``,
  ``children[i+1]`` holds keys >= ``keys[i]``.
* One bulk loader serves :meth:`BPlusTree.from_keys` (sort, then one
  C-level ``Counter`` pass that yields the distinct keys in order with
  their counts -- no run-start list) and :meth:`BPlusTree.from_state`,
  allocating per leaf, never per entry or per key; ``insert`` and full
  deletion with borrow-from-sibling and merge rebalancing remain for the
  incremental-preprocessing case study (Section 4(7)).
* Every node visit charges ``1 + ceil(log2(#keys))`` cost units (binary
  search within the node), so a root-to-leaf probe costs Theta(log n) --
  the quantity the certifier fits.
"""

from __future__ import annotations

import bisect
import math
from collections import Counter
from itertools import chain, repeat
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.cost import CostTracker, ensure_tracker
from repro.core.errors import IndexError_
from repro.indexes.columns import (
    counts as count_column, counts_holding, is_counts, pack, pack_sorted, unpack, unpack_words,
)

__all__ = ["BPlusTree"]

#: The default node width: the widest whose lists stay inside pymalloc.
ORDER = 64


class _Node:
    """An internal node is ``keys`` + ``children``; a leaf is ``keys`` and
    the parallel ``counts`` column."""

    __slots__ = ("leaf", "keys", "children", "counts", "next")

    def __init__(self, keys, children=None, counts=None) -> None:
        self.leaf = children is None
        self.keys: List[Any] = keys
        self.children: Optional[List["_Node"]] = children
        self.counts: Optional[Sequence[int]] = counts
        self.next: Optional["_Node"] = None  # leaf chain

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "Leaf" if self.leaf else "Node"
        return f"{kind}(keys={self.keys})"


def _search_charge(node: _Node, tracker: CostTracker) -> None:
    """Charge one node visit: O(log(#keys)) comparisons plus the hop."""
    width = max(len(node.keys), 1)
    tracker.tick(1 + math.ceil(math.log2(width)) if width > 1 else 1)


class BPlusTree:
    """A B+-tree over totally ordered keys with duplicate support."""

    def __init__(self, order: int = ORDER) -> None:
        if order < 4:
            raise IndexError_("B+-tree order must be at least 4")
        self.order = order
        self._root: _Node = _Node([], counts=count_column(()))
        self._size = 0  # number of key occurrences

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        height = 1
        node = self._root
        while not node.leaf:
            node = node.children[0]
            height += 1
        return height

    # -- bulk construction ------------------------------------------------------

    @classmethod
    def from_keys(
        cls,
        keys: Sequence[Any],
        *,
        order: int = ORDER,
        tracker: Optional[CostTracker] = None,
    ) -> "BPlusTree":
        """PTIME preprocessing over a key column alone -- the value multiset
        a Boolean selection needs: one plain sort, one counting pass over
        it, and a bulk load of a counted tree.

        Charges the sorting bound ``n * ceil(log2 n)`` plus ``n`` for the
        linear passes: Theta(n log n) overall.
        """
        size = len(keys)
        ensure_tracker(tracker).tick(size * (1 + math.ceil(math.log2(max(size, 1)))))
        # One C-level pass over the sorted keys: a dict keeps insertion
        # order, so its keys are the distinct keys in order and its values
        # their run lengths.  The sorted copy is dropped as the dict is made.
        runs = Counter(sorted(keys))
        return cls._bulk_load(order, list(runs), runs.values())

    @classmethod
    def _bulk_load(cls, order: int, keys: List[Any], counts: Iterable[int]) -> "BPlusTree":
        """The one bulk loader: a tree over sorted distinct ``keys`` where
        ``keys[i]`` occurs ``counts[i]`` times.  ``counts`` goes into one
        :func:`~repro.indexes.columns.counts` column, the narrowest word
        that holds it, so each leaf's slice of it is one too, in the tree's
        one word.

        O(n): leaves are cut from the runs, then each internal level groups
        the one below, using the smallest key of each right subtree as the
        separator.  An undersized tail chunk is merged into its left
        neighbour; the merged node stays under ``order`` because chunks are
        cut at roughly half capacity.
        """
        tree = cls(order=order)
        if not keys:
            return tree
        counts = count_column(counts)

        def cuts(count: int, width: int, minimum: int) -> List[Tuple[int, int]]:
            bounds = list(range(0, count, width)) + [count]
            if len(bounds) > 2 and count - bounds[-2] < minimum:
                del bounds[-2]
            return list(zip(bounds, bounds[1:]))

        minimum = tree._min_keys()
        fill = max(minimum + 1, order // 2)
        level: List[_Node] = []
        for start, stop in cuts(len(keys), fill, minimum):
            leaf = _Node(keys[start:stop], counts=counts[start:stop])
            if level:
                level[-1].next = leaf
            level.append(leaf)

        lows: List[Any] = [node.keys[0] for node in level]
        while len(level) > 1:
            parents: List[_Node] = []
            parent_lows: List[Any] = []
            for start, stop in cuts(len(level), fill + 1, minimum + 1):
                parents.append(_Node(lows[start + 1 : stop], children=level[start:stop]))
                parent_lows.append(lows[start])
            level, lows = parents, parent_lows
        tree._root = level[0]
        tree._size = sum(counts)
        return tree

    # -- point operations ---------------------------------------------------------

    def _descend(self, key: Any, tracker: CostTracker) -> Tuple[_Node, List[Tuple[_Node, int]]]:
        """Walk to the leaf for ``key``; returns (leaf, path of (node, child_idx))."""
        path: List[Tuple[_Node, int]] = []
        node = self._root
        while not node.leaf:
            _search_charge(node, tracker)
            index = bisect.bisect_right(node.keys, key)
            path.append((node, index))
            node = node.children[index]
        _search_charge(node, tracker)
        return node, path

    def insert(self, key: Any, tracker: Optional[CostTracker] = None) -> None:
        """Add one occurrence of ``key``."""
        tracker = ensure_tracker(tracker)
        leaf, path = self._descend(key, tracker)
        position = bisect.bisect_left(leaf.keys, key)
        if position < len(leaf.keys) and leaf.keys[position] == key:
            try:
                leaf.counts[position] += 1
            except OverflowError:  # the tree's word is full: widen every leaf
                self._widen(leaf.counts[position] + 1)
                leaf.counts[position] += 1
        else:
            leaf.keys.insert(position, key)
            leaf.counts.insert(position, 1)
        self._size += 1
        # Split back up the path while nodes overflow.
        node = leaf
        while len(node.keys) >= self.order:
            sibling, separator = self._split(node)
            if path:
                parent, child_index = path.pop()
                parent.keys.insert(child_index, separator)
                parent.children.insert(child_index + 1, sibling)
                tracker.tick(1)
                node = parent
            else:
                self._root = _Node([separator], children=[node, sibling])
                tracker.tick(1)
                break

    def _widen(self, count: int) -> None:
        """Re-type every leaf's counts to the narrowest word that holds
        ``count`` -- all leaves at once, so they keep sharing one word."""
        for leaf in self._leaves():
            leaf.counts = counts_holding(leaf.counts, count)

    def _split(self, node: _Node) -> Tuple[_Node, Any]:
        """Split an overflowing node; returns (right sibling, separator key)."""
        middle = len(node.keys) // 2
        if node.leaf:
            sibling = _Node(node.keys[middle:], counts=node.counts[middle:])
            del node.keys[middle:], node.counts[middle:]
            sibling.next = node.next
            node.next = sibling
            separator = sibling.keys[0]
        else:
            separator = node.keys[middle]
            sibling = _Node(node.keys[middle + 1 :], children=node.children[middle + 1 :])
            del node.keys[middle:], node.children[middle + 1 :]
        return sibling, separator

    def contains(self, key: Any, tracker: Optional[CostTracker] = None) -> bool:
        """The Boolean point-selection query of Example 1: exists t[A] = c?"""
        tracker = ensure_tracker(tracker)
        leaf, _ = self._descend(key, tracker)
        position = bisect.bisect_left(leaf.keys, key)
        return position < len(leaf.keys) and leaf.keys[position] == key

    # -- untracked serving kernels ----------------------------------------------

    def _descend_fast(self, key: Any) -> _Node:
        """Root-to-leaf walk with no charging and no path bookkeeping."""
        node = self._root
        right = bisect.bisect_right
        while not node.leaf:
            node = node.children[right(node.keys, key)]
        return node

    def contains_fast(self, key: Any) -> bool:
        """Untracked :meth:`contains`: C ``bisect`` probes per node only."""
        leaf = self._descend_fast(key)
        position = bisect.bisect_left(leaf.keys, key)
        return position < len(leaf.keys) and leaf.keys[position] == key

    def range_nonempty_fast(self, low: Any, high: Any) -> bool:
        """Untracked :meth:`range_nonempty` (same leftmost-candidate logic)."""
        leaf = self._descend_fast(low)
        position = bisect.bisect_left(leaf.keys, low)
        if position == len(leaf.keys):
            node = leaf.next
            if node is None or not node.keys:
                return False
            return node.keys[0] <= high
        return leaf.keys[position] <= high

    # -- range operations -----------------------------------------------------------

    def range_nonempty(
        self,
        low: Any,
        high: Any,
        tracker: Optional[CostTracker] = None,
    ) -> bool:
        """The Boolean range-selection query of Section 4(1): any key in
        [low, high]?  O(log n) -- only the leftmost candidate is inspected."""
        tracker = ensure_tracker(tracker)
        leaf, _ = self._descend(low, tracker)
        position = bisect.bisect_left(leaf.keys, low)
        if position == len(leaf.keys):
            node = leaf.next
            if node is None:
                return False
            tracker.tick(1)
            if not node.keys:
                return False
            return node.keys[0] <= high
        tracker.tick(1)
        return leaf.keys[position] <= high

    def _leaves(self) -> Iterator[_Node]:
        node: Optional[_Node] = self._root
        while not node.leaf:
            node = node.children[0]
        while node is not None:
            yield node
            node = node.next

    def keys(self) -> List[Any]:
        """Every key occurrence in order (no cost; testing helper)."""
        keys: List[Any] = []
        for node in self._leaves():
            keys.extend(chain.from_iterable(map(repeat, node.keys, node.counts)))
        return keys

    # -- deletion ---------------------------------------------------------------------

    def delete(self, key: Any, tracker: Optional[CostTracker] = None) -> bool:
        """Remove one occurrence of ``key``; False when it has none.

        Rebalances by borrowing from or merging with siblings.
        """
        tracker = ensure_tracker(tracker)
        leaf, path = self._descend(key, tracker)
        position = bisect.bisect_left(leaf.keys, key)
        if position >= len(leaf.keys) or leaf.keys[position] != key:
            return False
        self._size -= 1
        leaf.counts[position] -= 1
        if leaf.counts[position]:
            return True
        del leaf.keys[position], leaf.counts[position]
        self._rebalance(leaf, path, tracker)
        return True

    def _min_keys(self) -> int:
        # A split at `order` keys leaves the smaller half with
        # order - order//2 - 1 keys (internal node), so that is the floor.
        return max(1, self.order // 2 - 1)

    def _rebalance(
        self,
        node: _Node,
        path: List[Tuple[_Node, int]],
        tracker: CostTracker,
    ) -> None:
        while node is not self._root and len(node.keys) < self._min_keys():
            parent, child_index = path.pop()
            tracker.tick(1)
            if self._borrow(parent, child_index):
                return
            self._merge(parent, child_index)
            node = parent
        if not self._root.leaf and len(self._root.keys) == 0:
            self._root = self._root.children[0]

    def _borrow(self, parent: _Node, child_index: int) -> bool:
        """Try to borrow one key from an adjacent richer sibling."""
        node = parent.children[child_index]
        minimum = self._min_keys()
        # Borrow from the left sibling.
        if child_index > 0:
            left = parent.children[child_index - 1]
            if len(left.keys) > minimum:
                if node.leaf:
                    node.keys.insert(0, left.keys.pop())
                    node.counts.insert(0, left.counts.pop())
                    parent.keys[child_index - 1] = node.keys[0]
                else:
                    node.keys.insert(0, parent.keys[child_index - 1])
                    parent.keys[child_index - 1] = left.keys.pop()
                    node.children.insert(0, left.children.pop())
                return True
        # Borrow from the right sibling.
        if child_index + 1 < len(parent.children):
            right = parent.children[child_index + 1]
            if len(right.keys) > minimum:
                if node.leaf:
                    node.keys.append(right.keys.pop(0))
                    node.counts.append(right.counts.pop(0))
                    parent.keys[child_index] = right.keys[0]
                else:
                    node.keys.append(parent.keys[child_index])
                    parent.keys[child_index] = right.keys.pop(0)
                    node.children.append(right.children.pop(0))
                return True
        return False

    def _merge(self, parent: _Node, child_index: int) -> None:
        """Merge the underflowing child with a sibling (left-preferring)."""
        if child_index > 0:
            left_index = child_index - 1
        else:
            left_index = child_index
        left = parent.children[left_index]
        right = parent.children[left_index + 1]
        separator = parent.keys[left_index]
        if left.leaf:
            left.keys.extend(right.keys)
            left.counts.extend(right.counts)
            left.next = right.next
        else:
            left.keys.append(separator)
            left.keys.extend(right.keys)
            left.children.extend(right.children)
        parent.keys.pop(left_index)
        parent.children.pop(left_index + 1)

    def _columns(self) -> Tuple[List[Any], Sequence[int]]:
        """The leaf chain as two columns: distinct keys in order, and the
        occurrence count of each (a :func:`~repro.indexes.columns.counts`
        column in the tree's word)."""
        leaves = self._leaves()
        first = next(leaves)
        keys, counts = first.keys[:], first.counts[:]
        for node in leaves:
            keys.extend(node.keys)
            counts.extend(node.counts)
        return keys, counts

    def __deepcopy__(self, memo: dict) -> "BPlusTree":
        """A private copy: one leaf walk into the bulk loader, as
        :meth:`from_state` loads, without the pack and unpack -- every node,
        list and column is new, the keys are shared, and the counts are
        back in the narrowest word.  (The stdlib walk would recurse along
        the leaf chain.)"""
        return self._bulk_load(self.order, *self._columns())

    # -- serialization ----------------------------------------------------------------

    def to_state(self) -> dict:
        """Plain-data snapshot for artifact persistence.

        The leaf chain concatenates into the two columns a leaf already
        holds a slice of: the distinct ``keys`` in order and the occurrence
        ``counts`` per key, each packed to machine words when it is a
        plain-int run, the keys (a sorted run) gap-coded.  The internal structure is
        *not* stored (:meth:`from_state` rebuilds it bottom-up in linear
        time).
        """
        keys, counts = self._columns()
        return {"order": self.order, "keys": pack_sorted(keys), "counts": pack(counts)}

    @classmethod
    def from_state(cls, state: dict) -> "BPlusTree":
        """Rebuild from :meth:`to_state` output through the bulk loader, at
        the stored ``order`` (a state written at another width loads at it).
        The counts decode straight into their word, boxing no count."""
        counts = unpack_words(state["counts"])
        return cls._bulk_load(int(state["order"]), unpack(state["keys"]), counts)

    # -- invariants (used by property tests) ----------------------------------------

    def check_invariants(self) -> None:
        """Raise AssertionError if any structural invariant is violated."""
        minimum = self._min_keys()
        words = set()  # every leaf's counts word: one per tree

        def walk(node: _Node, low: Any, high: Any, depth: int) -> int:
            assert len(node.keys) < self.order, "node overflow"
            if node is not self._root:
                assert len(node.keys) >= minimum, f"underfull node {node.keys}"
            assert node.keys == sorted(node.keys), "keys out of order"
            for key in node.keys:
                if low is not None:
                    assert key >= low, "separator invariant (low)"
                if high is not None:
                    assert key < high, "separator invariant (high)"
            if node.leaf:
                assert is_counts(node.counts), "counts is not the typed column"
                words.add(node.counts.typecode)
                assert len(node.keys) == len(node.counts)
                assert all(count > 0 for count in node.counts), "key with no occurrence"
                return depth
            assert len(node.children) == len(node.keys) + 1
            depths = set()
            bounds = [low, *node.keys, high]
            for index, child in enumerate(node.children):
                depths.add(walk(child, bounds[index], bounds[index + 1], depth + 1))
            assert len(depths) == 1, "leaves at differing depths"
            return depths.pop()

        walk(self._root, None, None, 0)
        assert len(words) == 1, f"leaves count in several words {words}"
        assert self._size == sum(sum(node.counts) for node in self._leaves()), "size counter drift"
