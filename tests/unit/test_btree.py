"""Unit tests for the B+-tree (repro.indexes.btree)."""

import gc
import random
import tracemalloc
from collections import Counter

import pytest

from repro.core.cost import CostTracker
from repro.core.errors import IndexError_
from repro.indexes import columns
from repro.indexes.btree import BPlusTree
from repro.storage.relation import uniform_int_relation


class TestBasics:
    def test_rejects_tiny_order(self):
        with pytest.raises(IndexError_):
            BPlusTree(order=3)

    def test_empty_tree(self):
        tree = BPlusTree()
        assert len(tree) == 0
        assert not tree.contains(5)
        assert not tree.delete(5)
        assert tree.keys() == []
        tree.check_invariants()

    def test_single_insert(self):
        tree = BPlusTree()
        tree.insert(10)
        assert tree.contains(10)
        assert tree.keys() == [10]
        assert len(tree) == 1

    def test_duplicate_keys_accumulate_payloads(self):
        """A duplicate raises its key's count; it is not a second key."""
        tree = BPlusTree()
        tree.insert(7)
        tree.insert(7)
        assert tree.keys() == [7, 7]
        assert tree._root.keys == [7] and list(tree._root.counts) == [2]
        assert len(tree) == 2
        tree.check_invariants()

    def test_build_classmethod(self):
        keys = [i % 37 for i in range(100)]
        tree = BPlusTree.from_keys(keys, order=8)
        assert len(tree) == 100
        assert Counter(tree.keys()) == Counter(keys)
        assert tree.contains(36) and not tree.contains(37)
        tree.check_invariants()


class TestOrderedBehaviour:
    def test_items_sorted(self):
        rng = random.Random(1)
        keys = [rng.randrange(1000) for _ in range(500)]
        tree = BPlusTree.from_keys(keys, order=6)
        assert tree.keys() == sorted(keys)

    def test_range_iter(self):
        """Every window over a sparse run answers like a filter of it."""
        keys = list(range(0, 100, 3))
        tree = BPlusTree.from_keys(keys, order=5)
        for low in range(-2, 103):
            for high in range(low, low + 5):
                expected = any(low <= key <= high for key in keys)
                assert tree.range_nonempty(low, high) == expected, (low, high)
                assert tree.range_nonempty_fast(low, high) == expected, (low, high)

    def test_range_iter_empty_window(self):
        tree = BPlusTree.from_keys([i * 10 for i in range(10)], order=5)
        assert not tree.range_nonempty(41, 49)
        assert not tree.range_nonempty_fast(41, 49)

    def test_range_nonempty(self):
        tree = BPlusTree.from_keys([i * 10 for i in range(10)], order=5)
        assert tree.range_nonempty(35, 50)
        assert not tree.range_nonempty(41, 49)
        assert tree.range_nonempty(0, 0)
        assert not tree.range_nonempty(91, 200)

    def test_range_nonempty_past_leaf_end(self):
        # low larger than every key in its leaf but a later leaf qualifies.
        tree = BPlusTree.from_keys(list(range(64)), order=4)
        assert tree.range_nonempty(62.5, 70)
        assert not tree.range_nonempty(63.5, 70)


class TestDeletion:
    def test_delete_missing_returns_false(self):
        tree = BPlusTree.from_keys([1])
        assert not tree.delete(2)
        assert len(tree) == 1
        assert tree.delete(1)
        assert not tree.delete(1)
        assert len(tree) == 0

    def test_delete_everything_random_order(self):
        rng = random.Random(2)
        keys = list(range(300))
        rng.shuffle(keys)
        tree = BPlusTree.from_keys(keys, order=6)
        rng.shuffle(keys)
        for key in keys:
            assert tree.delete(key), key
            tree.check_invariants()
        assert len(tree) == 0

    def test_interleaved_inserts_and_deletes(self):
        rng = random.Random(3)
        tree = BPlusTree(order=5)
        model = Counter()
        for step in range(2000):
            key = rng.randrange(120)
            if rng.random() < 0.55:
                tree.insert(key)
                model[key] += 1
            else:
                expected = model[key] > 0
                assert tree.delete(key) == expected
                if expected:
                    model[key] -= 1
            if step % 200 == 0:
                tree.check_invariants()
        assert tree.keys() == sorted(model.elements())
        for key in range(120):
            assert tree.contains(key) == (model[key] > 0)


class _TracedTree(BPlusTree):
    """Records which maintenance paths moved a key of count > 1."""

    def __init__(self, order):
        super().__init__(order=order)
        self.moved = set()

    def _split(self, node):
        sibling, separator = super()._split(node)
        if node.leaf and max(sibling.counts) > 1 and max(node.counts) > 1:
            self.moved.add("split")
        return sibling, separator

    def _borrow(self, parent, child_index):
        node = parent.children[child_index]
        left = parent.children[child_index - 1] if child_index else node
        before = len(left.keys)
        done = super()._borrow(parent, child_index)
        if done and node.leaf:
            from_left = left is not node and len(left.keys) < before
            if node.counts[0 if from_left else -1] > 1:
                self.moved.add("borrow-left" if from_left else "borrow-right")
        return done

    def _merge(self, parent, child_index):
        absorbed = parent.children[max(child_index, 1)]
        if absorbed.leaf and absorbed.counts and max(absorbed.counts) > 1:
            self.moved.add("merge")
        super()._merge(parent, child_index)


class TestPayloadRuns:
    """A key's run is its occurrence count: maintenance moves it whole."""

    def test_runs_cross_split_borrow_and_merge_in_one_piece(self):
        """Eight keys, tiny nodes, 4 000 steps: every maintenance path carries
        a key of count > 1 at least once, and the tree stays the model."""
        for order in (4, 5, 6):
            rng = random.Random(order)
            tree, model, growing = _TracedTree(order), Counter(), True
            for step in range(4000):
                key = rng.randrange(8)
                # Grow to 40 entries, drain to none, again: keys appear in
                # full leaves (splits) and vanish from thin ones (borrow, merge).
                growing = len(tree) < 40 if growing else len(tree) == 0
                if rng.random() < (0.8 if growing else 0.2):
                    tree.insert(key)
                    model[key] += 1
                else:
                    assert tree.delete(key) == (model[key] > 0)
                    model[key] = max(model[key] - 1, 0)
                if step % 97 == 0:
                    tree.check_invariants()
                    assert tree.keys() == sorted(model.elements())
            tree.check_invariants()
            assert tree.moved == {"split", "borrow-left", "borrow-right", "merge"}, (order, tree.moved)

    def test_a_run_grows_past_any_build_time_count(self):
        """Counts are typed by the longest list, not the build's largest run:
        a key of count 65 535 (the top of a 16-bit word) keeps growing."""
        n = (1 << 16) - 1
        tree = BPlusTree.from_keys([7] * n + [9])
        for _ in range(3):
            tree.insert(7)
        tree.check_invariants()
        assert tree._root.counts[0] == n + 3
        assert Counter(tree.keys()) == {7: n + 3, 9: 1}
        state = tree.to_state()
        assert columns.unpack(state["counts"]) == [n + 3, 1]
        assert state["counts"][0] == 17  # at rest: two byte lanes and a 1-bit plane
        BPlusTree.from_state(state).check_invariants()

    def test_invariants_catch_a_plain_list_of_counts(self):
        tree = BPlusTree.from_keys([1, 1, 2])
        tree._root.counts = list(tree._root.counts)
        with pytest.raises(AssertionError, match="typed column"):
            tree.check_invariants()


class TestBuildFootprint:
    def test_a_build_retains_its_leaves_and_a_byte_per_count(self):
        """At 2**16 rows of a uniform relation (seed 0) one ``from_keys``
        retained 1.38 MiB while it counted in 8-byte words after a boxed run
        start per row; one ``Counter`` pass and byte counts retain ~0.99."""
        column = uniform_int_relation(1 << 16, random.Random(0)).columns(CostTracker())[0]
        gc.collect()
        tracemalloc.start()
        try:
            tree = BPlusTree.from_keys(column)
            retained, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained <= 1.1 * 2**20, retained
        assert {leaf.counts.typecode for leaf in tree._leaves()} == {"B"}


class TestCostShape:
    def test_probe_cost_logarithmic(self):
        for order in (32, BPlusTree().order):
            costs = {}
            for exponent in (8, 12, 16):
                n = 2**exponent
                tree = BPlusTree.from_keys(range(n), order=order)
                tracker = CostTracker()
                tree.contains(n // 2, tracker)
                costs[exponent] = tracker.depth
            # Doubling the exponent should roughly double the probe cost,
            # nowhere near the 256x of a scan.
            assert costs[16] <= 3 * costs[8], (order, costs)

    def test_height_grows_slowly(self):
        tree = BPlusTree.from_keys(range(10_000), order=32)
        assert tree.height <= 4
        assert BPlusTree.from_keys(range(10_000)).height <= 3

    def test_default_width_halves_the_leaves_of_a_relation_column(self):
        """A 2^16 column drawn like the yardstick's relation (uniform over
        [0, 4n], ~57 800 distinct keys) bulk-loads into ~1 810 leaves of 32
        keys and three levels; order 32 took 3 615 leaves and four."""
        n = 1 << 16
        rng = random.Random(2013)
        keys = [rng.randint(0, 4 * n) for _ in range(n)]
        tree = BPlusTree.from_keys(keys)
        assert tree.order == 64
        assert tree.height <= 3
        assert sum(1 for _ in tree._leaves()) <= 1850

    def test_build_charge_is_n_log_n(self):
        # build = one sort + a linear bulk load: quadrupling n must grow the
        # charge like n log n (4 * 14/12 ~ 4.7), neither linear nor quadratic.
        charges = {}
        for exponent in (12, 14):
            rng = random.Random(exponent)
            n = 2**exponent
            keys = [rng.randrange(4 * n) for _ in range(n)]
            tracker = CostTracker()
            BPlusTree.from_keys(keys, tracker=tracker)
            charges[exponent] = tracker.work
            assert tracker.depth == tracker.work  # sequential preprocessing
        assert 4.0 <= charges[14] / charges[12] <= 5.5
