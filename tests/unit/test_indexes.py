"""Unit tests for sorted runs, hash index, sparse table, Fischer--Heun RMQ."""

import random
from collections import Counter

import pytest

from repro.core.cost import CostTracker
from repro.core.errors import IndexError_
from repro.indexes import (
    FischerHeunRMQ,
    HashIndex,
    KeyedRunIndex,
    SortedRunIndex,
    SparseTable,
    columns,
    naive_range_min,
)
from repro.parallel.primitives import parallel_binary_search


class TestSortedRun:
    def test_membership(self):
        index = SortedRunIndex([5, 3, 9, 3])
        assert index.contains(3)
        assert index.contains(9)
        assert not index.contains(4)
        assert len(index) == 4

    def test_empty(self):
        index = SortedRunIndex([])
        assert not index.contains(1)

    def test_rank(self):
        # ``contains`` probes the rank of its key: the slot of the first
        # element not below it.
        index = SortedRunIndex([10, 20, 30])
        ranks = [parallel_binary_search(index.values(), key, CostTracker())
                 for key in (5, 20, 99)]
        assert ranks == [0, 1, 3]
        assert [index.contains(key) for key in (5, 20, 99)] == [False, True, False]

    def test_query_cost_logarithmic(self):
        big = SortedRunIndex(list(range(1 << 16)))
        tracker = CostTracker()
        big.contains(12345, tracker)
        assert tracker.depth <= 20


class TestKeyedRun:
    def test_lookup(self):
        index = KeyedRunIndex([(3, "c"), (1, "a"), (2, "b")])
        assert index.lookup(1) == "a"
        assert index.lookup(3) == "c"
        assert index.lookup(9) is None

    def test_items_sorted_by_key(self):
        index = KeyedRunIndex([(3, "c"), (1, "a")])
        assert index.items() == [(1, "a"), (3, "c")]


class TestHashIndex:
    def test_build_and_search(self):
        index = HashIndex.from_keys([1, 1, 2])
        assert index.contains(1) and index.contains_fast(1)
        assert index.contains(2)
        assert not index.contains(3) and not index.contains_fast(3)
        assert len(index) == 3
        assert len(columns.unpack(index.to_state()["keys"])) == 2

    def test_delete(self):
        index = HashIndex.from_keys([1, 1])
        assert index.delete(1)
        assert index.contains(1) and len(index) == 1
        assert index.delete(1)
        assert not index.contains(1)
        assert not index.delete(1)
        assert len(index) == 0 and columns.unpack(index.to_state()["keys"]) == []

    def test_column_build_and_three_column_state(self):
        """The B+-tree's build signature and its two state columns, so the
        per-attribute schemes treat both index classes alike."""
        tracker = CostTracker()
        index = HashIndex.from_keys([5, 3, 5, 9], tracker=tracker)
        assert tracker.work == 4  # one O(1) expected insert per entry
        assert len(index) == 4
        state = index.to_state()
        assert {name: columns.unpack(column) for name, column in state.items()} == {
            "keys": [5, 3, 9], "counts": [2, 1, 1]}
        # At rest each takes the bits its largest value needs: a 4-bit plane
        # of keys, a 2-bit plane of counts.
        assert {name: column[0] for name, column in state.items()} == {"keys": 4, "counts": 2}
        clone = HashIndex.from_state(state)
        assert clone.to_state() == state and len(clone) == 4
        clone.insert(5)  # a private map: the source index is untouched
        assert index.to_state() == state
        assert HashIndex.from_state(HashIndex().to_state()).to_state() == HashIndex().to_state()

    def test_maintenance_matches_a_counter_model(self):
        """Random inserts and deletes: tracked == untracked == the model,
        through the state at every step."""
        rng = random.Random(7)
        index, model = HashIndex(), Counter()
        for _ in range(600):
            key = rng.randrange(12)
            if rng.random() < 0.55:
                index.insert(key)
                model[key] += 1
            else:
                assert index.delete(key) == (model[key] > 0)
                model[key] = max(model[key] - 1, 0)
            model = +model
            clone = HashIndex.from_state(index.to_state())
            for probe in range(13):
                expected = probe in model
                assert index.contains(probe) == index.contains_fast(probe) == expected
                assert clone.contains_fast(probe) == expected
            assert len(index) == len(clone) == sum(model.values())
            assert len(columns.unpack(index.to_state()["keys"])) == len(model)

    def test_probe_cost_constant(self):
        index = HashIndex.from_keys(range(100_000))
        tracker = CostTracker()
        index.contains(54321, tracker)
        assert tracker.depth == 1


class TestSparseTable:
    def test_matches_naive_on_random_arrays(self):
        rng = random.Random(4)
        for _ in range(20):
            array = [rng.randint(-9, 9) for _ in range(rng.randint(1, 120))]
            table = SparseTable(array)
            for _ in range(60):
                i = rng.randrange(len(array))
                j = rng.randrange(i, len(array))
                assert table.argmin(i, j) == naive_range_min(array, i, j)

    def test_leftmost_tie_break(self):
        table = SparseTable([5, 1, 1, 1, 5])
        assert table.argmin(0, 4) == 1
        assert table.argmin(2, 4) == 2

    def test_range_min_value(self):
        table = SparseTable([4, 2, 7])
        assert table.range_min(0, 2) == 2

    def test_bad_range_raises(self):
        table = SparseTable([1, 2, 3])
        with pytest.raises(IndexError_):
            table.argmin(2, 1)
        with pytest.raises(IndexError_):
            table.argmin(0, 3)

    def test_query_cost_constant(self):
        table = SparseTable(list(range(1 << 14, 0, -1)))
        tracker = CostTracker()
        table.argmin(17, 9000, tracker)
        assert tracker.depth <= 5


class TestFischerHeun:
    def test_matches_naive_on_random_arrays(self):
        rng = random.Random(5)
        for _ in range(15):
            array = [rng.randint(-20, 20) for _ in range(rng.randint(1, 400))]
            rmq = FischerHeunRMQ(array)
            for _ in range(80):
                i = rng.randrange(len(array))
                j = rng.randrange(i, len(array))
                assert rmq.argmin(i, j) == naive_range_min(array, i, j), (
                    array,
                    i,
                    j,
                )

    def test_single_element(self):
        rmq = FischerHeunRMQ([42])
        assert rmq.argmin(0, 0) == 0
        assert rmq.range_min(0, 0) == 42

    def test_signature_sharing(self):
        # A long repetitive array has far fewer signatures than blocks.
        array = [1, 2, 3, 0] * 256
        rmq = FischerHeunRMQ(array)
        block_size = rmq.to_state()["block_size"]
        if block_size > 1:
            block_count = (len(array) + block_size - 1) // block_size
            assert rmq.distinct_signatures < block_count

    def test_bad_range_raises(self):
        rmq = FischerHeunRMQ([1, 2])
        with pytest.raises(IndexError_):
            rmq.argmin(1, 0)

    def test_query_cost_constant_as_n_grows(self):
        small = FischerHeunRMQ(list(range(256, 0, -1)))
        big = FischerHeunRMQ(list(range(65536, 0, -1)))
        t_small, t_big = CostTracker(), CostTracker()
        small.argmin(3, 250, t_small)
        big.argmin(3, 65000, t_big)
        assert t_big.depth <= 2 * max(t_small.depth, 4)
