"""Unit tests for bounded incremental evaluation (Section 4(7))."""

import random
from collections import Counter

import pytest

from repro.core.cost import CostTracker
from repro.core.errors import GraphError, SchemaError
from repro.incremental import (
    ChangeKind,
    ChangeLog,
    IncrementalSelectionIndex,
    IncrementalTransitiveClosure,
    TupleChange,
)
from repro.storage.relation import uniform_int_relation


class TestChangeLog:
    def test_changed_is_sum(self):
        log = ChangeLog()
        log.record(2, 5, "a")
        log.record(1, 0)
        assert log.input_changes == 3
        assert log.output_changes == 5
        assert log.changed == 8
        assert list(log.details) == ["a"]


class TestIncrementalSelection:
    @pytest.fixture
    def index(self):
        relation = uniform_int_relation(400, random.Random(70), value_range=(0, 150))
        return IncrementalSelectionIndex(relation, "a")

    def test_insert_visible(self, index):
        assert not index.point_nonempty(9999)
        index.apply(TupleChange(ChangeKind.INSERT, (9999, 1)))
        assert index.point_nonempty(9999)
        assert index.range_nonempty(9990, 10000)

    def test_delete_removes(self, index):
        index.apply(TupleChange(ChangeKind.INSERT, (7777, 2)))
        index.apply(TupleChange(ChangeKind.DELETE, (7777, 2)))
        assert not index.point_nonempty(7777)

    def test_delete_of_absent_row_is_noop(self, index):
        before = len(index.relation)
        index.apply(TupleChange(ChangeKind.DELETE, (123456, 0)))
        assert len(index.relation) == before

    def test_log_counts_output_changes(self, index):
        index.apply(TupleChange(ChangeKind.INSERT, (50000, 1)))  # new key: dO=1
        index.apply(TupleChange(ChangeKind.INSERT, (50000, 2)))  # same key: dO=0
        assert index.log.input_changes == 2
        assert index.log.output_changes == 1

    def test_batch_cost_bounded_by_changes_not_data(self, index):
        tracker = CostTracker()
        changes = [
            TupleChange(ChangeKind.INSERT, (100000 + i, 0)) for i in range(10)
        ]
        batch_cost = index.apply_batch(changes, tracker)
        rebuild = IncrementalSelectionIndex.rebuild_cost(index.relation, "a")
        # Ten O(log n) updates must be far cheaper than one full rebuild.
        assert batch_cost.work * 10 < rebuild.work

    def test_queries_stay_correct_under_update_stream(self):
        rng = random.Random(71)
        relation = uniform_int_relation(100, rng, value_range=(0, 60))
        index = IncrementalSelectionIndex(relation, "a")
        model = {}
        for row in relation.rows():
            model[row[0]] = model.get(row[0], 0) + 1
        for step in range(400):
            key = rng.randrange(70)
            if rng.random() < 0.6:
                index.apply(TupleChange(ChangeKind.INSERT, (key, step)))
                model[key] = model.get(key, 0) + 1
            else:
                row = next(
                    (r for r in index.relation.rows() if r[0] == key), None
                )
                if row is not None:
                    index.apply(TupleChange(ChangeKind.DELETE, row))
                    model[key] -= 1
            probe = rng.randrange(70)
            assert index.point_nonempty(probe) == bool(model.get(probe))

    def test_duplicates_phantom_deletes_and_refused_inserts(self):
        """A stream of duplicate rows, deletes of a row that shares a live
        key but is not itself live, and rows the schema refuses.  After every
        step the answers equal a relation scan, the live rows equal the model
        multiset, and the row-id map names exactly the live slots; a refused
        insert leaves the relation, the tree and the map as they were."""
        rng = random.Random(73)
        relation = uniform_int_relation(40, rng, value_range=(0, 6))
        index = IncrementalSelectionIndex(relation, "a")
        model = Counter(relation.rows())

        def snapshot():
            return (relation._rows[:], index._index.keys(),
                    {row: ids[:] for row, ids in index._row_ids.items()})

        refusals = [(1, "x"), ("x", 1), (1,), (1, 2, 3)]
        for step in range(600):
            live = sorted(model.elements())
            roll = rng.random()
            if roll < 0.3 and live:  # a duplicate of a live row
                row = rng.choice(live)
                index.apply(TupleChange(ChangeKind.INSERT, row))
                model[row] += 1
            elif roll < 0.5:
                row = (rng.randrange(8), rng.randrange(8))
                index.apply(TupleChange(ChangeKind.INSERT, row))
                model[row] += 1
            elif roll < 0.75 and live:
                row = rng.choice(live)
                index.apply(TupleChange(ChangeKind.DELETE, row))
                model[row] -= 1
            elif roll < 0.92 and live:  # a live key, a row that is not live
                key = rng.choice(live)[0]
                row = next((key, b) for b in range(100, 200) if model[(key, b)] == 0)
                before = snapshot()
                index.apply(TupleChange(ChangeKind.DELETE, row))
                assert snapshot() == before
            else:
                before = snapshot()
                with pytest.raises(SchemaError):
                    index.apply(TupleChange(ChangeKind.INSERT, rng.choice(refusals)))
                assert snapshot() == before
            model = +model
            assert Counter(relation.rows()) == model
            slots = {}
            for row_id, row in relation.scan():
                slots.setdefault(row, []).append(row_id)
            assert {row: sorted(ids) for row, ids in index._row_ids.items()} == slots
            for low in range(-1, 9):
                for high in (low, low + 2):
                    hit = relation.exists(lambda row: row[0] == low)
                    assert index.point_nonempty(low) == hit
                    hit = relation.exists(lambda row: low <= row[0] <= high)
                    assert index.range_nonempty(low, high) == hit


class TestIncrementalClosure:
    def test_basic_propagation(self):
        closure = IncrementalTransitiveClosure(4)
        closure.insert_edge(0, 1)
        closure.insert_edge(1, 2)
        assert closure.reachable(0, 2)
        assert not closure.reachable(2, 0)
        closure.insert_edge(2, 3)
        assert closure.reachable(0, 3)

    def test_redundant_edge_is_cheap(self):
        closure = IncrementalTransitiveClosure(64)
        closure.insert_edge(0, 1)
        cost = closure.insert_edge(0, 1)
        assert cost.work <= 3

    def test_cycle_insertion(self):
        closure = IncrementalTransitiveClosure(3)
        closure.insert_edge(0, 1)
        closure.insert_edge(1, 2)
        closure.insert_edge(2, 0)
        for u in range(3):
            for v in range(3):
                assert closure.reachable(u, v)

    def test_agrees_with_recompute_on_random_streams(self):
        rng = random.Random(72)
        for _ in range(5):
            closure = IncrementalTransitiveClosure(25)
            for _ in range(60):
                u, v = rng.randrange(25), rng.randrange(25)
                if u != v:
                    closure.insert_edge(u, v)
            assert closure.agrees_with_recompute()

    def test_incremental_cost_tracks_changed_pairs(self):
        rng = random.Random(73)
        closure = IncrementalTransitiveClosure(120)
        for _ in range(300):
            u, v = rng.randrange(120), rng.randrange(120)
            if u == v:
                continue
            log_before = closure.log.changed
            cost = closure.insert_edge(u, v)
            delta = closure.log.changed - log_before
            # Work proportional to |CHANGED| for this edge (constant factor).
            assert cost.work <= 16 * delta + 16

    def test_vertex_bounds_checked(self):
        closure = IncrementalTransitiveClosure(2)
        with pytest.raises(GraphError):
            closure.insert_edge(0, 5)
        with pytest.raises(GraphError):
            closure.reachable(5, 0)
