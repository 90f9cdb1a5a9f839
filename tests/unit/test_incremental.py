"""Unit tests for bounded incremental evaluation (Section 4(7)).

Every test drives the maintenance code mutable sessions run: selection
through a mutable ``point-selection`` / ``range-selection`` session (whose
delta hook is ``selection._apply_relation_delta``) or through the served
scheme's ``apply_delta`` when it measures cost, and the closure through
:meth:`TransitiveClosureIndex.insert_edge`, checked against a rebuilt index.
"""

import random
from collections import Counter

import pytest

from repro.catalog import CATALOG, build_query_engine
from repro.core.cost import CostTracker
from repro.core.errors import DeltaError, GraphError
from repro.graphs import Digraph
from repro.incremental import ChangeKind, TupleChange
from repro.indexes import TransitiveClosureIndex
from repro.service.frontend import protocol
from repro.service.frontend.workers import handle_frame
from repro.storage.relation import uniform_int_relation

KINDS = ("point-selection", "range-selection")


def _insert(*row):
    return TupleChange(ChangeKind.INSERT, row)


def _delete(*row):
    return TupleChange(ChangeKind.DELETE, row)


def _served(kind):
    """``(query class, scheme)`` as the engine serves ``kind``."""
    return next(row for row in CATALOG if row.name == kind).serving()


@pytest.fixture
def engine():
    with build_query_engine() as engine:
        yield engine


def _session(engine, relation):
    return engine.attach("live", relation, kinds=list(KINDS), mutable=True).warm()


def _point(ds, constant):
    return ds.query("point-selection", ("a", constant))


def _range(ds, low, high):
    return ds.query("range-selection", ("a", low, high))


class TestChangeLog:
    def test_changed_is_sum(self, engine):
        """A write acknowledges the version it published and nothing else:
        no |CHANGED| = |dD| + |dO| is claimed, locally or over the wire."""
        relation = uniform_int_relation(50, random.Random(3), value_range=(0, 20))
        ack = _session(engine, relation).apply_changes([_insert(900, 1)])
        assert ack == {"version": 1}
        value = {"changes": [_insert(900, 1), _delete(901, 1)]}
        header = protocol.request_header("apply_changes", 1, "live", value)
        response, body = handle_frame(
            engine, header, protocol.encode_body(value), protocol.CODEC_JSON
        )
        assert response["ok"]
        assert protocol.decode_body(body, protocol.CODEC_JSON) == {"version": 2}


class TestIncrementalSelection:
    @pytest.fixture
    def ds(self, engine):
        relation = uniform_int_relation(400, random.Random(70), value_range=(0, 150))
        return _session(engine, relation)

    def test_insert_visible(self, ds):
        assert not _point(ds, 9999)
        ds.apply_changes([_insert(9999, 1)])
        assert _point(ds, 9999)
        assert _range(ds, 9990, 10000)

    def test_delete_removes(self, ds):
        ds.apply_changes([_insert(7777, 2)])
        ds.apply_changes([_delete(7777, 2)])
        assert not _point(ds, 7777)

    def test_delete_of_absent_row_is_noop(self, ds):
        before, version = len(ds.dataset()), ds.version
        ds.apply_changes([_delete(123456, 0)])
        assert len(ds.dataset()) == before
        assert ds.version == version

    def test_log_counts_output_changes(self, ds):
        # A write acknowledges its version only; the output change is the
        # answer flip of the point query on the written key: the first row
        # turns it true (dO=1), the second row of the same key leaves it
        # true (dO=0).
        flips = 0
        for row in ((50000, 1), (50000, 2)):
            before = _point(ds, 50000)
            ack = ds.apply_changes([_insert(*row)])
            flips += _point(ds, 50000) != before
        assert ack == {"version": 2} and ds.version == 2
        assert flips == 1

    def test_batch_cost_bounded_by_changes_not_data(self):
        _, scheme = _served("point-selection")
        relation = uniform_int_relation(400, random.Random(70), value_range=(0, 150))
        indexes = scheme.preprocess(relation, CostTracker())
        changes = [_insert(100000 + i, 0) for i in range(10)]
        batch = CostTracker()
        scheme.apply_delta(indexes, changes, batch)
        for change in changes:
            relation.insert(change.row)
        rebuild = CostTracker()
        scheme.preprocess(relation, rebuild)
        # Ten O(log n) updates must be far cheaper than one full rebuild.
        assert batch.work * 10 < rebuild.work

    def test_queries_stay_correct_under_update_stream(self, engine):
        rng = random.Random(71)
        relation = uniform_int_relation(100, rng, value_range=(0, 60))
        ds = _session(engine, relation)
        point_class, _ = _served("point-selection")
        model = Counter(relation.rows())
        for step in range(400):
            key = rng.randrange(70)
            if rng.random() < 0.6:
                ds.apply_changes([_insert(key, step)])
                model[(key, step)] += 1
            else:
                row = next((r for r in sorted(model.elements()) if r[0] == key), None)
                if row is not None:
                    ds.apply_changes([_delete(*row)])
                    model[row] -= 1
            probe = rng.randrange(70)
            assert _point(ds, probe) == point_class.pair_in_language(
                ds.dataset(), ("a", probe))

    def test_duplicates_phantom_deletes_and_refused_inserts(self, engine):
        """A stream of duplicate rows, deletes of a row that shares a live
        key but is not itself live, and rows the schema refuses.  After every
        step both kinds answer as ``pair_in_language`` over the session's
        content, and that content equals the model multiset; a phantom delete
        is screened and a refused row raises, and neither moves the version."""
        rng = random.Random(73)
        relation = uniform_int_relation(40, rng, value_range=(0, 6))
        ds = _session(engine, relation)
        classes = {kind: _served(kind)[0] for kind in KINDS}
        model = Counter(relation.rows())

        refusals = [(1, "x"), ("x", 1), (1,), (1, 2, 3)]
        for step in range(600):
            live = sorted(model.elements())
            roll = rng.random()
            if roll < 0.3 and live:  # a duplicate of a live row
                row = rng.choice(live)
                ds.apply_changes([_insert(*row)])
                model[row] += 1
            elif roll < 0.5:
                row = (rng.randrange(8), rng.randrange(8))
                ds.apply_changes([_insert(*row)])
                model[row] += 1
            elif roll < 0.75 and live:
                row = rng.choice(live)
                ds.apply_changes([_delete(*row)])
                model[row] -= 1
            elif roll < 0.92 and live:  # a live key, a row that is not live
                key = rng.choice(live)[0]
                row = next((key, b) for b in range(100, 200) if model[(key, b)] == 0)
                version = ds.version
                ds.apply_changes([_delete(*row)])
                assert ds.version == version
            else:
                version = ds.version
                with pytest.raises(DeltaError):
                    ds.apply_changes([_insert(*rng.choice(refusals))])
                assert ds.version == version
            model = +model
            content = ds.dataset()
            assert Counter(content.rows()) == model
            for low in range(-1, 9):
                point = ("a", low)
                assert _point(ds, low) == classes["point-selection"].pair_in_language(
                    content, point)
                for high in (low, low + 2):
                    window = ("a", low, high)
                    assert _range(ds, low, high) == classes[
                        "range-selection"].pair_in_language(content, window)


def _agrees_with_rebuild(index, graph):
    rebuilt = TransitiveClosureIndex(graph)
    return all(
        index.reachable(u, v) == rebuilt.reachable(u, v)
        for u in range(graph.n)
        for v in range(graph.n)
    )


class TestIncrementalClosure:
    def test_basic_propagation(self):
        closure = TransitiveClosureIndex(Digraph(4))
        closure.insert_edge(0, 1)
        closure.insert_edge(1, 2)
        assert closure.reachable(0, 2)
        assert not closure.reachable(2, 0)
        closure.insert_edge(2, 3)
        assert closure.reachable(0, 3)

    def test_redundant_edge_is_cheap(self):
        closure = TransitiveClosureIndex(Digraph(64))
        closure.insert_edge(0, 1)
        tracker = CostTracker()
        closure.insert_edge(0, 1, tracker)
        assert tracker.work <= 3

    def test_cycle_insertion(self):
        closure = TransitiveClosureIndex(Digraph(3))
        closure.insert_edge(0, 1)
        closure.insert_edge(1, 2)
        closure.insert_edge(2, 0)
        for u in range(3):
            for v in range(3):
                assert closure.reachable(u, v)

    def test_agrees_with_recompute_on_random_streams(self):
        rng = random.Random(72)
        for _ in range(5):
            graph = Digraph(25)
            closure = TransitiveClosureIndex(graph)
            for _ in range(60):
                u, v = rng.randrange(25), rng.randrange(25)
                if u != v:
                    graph.add_edge(u, v)
                    closure.insert_edge(u, v)
            assert _agrees_with_rebuild(closure, graph)

    def test_incremental_cost_tracks_changed_pairs(self):
        """Past the first write, an insert's work is a constant factor of
        the pairs it adds (|dO|).  The first write on a built or loaded index
        also derives the ancestor sets: exactly one unit more per reachable
        component pair, which a twin loaded from the same state shows on the
        same edge (every component here is one vertex, so component pairs
        are vertex pairs)."""
        rng = random.Random(73)
        closure = TransitiveClosureIndex(Digraph(120))
        first = True
        for _ in range(300):
            u, v = rng.randrange(120), rng.randrange(120)
            if u == v:
                continue
            pairs = closure.reachable_pair_count()
            twin = TransitiveClosureIndex.from_state(closure.to_state())
            tracker, twin_tracker = CostTracker(), CostTracker()
            new_pairs = closure.insert_edge(u, v, tracker)
            assert twin.insert_edge(u, v, twin_tracker) == new_pairs
            if first:
                assert tracker.work - pairs <= 16 * new_pairs + 16
                first = False
                continue
            # Work proportional to |CHANGED| for this edge (constant factor).
            assert tracker.work <= 16 * new_pairs + 16
            # The twin's first write: a redundant edge derives nothing.
            assert twin_tracker.work - tracker.work == (pairs if new_pairs else 0)

    def test_vertex_bounds_checked(self):
        closure = TransitiveClosureIndex(Digraph(2))
        with pytest.raises(GraphError):
            closure.insert_edge(0, 5)
        with pytest.raises(GraphError):
            closure.reachable(5, 0)
