"""Lock-free versioned reads for mutable datasets (ISSUE 8).

Headliners:

* ``test_versioned_stress_never_torn`` -- 4 reader threads race 2 writer
  threads over each of the five delta-maintained kinds; every batch-atomic
  read must be consistent with some fully-applied version (each writer
  maintains an exactly-one-of-two invariant over elements it owns, so a
  torn snapshot shows up as both-or-neither).
* ``test_mutable_serve_path_is_latch_free`` -- the serve path (untracked
  and tracked) never waits on a ``Condition``; readers complete even while
  a writer holds the writer mutex.
* Regression pins for two satellite bugfixes: invisible failed serves
  (``serve_errors``) and change payloads outside the plain-value vocabulary.
"""

from __future__ import annotations

import threading

import pytest

from repro.catalog import build_query_engine
from repro.core.cost import CostTracker
from repro.core.errors import DeltaError
from repro.core.query import PiScheme, state_codec
from repro.graphs.graph import Digraph
from repro.incremental.changes import (
    ChangeKind,
    EdgeChange,
    PointWrite,
    TupleChange,
)
from repro.service.engine import EngineStats, QueryEngine
from repro.service.mutable import MutableContent
from repro.queries import membership_class, sorted_run_scheme


def _insert(*row):
    return TupleChange(ChangeKind.INSERT, tuple(row))


def _delete(*row):
    return TupleChange(ChangeKind.DELETE, tuple(row))


# -- 4 readers / 2 writers over all five delta-maintained kinds ----------------

_M = 10**6
_P = 10**7

#: Per kind: dataset, pre-thread setup batch, two writers (each an
#: alternating [forward, backward] batch pair over elements only that
#: writer touches), the probe list, and the invariant every batch-atomic
#: answer vector must satisfy in *any* fully-applied version.
_STRESS_CASES = {
    "list-membership": dict(
        data=tuple(range(64)) + (10001, 10003),
        setup=None,
        writers=[
            ([_delete(10001), _insert(10002)], [_delete(10002), _insert(10001)]),
            ([_delete(10003), _insert(10004)], [_delete(10004), _insert(10003)]),
        ],
        probes=[10001, 10002, 10003, 10004],
        check=lambda a: a[0] != a[1] and a[2] != a[3],
    ),
    "point-selection": dict(
        data=None,  # sample relation, filled in by the test
        setup=[_insert(_P + 1, 0), _insert(_P + 3, 0)],
        writers=[
            ([_delete(_P + 1, 0), _insert(_P + 2, 0)],
             [_delete(_P + 2, 0), _insert(_P + 1, 0)]),
            ([_delete(_P + 3, 0), _insert(_P + 4, 0)],
             [_delete(_P + 4, 0), _insert(_P + 3, 0)]),
        ],
        probes=[("a", _P + 1), ("a", _P + 2), ("a", _P + 3), ("a", _P + 4)],
        check=lambda a: a[0] != a[1] and a[2] != a[3],
    ),
    "minimum-range-query": dict(
        # Writer 0 owns positions 0/1, writer 1 owns 2/3: exactly one of
        # each pair holds the window minimum (-M vs +M) in any version.
        data=(-_M, _M, -_M, _M) + tuple(range(100, 160)),
        setup=None,
        writers=[
            ([PointWrite(0, _M), PointWrite(1, -_M)],
             [PointWrite(0, -_M), PointWrite(1, _M)]),
            ([PointWrite(2, _M), PointWrite(3, -_M)],
             [PointWrite(2, -_M), PointWrite(3, _M)]),
        ],
        probes=[(0, 1, 0), (0, 1, 1), (2, 3, 2), (2, 3, 3)],
        check=lambda a: a[0] != a[1] and a[2] != a[3],
    ),
    "topk-threshold": dict(
        # Exactly one high-scoring row per writer in any version, so the
        # count of rows with weighted score >= 9999 is always exactly 2: a
        # torn batch shows up as a 1- or 3-row count.
        data=None,  # sample table + the two initial high rows
        setup=None,
        writers=[
            ([_delete(5000, 5000), _insert(6000, 6000)],
             [_delete(6000, 6000), _insert(5000, 5000)]),
            ([_delete(7000, 7000), _insert(8000, 8000)],
             [_delete(8000, 8000), _insert(7000, 7000)]),
        ],
        probes=[((1, 1), 2, 9999), ((1, 1), 3, 9999)],
        check=lambda a: a[0] is True and a[1] is False,
    ),
    "reachability": dict(
        # Each batch contains an edge delete, which the insert-only closure
        # maintenance refuses -- every write goes through the fallback
        # rebuild, stressing the rebuild-then-publish path.
        data=Digraph(8, [(0, 1), (4, 5)]),
        setup=None,
        writers=[
            ([EdgeChange(ChangeKind.DELETE, 0, 1), EdgeChange(ChangeKind.INSERT, 2, 3)],
             [EdgeChange(ChangeKind.DELETE, 2, 3), EdgeChange(ChangeKind.INSERT, 0, 1)]),
            ([EdgeChange(ChangeKind.DELETE, 4, 5), EdgeChange(ChangeKind.INSERT, 6, 7)],
             [EdgeChange(ChangeKind.DELETE, 6, 7), EdgeChange(ChangeKind.INSERT, 4, 5)]),
        ],
        probes=[(0, 1), (2, 3), (4, 5), (6, 7)],
        check=lambda a: a[0] != a[1] and a[2] != a[3],
    ),
}


@pytest.mark.parametrize("kind", sorted(_STRESS_CASES))
def test_versioned_stress_never_torn(kind):
    case = _STRESS_CASES[kind]
    batches_per_writer = 12 if kind == "reachability" else 30
    with build_query_engine() as engine:
        data = case["data"]
        if data is None:
            query_class, _ = engine.registration(kind)
            if kind == "point-selection":
                data, _queries = query_class.sample_workload(64, 5, 0)
            else:  # topk-threshold
                table, _queries = query_class.sample_workload(48, 11, 0)
                data = tuple(table) + ((5000, 5000), (7000, 7000))
        ds = engine.attach("stress", data, kinds=[kind], mutable=True)
        if case["setup"]:
            ds.apply_changes(case["setup"])
        requests = [(kind, probe) for probe in case["probes"]]
        assert case["check"](ds.query_batch(requests)), "initial state"
        violations = []
        done = threading.Event()

        def read_loop():
            while not done.is_set():
                answers = ds.query_batch(requests)
                if not case["check"](answers):
                    violations.append(answers)
                    return

        def write_loop(writer):
            forward, backward = case["writers"][writer]
            for step in range(batches_per_writer):
                ds.apply_changes(forward if step % 2 == 0 else backward)

        readers = [threading.Thread(target=read_loop) for _ in range(4)]
        writers = [
            threading.Thread(target=write_loop, args=(writer,))
            for writer in range(2)
        ]
        for thread in readers + writers:
            thread.start()
        for thread in writers:
            thread.join()
        done.set()
        for thread in readers:
            thread.join()
        assert not violations, f"torn snapshot(s) observed: {violations[:3]}"
        setup_batches = 1 if case["setup"] else 0
        assert ds.version == 2 * batches_per_writer + setup_batches
        assert case["check"](ds.query_batch(requests)), "final state"
        ds.detach()


# -- the serve path is latch-free ----------------------------------------------


def test_mutable_serve_path_is_latch_free(monkeypatch):
    """No Condition.wait while serving, on either evaluator."""
    with QueryEngine() as engine:
        engine.register("membership", membership_class(), sorted_run_scheme())
        ds = engine.attach("events", (1, 2, 3), mutable=True)
        # Materialize the structure before arming the tripwire.
        assert ds.query("membership", 2) is True

        def tripwire(*args, **kwargs):
            raise AssertionError("shared lock touched on the serve path")

        monkeypatch.setattr(threading.Condition, "wait", tripwire)
        try:
            assert ds.query("membership", 2) is True
            assert ds.query_batch([("membership", 2), ("membership", 9)]) == [
                True,
                False,
            ]
            assert ds.query_tracked("membership", 3) is True
            assert ds.query_tracked("membership", 9) is False
        finally:
            monkeypatch.undo()
        ds.detach()


def test_readers_complete_while_writer_mutex_is_held():
    """A reader never blocks on the writers' mutex: holding it for the
    whole test must not delay a concurrent query."""
    with QueryEngine() as engine:
        engine.register("membership", membership_class(), sorted_run_scheme())
        ds = engine.attach("events", (1, 2, 3), mutable=True)
        assert ds.query("membership", 1) is True  # materialize first
        mutex = ds._mutable._versions.writer_mutex
        results = []
        assert mutex.acquire(timeout=1)
        try:
            reader = threading.Thread(
                target=lambda: results.append(
                    ds.query_batch([("membership", 1), ("membership", 9)])
                )
            )
            reader.start()
            reader.join(timeout=5)
            assert not reader.is_alive(), "reader blocked on the writer mutex"
        finally:
            mutex.release()
        assert results == [[True, False]]
        ds.detach()


# -- satellite: failed serves are visible in stats -----------------------------


def _boom_scheme() -> PiScheme:
    def preprocess(data, tracker):
        return tuple(data)

    def evaluate(structure, query, tracker):
        raise RuntimeError("kernel boom")

    dump, load = state_codec(from_state=tuple, to_state=list)
    return PiScheme(
        name="boom", preprocess=preprocess, evaluate=evaluate, dump=dump, load=load
    )


def test_serve_errors_counted_for_mutable_sessions():
    with QueryEngine() as engine:
        engine.register("boom", membership_class(), _boom_scheme())
        ds = engine.attach("events", (1, 2, 3), mutable=True)
        with pytest.raises(RuntimeError, match="kernel boom"):
            ds.query("boom", 1)
        with pytest.raises(RuntimeError, match="kernel boom"):
            ds.query_batch([("boom", 1), ("boom", 2)])
        stats = engine.stats().per_kind["boom"]
        assert stats.serve_errors == 3  # one single + a batch of two
        assert stats.queries == 0  # successes only
        assert engine.stats().health()["serve_errors"] == 3
        ds.detach()


def test_serve_errors_counted_for_immutable_plans_and_handles():
    """Immutable plans count failed serves on both evaluators, and so does
    the tracked path of a mutable session (the path handles used to serve)."""
    with QueryEngine() as engine:
        engine.register("boom", membership_class(), _boom_scheme())
        ds = engine.attach("events", (1, 2, 3))
        with pytest.raises(RuntimeError, match="kernel boom"):
            ds.query("boom", 1)
        with pytest.raises(RuntimeError, match="kernel boom"):
            ds.query_tracked("boom", 1)
        live = engine.attach("live", (4, 5), mutable=True)
        with pytest.raises(RuntimeError, match="kernel boom"):
            live.query_tracked("boom", 4)
        stats = engine.stats().per_kind["boom"]
        assert stats.serve_errors == 3
        assert stats.queries == 0
        live.detach()
        ds.detach()


@pytest.mark.parametrize("shards, mutable", [(1, False), (4, False), (1, True), (4, True)])
def test_serve_errors_counted_for_every_storage_shape(shards, mutable):
    """A malformed query that fails while being routed or evaluated is
    counted on every shape: single, tracked and batch serves alike."""
    from repro.core.errors import IndexError_

    kind, bad = "minimum-range-query", (5, 2, 3)
    with build_query_engine() as engine:
        ds = engine.attach(
            "d", tuple(range(64)), kinds=[kind], shards=shards, mutable=mutable
        )
        with pytest.raises(IndexError_):
            ds.query(kind, bad)
        with pytest.raises(IndexError_):
            ds.query_tracked(kind, bad, CostTracker())
        with pytest.raises(IndexError_):
            ds.query_batch([(kind, (0, 3, 1)), (kind, (2, 9, 4)), (kind, bad)])
        stats = engine.stats().per_kind[kind]
        assert (stats.serve_errors, stats.queries) == (5, 0)


def test_serve_errors_is_a_health_field():
    assert "serve_errors" in EngineStats.HEALTH_FIELDS


# -- satellite: change payloads are plain values ------------------------------


def test_lineage_rejects_unstable_change_values():
    """Validation refuses payloads outside the change vocabulary (numbers,
    strings, bytes, None and tuples/lists of those) and unknown records."""

    class Opaque:
        """Default repr embeds the memory address: unstable per process."""

    content = MutableContent((1, 2, 3))
    for change in (
        PointWrite(0, Opaque()),
        PointWrite(0, frozenset({1, 2})),  # iteration follows hash order
        TupleChange(ChangeKind.INSERT, (Opaque(),)),
        object(),  # unknown change record type
    ):
        with pytest.raises(DeltaError):
            content.validate([change])
    content.validate([PointWrite(0, 2.5), PointWrite(1, True)])  # numbers order against ints
    assert content.working == [1, 2, 3]  # validation never mutates
    # A flat value must also order against flat content; rows hold any plain tuple.
    rows = MutableContent([(0, "a", b"a", None, 0.5, False)])
    rows.validate([PointWrite(0, (1, "x", b"y", None, 2.5, True))])


def test_unstable_change_rejected_before_anything_mutates():
    class Opaque:
        pass

    with QueryEngine() as engine:
        engine.register("membership", membership_class(), sorted_run_scheme())
        ds = engine.attach("events", (1, 2, 3), mutable=True).warm()
        with pytest.raises(DeltaError):
            ds.apply_changes([PointWrite(0, Opaque())])
        assert ds.version == 0  # batch atomicity: nothing applied
        assert ds.query("membership", 1) is True
        assert ds.query_tracked("membership", 1) is True
