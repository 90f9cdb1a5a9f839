"""Unit tests for the mutable-dataset write path (ISSUE 3).

Headliners:

* ``test_readers_never_observe_torn_snapshot`` -- N reader threads race one
  writer applying invariant-preserving batches; every batch-atomic read must
  be consistent with some fully-applied version.
* ``test_delta_equals_full_rebuild_*`` -- after a change batch, the
  delta-maintained structure answers exactly like a from-scratch build over
  the post-batch dataset, for every delta-capable kind.
* ``test_invalidate_evicts_build_locks`` -- the regression guard for the
  per-key build-lock leak under attach/detach churn.

Every dataset here is a mutable session
(``engine.attach(name, data, kinds=[kind], mutable=True)``); reads assert
``ds.query == ds.query_tracked`` so the untracked kernels and the analytic
evaluator are both pinned against the oracle.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import replace

import pytest

from repro.catalog import build_query_engine
from repro.core.errors import DeltaError, ServiceError
from repro.graphs.graph import Digraph
from repro.incremental.changes import ChangeKind, EdgeChange, PointWrite, TupleChange
from repro.queries import (
    fischer_heun_scheme,
    membership_class,
    rmq_class,
    sorted_run_scheme,
)
from repro.service import ArtifactStore
from repro.service.engine import QueryEngine


def _insert(*row):
    return TupleChange(ChangeKind.INSERT, tuple(row))


def _delete(*row):
    return TupleChange(ChangeKind.DELETE, tuple(row))


def _open(engine, kind, data, name="live", shards=1):
    """A warmed single-kind mutable session: the structure is materialized
    up front, so the first change batch already folds through the delta
    hook instead of deferring the build to the next read."""
    return engine.attach(name, data, kinds=[kind], shards=shards, mutable=True).warm()


def _ask(ds, kind, query):
    """One read through both evaluators; they must agree."""
    answer = ds.query(kind, query)
    assert ds.query_tracked(kind, query) == answer, (kind, query)
    return answer


# -- snapshot consistency under concurrency ------------------------------------


def test_readers_never_observe_torn_snapshot():
    """4 readers + 1 writer: the dataset always contains exactly one of
    {LEFT, RIGHT} (each batch deletes one and inserts the other atomically),
    so a batch-atomic read must never see both or neither."""
    LEFT, RIGHT, BATCHES = 10_001, 10_002, 150
    with QueryEngine() as engine:
        engine.register("membership", membership_class(), sorted_run_scheme())
        ds = _open(engine, "membership", tuple(range(64)) + (LEFT,))
        violations = []
        done = threading.Event()

        def read_loop():
            while not done.is_set():
                left, right = ds.query_batch(
                    [("membership", LEFT), ("membership", RIGHT)]
                )
                if left == right:
                    violations.append((left, right, ds.version))

        readers = [threading.Thread(target=read_loop) for _ in range(4)]
        for thread in readers:
            thread.start()
        try:
            for step in range(BATCHES):
                if step % 2 == 0:
                    ds.apply_changes([_delete(LEFT), _insert(RIGHT)])
                else:
                    ds.apply_changes([_delete(RIGHT), _insert(LEFT)])
        finally:
            done.set()
            for thread in readers:
                thread.join()
        assert not violations, f"torn snapshots observed: {violations[:5]}"
        assert ds.version == BATCHES
        stats = engine.stats().per_kind["membership"]
        assert stats.delta_batches == BATCHES


# -- delta-apply equals full rebuild, per kind ---------------------------------


def _equivalence_check(engine, kind, ds, queries):
    """Session answers == naive oracle == fresh build over the snapshot."""
    query_class, _ = engine.registration(kind)
    snapshot = ds.dataset()
    with engine.attach("fresh", snapshot, kinds=[kind]) as fresh:
        for query in queries:
            expected = query_class.pair_in_language(snapshot, query)
            assert _ask(ds, kind, query) == expected, (kind, query)
            assert fresh.query(kind, query) == expected


@pytest.mark.parametrize("shards", [1, 4])
def test_delta_equals_full_rebuild_membership(shards):
    with build_query_engine() as engine:
        kind = "list-membership"
        query_class, _ = engine.registration(kind)
        data, queries = query_class.sample_workload(96, 3, 10)
        ds = _open(engine, kind, data, shards=shards)
        ds.apply_changes(
            [_insert(10**6), _insert(data[0]), _delete(data[1]), _delete(-1)]
        )
        _equivalence_check(engine, kind, ds, list(queries) + [10**6, data[1]])
        stats = engine.stats().per_kind[kind]
        if shards == 1:
            assert stats.delta_batches == 1 and stats.fallback_rebuilds == 0
        else:
            # Sharded kinds fall back to the touched-shard rebuild of PR 2.
            assert stats.fallback_rebuilds == 1


def test_delta_equals_full_rebuild_selection():
    with build_query_engine() as engine:
        for kind in ("point-selection", "range-selection"):
            query_class, _ = engine.registration(kind)
            data, queries = query_class.sample_workload(64, 5, 10)
            ds = _open(engine, kind, data, name=kind)
            victim = data.rows()[0]
            ds.apply_changes([_delete(*victim), _insert(7, 7), _insert(7, 7)])
            extra = [("a", 7), ("b", 7)] if kind == "point-selection" else [("a", 6, 8)]
            _equivalence_check(engine, kind, ds, list(queries) + extra)
            stats = engine.stats().per_kind[kind]
            assert stats.delta_batches == 1 and stats.fallback_rebuilds == 0


def test_delta_equals_full_rebuild_rmq():
    with build_query_engine() as engine:
        kind = "minimum-range-query"
        query_class, _ = engine.registration(kind)
        data, queries = query_class.sample_workload(80, 9, 10)
        ds = _open(engine, kind, data)
        ds.apply_changes([PointWrite(0, -10**6), PointWrite(41, 10**6)])
        extra = [(0, len(data) - 1, 0), (1, 50, 41)]
        _equivalence_check(engine, kind, ds, list(queries) + extra)
        assert engine.stats().per_kind[kind].delta_batches == 1


def test_delta_equals_full_rebuild_topk():
    with build_query_engine() as engine:
        kind = "topk-threshold"
        query_class, _ = engine.registration(kind)
        data, queries = query_class.sample_workload(48, 11, 10)
        ds = _open(engine, kind, data)
        ds.apply_changes(
            [_insert(2000, 2000), _delete(*data[0]), _delete(9999, 9999)]
        )
        extra = [((1, 1), 1, 3999), ((1, 1), 1, 4001)]
        _equivalence_check(engine, kind, ds, list(queries) + extra)
        assert engine.stats().per_kind[kind].delta_batches == 1


def test_delta_equals_full_rebuild_reachability():
    with build_query_engine() as engine:
        kind = "reachability"
        graph = Digraph(24, [(u, u + 1) for u in range(0, 22, 2)])
        ds = _open(engine, kind, graph)
        ds.apply_changes(
            [
                EdgeChange(ChangeKind.INSERT, 1, 2),
                EdgeChange(ChangeKind.INSERT, 3, 4),
                EdgeChange(ChangeKind.INSERT, 5, 0),  # closes a cycle
            ]
        )
        probes = [(0, 6), (0, 23), (5, 1), (4, 0), (7, 7)]
        _equivalence_check(engine, kind, ds, probes)
        stats = engine.stats().per_kind[kind]
        assert stats.delta_batches == 1 and stats.fallback_rebuilds == 0
        # Deletes are outside the insert-only closure maintenance: fall back.
        ds.apply_changes([EdgeChange(ChangeKind.DELETE, 5, 0)])
        _equivalence_check(engine, kind, ds, probes)
        assert engine.stats().per_kind[kind].fallback_rebuilds == 1


def test_sharded_fallback_rebuilds_only_touched_shards(tmp_path):
    with build_query_engine(store=ArtifactStore(tmp_path)) as engine:
        kind = "list-membership"
        data = tuple(range(256))
        ds = _open(engine, kind, data, shards=8)  # warmed: every shard hot
        before = engine.stats().per_kind[kind]
        ds.apply_changes([_insert(100_000)])
        after = engine.stats().per_kind[kind]
        assert after.fallback_rebuilds - before.fallback_rebuilds == 1
        # A single inserted element lands in one hash bucket: one shard built.
        assert after.shard_builds - before.shard_builds == 1
        assert _ask(ds, kind, 100_000) is True and _ask(ds, kind, 99_999) is False


# -- versioning and write-behind persistence -----------------------------------


def test_versioned_write_behind_persistence(tmp_path):
    store = ArtifactStore(tmp_path)
    with QueryEngine(store=store) as engine:
        engine.register("membership", membership_class(), sorted_run_scheme())
        ds = _open(engine, "membership", (1, 2, 3))
        base_key = ds.artifact_key("membership")
        assert ds.version == 0
        ds.apply_changes([_insert(42)])
        assert ds.version == 1
        ds.flush()
        key = ds.artifact_key("membership")
        assert key != base_key  # version folded into the fingerprint
        payload = store.get(key)
        assert payload is not None
        reloaded = sorted_run_scheme().load(payload)
        assert reloaded.contains(42) and not reloaded.contains(43)


def test_shared_structure_is_persisted_once_per_version(tmp_path):
    """Point- and range-selection over one relation are one lineage
    artifact: write-behind dumps and ``put``s it once per version, not once
    per kind, and a failing store is still reported by ``flush()``."""
    from repro.core.errors import WriteBehindError

    store = ArtifactStore(tmp_path)
    with build_query_engine(store=store) as engine:
        kinds = ["point-selection", "range-selection"]
        data, _ = engine.registration(kinds[0])[0].sample_workload(64, 5, 10)
        ds = engine.attach("rel", data, kinds=kinds, mutable=True).warm()
        assert ds.artifact_key(kinds[0]) == ds.artifact_key(kinds[1])
        puts, real_put = [], store.put
        store.put = lambda key, payload: (puts.append(key), real_put(key, payload))[1]
        for version in (1, 2):
            ds.apply_changes([_insert(7, version)])
            ds.flush()
            assert puts == [ds.artifact_key(kinds[0])], puts
            assert store.get(puts.pop()) is not None
        undo = _break_store(store)
        ds.apply_changes([_insert(7, 3)])
        with pytest.raises(WriteBehindError, match="selection") as excinfo:
            ds.flush()
        assert isinstance(excinfo.value.__cause__, OSError)
        undo()
        store.put = real_put
        ds.flush()  # healed: the one shared artifact lands, the error clears
        assert store.get(ds.artifact_key(kinds[1])) is not None


def test_write_behind_keeps_one_lineage_artifact_per_slot(tmp_path):
    """Twenty flushed batches used to leave twenty-one O(|D|) files nothing
    reads; each landed put now deletes the lineage file it superseded --
    never version 0, the content-addressed key other sessions hit."""
    store = ArtifactStore(tmp_path)
    with build_query_engine(store=store) as engine:
        kind = "minimum-range-query"
        ds = _open(engine, kind, tuple(range(64, 0, -1)))
        base_key = ds.artifact_key(kind)
        for version in range(1, 21):
            ds.apply_changes([PointWrite(version, -version)])
            ds.flush()
            assert set(store.keys()) == {base_key, ds.artifact_key(kind)}
        scheme = engine.registration(kind)[1]
        current = scheme.load(store.get(ds.artifact_key(kind)))
        assert current.argmin(0, 63) == 20
        # Version 0 still serves a fresh session over the original content.
        assert scheme.load(store.get(base_key)).argmin(0, 63) == 63


def test_fallback_rebuilds_leave_one_lineage_artifact(tmp_path):
    """A fallback rebuild used to resolve by content: one artifact (and one
    cache entry) per rebuilt version that nothing reads again.  It now builds
    in memory and persists to the session's lineage slot like a delta, so k
    rebuilds leave the store where one left it -- and the latest is loadable
    by a process that never saw the session."""
    store = ArtifactStore(tmp_path)
    kind = "reachability"
    with build_query_engine(store=store) as engine:
        ds = _open(engine, kind, Digraph(8, [(0, 1), (1, 2)]))
        base_key, counts = ds.artifact_key(kind), []
        for vertex in range(3, 7):
            ds.apply_changes([EdgeChange(ChangeKind.INSERT, 2, vertex)])  # delta
            ds.apply_changes([EdgeChange(ChangeKind.DELETE, 2, vertex)])  # rebuild
            ds.apply_changes([EdgeChange(ChangeKind.INSERT, vertex - 1, vertex)])
            ds.flush()
            counts.append(len(list(store.keys())))
            assert set(store.keys()) == {base_key, ds.artifact_key(kind)}
        assert engine.stats().per_kind[kind].fallback_rebuilds == 4
        assert counts == [2, 2, 2, 2]
        latest = ds.artifact_key(kind)
        assert _ask(ds, kind, (0, 6)) is True and _ask(ds, kind, (6, 0)) is False
    scheme = build_query_engine().registration(kind)[1]
    restarted = scheme.load(ArtifactStore(tmp_path).get(latest))
    assert scheme.answer(restarted, (0, 6)) is True
    assert scheme.answer(restarted, (2, 0)) is False


def test_resumed_session_counts_on_from_the_snapshot_version():
    """A re-homed dataset is attached from a snapshot taken at version v:
    its next batch is v + 1, and the count never moves backwards."""
    with QueryEngine() as engine:
        engine.register("membership", membership_class(), sorted_run_scheme())
        ds = _open(engine, "membership", (1, 2, 3))
        ds.resume_at(4)
        assert ds.version == 4 and _ask(ds, "membership", 3) is True
        ds.apply_changes([_insert(9)])
        assert ds.version == 5 and _ask(ds, "membership", 9) is True
        ds.resume_at(2)
        assert ds.version == 5


def test_close_flushes_and_detaches(tmp_path):
    store = ArtifactStore(tmp_path)
    engine = QueryEngine(store=store)
    engine.register("membership", membership_class(), sorted_run_scheme())
    ds = _open(engine, "membership", (1, 2, 3))
    ds.apply_changes([_insert(7)])
    key = ds.artifact_key("membership")
    engine.close()  # detaches (and flushes) the session too
    assert ds.detached
    assert store.get(key) is not None
    with pytest.raises(ServiceError, match="detached"):
        ds.query("membership", 7)
    with pytest.raises(ServiceError, match="detached"):
        ds.apply_changes([_insert(8)])


def test_noop_and_malformed_batches_are_atomic():
    with QueryEngine() as engine:
        engine.register("membership", membership_class(), sorted_run_scheme())
        ds = _open(engine, "membership", (1, 2, 3))
        # Deletes of absent elements screen to a no-op: no version bump.
        ds.apply_changes([_delete(99)])
        assert ds.version == 0
        # A malformed change rejects the whole batch before anything applies.
        with pytest.raises(DeltaError):
            ds.apply_changes([_insert(5), TupleChange(ChangeKind.INSERT, (1, 2))])
        assert ds.version == 0 and _ask(ds, "membership", 5) is False
        with pytest.raises(DeltaError):
            ds.apply_changes([PointWrite(99, 5)])  # out of range
        assert ds.version == 0


def test_mutable_attach_leaves_caller_object_untouched():
    with QueryEngine() as engine:
        engine.register("membership", membership_class(), sorted_run_scheme())
        data = [1, 2, 3]
        ds = _open(engine, "membership", data)
        ds.apply_changes([_insert(4), _delete(1)])
        assert data == [1, 2, 3]
        assert ds.dataset() == (2, 3, 4)
        # An immutable session over the original data is unaffected.
        frozen = engine.attach("frozen", data)
        assert frozen.query("membership", 1) is True
        assert frozen.query("membership", 4) is False


def test_handle_mutations_do_not_corrupt_engine_cache():
    """A mutable session privatizes its structure: serving the same content
    through an immutable session after mutations must still match the
    original content (the cached artifact was never mutated in place)."""
    with QueryEngine() as engine:
        engine.register("membership", membership_class(), sorted_run_scheme())
        data = tuple(range(32))
        frozen = engine.attach("frozen", data)
        assert frozen.query("membership", 31) is True  # cache it
        ds = _open(engine, "membership", data)
        ds.apply_changes([_delete(31)])
        assert _ask(ds, "membership", 31) is False
        assert frozen.query_tracked("membership", 31) is True
        frozen.detach()  # a fresh plan re-resolves the shared cached artifact
        assert engine.attach("again", data).query("membership", 31) is True


# -- the build-lock leak regression (ISSUE 3 satellite fix) --------------------


def test_invalidate_evicts_build_locks():
    engine = QueryEngine()
    engine.register("membership", membership_class(), sorted_run_scheme())
    ds = engine.attach("d", [1, 2, 3])
    key = ds.artifact_key("membership")
    # Simulate a lock entry parked by an interrupted resolve.
    engine._build_lock(key)
    assert key in engine._build_locks
    ds.detach()
    assert key not in engine._build_locks


def test_build_lock_map_stays_empty_under_churn():
    with build_query_engine(max_workers=4) as engine:
        data = list(range(16))
        for round_number in range(25):
            engine.attach("churn", data, kinds=["list-membership"])
            pairs = [("list-membership", value) for value in range(8)]
            assert engine.dataset("churn").query_batch(pairs) == [True] * 8
            data.append(100 + round_number)
            engine.detach("churn")
        assert engine._build_locks == {}


def test_point_writes_keep_delete_screening_in_step():
    """Regression: a PointWrite swaps one bag element for another, so later
    deletes of the old/new values must screen correctly (review finding)."""
    with QueryEngine() as engine:
        engine.register("membership", membership_class(), sorted_run_scheme())
        ds = _open(engine, "membership", (1, 2, 3))
        # PointWrite is outside the sorted-run hook vocabulary: falls back,
        # but the bag counts must still track the overwrite.
        ds.apply_changes([PointWrite(0, 99), PointWrite(0, 98)])
        assert ds.dataset() == (98, 2, 3)
        ds.apply_changes([_delete(98)])  # the new value is deletable
        assert _ask(ds, "membership", 98) is False
        version = ds.version
        ds.apply_changes([_delete(1)])  # the overwritten value is gone
        assert ds.version == version  # screened as a no-op
        assert _ask(ds, "membership", 2) is True
        assert _ask(ds, "membership", 1) is False


def test_divergent_histories_never_share_versioned_artifacts(tmp_path):
    """Regression: two sessions over equal base data but different change
    histories must persist under distinct keys (review finding)."""
    store = ArtifactStore(tmp_path)
    with QueryEngine(store=store) as engine:
        engine.register("membership", membership_class(), sorted_run_scheme())
        first = _open(engine, "membership", (1, 2, 3), name="first")
        second = _open(engine, "membership", (1, 2, 3), name="second")
        key_of = lambda ds: ds.artifact_key("membership")
        assert key_of(first) == key_of(second)  # same v0 content
        first.apply_changes([_insert(500)])
        second.apply_changes([_insert(777)])
        assert key_of(first) != key_of(second)
        first.flush()
        second.flush()
        reloaded = sorted_run_scheme().load(store.get(key_of(first)))
        assert reloaded.contains(500) and not reloaded.contains(777)
        # Identical histories converge to the same key (safe overwrite).
        third = _open(engine, "membership", (1, 2, 3), name="third")
        third.apply_changes([_insert(500)])
        assert key_of(third) == key_of(first)


def test_changelog_counts_each_change_once():
    with QueryEngine() as engine:
        engine.register("membership", membership_class(), sorted_run_scheme())
        ds = _open(engine, "membership", (1, 2, 3))
        log = ds.apply_changes([_delete(42)])  # fully screened
        assert log.input_changes == 1
        log = ds.apply_changes([_insert(5), _delete(43)])  # partially screened
        assert log.input_changes == 3


def test_mutable_attach_unknown_kind_and_unsupported_data():
    with QueryEngine() as engine:
        engine.register("membership", membership_class(), sorted_run_scheme())
        with pytest.raises(ServiceError, match="no scheme registered"):
            engine.attach("d", (1, 2), kinds=["nope"], mutable=True)
        with pytest.raises(ServiceError, match="mutable serving supports"):
            engine.attach("d", {"a", "set"}, mutable=True)


# -- write-behind failures surface loudly (ISSUE 7 satellite) ------------------


def _break_store(store):
    """Make every put fail like a full disk; returns the undo callable."""
    original = store.put

    def failing_put(key, payload):
        raise OSError(28, "No space left on device (injected)")

    store.put = failing_put
    return lambda: setattr(store, "put", original)


def test_handle_flush_reraises_terminal_writebehind_error(tmp_path):
    """A dead store must not silently strand a dirty version: flush()
    raises WriteBehindError with the store failure as the cause, while the
    in-memory structure keeps serving the current version."""
    from repro.core.errors import WriteBehindError
    from repro.service.faults import FaultPlan, RecoveryPolicy

    engine = QueryEngine(store=ArtifactStore(tmp_path))
    engine.register("membership", membership_class(), sorted_run_scheme())
    ds = _open(engine, "membership", (1, 2, 3))
    restore = _break_store(engine._store)
    # Fast retries: the broken store is the point, not the backoff.
    # An empty plan injects nothing; arming it just swaps in fast retries.
    fast = FaultPlan([], policy=RecoveryPolicy(
        writebehind_attempts=2, writebehind_backoff_seconds=0.001))
    with fast.armed():
        ds.apply_changes([_insert(9)])
        with pytest.raises(WriteBehindError) as excinfo:
            ds.flush()
    assert isinstance(excinfo.value.__cause__, OSError)
    assert _ask(ds, "membership", 9)  # memory stays current; only durability lagged
    assert engine.stats().per_kind["membership"].writebehind_failures >= 1
    restore()
    ds.flush()  # store healed: the stored error clears
    ds.detach()
    engine.close()


def test_handle_close_reraises_writebehind_error_but_still_detaches(tmp_path):
    from repro.core.errors import WriteBehindError
    from repro.service.faults import FaultPlan, RecoveryPolicy

    engine = QueryEngine(store=ArtifactStore(tmp_path))
    engine.register("membership", membership_class(), sorted_run_scheme())
    ds = _open(engine, "membership", (1, 2, 3))
    _break_store(engine._store)
    fast = FaultPlan([], policy=RecoveryPolicy(
        writebehind_attempts=1, writebehind_backoff_seconds=0.001))
    with fast.armed():
        ds.apply_changes([_insert(9)])
        with pytest.raises(WriteBehindError):
            ds.detach()
    assert ds.detached  # shutdown never wedges on a dead store
    with pytest.raises(ServiceError):
        ds.query("membership", 9)
    assert engine.datasets() == []
    engine.close()  # the name was released: engine teardown is clean


def test_engine_close_surfaces_session_writebehind_error_and_still_closes(tmp_path):
    """Mutable Dataset sessions propagate the same way: detach-at-close
    flushes, and a terminal store failure escapes engine.close() *after*
    the full teardown finished."""
    from repro.core.errors import WriteBehindError
    from repro.service.faults import FaultPlan, RecoveryPolicy

    engine = QueryEngine(store=ArtifactStore(tmp_path))
    engine.register("membership", membership_class(), sorted_run_scheme())
    ds = engine.attach("events", (1, 2, 3), kinds=["membership"], mutable=True)
    assert ds.query("membership", 2)
    _break_store(engine._store)
    fast = FaultPlan([], policy=RecoveryPolicy(
        writebehind_attempts=1, writebehind_backoff_seconds=0.001))
    with fast.armed():
        ds.apply_changes([_insert(9)])
        assert ds.query("membership", 9)
        with pytest.raises(WriteBehindError):
            engine.close()
    assert engine._closed  # teardown completed before the error escaped


# -- privatisation: both sides from one blob -----------------------------------


def _counting_engine(store, counts):
    """An engine serving ``rmq`` (Fischer--Heun, its codec wrapped in call
    counters) and ``members`` (the sorted run)."""
    scheme = fischer_heun_scheme()

    def dump(structure):
        counts["dump"] += 1
        return scheme.dump(structure)

    def load(blob):
        counts["load"] += 1
        return scheme.load(blob)

    engine = QueryEngine(store=store)
    engine.register("rmq", rmq_class(), replace(scheme, dump=dump, load=load))
    engine.register("members", membership_class(), sorted_run_scheme())
    return engine


@pytest.mark.parametrize("stored", [False, True], ids=["no-store", "store"])
def test_materializing_a_delta_kind_decodes_both_sides_from_one_blob(tmp_path, stored):
    """First touch of a mutable delta kind: one build, one dump at most (the
    one the build persisted is reused), and exactly two loads -- the
    published side and its offline twin -- none counted as a build or a
    store hit; a restarted engine decodes the stored file and dumps nothing."""
    data = tuple(range(64, 0, -1))
    counts = {"dump": 0, "load": 0}
    with _counting_engine(ArtifactStore(tmp_path) if stored else None, counts) as engine:
        ds = engine.attach("live", data, kinds=["rmq"], mutable=True)
        assert _ask(ds, "rmq", (0, 63, 63)) is True
        stats = engine.stats().per_kind["rmq"]
        assert (stats.builds, stats.store_hits, stats.cache_hits) == (1, 0, 0)
        assert counts == {"dump": 1, "load": 2}
        versions = ds._mutable._versions
        cached = engine._cache.get(ds.artifact_key("rmq"), record=False)
        sides = [versions.current.structures["rmq"], versions.offline["rmq"], cached]
        assert len({id(structure) for structure in sides}) == 3
    if not stored:
        return
    counts.update(dump=0, load=0)
    with _counting_engine(ArtifactStore(tmp_path), counts) as engine:
        ds = engine.attach("live", data, kinds=["rmq"], mutable=True)
        assert _ask(ds, "rmq", (3, 63, 63)) is True
        stats = engine.stats().per_kind["rmq"]
        assert (stats.builds, stats.store_hits) == (0, 1)
        assert counts == {"dump": 0, "load": 3}


def test_each_mutable_materialization_emits_one_debug_record(tmp_path, caplog):
    """Which structure got rebuilt, and why -- read from what the system
    emits: kind, version, source, privatisation dumps / loads and ms."""
    assert not logging.getLogger("repro.service.dataset").handlers
    caplog.set_level(logging.DEBUG, logger="repro.service.dataset")
    data = tuple(range(64, 0, -1))
    with _counting_engine(ArtifactStore(tmp_path), {"dump": 0, "load": 0}) as engine:
        live = engine.attach("live", data, kinds=["rmq", "members"], mutable=True)
        assert live.query("rmq", (0, 63, 63)) is True
        live.apply_changes([PointWrite(0, 0)])
        assert live.query("members", 0) is True        # first touch at v1
        other = engine.attach("other", data, kinds=["rmq"], mutable=True)
        assert other.query("rmq", (0, 63, 63)) is True
        live.detach()
        other.detach()
    with _counting_engine(ArtifactStore(tmp_path), {"dump": 0, "load": 0}) as engine:
        assert engine.attach("again", data, kinds=["rmq"], mutable=True).query("rmq", (0, 1, 1))
    records = [r for r in caplog.records if r.name == "repro.service.dataset"]
    assert {r.levelno for r in records} == {logging.DEBUG}
    assert [r.args[:5] for r in records] == [
        ("rmq", 0, "build", 0, 2),      # the persisted dump is the blob
        ("members", 1, "build", 0, 2),  # first touched after a batch: v1 content
        ("rmq", 0, "cache", 1, 2),      # a cache hit holds no bytes: one dump
        ("rmq", 0, "store", 0, 2),      # the file it read is the blob
    ]
    assert all(r.args[5] >= 0 for r in records)
