"""Unit tests for the mutable-dataset write path (ISSUE 3).

Headliners:

* ``test_readers_never_observe_torn_snapshot`` -- N reader threads race one
  writer applying invariant-preserving batches; every batch-atomic read must
  be consistent with some fully-applied version.
* ``test_delta_equals_full_rebuild_*`` -- after a change batch, the
  delta-maintained structure answers exactly like a from-scratch build over
  the post-batch dataset, for every delta-capable kind.
* ``test_build_lock_map_stays_empty_under_churn`` -- the regression guard
  for the per-key build-lock leak under attach/detach churn.

Every dataset here is a mutable session
(``engine.attach(name, data, kinds=[kind], mutable=True)``); reads assert
``ds.query == ds.query_tracked`` so the untracked kernels and the analytic
evaluator are both pinned against the oracle.
"""

from __future__ import annotations

import ast
import gc
import logging
import threading
import time
import weakref
from dataclasses import replace
from pathlib import Path

import pytest

import repro
from repro.catalog import build_query_engine
from repro.core.cost import NULL_TRACKER, CostTracker
from repro.core.errors import DeltaError, ServiceError
from repro.graphs.graph import Digraph
from repro.incremental.changes import ChangeKind, EdgeChange, PointWrite, TupleChange
from repro.queries import (
    fischer_heun_scheme,
    membership_class,
    rmq_class,
    sorted_run_scheme,
)
from repro.queries.reachability import closure_scheme, reachability_class
from repro.service import ArtifactStore
from repro.service.engine import QueryEngine
from repro.service.sharding import plan_shards
from repro.storage.fingerprint import dataset_fingerprint


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


def test_a_selection_count_past_a_byte_is_served_like_a_scan():
    """One value's count climbs past 255 and back down through
    ``apply_changes``: each attribute's B+-tree re-types its counts word
    mid-session, a batch that deletes every other row merges the other
    leaves into the re-typed one, and after every batch the fast, tracked
    and naive answers agree.  Every batch folds through the delta hook."""
    with build_query_engine() as engine:
        for kind in ("point-selection", "range-selection"):
            query_class, _ = engine.registration(kind)
            data, queries = query_class.sample_workload(512, 5, 10)
            ds = _open(engine, kind, data, name=kind)
            hot = max(value for row in data.rows() for value in row) + 1
            if kind == "point-selection":
                probes = [("a", hot), ("b", hot), ("a", hot + 1)]
            else:
                probes = [("a", hot, hot), ("b", hot - 1, hot + 1), ("a", hot + 1, hot + 9)]
            batches = ([[_insert(hot, hot)] * 100] * 3 + [[_delete(*row) for row in data.rows()]]
                       + [[_delete(hot, hot)] * 150] * 2)
            for batch in batches:
                ds.apply_changes(batch)
                snapshot = ds.dataset()
                for query in list(queries) + probes:
                    expected = query_class.pair_in_language(snapshot, query)
                    assert _ask(ds, kind, query) == expected, (kind, query)
            stats = engine.stats().per_kind[kind]
            assert stats.delta_batches == len(batches) and stats.fallback_rebuilds == 0
            assert ds.query(kind, probes[0]) is False  # 300 inserted, 300 deleted


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


def test_the_change_log_counts_every_batch_but_keeps_only_recent_notes():
    """A session lives as long as its worker, and keeps no log that grows
    with it: the 1 000th single-write batch acknowledges its version and
    nothing else."""
    with QueryEngine() as engine:
        engine.register("rmq", rmq_class(), fischer_heun_scheme())
        ds = _open(engine, "rmq", tuple(range(64)))
        for step in range(1000):
            ack = ds.apply_changes([PointWrite(step % 64, -step - 1)])
        assert ack == {"version": 1000}
        assert ds.query("rmq", (0, 63, 999 % 64)) is True


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


def test_a_delta_hook_returning_a_fresh_structure_is_served():
    """``apply_delta`` is typed ``-> structure``: a hook may fold into a new
    object and leave its argument as it was.  Over batches that let both
    left-right sides serve in turn, the fast, tracked and batched paths all
    answer from what the hook returned, never from the stale argument."""
    base = sorted_run_scheme()

    def fold_a_copy(structure, changes, tracker):
        return base.apply_delta(base.load(base.dump(structure)), changes, tracker)

    query_class = membership_class()
    with QueryEngine() as engine:
        engine.register("membership", query_class, replace(base, apply_delta=fold_a_copy))
        ds = _open(engine, "membership", (5, 1, 4))
        content = [5, 1, 4]
        for value in (9, 12, 20, 33):
            ds.apply_changes([_insert(value), _delete(content[0])])
            content = content[1:] + [value]
            probes = [5, 1, 4, 9, 12, 20, 33, -1]
            expected = [query_class.pair_in_language(tuple(content), q) for q in probes]
            assert [_ask(ds, "membership", q) for q in probes] == expected
            assert ds.query_batch([("membership", q) for q in probes]) == expected
        stats = engine.stats().per_kind["membership"]
        assert (stats.delta_batches, stats.fallback_rebuilds) == (4, 0)


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
        assert after.builds - before.builds == 1
        assert _ask(ds, kind, 100_000) is True and _ask(ds, kind, 99_999) is False


# -- versioning; the store holds only keys some lookup asks for ---------------


class _RecordingStore(ArtifactStore):
    """An artifact store that remembers every key ``get`` and ``put`` ask for."""

    def __init__(self, root):
        super().__init__(root)
        self.gets, self.puts = [], []

    def get(self, key):
        self.gets.append(key)
        return super().get(key)

    def put(self, key, payload):
        self.puts.append(key)
        return super().put(key, payload)


def test_delta_batches_and_monolithic_rebuilds_add_no_store_key(tmp_path):
    """After materialisation a mutable session writes nothing: later
    versions live in memory, since no lookup could compute their keys."""
    store = _RecordingStore(tmp_path)
    with QueryEngine(store=store) as engine:
        engine.register("membership", membership_class(), sorted_run_scheme())
        ds = _open(engine, "membership", (1, 2, 3))
        # version 0
        assert store.puts == [ds.registration_for("membership").key(ds.fingerprint)]
        keys = set(store.keys())
        ds.apply_changes([_insert(9), _delete(1)])  # delta
        ds.apply_changes([PointWrite(0, 50)])  # outside the hook: rebuild
        stats = engine.stats().per_kind["membership"]
        assert (stats.delta_batches, stats.fallback_rebuilds) == (1, 1)
        assert set(store.keys()) == keys and len(store.puts) == 1
        assert _ask(ds, "membership", 50) is True and _ask(ds, "membership", 2) is False


def test_sharded_rebuild_adds_only_the_new_plans_shard_keys(tmp_path):
    """A touched-shard rebuild writes content-keyed shard artifacts, which
    re-planning the same content reads back: those are the only new keys."""
    store = _RecordingStore(tmp_path)
    with build_query_engine(store=store) as engine:
        kind = "list-membership"
        ds = _open(engine, kind, tuple(range(256)), shards=8)
        keys = set(store.keys())
        ds.apply_changes([_insert(100_000)])
        content = ds.dataset()
        registration = ds.registration_for(kind)
        plan = plan_shards(kind, registration, content)
        planned = {registration.shard_key(plan, shard) for shard in plan.planned}
        added = set(store.keys()) - keys
        assert len(added) == 1 and added <= planned  # one touched shard
        assert set(store.puts[-1:]) == added


@pytest.mark.xfail(strict=True, reason="ROADMAP item 8")
def test_sharded_mutable_writes_add_no_store_key_and_no_cache_entry(tmp_path):
    """A sharded mutable session should keep post-batch shards in memory, as
    a monolithic one does: no store key, no LRU entry per write.  Today
    every touched-shard rebuild goes through the engine's layers (4 keys and
    4 entries after warm-up, 9 of each after 5 inserts, and the entries
    outlive detach())."""
    store = ArtifactStore(tmp_path)
    with build_query_engine(store=store) as engine:
        kind = "list-membership"
        ds = _open(engine, kind, tuple(range(256)), shards=4)
        keys, entries = set(store.keys()), len(engine._cache)
        for value in range(1000, 1005):
            ds.apply_changes([_insert(value)])
        assert _ask(ds, kind, 1004) is True
        assert (set(store.keys()), len(engine._cache)) == (keys, entries)


def test_superseded_shard_plans_are_freed():
    """A shard plan is a pure function of (content, K) that nothing
    memoizes: once later batches supersede a version and the session
    detaches, no engine-side map keeps that version's plan -- or the shard
    data its pieces carry -- alive."""
    with build_query_engine() as engine:
        kind = "list-membership"
        ds = _open(engine, kind, tuple(range(256)), shards=4)
        ds.apply_changes([_insert(1000)])
        plan = weakref.ref(ds._mutable._versions.current.plans[kind].resolve().plan)
        for value in range(1001, 1004):
            ds.apply_changes([_insert(value)])
        assert _ask(ds, kind, 1000) is True
        ds.detach()
        gc.collect()
        assert plan() is None


def test_only_the_miss_path_puts_to_the_artifact_store():
    """Every key written is one ``_load_from_store`` asks for: the one
    ``ArtifactStore.put`` in ``src/repro`` is in ``QueryEngine._resolve_miss``."""
    root = Path(repro.__file__).parent
    sites = []
    for path in sorted(root.rglob("*.py")):
        sites.extend(
            (path.relative_to(root).as_posix(), where)
            for where in _store_put_sites(ast.parse(path.read_text()))
        )
    assert sites == [("service/engine.py", "QueryEngine._resolve_miss")]


def _store_put_sites(tree):
    """Qualified names of the functions holding a ``<...store...>.put(`` call."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = scope + (child.name,)
            elif (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "put"
                and "store" in ast.unparse(child.func.value).lower()
            ):
                sites.append(".".join(scope))
            visit(child, inner)

    visit(tree, ())
    return sites



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


def test_close_detaches_and_keeps_the_attach_artifact(tmp_path):
    store = ArtifactStore(tmp_path)
    engine = QueryEngine(store=store)
    engine.register("membership", membership_class(), sorted_run_scheme())
    ds = _open(engine, "membership", (1, 2, 3))
    ds.apply_changes([_insert(7)])
    key = ds.registration_for("membership").key(ds.fingerprint)
    assert key.fingerprint == ds.fingerprint  # the attach-time key, at any version
    engine.close()  # detaches the session too
    assert store.get(key) is not None
    with pytest.raises(ServiceError, match="detached"):
        ds.query("membership", 7)
    with pytest.raises(ServiceError, match="detached"):
        ds.apply_changes([_insert(8)])


def test_a_duplicate_edge_insert_is_a_noop_the_delta_hook_never_sees():
    """An edge insert the graph already holds changes nothing: a batch of
    them keeps its version, and a mixed batch passes only the new edge on."""
    seen = []
    scheme = closure_scheme()

    def recording(index, changes, tracker):
        seen.append(list(changes))
        return scheme.apply_delta(index, changes, tracker)

    with QueryEngine() as engine:
        engine.register("reach", reachability_class(), replace(scheme, apply_delta=recording))
        ds = _open(engine, "reach", Digraph(4, [(0, 1), (1, 2)]))
        assert ds.apply_changes([EdgeChange(ChangeKind.INSERT, 0, 1)]) == {"version": 0}
        assert seen == [] and engine.stats().per_kind["reach"].delta_batches == 0
        ds.apply_changes([EdgeChange(ChangeKind.INSERT, 1, 2), EdgeChange(ChangeKind.INSERT, 2, 3)])
        assert ds.version == 1 and _ask(ds, "reach", (0, 3)) is True
        assert seen == [[EdgeChange(ChangeKind.INSERT, 2, 3)]] * 2  # both sides, once each


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
        assert ds.dataset() == [2, 3, 4]  # a list payload snapshots as a list
        # An immutable session over the original data is unaffected.
        frozen = engine.attach("frozen", data)
        assert frozen.query("membership", 1) is True
        assert frozen.query("membership", 4) is False


@pytest.mark.parametrize("payload", [[3, 1, 2], (3, 1, 2), [], ()], ids=repr)
def test_an_unwritten_session_snapshots_as_the_sequence_it_was_attached_as(payload):
    """A checkpoint re-homes a mutable session from its snapshot, so an
    unwritten one must fingerprint like its payload: a list stays a list."""
    with build_query_engine() as engine:
        ds = engine.attach("d", payload, kinds=["list-membership"], mutable=True)
        snapshot = ds.dataset()
    assert type(snapshot) is type(payload) and snapshot == payload
    assert dataset_fingerprint(snapshot) == dataset_fingerprint(payload) == ds.fingerprint


def test_a_session_reattached_from_a_list_snapshot_loads_from_the_store(tmp_path):
    payload = [3, 1, 2]
    with build_query_engine(store=ArtifactStore(tmp_path)) as engine:
        ds = engine.attach("d", payload, kinds=["list-membership"], mutable=True)
        assert ds.query("list-membership", 1) is True
        snapshot = ds.dataset()
    with build_query_engine(store=ArtifactStore(tmp_path)) as engine:
        ds = engine.attach("d", snapshot, kinds=["list-membership"], mutable=True)
        assert ds.query("list-membership", 1) is True
        counters = engine.stats().per_kind["list-membership"]
        assert (counters.builds, counters.store_hits) == (0, 1)


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


def test_build_lock_map_stays_empty_under_churn():
    with build_query_engine() as engine:
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


def test_changelog_counts_each_change_once():
    """A fully screened batch publishes nothing and acks the unchanged
    version; a partly screened one publishes exactly one new version."""
    with QueryEngine() as engine:
        engine.register("membership", membership_class(), sorted_run_scheme())
        ds = _open(engine, "membership", (1, 2, 3))
        assert ds.apply_changes([_delete(42)]) == {"version": 0}  # fully screened
        assert ds.apply_changes([_insert(5), _delete(43)]) == {"version": 1}  # partly
        assert ds.apply_changes([_delete(44)]) == {"version": 1}
        assert ds.version == 1 and ds.dataset() == (1, 2, 3, 5)


@pytest.mark.parametrize("stored", [False, True], ids=["no-store", "store"])
@pytest.mark.parametrize("shards", [1, 4])
def test_the_served_path_constructs_no_cost_tracker(monkeypatch, tmp_path, shards, stored):
    """Serving keeps no cost ledger: attach, warm, reads and a write that
    both folds a delta and falls back to a rebuild construct no
    ``CostTracker``, while the analytic twin still charges the one a
    caller passes."""
    constructed = []
    init = CostTracker.__init__

    def spy(self):
        constructed.append(type(self).__name__)
        init(self)

    monkeypatch.setattr(CostTracker, "__init__", spy)
    rmq = fischer_heun_scheme()
    rmq.sharding = None  # monolithic under any shard count: folds in place
    store = ArtifactStore(str(tmp_path)) if stored else None
    with QueryEngine(store=store) as engine:
        engine.register("membership", membership_class(), sorted_run_scheme())
        engine.register("rmq", rmq_class(), rmq)
        ds = engine.attach("live", tuple(range(256)), shards=shards, mutable=True).warm()
        assert ds.query("membership", 7) is True
        assert ds.query_batch([("membership", -1), ("rmq", (0, 255, 0))]) == [False, True]
        # A PointWrite: the RMQ folds it, the membership run rebuilds.
        assert ds.apply_changes([PointWrite(9, -1)]) == {"version": 1}
        assert ds.query("rmq", (0, 255, 9)) is True
        assert ds.query_batch([("membership", -1), ("membership", 9)]) == [True, False]
        per_kind = engine.stats().per_kind
        assert per_kind["rmq"].delta_batches == 1
        assert per_kind["membership"].fallback_rebuilds == 1
        assert constructed == []
        tracker = CostTracker()
        assert ds.query_tracked("rmq", (0, 255, 9), tracker) is True
        assert tracker.work > 0


def test_mutable_attach_unknown_kind_and_unsupported_data():
    with QueryEngine() as engine:
        engine.register("membership", membership_class(), sorted_run_scheme())
        with pytest.raises(ServiceError, match="no scheme registered"):
            engine.attach("d", (1, 2), kinds=["nope"], mutable=True)
        with pytest.raises(ServiceError, match="mutable serving supports"):
            engine.attach("d", {"a", "set"}, mutable=True)


# -- a refused batch moves nothing ---------------------------------------------


def _snapshot(ds):
    data = ds.dataset()
    content = sorted(data.edges()) if isinstance(data, Digraph) else data
    return ds.version, content


def _refused(ds, batch):
    """``batch`` is refused before anything moves: version and content
    are as they were."""
    before = _snapshot(ds)
    with pytest.raises(DeltaError):
        ds.apply_changes(batch)
    assert _snapshot(ds) == before


def _reads_match_oracle(engine, ds, kind, queries):
    query_class = engine.registration(kind)[0]
    content = ds.dataset()
    for query in queries:
        assert _ask(ds, kind, query) == query_class.pair_in_language(content, query)


def test_unhashable_element_is_refused_before_the_counts_move():
    with QueryEngine() as engine:
        engine.register("membership", membership_class(), sorted_run_scheme())
        ds = _open(engine, "membership", (1, 2, 3))
        _refused(ds, [_insert(9), TupleChange(ChangeKind.INSERT, ([4],))])
        ds.apply_changes([_delete(9)])  # screens to a no-op: 9 was never added
        assert ds.version == 0
        _reads_match_oracle(engine, ds, "membership", range(10))


def test_non_int_position_is_refused_before_the_counts_move():
    with QueryEngine() as engine:
        engine.register("membership", membership_class(), sorted_run_scheme())
        ds = _open(engine, "membership", (1, 2, 3))
        _refused(ds, [PointWrite(2, 9), PointWrite(1.5, 7)])
        _refused(ds, [PointWrite(True, 7)])  # a bool is not a position
        ds.apply_changes([_delete(9)])
        assert ds.version == 0 and ds.dataset() == (1, 2, 3)
        ds.apply_changes([PointWrite(1, 8)])
        _reads_match_oracle(engine, ds, "membership", range(10))


def test_point_write_past_a_delete_of_its_batch_is_refused():
    """A point write must stay in range of what the earlier deletes of its
    batch leave: one that fell past the shortened sequence raised mid-batch,
    leaving the working copy ahead of the served structures.  The bound is
    exact -- a delete that finds nothing shortens nothing."""
    with build_query_engine() as engine:
        ds = _open(engine, "list-membership", (5, 3, 1, 4))
        _refused(ds, [_delete(5), PointWrite(3, 9)])
        _refused(ds, [PointWrite(0, 7), _delete(7), PointWrite(3, 9)])
        _reads_match_oracle(engine, ds, "list-membership", range(10))
        ds.apply_changes([_delete(7), PointWrite(3, 9)])  # 7 is not there
        assert ds.version == 1 and ds.dataset() == (5, 3, 1, 9)
        ds.apply_changes([PointWrite(0, 8), _delete(5), PointWrite(3, 2)])  # 5 was overwritten
        assert ds.version == 2 and ds.dataset() == (8, 3, 1, 2)
        ds.apply_changes([_delete(8), PointWrite(2, 9)])
        assert ds.version == 3 and ds.dataset() == (3, 1, 9)
        _reads_match_oracle(engine, ds, "list-membership", range(10))


def test_malformed_graph_change_is_refused_before_the_edge_lands():
    with build_query_engine() as engine:
        kind = "reachability"
        ds = _open(engine, kind, Digraph(4, [(0, 1)]))
        _refused(ds, [EdgeChange(ChangeKind.INSERT, 1, 2), EdgeChange(ChangeKind.INSERT, 1.5, 2)])
        _refused(ds, [EdgeChange(ChangeKind.INSERT, 2, True)])
        _refused(ds, [EdgeChange(ChangeKind.INSERT, 1, 2), _insert(2)])  # a row, not an edge
        ds.apply_changes([EdgeChange(ChangeKind.INSERT, 2, 3)])  # publishes no (1, 2)
        assert sorted(ds.dataset().edges()) == [(0, 1), (2, 3)]
        _reads_match_oracle(engine, ds, kind, [(u, v) for u in range(4) for v in range(4)])


def test_unorderable_value_is_refused_before_the_version_moves():
    """A value ``<`` cannot order against flat content used to raise a
    TypeError from the delta hook after the version moved, leaving every
    later read and write of the session raising."""
    with build_query_engine() as engine:
        members = _open(engine, "list-membership", (1, 5, 9))
        _refused(members, [_insert(7), _insert("x")])
        _reads_match_oracle(engine, members, "list-membership", range(11))
        members.apply_changes([_insert(7)])
        assert members.version == 1
        _reads_match_oracle(engine, members, "list-membership", range(11))

        kind = "minimum-range-query"
        data, queries = engine.registration(kind)[0].sample_workload(40, 5, 12)
        rmq = _open(engine, kind, data, name="rmq")
        _refused(rmq, [PointWrite(0, 2), PointWrite(5, "x")])
        _reads_match_oracle(engine, rmq, kind, queries)
        rmq.apply_changes([PointWrite(5, -1)])
        assert rmq.version == 1
        _reads_match_oracle(engine, rmq, kind, queries)


def test_nan_is_refused_before_it_hides_a_member():
    """A NaN in a sorted run breaks its binary search: inserting NaN and 3
    used to publish a version on which 3 was not found."""
    nan = float("nan")
    with build_query_engine() as engine:
        ds = engine.attach("live", (1, 5, 9), kinds=["list-membership"], mutable=True)
        _refused(ds, [_insert(nan), _insert(3)])
        _refused(ds, [PointWrite(0, nan)])
        _reads_match_oracle(engine, ds, "list-membership", range(11))
        ds.apply_changes([_insert(3)])
        assert ds.version == 1 and _ask(ds, "list-membership", 3) is True
        _reads_match_oracle(engine, ds, "list-membership", range(11))


def test_change_kind_outside_the_enum_is_refused():
    with build_query_engine() as engine:
        ds = _open(engine, "list-membership", (1, 2, 3))
        _refused(ds, [TupleChange("insert", (9,))])
        graph = _open(engine, "reachability", Digraph(3, [(0, 1)]), name="graph")
        _refused(graph, [EdgeChange("delete", 0, 1)])
        _reads_match_oracle(engine, ds, "list-membership", range(10))
        _reads_match_oracle(engine, graph, "reachability", [(0, 1), (1, 0)])


# -- privatisation: one build published, one load for the twin ----------------


def _counting_engine(store, counts):
    """An engine serving ``rmq`` (Fischer--Heun, each scheme entry point
    ``counts`` names wrapped in a call counter) and ``members`` (the sorted
    run)."""
    scheme = fischer_heun_scheme()

    def counted(name):
        call = getattr(scheme, name)

        def counting(*args):
            counts[name] += 1
            return call(*args)

        return counting

    engine = QueryEngine(store=store)
    engine.register("rmq", rmq_class(), replace(scheme, **{name: counted(name) for name in counts}))
    engine.register("members", membership_class(), sorted_run_scheme())
    return engine


@pytest.mark.parametrize("store", ["none", "empty", "populated"])
def test_first_touch_of_a_delta_kind_is_one_resolution_and_one_load(tmp_path, store):
    """A mutable session's first touch publishes what its one resolution
    produced and deep-copies the offline twin from it: the only ``load`` is
    the store read, a build only on an empty store, a ``dump`` only to
    persist that build, and no engine-cache entry."""
    data = tuple(range(64, 0, -1))
    if store == "populated":
        with _counting_engine(ArtifactStore(tmp_path), {}) as engine:
            engine.attach("warm", data, kinds=["rmq"]).warm()
    counts = {"preprocess": 0, "dump": 0, "load": 0}
    root = None if store == "none" else ArtifactStore(tmp_path)
    with _counting_engine(root, counts) as engine:
        ds = engine.attach("live", data, kinds=["rmq"], mutable=True)
        assert _ask(ds, "rmq", (0, 63, 63)) is True
        store_hits = engine.stats().per_kind["rmq"].store_hits
        assert store_hits == (store == "populated")
        assert counts == {
            "preprocess": int(store != "populated"),
            "dump": int(store == "empty"),
            "load": store_hits,
        }
        key = ds.registration_for("rmq").key(ds.fingerprint)
        assert engine._cache.get(key, record=False) is None


def _spy_fingerprints(monkeypatch):
    """The data of every ``dataset_fingerprint`` call, through any module
    that imported it."""
    hashed = []
    for module in (repro.storage.fingerprint, repro.service.engine,
                   repro.service.dataset, repro.service.sharding):
        real = getattr(module, "dataset_fingerprint", None)
        if real is not None:

            def spy(data, real=real):
                hashed.append(data)
                return real(data)

            monkeypatch.setattr(module, "dataset_fingerprint", spy)
    return hashed


def test_a_kind_first_touched_after_a_batch_builds_privately(tmp_path, monkeypatch):
    """A monolithic kind first touched after a batch builds from the working
    copy in memory, as a rebuild does: no fingerprint of the working copy, no
    store probe or put, no cache entry (later versions write no artifact),
    and a delta kind's twin is a copy of the build."""
    data = tuple(range(64, 0, -1))
    store = _RecordingStore(tmp_path)
    with _counting_engine(store, {}) as engine:
        plain = replace(sorted_run_scheme(), structure="sorted-run-no-delta", apply_delta=None)
        engine.register("plain", membership_class(), plain)
        ds = engine.attach("live", data, kinds=["rmq", "members", "plain"], mutable=True)
        assert _ask(ds, "rmq", (0, 63, 63)) is True
        ds.apply_changes([PointWrite(0, 0)])
        traffic = len(store.gets), len(store.puts), len(engine._cache)
        hashed = _spy_fingerprints(monkeypatch)
        for kind in ("members", "plain"):
            assert _ask(ds, kind, 0) is True and _ask(ds, kind, 64) is False
            stats = engine.stats().per_kind[kind]
            assert (stats.builds, stats.store_hits, stats.cache_hits) == (1, 0, 0)
        assert hashed == []
        assert (len(store.gets), len(store.puts), len(engine._cache)) == traffic
        versions = ds._mutable._versions
        sides = [side["members"].resolve() for side in (versions.current.plans, versions.offline)]
        assert sides[0]._run == sides[1]._run and sides[0]._run is not sides[1]._run
        ds.apply_changes([_insert(99)])
        assert _ask(ds, "members", 99) is True and _ask(ds, "plain", 99) is True
        assert engine.stats().per_kind["members"].delta_batches == 1


def test_a_resumed_session_before_its_first_batch_reads_the_attach_artifact(
    tmp_path, monkeypatch
):
    """A re-homed session starts at its snapshot's version but still holds
    the attach payload: until a batch takes effect its first touch resolves
    by the attach fingerprint (a store hit), hashing nothing."""
    data = tuple(range(64, 0, -1))
    with _counting_engine(ArtifactStore(tmp_path), {}) as engine:
        engine.attach("warm", data, kinds=["rmq"]).warm()
    with _counting_engine(ArtifactStore(tmp_path), {}) as engine:
        ds = engine.attach("live", data, kinds=["rmq"], mutable=True)
        ds.resume_at(4)
        hashed = _spy_fingerprints(monkeypatch)
        assert _ask(ds, "rmq", (0, 63, 63)) is True
        stats = engine.stats().per_kind["rmq"]
        assert (stats.builds, stats.store_hits, hashed) == (0, 1, [])
        assert ds.apply_changes([PointWrite(63, 99)]) == {"version": 5}
        assert _ask(ds, "rmq", (0, 63, 62)) is True


def test_an_immutable_session_after_a_mutable_one_reads_the_store(tmp_path):
    """The mutable session persisted its build but cached nothing: an
    immutable session on the same content resolves as a store hit and keeps
    answering version 0 while the mutable one writes."""
    data = tuple(range(64, 0, -1))
    with _counting_engine(ArtifactStore(tmp_path), {}) as engine:
        live = engine.attach("live", data, kinds=["rmq"], mutable=True)
        assert _ask(live, "rmq", (0, 63, 63)) is True
        frozen = engine.attach("frozen", data, kinds=["rmq"])
        assert _ask(frozen, "rmq", (0, 63, 63)) is True
        stats = engine.stats().per_kind["rmq"]
        assert (stats.builds, stats.store_hits, stats.cache_hits) == (1, 1, 0)
        live.apply_changes([PointWrite(10, -1)])
        assert _ask(live, "rmq", (0, 63, 10)) is True
        assert _ask(frozen, "rmq", (0, 63, 63)) is True
        assert frozen.dataset() == data


def test_a_first_touch_waiting_on_the_build_lock_takes_what_was_cached_meanwhile():
    """A mutable session's miss rechecks the engine cache under the per-key
    build lock: a structure another session cached while it waited is
    privatised (two deep copies), not built a second time."""
    data = tuple(range(64, 0, -1))
    counts = {"preprocess": 0, "dump": 0, "load": 0}
    with _counting_engine(None, counts) as engine:
        ds = engine.attach("live", data, kinds=["rmq"], mutable=True)
        registration = ds.registration_for("rmq")
        key = registration.key(ds.fingerprint)
        toucher = threading.Thread(target=_ask, args=(ds, "rmq", (0, 63, 63)))
        with engine._build_locks_guard:
            lock = engine._build_locks.setdefault(key, threading.Lock())
        with lock:
            toucher.start()
            deadline = time.monotonic() + 10
            while engine._cache.stats().misses == 0 and time.monotonic() < deadline:
                time.sleep(0.001)
            cached = registration.scheme.preprocess(data, NULL_TRACKER)
            engine._cache.put(key, cached)
        toucher.join(timeout=10)
        assert counts == {"preprocess": 1, "dump": 0, "load": 0}  # one build: the cached one
        stats = engine.stats().per_kind["rmq"]
        assert (stats.builds, stats.cache_hits) == (0, 1)
        versions = ds._mutable._versions
        sides = [side["rmq"].resolve() for side in (versions.current.plans, versions.offline)]
        assert all(side is not cached for side in sides) and sides[0] is not sides[1]
        assert _ask(ds, "rmq", (0, 63, 63)) is True


@pytest.mark.parametrize("stored", [False, True], ids=["no-store", "store"])
def test_materializing_a_delta_kind_copies_the_published_side(tmp_path, stored):
    """First touch of a mutable delta kind: one build, published as it is,
    a dump only to persist it, and the offline twin a deep copy of it --
    counted as neither a build nor a store hit, and no side in the engine
    cache; a restarted engine publishes what it decoded from the stored
    file, copies the twin from it and dumps nothing."""
    data = tuple(range(64, 0, -1))
    counts = {"dump": 0, "load": 0}
    with _counting_engine(ArtifactStore(tmp_path) if stored else None, counts) as engine:
        ds = engine.attach("live", data, kinds=["rmq"], mutable=True)
        assert _ask(ds, "rmq", (0, 63, 63)) is True
        stats = engine.stats().per_kind["rmq"]
        assert (stats.builds, stats.store_hits, stats.cache_hits) == (1, 0, 0)
        assert counts == {"dump": int(stored), "load": 0}
        versions = ds._mutable._versions
        sides = [side["rmq"].resolve() for side in (versions.current.plans, versions.offline)]
        assert sides[0] is not sides[1] and len(engine._cache) == 0
    if not stored:
        return
    counts.update(dump=0, load=0)
    with _counting_engine(ArtifactStore(tmp_path), counts) as engine:
        ds = engine.attach("live", data, kinds=["rmq"], mutable=True)
        assert _ask(ds, "rmq", (3, 63, 63)) is True
        stats = engine.stats().per_kind["rmq"]
        assert (stats.builds, stats.store_hits) == (0, 1)
        assert counts == {"dump": 0, "load": 1}


def test_each_mutable_materialization_emits_one_debug_record(tmp_path, caplog):
    """Which structure got rebuilt, and why -- read from what the system
    emits: kind, version, source, privatising deep copies and ms."""
    assert not logging.getLogger("repro.service.dataset").handlers
    caplog.set_level(logging.DEBUG, logger="repro.service.dataset")
    data = tuple(range(64, 0, -1))
    with _counting_engine(ArtifactStore(tmp_path), {}) as engine:
        live = engine.attach("live", data, kinds=["rmq", "members"], mutable=True)
        assert live.query("rmq", (0, 63, 63)) is True
        live.apply_changes([PointWrite(0, 0)])
        assert live.query("members", 0) is True        # first touch at v1
        other = engine.attach("other", data, kinds=["rmq"], mutable=True)
        assert other.query("rmq", (0, 63, 63)) is True
        frozen = engine.attach("frozen", data, kinds=["rmq"])  # fills the cache
        assert frozen.query("rmq", (0, 63, 63)) is True
        third = engine.attach("third", data, kinds=["rmq"], mutable=True)
        assert third.query("rmq", (0, 63, 63)) is True
        for session in (live, other, frozen, third):
            session.detach()
    with _counting_engine(ArtifactStore(tmp_path), {}) as engine:
        assert engine.attach("again", data, kinds=["rmq"], mutable=True).query("rmq", (0, 1, 1))
    records = [r for r in caplog.records if r.name == "repro.service.dataset"]
    assert {r.levelno for r in records} == {logging.DEBUG}
    assert [r.args[:4] for r in records] == [
        ("rmq", 0, "build", 1),      # published as built, the twin its copy
        ("members", 1, "build", 1),  # first touched after a batch: a private build
        ("rmq", 0, "store", 1),      # no cache entry: the file it read
        ("rmq", 0, "cache", 2),      # a cache hit is shared: both sides are copies
        ("rmq", 0, "store", 1),      # restarted: the file it read
    ]
    assert all(r.args[4] >= 0 for r in records)
