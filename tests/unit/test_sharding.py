"""Unit tests for sharded Pi-structures (ISSUE 2).

Covers the merge-operator algebra, the shard planner (policies, routing,
content-addressed shard artifacts), engine integration (``attach(...,
shards=K)``, shard statistics, concurrent scatter-gather), and shard-level
invalidation: change batches must rebuild only the shards they touch.
"""

from __future__ import annotations

import inspect
import random
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.catalog import build_query_engine
from repro.core.cost import CostTracker
from repro.core.errors import ServiceError
from repro.incremental.changes import ChangeKind, TupleChange
from repro.service.artifacts import ArtifactStore
from repro.service.merge import (
    merge_sorted_desc,
    monoid_merge,
    range_blocks,
    stable_bucket,
    stable_buckets,
    union_merge,
)
from repro.service.sharding import ShardedKernel, ShardPlanner, plan_diff, touched_shards
from repro.storage.fingerprint import dataset_fingerprint

SHARDABLE_KINDS = (
    "point-selection",
    "range-selection",
    "list-membership",
    "minimum-range-query",
    "topk-threshold",
)


# -- merge operators -----------------------------------------------------------


def test_stable_bucket_is_deterministic_and_bounded():
    for value in (0, 17, "x", (1, 2), -5):
        bucket = stable_bucket(value, 8)
        assert 0 <= bucket < 8
        assert bucket == stable_bucket(value, 8)
    with pytest.raises(ValueError):
        stable_bucket(1, 0)


@pytest.mark.parametrize(
    "values",
    [
        tuple(range(-300, 300)) + (1 << 70, -(1 << 70)),  # plain ints: the map chain
        (1, True, 2.0, 3.5), ((1, 2), (1.0, 2.0), [3]), ("x", None, 7), (),
    ],
    ids=["ints", "int-likes", "rows", "mixed", "empty"],
)
def test_stable_buckets_is_the_per_element_function(values):
    """Identical pieces whichever path buckets them, for every splitter."""
    from repro.queries.membership import _split_list

    assert stable_buckets(values, 4) == [stable_bucket(value, 4) for value in values]
    with pytest.raises(ValueError):
        stable_buckets(values or (1,), 0)
    if values and set(map(type, values)) == {int}:
        pieces = [[] for _ in range(4)]
        for value in values:
            pieces[stable_bucket(value, 4)].append(value)
        assert [piece.data for piece in _split_list(values, 4)] == list(map(tuple, pieces))


@pytest.mark.parametrize("shards", [1, 2, 4, 7])
def test_split_list_pieces_are_the_per_element_loops(shards):
    """The membership splitter's pieces -- and so their shard fingerprints --
    are byte-identical to appending element by element into K buckets (kept
    over one ``compress`` pass per bucket: at K = 4 and 2^16 ints the
    passes cost 4.5-13 ms against the loop's 2.6 ms)."""
    from repro.queries.membership import _generate_list, _split_list

    data = _generate_list(3000, random.Random(shards)) + (0, -1, 1 << 40)
    pieces = [[] for _ in range(shards)]
    for value in data:
        pieces[stable_bucket(value, shards)].append(value)
    split = _split_list(data, shards)
    assert [(piece.index, piece.count) for piece in split] == [(i, shards) for i in range(shards)]
    assert [piece.data for piece in split] == list(map(tuple, pieces))
    assert [dataset_fingerprint(piece.data) for piece in split] == [
        dataset_fingerprint(tuple(piece)) for piece in pieces
    ]


def test_range_blocks_are_balanced_and_cover():
    blocks = range_blocks(10, 4)
    assert blocks == [(0, 3), (3, 3), (6, 2), (8, 2)]
    assert sum(length for _, length in blocks) == 10
    # More shards than slots: empty blocks are omitted.
    assert range_blocks(2, 8) == [(0, 1), (1, 1)]
    assert range_blocks(0, 4) == []
    with pytest.raises(ValueError):
        range_blocks(4, 0)


def test_union_merge_semantics():
    merge = union_merge()
    assert merge.combine([False, True], None) is True
    assert merge.combine([False, False], None) is False
    assert merge.combine([], None) is False
    assert merge.empty(None) is False
    assert merge.partial is None  # the scheme's own evaluator is the partial


def test_monoid_merge_folds_and_skips_identity():
    merge = monoid_merge(
        partial=lambda structure, query, meta, tracker: None,
        fold=min,
        finalize=lambda best, query: best is not None and best == query,
    )
    assert merge.combine([(3, 1), None, (2, 9)], (2, 9)) is True
    assert merge.combine([None, None], (2, 9)) is False  # all-identity folds to None
    assert merge.empty(None) is None


def test_merge_sorted_desc_is_a_kway_merge():
    runs = [[9, 4, 1], [8, 8, 2], [7]]
    assert merge_sorted_desc(runs, 5) == [9, 8, 8, 7, 4]
    assert merge_sorted_desc([], 3) == []


# -- registration --------------------------------------------------------------


def test_shards_require_a_shard_spec():
    """K is said at attach and only shards the kinds that declare a spec."""
    with build_query_engine() as engine:
        with pytest.raises(ServiceError, match="shards must be"):
            engine.attach("m", (1, 2), kinds=["list-membership"], shards=0)
        query_class, _ = engine.registration("tree-lca")
        tree, queries = query_class.sample_workload(32, 3, 4)
        ds = engine.attach("lca", tree, kinds=["tree-lca"], shards=4)
        assert ds.shards_for("tree-lca") == 1  # no spec: the monolithic path
        assert [ds.query("tree-lca", q) for q in queries] == [
            query_class.pair_in_language(tree, q) for q in queries
        ]
        stats = engine.stats().per_kind["tree-lca"]
        assert stats.builds == 1 and stats.shard_builds == 0


def test_shardable_kinds_lists_spec_carriers():
    with build_query_engine() as engine:
        assert set(SHARDABLE_KINDS) <= set(engine.shardable_kinds())
        assert "tree-lca" not in engine.shardable_kinds()
        ds = engine.attach("d", (1, 2, 3), kinds=["list-membership"], shards=4)
        assert ds.shards_for("list-membership") == 4


# -- serving equivalence and statistics ----------------------------------------


def _ask(engine, kind, data, query, name="d", shards=4):
    """Attach ``data`` under ``name`` (sharded) on first use, then ask the
    named session."""
    if name not in engine.datasets():
        engine.attach(name, data, kinds=[kind], shards=shards)
    return engine.dataset(name).query(kind, query)


def _workloads(engine, *, size=96, seed=13, per_kind=8):
    pairs, expected = [], []
    for kind in SHARDABLE_KINDS:
        query_class, _ = engine.registration(kind)
        data, queries = query_class.sample_workload(size, seed, per_kind)
        engine.attach(kind, data, kinds=[kind], shards=4)
        for query in queries:
            pairs.append((kind, query))
            expected.append(query_class.pair_in_language(data, query))
    return pairs, expected


def test_concurrent_sharded_batches_match_sequential(tmp_path):
    """Cold concurrent scatter-gather: no deadlock between the callers'
    threads and the shard-build pool, one build per shard artifact, answers
    identical to sequential and naive."""
    store = ArtifactStore(tmp_path)
    with build_query_engine(store=store, max_workers=6) as engine:
        pairs, expected = _workloads(engine)
        with ThreadPoolExecutor(max_workers=6) as pool:  # test-owned threads
            futures = [
                pool.submit(engine.dataset(kind).query, kind, query)
                for kind, query in pairs
            ]
            concurrent = [future.result(timeout=60) for future in futures]
        sequential = [engine.dataset(kind).query(kind, query) for kind, query in pairs]
        assert concurrent == sequential == expected
        for kind in SHARDABLE_KINDS:
            stats = engine.stats().per_kind[kind]
            assert stats.builds == 0 and 0 < stats.shard_builds <= 4, kind


def test_shard_stats_track_builds_and_serve_time(tmp_path):
    with build_query_engine(store=ArtifactStore(tmp_path)) as engine:
        kind = "minimum-range-query"
        query_class, _ = engine.registration(kind)
        data, queries = query_class.sample_workload(64, 7, 6)
        for query in queries:
            _ask(engine, kind, data, query)
        stats = engine.stats().per_kind[kind]
        assert stats.shard_builds == 4  # one build per block, once
        assert stats.builds == 0  # the monolithic path never ran
        assert stats.queries == len(queries)
        assert stats.shard_build_seconds > 0
        assert stats.shard_serve_seconds > 0
        assert stats.serve_seconds >= stats.shard_serve_seconds


def test_second_engine_serves_shards_from_store(tmp_path):
    store = ArtifactStore(tmp_path)
    kind = "topk-threshold"
    with build_query_engine(store=store) as first:
        query_class, _ = first.registration(kind)
        data, queries = query_class.sample_workload(64, 3, 6)
        expected = [_ask(first, kind, data, q) for q in queries]

    with build_query_engine(store=store) as second:
        got = [_ask(second, kind, data, q) for q in queries]
        assert got == expected
        stats = second.stats().per_kind[kind]
        assert stats.shard_builds == 0
        assert stats.shard_store_hits == 4  # every shard loaded, none rebuilt


def test_routed_membership_probes_one_shard():
    with build_query_engine() as engine:
        ds = engine.attach("d", tuple(range(256)), kinds=["list-membership"], shards=4)
        ds.warm()  # builds all 4 buckets
        engine.reset_stats()
        assert ds.query("list-membership", 100) is True
        stats = engine.stats().per_kind["list-membership"]
        # Route-aware resolve: one cache probe, zero builds.
        assert stats.shard_cache_hits == 1
        assert stats.shard_builds == 0


def test_resolve_then_answer_matches_execute_and_keeps_stats_invariant():
    """The planner's resolve() plus the sharded kernel's one() equals the
    session's query() and stays statistics-neutral (shard_serve_seconds never exceeds
    serve_seconds)."""
    with build_query_engine() as engine:
        kind = "minimum-range-query"
        query_class, _ = engine.registration(kind)
        data, queries = query_class.sample_workload(48, 21, 6)
        ds = engine.attach("d", data, kinds=[kind], shards=4)
        registration = ds.registration_for(kind)
        sharded = engine._planner.resolve(kind, registration, data, ds.fingerprint)
        assert sharded.built_count() == 4  # a full ShardedStructure
        kernel = ShardedKernel(engine, kind, registration)
        for query in queries:
            assert kernel.one(sharded, query) == _ask(engine, kind, data, query)
            assert kernel.one(sharded, query, CostTracker()) == kernel.one(sharded, query)
        stats = engine.stats().per_kind[kind]
        assert stats.queries == len(queries)  # one() bumped nothing
        assert stats.serve_seconds >= stats.shard_serve_seconds


def test_empty_shards_answer_correctly():
    with build_query_engine() as engine:
        data = (5, 9)  # 8 buckets, at most 2 occupied
        assert _ask(engine, "list-membership", data, 5, shards=8) is True
        assert _ask(engine, "list-membership", data, 6, shards=8) is False
        assert engine.stats().per_kind["list-membership"].shard_builds <= 2


def test_numeric_alias_queries_route_like_they_compare():
    """1 == 1.0 == True, so hash routing must co-bucket the aliases; a float
    probe against int data must match the monolithic answer."""
    assert stable_bucket(1, 8) == stable_bucket(1.0, 8) == stable_bucket(True, 8)
    assert stable_bucket((1, 2), 8) == stable_bucket((1.0, 2.0), 8)
    with build_query_engine() as sharded, build_query_engine() as mono:
        data = tuple(range(16))
        for probe in (1.0, True, 7, 7.0, 3.5):
            assert (
                _ask(sharded, "list-membership", data, probe)
                == _ask(mono, "list-membership", data, probe, shards=1)
            ), probe


def test_sharded_rmq_rejects_malformed_windows_like_monolithic():
    from repro.core.errors import IndexError_

    with build_query_engine() as engine:
        data = tuple(range(8))
        with pytest.raises(IndexError_, match="bad RMQ range"):
            _ask(engine, "minimum-range-query", data, (0, 100, 0))
        with pytest.raises(IndexError_, match="bad RMQ range"):
            _ask(engine, "minimum-range-query", data, (5, 2, 3))


def test_sharded_topk_rejects_invalid_k_like_monolithic():
    with build_query_engine() as engine:
        data = tuple((i, 100 - i) for i in range(16))
        with pytest.raises(ValueError, match="bad top-k"):
            _ask(engine, "topk-threshold", data, ((1, 1), 0, 5))


# -- shard-level invalidation --------------------------------------------------


def test_point_change_rebuilds_only_its_block():
    """Range policy: an in-place point write leaves K-1 block artifacts warm."""
    with build_query_engine() as engine:
        kind = "minimum-range-query"
        query_class, scheme = engine.registration(kind)
        data, queries = query_class.sample_workload(64, 11, 4)
        before = engine.attach("before", data, kinds=[kind], shards=4).warm()
        assert engine.stats().per_kind[kind].shard_builds == 4

        changed = list(data)
        changed[20] = changed[20] - 1000  # block 1 of 4 (offsets 16..31)
        changed = tuple(changed)
        registration = before.registration_for(kind)
        after = engine.attach("after", changed, kinds=[kind], shards=4)
        old_plan = engine._planner.plan(kind, registration, data, before.fingerprint)
        new_plan = engine._planner.plan(kind, registration, changed, after.fingerprint)
        reused, rebuilt = plan_diff(old_plan, new_plan)
        assert rebuilt == {1} and reused == {0, 2, 3}
        # The spec's change router predicts the same shard.
        assert touched_shards(old_plan, [20], scheme.sharding) == {1}

        after.warm()
        assert engine.stats().per_kind[kind].shard_builds == 5  # one rebuild, not four
        for query in queries:
            assert after.query(kind, query) == \
                query_class.pair_in_language(changed, query)


def test_tuple_change_batch_rebuilds_only_touched_relation_shards():
    """Hash policy: an incremental TupleChange batch routes to its buckets."""
    with build_query_engine() as engine:
        kind = "point-selection"
        query_class, scheme = engine.registration(kind)
        data, _ = query_class.sample_workload(80, 5, 1)
        ds = engine.attach("d", data, kinds=[kind], shards=4).warm()
        cold_builds = engine.stats().per_kind[kind].shard_builds
        assert cold_builds == 4

        row = (123456, 654321)
        changes = [TupleChange(ChangeKind.INSERT, row)]
        registration = ds.registration_for(kind)
        old_plan = engine._planner.plan(kind, registration, data, ds.fingerprint)
        predicted = touched_shards(old_plan, changes, scheme.sharding)
        assert len(predicted) == 1

        data.insert(row)
        ds.detach()  # in-place mutation contract: detach, re-attach
        ds = engine.attach("d", data, kinds=[kind], shards=4).warm()
        stats = engine.stats().per_kind[kind]
        assert stats.shard_builds == cold_builds + len(predicted)
        assert ds.query(kind, ("a", 123456)) is True


def test_touched_shards_degrades_to_all_without_locate():
    with build_query_engine() as engine:
        kind = "minimum-range-query"
        data = tuple(range(32))
        registration = engine.attach("d", data, kinds=[kind], shards=4).registration_for(kind)
        plan = engine._planner.plan(kind, registration, data, dataset_fingerprint(data))
        spec = registration.scheme.sharding
        # An unroutable change (not an array position) is conservative.
        assert touched_shards(plan, ["not-a-position"], spec) == {0, 1, 2, 3}


def test_invalidate_drops_shard_plans_for_mutated_lists():
    with build_query_engine() as engine:
        kind = "list-membership"
        data = [1, 2, 3]
        assert _ask(engine, kind, data, 4) is False
        data.append(4)
        engine.detach("d")
        assert _ask(engine, kind, data, 4) is True


# -- one kernel per storage shape (ISSUE 14) --------------------------------------


def test_sharded_mutable_session_accrues_shard_serve_seconds():
    """Scatter time is booked by the sharded kernel's settle, so a mutable
    session accrues it exactly like an immutable one (it used to stay 0)."""
    with build_query_engine() as engine:
        kind = "list-membership"
        ds = engine.attach("d", tuple(range(64)), kinds=[kind], shards=4, mutable=True)
        assert ds.query(kind, 7) is True
        assert ds.query_tracked(kind, 7, CostTracker()) is True
        assert ds.query_batch([(kind, 7), (kind, 64)]) == [True, False]
        stats = engine.stats().per_kind[kind]
        assert stats.queries == 4
        assert 0 < stats.shard_serve_seconds <= stats.serve_seconds


def test_tracked_sharded_queries_serve_from_captured_shards():
    """query_tracked evaluates over the plan's captured shard list: one cache
    probe per shard on first touch, then no probes and no plan-memo lookups."""
    with build_query_engine() as engine:
        kind = "list-membership"
        data = tuple(range(0, 256, 2))
        query_class, _ = engine.registration(kind)
        ds = engine.attach("d", data, kinds=[kind], shards=4).warm()
        engine.reset_stats()
        touched = set()
        for query in range(50):
            expected = query_class.pair_in_language(data, query)
            assert ds.query(kind, query) == expected
            assert ds.query_tracked(kind, query, CostTracker()) == expected
            touched.add(stable_bucket(query, 4))
        stats = engine.stats().per_kind[kind]
        assert 0 < stats.shard_cache_hits <= len(touched)
        assert stats.shard_builds == 0


def test_planner_only_plans_and_builds():
    public = {name for name, member in vars(ShardPlanner).items()
              if callable(member) and not name.startswith("_")}
    assert public == {"plan", "forget", "shard_key", "resolve", "close"}


def test_no_public_callable_takes_a_concurrent_flag():
    import repro.service as service

    def callables():
        for name in service.__all__:
            exported = getattr(service, name)
            if inspect.isclass(exported):
                for attr, member in vars(exported).items():
                    if not attr.startswith("_") or attr == "__init__":
                        member = getattr(member, "__func__", member)
                        if inspect.isfunction(member):
                            yield f"{name}.{attr}", member
            elif inspect.isfunction(exported):
                yield name, exported

    offenders = [name for name, function in callables()
                 if "concurrent" in inspect.signature(function).parameters]
    assert offenders == []
    with build_query_engine() as engine:
        ds = engine.attach("d", (1, 2, 3), kinds=["list-membership"])
        with pytest.raises(TypeError, match="concurrent"):
            ds.query_batch([("list-membership", 2)], concurrent=False)
        assert ds.query_batch([("list-membership", 2)]) == [True]
