"""Unit tests for sharded Pi-structures (ISSUE 2).

Covers the merge-operator algebra, shard planning (policies, routing,
content-addressed shard artifacts), engine integration (``attach(...,
shards=K)``, shard statistics, concurrent scatter-gather), and shard-level
invalidation: change batches must rebuild only the shards they touch.
"""

from __future__ import annotations

import enum
import inspect
import itertools
import random
import threading
import zlib
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.catalog import build_query_engine
from repro.core.cost import CostTracker
from repro.core.errors import ServiceError
from repro.service.artifacts import ArtifactStore
from repro.service.engine import QueryEngine
from repro.service.merge import (
    merge_sorted_desc,
    monoid_merge,
    range_blocks,
    stable_bucket,
    stable_buckets,
    union_merge,
)
from repro.service.sharding import ShardedKernel, ShardedStructure
from repro.storage.fingerprint import dataset_fingerprint
from helpers import shardable_kinds

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


#: One ``columns.word_crc_buckets`` pass, in values.
CHUNK = 1 << 12


@pytest.mark.parametrize(
    "values",
    [
        tuple(range(-300, 300)) + (1 << 70, -(1 << 70)),  # plain ints past 64 bits
        (1, True, 2.0, 3.5), ((1, 2), (1.0, 2.0), [3]), ("x", None, 7), (),
        (-(1 << 63), (1 << 63) - 1, 0, -1, 1 << 62),  # int64 extremes: 'q'
        (1 << 63, (1 << 64) - 1, 1 << 64, 5),  # past int64, and past 64 bits
        (1 << 63, -1, 3),  # no 64-bit word holds both ends
        tuple(range(-128, 128)),  # 'b'
        tuple(range(-(1 << 15), 1 << 15, 97)),  # 'h'
        tuple(range(-(1 << 31), 1 << 31, (1 << 22) + 7)),  # 'i'
        tuple(range(-CHUNK, CHUNK + 5)) + (1 << 40, 1 << 64),  # three passes, the last past 64 bits
    ],
    ids=["ints", "int-likes", "rows", "mixed", "empty", "int64-extremes", "past-int64",
         "no-word", "signed-b", "signed-h", "signed-i", "chunks"],
)
def test_stable_buckets_is_the_per_element_function(values):
    """Identical pieces whichever path buckets them, for every splitter."""
    from repro.queries.membership import _split_list

    for shards in (1, 2, 3, 4, 7, 256, 257, 1000):
        assert stable_buckets(values, shards) == [stable_bucket(value, shards) for value in values]
    with pytest.raises(ValueError):
        stable_buckets(values, 0)
    if values and set(map(type, values)) == {int}:
        pieces = [[] for _ in range(4)]
        for value in values:
            pieces[stable_bucket(value, 4)].append(value)
        assert [piece.data for piece in _split_list(values, 4)] == list(map(tuple, pieces))


def test_an_int_buckets_by_the_crc_of_its_8_byte_word():
    """The partition rule for integers, pinned: shard keys follow from it."""
    rng = random.Random(7)
    values = [0, 1, -1, 255, 256, -(1 << 63), (1 << 64) - 1, 1 << 64, -(1 << 70)]
    values += [rng.randrange(-(1 << 66), 1 << 66) for _ in range(500)]
    runs = (values, [value % 2**64 for value in values], [value >> 40 for value in values])
    for run, shards in itertools.product(runs, (1, 2, 4, 7, 1000)):
        expected = [zlib.crc32((value % 2**64).to_bytes(8, "little")) % shards for value in run]
        assert [stable_bucket(value, shards) for value in run] == expected
        assert stable_buckets(run, shards) == expected


@pytest.mark.parametrize(
    "values",
    [range(1 << 16), range(0, 64 << 16, 64), range(0, 1 << 48, 1 << 32)],
    ids=["sequential", "stride-64", "multiples-of-2^32"],
)
def test_int_buckets_are_balanced(values):
    """Regular integer runs spread within 5 % of n / K over every bucket."""
    for shards in (2, 4, 7):
        sizes = Counter(stable_buckets(values, shards))
        assert sorted(sizes) == list(range(shards))
        fair = len(values) / shards
        assert all(abs(size - fair) <= 0.05 * fair for size in sizes.values()), (shards, sizes)


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
        # One build: the sharded path would build one per shard.
        assert engine.stats().per_kind["tree-lca"].builds == 1


def test_shardable_kinds_lists_spec_carriers():
    with build_query_engine() as engine:
        assert set(SHARDABLE_KINDS) <= set(shardable_kinds(engine))
        assert "tree-lca" not in shardable_kinds(engine)
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
    """Cold concurrent scatter-gather: callers' threads resolving the same
    shard plans inline never deadlock on the per-key build locks, one build
    per shard artifact, answers identical to sequential and naive."""
    store = ArtifactStore(tmp_path)
    with build_query_engine(store=store) as engine:
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
            assert engine.dataset(kind).shards_for(kind) == 4, kind
            assert 0 < engine.stats().per_kind[kind].builds <= 4, kind


def test_shard_stats_track_builds_and_serve_time(tmp_path):
    with build_query_engine(store=ArtifactStore(tmp_path)) as engine:
        kind = "minimum-range-query"
        query_class, _ = engine.registration(kind)
        data, queries = query_class.sample_workload(64, 7, 6)
        for query in queries:
            _ask(engine, kind, data, query)
        assert engine.dataset("d").shards_for(kind) == 4
        stats = engine.stats().per_kind[kind]
        assert stats.builds == 4  # one build per block, once
        assert stats.queries == len(queries)
        assert stats.build_seconds > 0
        assert stats.serve_seconds > 0


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
        assert stats.builds == 0
        assert stats.store_hits == 4  # every shard loaded, none rebuilt


def test_routed_membership_probes_one_shard():
    kind, data = "list-membership", tuple(range(256))
    with build_query_engine() as engine:
        ds = engine.attach("d", data, kinds=[kind], shards=4)
        ds.warm()  # builds all 4 buckets into the serve plan's own list
        before = engine.stats().per_kind[kind]
        assert ds.query(kind, 100) is True
        after = engine.stats().per_kind[kind]
        # Warmed: the routed query asks its one bucket and probes nothing.
        assert (after.cache_hits - before.cache_hits,
                after.store_hits - before.store_hits,
                after.builds - before.builds) == (0, 0, 0)
    with build_query_engine() as engine:
        cold = engine.attach("cold", data, kinds=[kind], shards=4)
        assert cold.query(kind, 100) is True
        # Cold: the first query resolves the whole shard plan, like warm().
        before = engine.stats().per_kind[kind]
        assert before.builds == 4
        probes = {stable_bucket(value, 4): value for value in data}
        assert sorted(probes) == [0, 1, 2, 3]
        for value in probes.values():
            assert cold.query(kind, value) is True
        after = engine.stats().per_kind[kind]
        # One probe into each bucket: no build, no cache probe.
        assert (after.cache_hits - before.cache_hits, after.builds - before.builds,
                after.queries - before.queries) == (0, 0, 4)


def test_sharded_plan_resolves_every_shard_once_at_build():
    """After one cold query the serve plan holds one ShardedStructure with
    every non-empty shard resolved; resolve() returns that same object."""
    with build_query_engine() as engine:
        kind = "list-membership"
        ds = engine.attach("d", (1, 2, 3, 5, 8, 13), kinds=[kind], shards=4)
        assert ds.query(kind, 5) is True
        built = engine.stats().per_kind[kind].builds
        plan = ds._plan(kind)
        sharded = plan.resolve()
        assert plan.resolve() is sharded
        non_empty = [
            structure
            for shard, structure in zip(sharded.plan.planned, sharded.structures)
            if not shard.piece.is_empty()
        ]
        assert None not in non_empty
        assert built == len(non_empty)  # all built by the first query


def test_resolve_then_answer_matches_execute_and_keeps_stats_invariant():
    """The session's per-shard resolution plus the sharded kernel's one()
    equals the session's query(); resolution counts like any structure's,
    and the kernel counts nothing."""
    with build_query_engine() as engine:
        kind = "minimum-range-query"
        query_class, _ = engine.registration(kind)
        data, queries = query_class.sample_workload(48, 21, 6)
        ds = engine.attach("d", data, kinds=[kind], shards=4)
        sharded, source = ds._resolve(kind, data)
        assert source == "shards" and isinstance(sharded, ShardedStructure)
        assert None not in sharded.structures  # a full ShardedStructure
        kernel = ShardedKernel(ds.registration_for(kind))
        for query in queries:
            assert kernel.one(sharded, query) == _ask(engine, kind, data, query)
            assert kernel.one(sharded, query, CostTracker()) == kernel.one(sharded, query)
        stats = engine.stats().per_kind[kind]
        assert stats.queries == len(queries)  # one() bumped nothing
        # _resolve built the four blocks; the plan's own resolve hit them.
        assert (stats.builds, stats.cache_hits) == (4, 4)


def test_empty_shards_answer_correctly():
    with build_query_engine() as engine:
        data = (5, 9)  # 8 buckets, at most 2 occupied
        assert _ask(engine, "list-membership", data, 5, shards=8) is True
        assert _ask(engine, "list-membership", data, 6, shards=8) is False
        assert engine.stats().per_kind["list-membership"].builds <= 2


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


class _Small(enum.IntEnum):
    ELEVEN = 11
    TWELVE = 12
    SIXTY = 60


def test_integer_likes_route_like_the_ints_they_equal():
    """numpy integers, ``IntEnum`` members and bools equal plain ints, so a
    sharded membership session must answer every probe as the monolithic
    one does, whichever side holds the integer-like."""
    import numpy as np

    datasets = {
        "numpy": np.arange(0, 200, 3),
        "intenum": tuple(range(0, 200, 7)) + tuple(_Small),
        "bool": (True, 5, 9, 40),
        "plain": tuple(range(0, 200, 5)),
    }
    probes = list(range(-2, 202)) + list(np.arange(0, 200, 3)) + list(_Small) + [True, False]
    for name, data in datasets.items():
        with build_query_engine() as engine:
            mono = engine.attach(f"{name}-1", data, kinds=["list-membership"], shards=1)
            for shards in (2, 4, 7):
                sharded = engine.attach(f"{name}-{shards}", data, kinds=["list-membership"],
                                        shards=shards)
                for probe in probes:
                    assert sharded.query("list-membership", probe) == mono.query(
                        "list-membership", probe
                    ), (name, shards, probe)


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
    """Range split: an in-place point write leaves K-1 block artifacts warm."""
    with build_query_engine() as engine:
        kind = "minimum-range-query"
        query_class, _ = engine.registration(kind)
        data, queries = query_class.sample_workload(64, 11, 4)
        before = engine.attach("before", data, kinds=[kind], shards=4).warm()
        assert engine.stats().per_kind[kind].builds == 4

        changed = list(data)
        changed[20] = changed[20] - 1000  # block 1 of 4 (offsets 16..31)
        changed = tuple(changed)
        after = engine.attach("after", changed, kinds=[kind], shards=4)
        after.warm()
        assert engine.stats().per_kind[kind].builds == 5  # one rebuild, not four
        for query in queries:
            assert after.query(kind, query) == \
                query_class.pair_in_language(changed, query)


def test_tuple_change_batch_rebuilds_only_touched_relation_shards():
    """Hash split: an inserted row changes only its bucket's content key."""
    with build_query_engine() as engine:
        kind = "point-selection"
        query_class, _ = engine.registration(kind)
        data, _ = query_class.sample_workload(80, 5, 1)
        ds = engine.attach("d", data, kinds=[kind], shards=4).warm()
        cold_builds = engine.stats().per_kind[kind].builds
        assert cold_builds == 4

        row = (123456, 654321)
        data.insert(row)
        ds.detach()  # in-place mutation contract: detach, re-attach
        ds = engine.attach("d", data, kinds=[kind], shards=4).warm()
        stats = engine.stats().per_kind[kind]
        assert stats.builds == cold_builds + 1
        assert ds.query(kind, ("a", 123456)) is True


def test_invalidate_drops_shard_plans_for_mutated_lists():
    with build_query_engine() as engine:
        kind = "list-membership"
        data = [1, 2, 3]
        assert _ask(engine, kind, data, 4) is False
        data.append(4)
        engine.detach("d")
        assert _ask(engine, kind, data, 4) is True


# -- one kernel per storage shape (ISSUE 14) --------------------------------------


def test_sharded_mutable_session_accrues_serve_seconds():
    """Scatter time is booked by the serve plan, so a mutable session
    accrues it exactly like an immutable one."""
    with build_query_engine() as engine:
        kind = "list-membership"
        ds = engine.attach("d", tuple(range(64)), kinds=[kind], shards=4, mutable=True)
        assert ds.query(kind, 7) is True
        assert ds.query_tracked(kind, 7, CostTracker()) is True
        assert ds.query_batch([(kind, 7), (kind, 64)]) == [True, False]
        stats = engine.stats().per_kind[kind]
        assert stats.queries == 4
        assert stats.serve_seconds > 0


def test_tracked_sharded_queries_serve_from_captured_shards():
    """query_tracked evaluates over the plan's captured shard list: after
    warm() every shard is captured, so no query probes the cache."""
    with build_query_engine() as engine:
        kind = "list-membership"
        data = tuple(range(0, 256, 2))
        query_class, _ = engine.registration(kind)
        ds = engine.attach("d", data, kinds=[kind], shards=4).warm()
        before = engine.stats().per_kind[kind]
        touched = set()
        for query in range(50):
            expected = query_class.pair_in_language(data, query)
            assert ds.query(kind, query) == expected
            assert ds.query_tracked(kind, query, CostTracker()) == expected
            touched.add(stable_bucket(query, 4))
        after = engine.stats().per_kind[kind]
        assert len(touched) == 4  # every shard was asked
        assert after.cache_hits - before.cache_hits == 0
        assert after.builds - before.builds == 0


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


def test_query_engine_takes_store_and_cache_entries_only():
    """No shard-build pool, so nothing to size: the engine constructor
    takes exactly ``store`` and ``cache_entries``."""
    parameters = [p for p in inspect.signature(QueryEngine.__init__).parameters
                  if p != "self"]
    assert parameters == ["store", "cache_entries"]
    with pytest.raises(TypeError, match="max_workers"):
        QueryEngine(max_workers=4)


def test_sharded_resolution_starts_no_thread(tmp_path):
    """Cold builds and warm store loads of every shard run on the calling
    thread: the engine starts no thread of its own."""
    store = ArtifactStore(tmp_path)
    data = tuple(range(512))
    before = set(threading.enumerate())

    def started():
        return sorted(t.name for t in set(threading.enumerate()) - before)

    with build_query_engine(store=store) as cold:
        cold.attach("d", data, kinds=["list-membership"], shards=4).warm()
        assert cold.stats().per_kind["list-membership"].builds == 4
        assert started() == []
    with build_query_engine(store=store) as warm:
        ds = warm.attach("d", data, kinds=["list-membership"], shards=4).warm()
        assert warm.stats().per_kind["list-membership"].store_hits == 4
        assert ds.query("list-membership", 511) is True
        assert started() == []
