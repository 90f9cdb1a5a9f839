"""Unit tests for the typed-column state layout (ISSUE 17, 19, 21).

* ``indexes/columns.py`` picks typecodes -- and is the only module that does;
* packing never loses to pickle on the int ranges the yardstick stores
  (``store_bytes_per_item`` has bound 0), a non-negative run takes the bits
  its largest value needs (byte lanes plus one sub-byte plane), and the one
  range where a pickled list still wins by a fraction of a byte -- signed
  runs past 32 bits, which keep the machine word -- is pinned, not hidden;
* layout floors: dumped bytes per item of the three array schemes, of the
  per-attribute B+-trees and of the top-k index at 2^14 (ISSUE 21: gap-coded
  sorted runs, no stored identity level or gathered values);
* flat-leaf B+-trees: build and load allocate per leaf, not per entry or
  per key, and the trees of one relation hold counts, not row ids;
* an artifact keyed by the previous layout of each bumped scheme, or written
  in the previous store format, is a miss that rebuilds.

No clocks anywhere: sizes are counts that repeat exactly.
"""

from __future__ import annotations

import ast
import gc
import hashlib
import json
import pickle
import random
import struct
import sys
from array import array
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.core.cost import CostTracker
from repro.indexes import columns
from repro.indexes.btree import BPlusTree
from repro.indexes.sparse_table import SparseTable, naive_range_min
from repro.queries import (
    bds_query_class,
    btree_point_scheme,
    btree_range_scheme,
    euler_tour_scheme,
    fischer_heun_scheme,
    hash_point_scheme,
    membership_class,
    point_selection_class,
    position_index_scheme,
    range_selection_class,
    rmq_class,
    sorted_run_scheme,
    sparse_table_scheme,
    threshold_algorithm_scheme,
    topk_class,
    tree_lca_class,
)
from repro.service.artifacts import MAGIC, ArtifactKey, ArtifactStore
from repro.service.engine import QueryEngine
from repro.storage.relation import uniform_int_relation

N = 1 << 14


def _uniform(bound, count=N, seed=17):
    rng = random.Random(seed)
    return [rng.randrange(bound) for _ in range(count)]


# -- the helper ----------------------------------------------------------------


@pytest.mark.parametrize(
    "bound,code",
    [(0, "H"), (1, "H"), (1 << 16, "H"), ((1 << 16) + 1, "I"), (1 << 32, "I"),
     ((1 << 32) + 1, "Q")],
)
def test_position_typecode_follows_the_bound(bound, code):
    assert columns.positions([], bound).typecode == code


@pytest.mark.parametrize("bound,code", [(1, "B"), (1 << 8, "B"), ((1 << 8) + 1, "H"), ((1 << 16) + 1, "I")])
def test_id_typecode_follows_the_bound(bound, code):
    column = columns.ids([bound - 1], bound)
    assert column.typecode == code and list(column) == [bound - 1]


def test_positions_always_copies():
    column = columns.positions([3, 1, 2], 4)
    again = columns.positions(column, 4)
    assert again == column and again is not column
    with pytest.raises(OverflowError):
        columns.positions([-1], 4)  # no sentinel survives in a position column


def test_count_column_holds_any_list_length():
    """A run can grow to the longest list, so the column is typed by
    ``sys.maxsize``, not by the counts it starts with; a list is not one."""
    column = columns.counts([1, 2])
    column.append(sys.maxsize)
    assert columns.is_counts(column) and columns.is_counts(column[1:])
    assert not columns.is_counts([1, 2]) and not columns.is_counts(columns.pack([1, 2]))
    assert list(columns.counts(columns.words([3, 70000]))) == [3, 70000]
    # At rest the counts are a 17-bit sub-word form, read back through unpack.
    assert list(columns.counts(columns.unpack(columns.pack([3, 70000])))) == [3, 70000]


@pytest.mark.parametrize(
    "values,code",
    [
        ([0, 255], "B"), ([-1, 127], "b"), ([0, 256], "H"), ([-129, 0], "h"),
        ([0, 65535], "H"), ([-1, 32768], "i"), ([0, 65536], "I"),
        ([0, (1 << 32) - 1], "I"), ([-1, 1 << 31], "q"), ([0, 1 << 32], "Q"),
        ([0, (1 << 64) - 1], "Q"), ([-(1 << 63), (1 << 63) - 1], "q"),
    ],
)
def test_pack_picks_the_narrowest_code_unsigned_first(values, code):
    """``words`` picks the code; at rest a non-negative run whose largest
    value is not exactly a word wide takes that value's bits (9, 17, 33:
    whole lanes and a 1-bit plane), and every other run keeps the word."""
    assert columns.words(values).typecode == code
    packed = columns.pack(values)
    bits = max(values).bit_length()
    if code.isupper() and bits != 8 * array(code).itemsize:
        assert packed[0] == bits and bits % 8 == 1
    else:
        assert packed.typecode == code
    assert columns.unpack(packed) == values


@pytest.mark.parametrize(
    "values",
    [[], [True, False], [1, True], [1.0, 2.0], [1, 2.5], ["a"], [None, 1], [(1, 2)],
     [-1, 1 << 63], [1 << 64], [-(1 << 63) - 1]],
)
def test_pack_falls_back_to_a_list_copy(values):
    packed = columns.pack(values)
    assert type(packed) is list and packed is not values
    assert packed == values and list(map(type, packed)) == list(map(type, values))


# -- packing against pickle ----------------------------------------------------


@pytest.mark.parametrize("bits,width", [(8, 1), (16, 2), (18, 4), (31, 4)])
def test_packed_run_never_loses_to_a_pickled_list(bits, width):
    """Pickle spends 2 / 3 / 5 bytes on ints below 2^8 / 2^16 / 2^31, so a
    signed-only choice ('i' for values below 2^16) would *grow* artifacts."""
    values = _uniform(1 << bits)
    scheme = sorted_run_scheme()
    dumped = scheme.dump(scheme.preprocess(values, CostTracker()))
    pickled = pickle.dumps({"run": sorted(values)}, protocol=4)
    assert len(dumped) < len(pickled), (bits, len(dumped), len(pickled))
    assert len(dumped) / N <= width + 0.02


def test_beyond_int32_a_pickled_list_wins_by_under_a_byte():
    """The crossover, pinned: a signed run past 2^32 keeps its 8-byte word
    while pickle's LONG1 averages under 8 for 40-bit magnitudes; 40-bit
    non-negative values take five byte lanes and beat pickle by ~2.5."""
    values = [value - (1 << 40) for value in _uniform(1 << 41)]
    packed = len(pickle.dumps(columns.pack(values), protocol=4)) / N
    pickled = len(pickle.dumps(values, protocol=4)) / N
    assert 8.0 <= packed <= 8.02
    assert 0.0 < packed - pickled < 1.0, (packed, pickled)
    values = _uniform(1 << 40)
    packed = len(pickle.dumps(columns.pack(values), protocol=4)) / N
    pickled = len(pickle.dumps(values, protocol=4)) / N
    assert 5.0 <= packed <= 5.01
    assert 2.0 < pickled - packed < 3.0, (packed, pickled)


# -- layout floors -------------------------------------------------------------


@pytest.mark.parametrize(
    "make_scheme,ceiling",
    [
        (sorted_run_scheme, 1.02),  # parent: 2.006 (PR 16: 3.0)
        (fischer_heun_scheme, 3.03),  # parent: 3.98 (a block-argmin column, a stored word table)
        (sparse_table_scheme, 26.1),  # parent: 28.03 (PR 16: 41.9)
    ],
    ids=["sort+binary-search", "fischer-heun", "sparse-table"],
)
def test_dumped_bytes_per_item_floor(make_scheme, ceiling):
    """2^14 ints from [0, 4n): every value and position fits 'H', the sorted
    run's gaps fit 'B'; no level 0, no summary values (n/3 blocks, each with
    a 'B' table id and an 'H' stack mask; no argmin column, no word table)."""
    scheme = make_scheme()
    data = tuple(_uniform(4 * N))
    dumped = scheme.dump(scheme.preprocess(data, CostTracker()))
    assert len(dumped) / N <= ceiling, len(dumped) / N


# -- flat-leaf B+-trees ----------------------------------------------------------


def test_relation_artifact_bytes_per_item_floor():
    """Two counted trees over 2^14 rows with values below 2^16: per tree
    ~0.885 n distinct keys as 'B' gaps and their counts (all below 16) in a
    4-bit plane, no row ids (a value of 2^16 or more no longer widens the
    stored keys)."""
    scheme = btree_point_scheme()
    relation = uniform_int_relation(N, random.Random(17), value_range=(0, 4 * N - 1))
    dumped = scheme.dump(scheme.preprocess(relation, CostTracker()))
    assert len(dumped) / N <= 2.67, len(dumped) / N  # parent: 3.546 (counts in 'B')
    wide = uniform_int_relation(N, random.Random(17), value_range=(1 << 20, (1 << 20) + 4 * N))
    dumped = scheme.dump(scheme.preprocess(wide, CostTracker()))
    assert len(dumped) / N <= 2.67, len(dumped) / N  # parent: 3.546 (counts in 'B')


def test_hash_point_artifact_bytes_per_item_ceiling():
    """Two hash indexes over 2^14 rows with values below 2^16: per attribute
    the distinct keys in 'H' (bucket order, not sorted) and their counts in
    a 4-bit plane -- no payload column."""
    scheme = hash_point_scheme()
    relation = uniform_int_relation(N, random.Random(17), value_range=(0, 4 * N - 1))
    dumped = scheme.dump(scheme.preprocess(relation, CostTracker()))
    assert len(dumped) / N <= 4.43, len(dumped) / N  # parent: 5.312 (counts in 'B')


def test_topk_artifact_bytes_per_item_floor():
    """2^14 rows of two scores in [0, 1000]: ids as 'B' gaps, two score
    columns of 10 bits (a lane and a 2-bit plane) and two sorted id lists
    in 'H' (before typed columns: a pickled (id, row) list and two pickled
    (score, id) lists)."""
    scheme = threshold_algorithm_scheme()
    rng = random.Random(17)
    table = tuple((rng.randrange(1001), rng.randrange(1001)) for _ in range(N))
    dumped = scheme.dump(scheme.preprocess(table, CostTracker()))
    assert len(dumped) / N <= 6.65, len(dumped) / N  # parent: 9.014 (scores in 'H')


def _tracked_objects_left_by(make):
    """How many more ``gc``-tracked objects exist once ``make()`` returned
    (and its result is alive); the collector is held off for the count only."""
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        kept = make()
        return len(gc.get_objects()) - before, kept
    finally:
        gc.enable()


def test_btree_build_and_load_allocate_per_leaf_not_per_key():
    """The cyclic collector's work is the count of tracked containers a
    build leaves behind: a node, two lists and a counts column per leaf of
    ~32 keys, 0.115 n (order 32: 0.23 n; before flat leaves: a tuple per
    entry and a list per distinct key, 1.12 n)."""
    keys = _uniform(4 * N)
    built, tree = _tracked_objects_left_by(lambda: BPlusTree.from_keys(keys))
    assert 0 < built < N / 6, built / N
    state = tree.to_state()
    loaded, clone = _tracked_objects_left_by(lambda: BPlusTree.from_state(state))
    assert 0 < loaded < N / 6, loaded / N
    assert Counter(clone.keys()) == Counter(tree.keys()) == Counter(keys)


def test_selection_trees_hold_counts_not_row_ids():
    """The selection queries are Boolean, so each attribute's tree indexes
    its value multiset: the state has no ``payloads`` column -- only the
    keys and how often each occurs."""
    relation = uniform_int_relation(1 << 10, random.Random(17))
    trees = btree_point_scheme().preprocess(relation, CostTracker())
    for attribute, tree in trees.items():
        assert set(tree.to_state()) == {"order", "keys", "counts"}
        assert Counter(tree.keys()) == Counter(relation.column(attribute))
        tree.check_invariants()


# -- versioning ----------------------------------------------------------------


@pytest.mark.parametrize(
    "make_class,make_scheme,version",
    [
        (membership_class, sorted_run_scheme, 4),
        (rmq_class, fischer_heun_scheme, 6),
        (rmq_class, sparse_table_scheme, 4),
        (tree_lca_class, euler_tour_scheme, 4),
        (point_selection_class, btree_point_scheme, 6),
        (range_selection_class, btree_range_scheme, 6),
        (point_selection_class, hash_point_scheme, 5),
        (topk_class, threshold_algorithm_scheme, 4),
        (bds_query_class, position_index_scheme, 2),
    ],
    ids=["sort+binary-search", "fischer-heun", "sparse-table", "euler-tour-rmq",
         "btree-point", "btree-range", "hash-point", "threshold-algorithm",
         "bds-position-run"],
)
def test_v1_artifact_is_a_miss_that_rebuilds(tmp_path, make_class, make_scheme, version):
    """Every scheme whose layout changed bumped ``artifact_version``: a file
    keyed by the previous layout is never opened, let alone mis-loaded."""
    query_class, scheme = make_class(), make_scheme()
    assert scheme.artifact_version == version
    data, queries = query_class.sample_workload(48, 3, 8)
    store = ArtifactStore(tmp_path)
    with QueryEngine(store=store) as engine:
        engine.register("kind", query_class, scheme)
        ds = engine.attach("d", data)
        key = ds.artifact_key("kind")
        assert key.params.endswith(f"|v{version}")
        stale = ArtifactKey(key.fingerprint, key.scheme, key.params[:-1] + str(version - 1))
        store.put(stale, pickle.dumps({"layout": "previous"}))
        for query in queries:
            assert ds.query("kind", query) == query_class.pair_in_language(data, query)
        stats = engine.stats().per_kind["kind"]
        assert (stats.builds, stats.store_hits, stats.checksum_failures) == (1, 0, 0)
        assert pickle.loads(store.get(stale)) == {"layout": "previous"}
        assert scheme.load(store.get(key)) is not None


def test_v4_payload_relation_artifact_is_a_version_miss_that_rebuilds(tmp_path):
    """Counted trees bumped ``btree-per-attribute`` to v5: a v4 file -- every
    row id stored as a payload -- under the previous key is never opened;
    the engine builds once and answers as a fresh build and the oracle do."""
    query_class, scheme = point_selection_class(), btree_point_scheme()
    data, queries = query_class.sample_workload(600, 3, 60)
    previous = {}  # the v4 layout, written out column by column
    for attribute, column in zip(data.schema.attribute_names(), data.columns()):
        by_key = sorted(range(len(column)), key=column.__getitem__)
        runs = Counter(column[i] for i in by_key)
        previous[attribute] = {
            "order": 64,
            "keys": columns.pack_sorted(list(runs)),
            "counts": columns.pack(list(runs.values())),
            "payloads": columns.pack(by_key),
        }
    fresh = scheme.preprocess(data, CostTracker())
    assert pickle.loads(scheme.dump(fresh)) == {
        attribute: {name: column for name, column in state.items() if name != "payloads"}
        for attribute, state in previous.items()
    }
    blob = pickle.dumps(previous, protocol=4)
    store = ArtifactStore(tmp_path)
    with QueryEngine(store=store) as engine:
        engine.register("kind", query_class, scheme)
        ds = engine.attach("d", data)
        key = ds.artifact_key("kind")
        assert key.params.endswith("|v6")
        stale = ArtifactKey(key.fingerprint, key.scheme, key.params[:-1] + "4")
        store.put(stale, blob)
        for query in queries:
            expected = scheme.evaluate(fresh, query, CostTracker())
            assert expected == query_class.pair_in_language(data, query)
            assert ds.query("kind", query) == expected
        stats = engine.stats().per_kind["kind"]
        assert (stats.builds, stats.store_hits, stats.checksum_failures) == (1, 0, 0)
    assert store.get(stale) == blob
    for tree in scheme.load(store.get(key)).values():
        assert "payloads" not in tree.to_state()
        tree.check_invariants()


def _fischer_heun_previous_layout(data, state):
    """The columns v3 and v4 share: v5's but the masks, and each block's
    argmin, computed from the data, not from the structure."""
    n, b = len(data), state["block_size"]
    previous = {name: column for name, column in state.items() if name != "masks"}
    starts = range(0, n, b)
    previous["block_argmin"] = columns.positions(
        [naive_range_min(data, start, min(start + b, n) - 1) for start in starts], n
    )
    return previous


def _assert_previous_layout_never_opened(tmp_path, scheme, data, queries, version, blob):
    """``blob`` under ``fischer-heun``'s v``version`` key is never opened; the
    engine builds once and answers as a fresh build and the oracle do."""
    query_class, fresh = rmq_class(), scheme.preprocess(data, CostTracker())
    store = ArtifactStore(tmp_path)
    with QueryEngine(store=store) as engine:
        engine.register("kind", query_class, scheme)
        ds = engine.attach("d", data)
        key = ds.artifact_key("kind")
        assert key.params.endswith(f"|v{scheme.artifact_version}")
        stale = ArtifactKey(key.fingerprint, key.scheme, key.params[:-1] + str(version))
        store.put(stale, blob)
        for query in queries:
            expected = scheme.evaluate(fresh, query, CostTracker())
            assert expected == query_class.pair_in_language(data, query)
            assert ds.query("kind", query) == expected
        stats = engine.stats().per_kind["kind"]
        assert (stats.builds, stats.store_hits, stats.checksum_failures) == (1, 0, 0)
    assert store.get(stale) == blob
    assert scheme.load(store.get(key)).to_state() == fresh.to_state()


def test_v3_block_minima_table_artifact_is_a_version_miss_that_rebuilds(tmp_path):
    """A v3 ``fischer-heun`` file -- a sparse table over every block
    minimum, table ids typed by n -- is a version miss that rebuilds."""
    query_class, scheme = rmq_class(), fischer_heun_scheme()
    data, queries = query_class.sample_workload(600, 3, 60)
    state = scheme.preprocess(data, CostTracker()).to_state()
    previous = _fischer_heun_previous_layout(data, state)
    previous["block_table"] = columns.positions(state["block_table"], len(data))
    minima = [data[p] for p in previous["block_argmin"]]
    previous["summary"] = SparseTable(minima).to_state()["levels"]
    blob = pickle.dumps(previous, protocol=4)
    _assert_previous_layout_never_opened(tmp_path, scheme, data, queries, 3, blob)


def test_v4_block_argmin_and_word_table_artifact_is_a_version_miss_that_rebuilds(tmp_path):
    """Dropping the block-argmin column and the stored word table bumped
    ``fischer-heun`` to v5: a v4 file -- both of them beside the masks --
    under the previous key is never opened, and one build happens."""
    query_class, scheme = rmq_class(), fischer_heun_scheme()
    data, queries = query_class.sample_workload(600, 3, 60)
    state = scheme.preprocess(data, CostTracker()).to_state()
    previous = _fischer_heun_previous_layout(data, state)
    minima = [data[p] for p in previous["block_argmin"]]
    words = [min(minima[base : base + 16]) for base in range(0, len(minima), 16)]
    previous.update(masks=state["masks"], words=SparseTable(words).to_state()["levels"])
    assert set(state) == set(previous) - {"block_argmin", "words"}
    blob = pickle.dumps(previous, protocol=4)
    _assert_previous_layout_never_opened(tmp_path, scheme, data, queries, 4, blob)


def _word_form(column):
    """A value column as v5 stored it: the machine word ``words`` picks (a
    sorted run's gaps too), not the sub-word form."""
    if isinstance(column, tuple):
        first, gaps = column
        return first, columns.words(columns.unpack(gaps))
    return columns.words(columns.unpack(column))


def test_v5_word_value_column_artifact_is_a_version_miss_that_rebuilds(tmp_path):
    """Sub-word value columns bumped ``fischer-heun`` to v6: a v5 file --
    the array in its 'H' word, not one byte lane and a 4-bit plane --
    under the previous key is never opened, and one build happens."""
    query_class, scheme = rmq_class(), fischer_heun_scheme()
    data, queries = query_class.sample_workload(600, 3, 60)
    data = tuple(value + len(data) for value in data)  # non-negative, below 2^11
    state = scheme.preprocess(data, CostTracker()).to_state()
    previous = {**state, "array": columns.words(data)}
    assert previous["array"].typecode == "H" and state["array"][0] == 12
    blob = pickle.dumps(previous, protocol=4)
    _assert_previous_layout_never_opened(tmp_path, scheme, data, queries, 5, blob)


def test_v5_word_relation_artifact_is_a_version_miss_that_rebuilds(tmp_path):
    """Sub-word columns bumped ``btree-per-attribute`` to v6: a v5 file --
    each tree's counts and key gaps in machine words -- under the previous
    key is never opened; the engine builds once and answers as a fresh
    build and the oracle do."""
    query_class, scheme = point_selection_class(), btree_point_scheme()
    data, queries = query_class.sample_workload(600, 3, 60)
    fresh = scheme.preprocess(data, CostTracker())
    current = pickle.loads(scheme.dump(fresh))
    previous = {
        attribute: {name: column if name == "order" else _word_form(column)
                    for name, column in state.items()}
        for attribute, state in current.items()
    }
    assert previous != current
    blob = pickle.dumps(previous, protocol=4)
    store = ArtifactStore(tmp_path)
    with QueryEngine(store=store) as engine:
        engine.register("kind", query_class, scheme)
        ds = engine.attach("d", data)
        key = ds.artifact_key("kind")
        assert key.params.endswith("|v6")
        stale = ArtifactKey(key.fingerprint, key.scheme, key.params[:-1] + "5")
        store.put(stale, blob)
        for query in queries:
            expected = scheme.evaluate(fresh, query, CostTracker())
            assert expected == query_class.pair_in_language(data, query)
            assert ds.query("kind", query) == expected
        stats = engine.stats().per_kind["kind"]
        assert (stats.builds, stats.store_hits, stats.checksum_failures) == (1, 0, 0)
    assert store.get(stale) == blob
    assert pickle.loads(store.get(key)) == current


def test_v1_format_file_is_a_version_miss_that_rebuilds(tmp_path):
    """A file in store format 1 (spaced JSON header) sitting where a key
    resolves is a *version* miss -- rebuilt, never counted as corruption,
    its payload never handed to the codec."""
    query_class, scheme = membership_class(), sorted_run_scheme()
    data, queries = query_class.sample_workload(48, 3, 8)
    store = ArtifactStore(tmp_path)
    with QueryEngine(store=store) as engine:
        engine.register("kind", query_class, scheme)
        ds = engine.attach("d", data)
        key = ds.artifact_key("kind")
        payload = b"not a pickle: loading this would raise"
        header = json.dumps(
            {**key.as_header(), "payload_len": len(payload),
             "payload_sha256": hashlib.sha256(payload).hexdigest()},
            sort_keys=True,
        ).encode()
        path = store.put(key, b"")
        path.write_bytes(MAGIC + struct.pack(">HI", 1, len(header)) + header + payload)
        for query in queries:
            assert ds.query("kind", query) == query_class.pair_in_language(data, query)
        stats = engine.stats().per_kind["kind"]
        assert (stats.builds, stats.store_hits, stats.checksum_failures) == (1, 0, 0)
        assert scheme.load(store.get(key)) is not None  # replaced by a v2 file


# -- structure -----------------------------------------------------------------


def test_typecodes_are_chosen_only_in_columns():
    """No other module under ``src/repro`` imports :mod:`array`, so none can
    build a typed column except through ``indexes/columns.py``."""
    root = Path(repro.__file__).parent
    importers = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            if "array" in names:
                importers.append(path.relative_to(root).as_posix())
    assert importers == ["indexes/columns.py"]
