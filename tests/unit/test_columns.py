"""Unit tests for the typed-column state layout (ISSUE 17, 19, 21).

* ``indexes/columns.py`` picks typecodes -- and is the only module that does;
* packing never loses to pickle on the int ranges the yardstick stores
  (``store_bytes_per_item`` has bound 0), a non-negative run takes the bits
  its largest value needs (byte lanes plus one sub-byte plane), and the one
  range where a pickled list still wins by a fraction of a byte -- signed
  runs past 32 bits, which keep the machine word -- is pinned, not hidden;
* a byte run may instead be patched around its outliers: the layout is
  pinned, a patched column no ``pack`` wrote raises ``ValueError`` (and an
  artifact holding one, checksum and all, is a checksum failure that
  rebuilds), and a byte-valued sorted run may take the gap form;
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
from repro.graphs.graph import Graph
from repro.indexes import columns
from repro.indexes.btree import BPlusTree
from repro.indexes.rmq import FischerHeunRMQ
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
    """A column starts in the narrowest unsigned word its counts need and
    is re-typed, a word at a time, until it holds the longest list's count;
    a list is not one."""
    column = columns.counts([1, 2])
    assert column.typecode == "B" and columns.counts(()).typecode == "B"
    assert columns.counts_holding(column, 255) is column
    for count, code in ((256, "H"), (1 << 16, "I"), (sys.maxsize, "Q")):
        column = columns.counts_holding(column, count)
        assert column.typecode == code and list(column) == [1, 2]
    column.append(sys.maxsize)
    assert columns.counts_holding(column, sys.maxsize) is column
    with pytest.raises(OverflowError):
        columns.counts_holding(column, 1 << 64)
    assert columns.is_counts(column) and columns.is_counts(column[1:])
    assert not columns.is_counts([1, 2]) and not columns.is_counts(columns.pack([1, 2]))
    assert not columns.is_counts(columns.words([-1, 2]))  # signed: not a count word
    wide = columns.counts(columns.words([3, 70000]))
    assert wide.typecode == "I" and list(wide) == [3, 70000]
    # An unsigned column narrows by its byte lanes; an iterator is read once.
    assert columns.counts(array("Q", [3, 255])).typecode == "B"
    assert columns.counts(iter([1, 300, 2])) == array("H", [1, 300, 2])
    wide = columns.counts(array("i", [1, 2, 300]))  # read by value, not as its buffer
    assert wide.typecode == "H" and list(wide) == [1, 2, 300]
    for negative in ([-1], array("b", [-1])):
        with pytest.raises(OverflowError):
            columns.counts(negative)
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


# -- the patched form ----------------------------------------------------------

#: Seven 3s, a 20, four 3s: a 0-bit plane around 3 and one exception --
#: position 7, so gap 8 from position -1 (a 4-bit lane form), high part 17
#: (a byte lane) -- 11 bytes against the 'B' word's 12.
OUTLIER = [3] * 7 + [20] + [3] * 4
OUTLIER_PACKED = bytes((0x80, 3, 1, 12, 1)) + bytes((4, 1, 8)) + bytes((8, 0, 17))

#: Twelve values in [200, 216): a 4-bit plane around 200, no exception.
BAND = [200 + (5 * i) % 16 for i in range(12)]


def test_the_patched_layout_is_pinned():
    """``0x80 | w``, the reference, the byte width of the two counts, the
    value count, the exception count, the plane, then the position gaps and
    the high parts in the lane form."""
    assert columns.pack(OUTLIER) == OUTLIER_PACKED
    band = columns.pack(BAND)
    assert band[:5] == bytes((0x84, 200, 1, 12, 0)) and len(band) == 5 + 6
    assert columns.unpack(OUTLIER_PACKED) == OUTLIER and columns.unpack(band) == BAND


def _outlier_column(k, gaps, highs, count=12):
    """``OUTLIER``'s header around its own lists."""
    return bytes((0x80, 3, 1, count, k)) + gaps + highs


@pytest.mark.parametrize(
    "packed,reason",
    [
        (_outlier_column(1, b"\x04\x01\x0d", b"\x08\x00\x11"), "exception position 12 of 12"),
        (_outlier_column(1, b"\x08\x00\xff", b"\x08\x00\x11"), "exception position 254 of 12"),
        (_outlier_column(2, b"\x04\x00\x08", b"\x08\x00\x11\x11"), "not ascending"),
        (_outlier_column(1, b"\x04\x01\x08", b"\x08\x00\x00"), "high part is 0"),
        (_outlier_column(1, b"\x04\x01\x08", b"\x08\x00\xfd"), "byte must be in range"),
        (_outlier_column(2, b"\x04\x01\x08", b"\x08\x00\x11"), "cut short"),
        (_outlier_column(1, b"\x03\x01\x08", b"\x08\x00\x11"), "no lane form"),
        (OUTLIER_PACKED + b"\x00", "length disagrees"),
        (OUTLIER_PACKED[:-1], "cut short"),
        (bytes((0x84, 200, 1, 14, 0)) + columns.pack(BAND)[5:], "plane is shorter than the count"),
        (bytes((0x84, 200, 1, 10, 0)) + columns.pack(BAND)[5:], "length disagrees"),
        (bytes((0x84, 250, 1, 2, 0, 0xFF)), "past a byte"),
        (bytes((0x83, 0, 1, 0, 0)), "no plane is 3 bits wide"),
        (bytes((0x80, 0)), "header is cut short"),
    ],
    ids=["gap past the end", "wide gap past the end", "repeated position", "zero high part",
         "exception past a byte", "second exception missing", "bad lane header",
         "trailing byte", "truncated", "plane short of the count", "plane past the count",
         "plane value past a byte", "three-bit plane", "no header"],
)
def test_a_malformed_patched_column_raises(packed, reason):
    """Never a wrong list: a patched column no ``pack`` could have written
    is a ``ValueError``."""
    with pytest.raises(ValueError, match=reason):
        columns.unpack(packed)
    with pytest.raises(ValueError, match=reason):
        columns.unpack((0, packed))  # as a sorted run's gaps


@pytest.mark.parametrize(
    "packed,reason",
    [
        (b"", "header is cut short"),
        (b"\x04", "header is cut short"),
        (b"\x00\x00", "no lane form has header 0"),
        (b"\x48\x00" + bytes(9), "no lane form has header 72"),
        (b"\x0c\x05\x01\x02", "fit no count"),
        (b"\x0c\x00\x01\x02\x03\x04", "fit no count"),
    ],
    ids=["empty", "one byte", "all-zero header", "nine lanes", "negative count",
         "a lane and a plane of no count"],
)
def test_a_malformed_lane_form_raises(packed, reason):
    """The lane form refuses what no ``pack`` wrote just as the patched
    form does: a ``ValueError``, not an arithmetic or lookup error."""
    with pytest.raises(ValueError, match=reason):
        columns.unpack(packed)


def test_a_byte_valued_sorted_run_may_take_the_gap_form():
    """2^12 sorted values from [0, 200): the values need a whole byte each,
    their gaps (mostly 0, at most a few) a narrow patched plane -- the
    smallest form wins even though the ends fit a byte."""
    values = sorted(_uniform(200, count=1 << 12))
    stored = columns.pack_sorted(values)
    assert columns.words(values).typecode == "B"
    first, gaps = stored
    assert first == values[0] and len(gaps) + 1 < len(columns.pack(values))
    assert columns.unpack(stored) == values


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
        (sorted_run_scheme, 0.54),  # parent: 1.006 (gaps in a 'B' lane; 3.0 as plain words)
        (fischer_heun_scheme, 2.31),  # parent: 2.84 (a 16-bit stack mask per block)
        (sparse_table_scheme, 26.1),  # parent: 28.03 (PR 16: 41.9)
    ],
    ids=["sort+binary-search", "fischer-heun", "sparse-table"],
)
def test_dumped_bytes_per_item_floor(make_scheme, ceiling):
    """2^14 ints from [0, 4n): every value and position fits 'H', the sorted
    run's gaps fit 'B' and are patched (a 4-bit plane, the rare wider gap
    an exception); no level 0, no summary values (n/3 blocks, each with a
    table id -- a 4-bit plane -- and a stack mask cut -- a patched 1-bit
    plane; no argmin column, no word table)."""
    scheme = make_scheme()
    data = tuple(_uniform(4 * N))
    dumped = scheme.dump(scheme.preprocess(data, CostTracker()))
    assert len(dumped) / N <= ceiling, len(dumped) / N


# -- flat-leaf B+-trees ----------------------------------------------------------


def test_relation_artifact_bytes_per_item_floor():
    """Two counted trees over 2^14 rows with values below 2^16: per tree
    ~0.885 n distinct keys as patched gaps (a 4-bit plane and the rare
    wider gap) and their counts -- nearly all 1 -- as a patched plane
    around 1, no row ids (a value of 2^16 or more no longer widens the
    stored keys)."""
    scheme = btree_point_scheme()
    relation = uniform_int_relation(N, random.Random(17), value_range=(0, 4 * N - 1))
    dumped = scheme.dump(scheme.preprocess(relation, CostTracker()))
    assert len(dumped) / N <= 1.19, len(dumped) / N  # parent: 2.661 (lane-form gaps and counts)
    wide = uniform_int_relation(N, random.Random(17), value_range=(1 << 20, (1 << 20) + 4 * N))
    dumped = scheme.dump(scheme.preprocess(wide, CostTracker()))
    assert len(dumped) / N <= 1.19, len(dumped) / N  # parent: 2.661 (lane-form gaps and counts)


def test_hash_point_artifact_bytes_per_item_ceiling():
    """Two hash indexes over 2^14 rows with values below 2^16: per attribute
    the distinct keys in 'H' (bucket order, not sorted) and their counts
    patched around 1 -- no payload column."""
    scheme = hash_point_scheme()
    relation = uniform_int_relation(N, random.Random(17), value_range=(0, 4 * N - 1))
    dumped = scheme.dump(scheme.preprocess(relation, CostTracker()))
    assert len(dumped) / N <= 3.80, len(dumped) / N  # parent: 4.427 (counts in a 4-bit plane)


def test_topk_artifact_bytes_per_item_floor():
    """2^14 rows of two scores in [0, 1000]: ids as gaps (all 1: a patched
    header), two score columns of 10 bits (a lane and a 2-bit plane) and
    two sorted id lists in 'H' (before typed columns: a pickled (id, row)
    list and two pickled (score, id) lists)."""
    scheme = threshold_algorithm_scheme()
    rng = random.Random(17)
    table = tuple((rng.randrange(1001), rng.randrange(1001)) for _ in range(N))
    dumped = scheme.dump(scheme.preprocess(table, CostTracker()))
    assert len(dumped) / N <= 6.52, len(dumped) / N  # parent: 6.637 (ids as 'B' gaps)


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
        (membership_class, sorted_run_scheme, 5),
        (rmq_class, fischer_heun_scheme, 8),
        (rmq_class, sparse_table_scheme, 5),
        (tree_lca_class, euler_tour_scheme, 5),
        (point_selection_class, btree_point_scheme, 7),
        (range_selection_class, btree_range_scheme, 7),
        (point_selection_class, hash_point_scheme, 6),
        (topk_class, threshold_algorithm_scheme, 5),
        (bds_query_class, position_index_scheme, 3),
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
        key = ds.registration_for("kind").key(ds.fingerprint)
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
        key = ds.registration_for("kind").key(ds.fingerprint)
        assert key.params.endswith("|v7")
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


def _raw_table_ids(state):
    """Fischer-Heun's table ids as v3-v6 stored them: the id column itself,
    not packed."""
    return columns.words(columns.unpack(state["block_table"]))


def _mask_words(state):
    """Fischer-Heun's stack masks as v4-v7 stored them: the 'H' column
    itself, not a cut per block."""
    return FischerHeunRMQ.from_state(state)._summary._masks


def _word_mask_layout(state):
    """A v8 state with its cuts swapped for the v7 mask words."""
    previous = {name: column for name, column in state.items() if name != "cuts"}
    previous["masks"] = _mask_words(state)
    return previous


def _fischer_heun_previous_layout(data, state):
    """The columns v3 and v4 share: v5's but the masks, and each block's
    argmin, computed from the data, not from the structure."""
    n, b = len(data), state["block_size"]
    previous = {name: column for name, column in state.items() if name != "cuts"}
    previous["block_table"] = _raw_table_ids(state)
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
        key = ds.registration_for("kind").key(ds.fingerprint)
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
    previous["block_table"] = columns.positions(columns.unpack(state["block_table"]), len(data))
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
    previous.update(masks=_mask_words(state), words=SparseTable(words).to_state()["levels"])
    assert set(state) - {"cuts"} == set(previous) - {"block_argmin", "words", "masks"}
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
    previous = {**_word_mask_layout(state), "array": columns.words(data),
                "block_table": _raw_table_ids(state)}
    assert previous["array"].typecode == "H" and state["array"][0] == 12
    blob = pickle.dumps(previous, protocol=4)
    _assert_previous_layout_never_opened(tmp_path, scheme, data, queries, 5, blob)


def test_v7_word_mask_artifact_is_a_version_miss_that_rebuilds(tmp_path):
    """Storing each stack mask as a one-byte cut bumped ``fischer-heun`` to
    v8: a v7 file -- the masks as the 'H' column itself -- under the
    previous key is never opened, and one build happens."""
    query_class, scheme = rmq_class(), fischer_heun_scheme()
    data, queries = query_class.sample_workload(600, 3, 60)
    state = scheme.preprocess(data, CostTracker()).to_state()
    previous = _word_mask_layout(state)
    assert previous["masks"].typecode == "H" and len(previous["masks"]) == len(data) // 2
    blob = pickle.dumps(previous, protocol=4)
    _assert_previous_layout_never_opened(tmp_path, scheme, data, queries, 7, blob)


def test_v5_word_relation_artifact_is_a_version_miss_that_rebuilds(tmp_path):
    """Sub-word columns bumped ``btree-per-attribute`` to v6: a v5 file --
    each tree's counts and key gaps in machine words -- under its key is
    never opened; the engine builds once and answers as a fresh build and
    the oracle do."""
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
        key = ds.registration_for("kind").key(ds.fingerprint)
        assert key.params.endswith("|v7")
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


def _previous_sorted_form(values):
    """``pack_sorted`` before patched planes: gaps only when the run's ends
    take more than a byte and the gaps a narrower unsigned word."""
    ends = columns.words([values[0], values[-1]])
    gaps = columns.words([after - before for before, after in zip(values, values[1:])])
    if ends.itemsize > 1 and gaps and gaps.typecode.isupper() and gaps.itemsize < ends.itemsize:
        return values[0], columns._lanes(gaps)
    return columns._lanes(columns.words(values))


def _lane_layout(state):
    """A dumped state as the previous layout wrote it: no patched column,
    byte-valued sorted runs never gap-coded and Fischer-Heun's table ids
    not packed (and its masks the 'H' column, not cuts)."""
    if isinstance(state, dict) and "cuts" in state:
        state = _word_mask_layout(state)
    if isinstance(state, dict):
        return {name: _raw_table_ids(state) if name == "block_table" else _lane_layout(column)
                for name, column in state.items()}
    if isinstance(state, list):
        return [_lane_layout(column) for column in state]
    if isinstance(state, tuple) and len(state) == 2 and type(state[0]) is int:
        return _previous_sorted_form(columns.unpack(state))  # a gap-coded sorted run
    if isinstance(state, bytes) and state[0] & 0x80:
        return columns._lanes(columns.words(columns.unpack(state)))
    return state


def _star_with_a_tail(n=600, tail=20):
    """Depths mostly 1 and a few up to ``tail``: an Euler tour whose depth
    column is a byte run with rare outliers."""
    edges = [(0, v) for v in range(1, n - tail)]
    edges += [(v, v + 1) for v in range(n - tail - 1, n - 1)]
    return Graph(n, edges)


#: Each bumped scheme with data on which its dump holds a patched column:
#: its version now and the last version that wrote lane forms only.
PATCHED_LAYOUTS = {
    "sort+binary-search": (membership_class, sorted_run_scheme, 5, 4, None),
    "fischer-heun": (rmq_class, fischer_heun_scheme, 8, 6, None),
    "sparse-table": (rmq_class, sparse_table_scheme, 5, 4,
                     lambda rng: tuple(255 if i % 97 == 0 else rng.randrange(4) for i in range(600))),
    "euler-tour-rmq": (tree_lca_class, euler_tour_scheme, 5, 4, lambda rng: _star_with_a_tail()),
    "btree-point": (point_selection_class, btree_point_scheme, 7, 6, None),
    "hash-point": (point_selection_class, hash_point_scheme, 6, 5, None),
    "threshold-algorithm": (topk_class, threshold_algorithm_scheme, 5, 4, None),
    "bds-position-run": (bds_query_class, position_index_scheme, 3, 2, None),
}


@pytest.mark.parametrize("name", PATCHED_LAYOUTS)
def test_lane_form_artifact_is_a_version_miss_that_rebuilds(tmp_path, name):
    """Patched byte columns bumped every scheme that packs a column: a file
    in the layout before them -- lane forms only -- under that layout's key
    is never opened; the engine builds once and answers as a fresh build
    and the oracle do."""
    make_class, make_scheme, version, lane_version, make_data = PATCHED_LAYOUTS[name]
    query_class, scheme = make_class(), make_scheme()
    assert scheme.artifact_version == version
    data, queries = query_class.sample_workload(600, 3, 60)
    if make_data is not None:
        rng = random.Random(3)
        data = make_data(rng)
        queries = query_class.generate_queries(data, rng, 60)
    fresh = scheme.preprocess(data, CostTracker())
    current = pickle.loads(scheme.dump(fresh))
    previous = _lane_layout(current)
    assert previous != current  # the data really takes a patched column
    blob = pickle.dumps(previous, protocol=4)
    store = ArtifactStore(tmp_path)
    with QueryEngine(store=store) as engine:
        engine.register("kind", query_class, scheme)
        ds = engine.attach("d", data)
        key = ds.registration_for("kind").key(ds.fingerprint)
        assert key.params.endswith(f"|v{version}")
        stale = ArtifactKey(key.fingerprint, key.scheme, key.params[:-1] + str(lane_version))
        store.put(stale, blob)
        for query in queries:
            expected = scheme.evaluate(fresh, query, CostTracker())
            assert expected == query_class.pair_in_language(data, query)
            assert ds.query("kind", query) == expected
        stats = engine.stats().per_kind["kind"]
        assert (stats.builds, stats.store_hits, stats.checksum_failures) == (1, 0, 0)
    assert store.get(stale) == blob
    assert pickle.loads(store.get(key)) == current


def test_tampered_patched_column_is_a_checksum_failure_that_rebuilds(tmp_path):
    """A patched column that its own checksum vouches for but that no
    ``pack`` wrote -- one byte too many -- raises in ``load``: the engine
    counts it in ``checksum_failures``, rebuilds, answers correctly and
    writes a healthy file back."""
    query_class, scheme = membership_class(), sorted_run_scheme()
    data, queries = query_class.sample_workload(600, 3, 60)
    store = ArtifactStore(tmp_path)
    with QueryEngine(store=store) as engine:
        engine.register("kind", query_class, scheme)
        ds = engine.attach("d", data)
        key = ds.registration_for("kind").key(ds.fingerprint)
        engine.dataset("d").query("kind", queries[0])
    healthy = store.get(key)
    first, gaps = pickle.loads(healthy)["run"]
    assert gaps[0] & 0x80  # the gaps are patched
    tampered = pickle.dumps({"run": (first, gaps + b"\x00")}, protocol=4)
    with pytest.raises(ValueError):
        scheme.load(tampered)
    store.put(key, tampered)  # re-checksummed: the container is sound
    with QueryEngine(store=store) as engine:
        engine.register("kind", query_class, scheme)
        ds = engine.attach("d", data)
        for query in queries:
            assert ds.query("kind", query) == query_class.pair_in_language(data, query)
        stats = engine.stats().per_kind["kind"]
        assert (stats.builds, stats.store_hits, stats.checksum_failures) == (1, 0, 1)
    assert store.get(key) == healthy


def _cut_past_its_slot(cuts):
    """Block 3 -- slot 3 of the first word -- cuts 4 bits: more than the
    stack below it holds."""
    cuts = columns.unpack(cuts)
    cuts[3] = 4
    return columns.pack(cuts)


#: Cut columns that no ``to_state`` wrote, each from a healthy one.
CUT_TAMPERS = {
    "cut-past-its-slot": _cut_past_its_slot,
    "one-cut-short": lambda cuts: columns.pack(columns.unpack(cuts)[:-1]),
    "one-cut-too-many": lambda cuts: columns.pack(columns.unpack(cuts) + [0]),
    "malformed-header": lambda cuts: bytes((0x83,)) + cuts[1:],  # a 3-bit patched plane
}


@pytest.mark.parametrize("tamper", CUT_TAMPERS)
def test_tampered_stack_mask_cuts_are_a_checksum_failure_that_rebuilds(tmp_path, tamper):
    """A ``fischer-heun`` file whose checksum vouches for a cut column that
    no ``to_state`` wrote raises ``ValueError`` in ``load``: the engine
    counts it in ``checksum_failures``, rebuilds, answers correctly and
    writes a healthy file back."""
    query_class, scheme = rmq_class(), fischer_heun_scheme()
    data, queries = query_class.sample_workload(600, 3, 60)
    store = ArtifactStore(tmp_path)
    with QueryEngine(store=store) as engine:
        engine.register("kind", query_class, scheme)
        ds = engine.attach("d", data)
        key = ds.registration_for("kind").key(ds.fingerprint)
        engine.dataset("d").query("kind", queries[0])
    healthy = store.get(key)
    state = pickle.loads(healthy)
    assert isinstance(state["cuts"], bytes)
    tampered = pickle.dumps({**state, "cuts": CUT_TAMPERS[tamper](state["cuts"])}, protocol=4)
    with pytest.raises(ValueError):
        scheme.load(tampered)
    store.put(key, tampered)  # re-checksummed: the container is sound
    with QueryEngine(store=store) as engine:
        engine.register("kind", query_class, scheme)
        ds = engine.attach("d", data)
        for query in queries:
            assert ds.query("kind", query) == query_class.pair_in_language(data, query)
        stats = engine.stats().per_kind["kind"]
        assert (stats.builds, stats.store_hits, stats.checksum_failures) == (1, 0, 1)
    assert store.get(key) == healthy


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
        key = ds.registration_for("kind").key(ds.fingerprint)
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
