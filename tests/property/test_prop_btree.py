"""Property tests: the B+-tree behaves like a sorted multiset of keys."""

import copy
from array import array
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.query import state_codec
from repro.indexes import columns
from repro.indexes.btree import BPlusTree

keys = st.integers(min_value=-100, max_value=100)
orders = st.sampled_from([4, 5, 8, 16])

# An operation sequence: (op, key) with op in insert/delete.
operations = st.lists(
    st.tuples(st.sampled_from(["insert", "delete"]), keys),
    max_size=250,
)


@given(st.lists(keys, max_size=300), orders)
@settings(max_examples=60)
def test_build_matches_sorted_input(key_list, order):
    tree = BPlusTree.from_keys(key_list, order=order)
    assert tree.keys() == sorted(key_list)
    tree.check_invariants()


@given(operations, orders)
@settings(max_examples=60)
def test_interleaved_operations_match_multiset_model(ops, order):
    tree = BPlusTree(order=order)
    model: Counter = Counter()
    for op, key in ops:
        if op == "insert":
            tree.insert(key)
            model[key] += 1
        else:
            deleted = tree.delete(key)
            assert deleted == (model[key] > 0)
            if deleted:
                model[key] -= 1
    tree.check_invariants()
    expected = sorted(model.elements())
    assert tree.keys() == expected
    assert len(tree) == sum(model.values())
    for probe in range(-100, 101, 17):
        assert tree.contains(probe) == (model[probe] > 0)


@given(st.lists(keys, min_size=1, max_size=200), keys, keys, orders)
@settings(max_examples=60)
def test_range_queries_match_filter(key_list, low, high, order):
    if low > high:
        low, high = high, low
    tree = BPlusTree.from_keys(key_list, order=order)
    expected = any(low <= k <= high for k in key_list)
    assert tree.range_nonempty(low, high) == expected
    assert tree.range_nonempty_fast(low, high) == expected


# -- bulk loading (from_keys and from_state share one loader) ------------------

# A narrow key domain makes heavy duplicates the common case; orders span the
# smallest legal node up to twice the serving default.
dup_keys = st.integers(min_value=-12, max_value=12)
bulk_orders = st.integers(min_value=4, max_value=64)
bulk_keys = st.one_of(
    st.just([]),
    st.lists(dup_keys, min_size=1, max_size=1),
    st.lists(dup_keys, max_size=400),
    st.lists(keys, max_size=400),
)


def _insert_built(key_list, order):
    tree = BPlusTree(order=order)
    for key in key_list:
        tree.insert(key)
    return tree


def _runs(tree):
    """``(key, count)`` per distinct key, in leaf order."""
    return [pair for leaf in tree._leaves() for pair in zip(leaf.keys, leaf.counts)]


@given(bulk_keys, bulk_orders, st.lists(st.tuples(keys, st.integers(0, 30)), max_size=40))
@settings(max_examples=120, deadline=None)
def test_bulk_build_equals_insert_build(key_list, order, probes):
    bulk = BPlusTree.from_keys(key_list, order=order)
    bulk.check_invariants()
    inserted = _insert_built(key_list, order)
    assert _runs(bulk) == _runs(inserted) == sorted(Counter(key_list).items())
    assert len(bulk) == len(inserted) == len(key_list)
    for low, span in probes:
        high = low + span
        expected = inserted.contains(low)
        assert bulk.contains(low) == bulk.contains_fast(low) == expected
        expected = inserted.range_nonempty(low, high)
        assert bulk.range_nonempty(low, high) == expected
        assert bulk.range_nonempty_fast(low, high) == expected


@given(bulk_keys, bulk_orders)
@settings(max_examples=120, deadline=None)
def test_bulk_built_tree_round_trips_through_flat_state(key_list, order):
    tree = BPlusTree.from_keys(key_list, order=order)
    state = tree.to_state()
    assert set(state) == {"order", "keys", "counts"}
    keys, counts = columns.unpack(state["keys"]), columns.unpack(state["counts"])
    assert len(keys) == len(counts) and sum(counts) == len(key_list)
    # The counts at rest take the bits of the largest count -- below 16, one
    # sub-byte plane of at most 4 bits per key and no whole byte -- or a
    # patched plane around the smallest count when that is smaller still.
    assert state["counts"] == columns.pack(counts)
    if 0 < max(counts, default=0) < 16:
        stored, lanes = state["counts"], columns._lanes(columns.words(counts))
        assert isinstance(stored, bytes)
        assert stored[0] <= 4 or (stored[0] & 0x80 and len(stored) < len(lanes))
    clone = BPlusTree.from_state(state)
    clone.check_invariants()
    assert clone.order == tree.order
    assert _runs(clone) == _runs(tree)
    assert clone.to_state() == state
    # The clone owns its key and count columns: folding into it never
    # reaches back.
    for key in (0, *key_list[:3]):
        clone.insert(key)
    assert _runs(tree) == _runs(BPlusTree.from_state(state))


@given(bulk_keys, bulk_orders, operations)
@settings(max_examples=80, deadline=None)
def test_bulk_built_tree_survives_interleaved_maintenance(key_list, order, ops):
    tree = BPlusTree.from_keys(key_list, order=order)
    model: Counter = Counter(key_list)
    for op, key in ops:
        if op == "insert":
            tree.insert(key)
            model[key] += 1
        else:
            deleted = tree.delete(key)
            assert deleted == (model[key] > 0)
            if deleted:
                model[key] -= 1
    tree.check_invariants()
    assert tree.keys() == sorted(model.elements())
    assert len(tree) == sum(model.values())


# -- flat leaves: counts of several under every maintenance path ---------------

# At most eight distinct keys and the smallest legal nodes: most keys occur
# several times, and those counts are what _split, _borrow (from either side)
# and _merge have to carry across leaves with their key.
run_keys = st.integers(min_value=0, max_value=7)
run_orders = st.integers(min_value=4, max_value=6)
run_operations = st.lists(
    st.tuples(st.sampled_from(["insert", "insert", "delete"]), run_keys),
    max_size=200,
)


def _maintained(key_list, order, ops):
    """A tree bulk-built over ``key_list`` (folded into eight keys) and then
    driven through ``ops`` beside a ``Counter`` model; returns the tree and
    the model."""
    key_list = [key % 8 for key in key_list]
    tree = BPlusTree.from_keys(key_list, order=order)
    model = Counter(key_list)
    for op, key in ops:
        if op == "insert":
            tree.insert(key)
            model[key] += 1
        else:
            assert tree.delete(key) == (model[key] > 0)
            model[key] = max(model[key] - 1, 0)
    return tree, +model


@given(bulk_keys, run_orders, run_operations, st.booleans())
@settings(max_examples=150, deadline=None)
def test_payload_runs_survive_every_maintenance_path(key_list, order, ops, descending):
    tree, model = _maintained(key_list, order, ops)
    tree.check_invariants()
    assert _runs(tree) == sorted(model.items())
    assert len(tree) == sum(model.values())
    for key in range(-1, 9):
        assert tree.contains(key) == tree.contains_fast(key) == (key in model)
    naive = any(2 <= key <= 5 for key in model)
    assert tree.range_nonempty(2, 5) == tree.range_nonempty_fast(2, 5) == naive
    # Drain from one end: each emptied leaf borrows its neighbour's nearest
    # key -- with that key's whole count -- or merges into it.
    for key in sorted(model.elements(), reverse=descending):
        assert tree.delete(key)
        model[key] -= 1
        assert _runs(tree) == sorted((+model).items())
    tree.check_invariants()
    assert len(tree) == 0


@given(bulk_keys, run_orders, run_operations, st.lists(st.tuples(run_keys, st.integers(0, 4))))
@settings(max_examples=100, deadline=None)
def test_maintained_tree_round_trips_and_answers_like_a_scan(key_list, order, ops, probes):
    tree, model = _maintained(key_list, order, ops)
    state = tree.to_state()
    clone = BPlusTree.from_state(state)
    clone.check_invariants()
    assert clone.to_state() == state
    assert _runs(clone) == sorted(model.items())
    for low, span in probes:
        high = low + span
        assert clone.contains(low) == clone.contains_fast(low) == (low in model)
        naive = any(low <= key <= high for key in model)
        assert clone.range_nonempty(low, high) == clone.range_nonempty_fast(low, high) == naive


# -- typed counts: every mutation path keeps the run-length column ------------

# The smallest legal nodes and the default width; keys span three nodes' worth
# of distinct values, so inserts split (from an empty tree at any width) and
# the final drain borrows, merges and collapses the root.
count_orders = st.sampled_from([4, 5, 6, 64, 64, 64])


@st.composite
def count_workloads(draw):
    order = draw(count_orders)
    key = st.integers(min_value=0, max_value=3 * order)
    # Sized by the order (or empty), so a default-width tree has several leaves.
    size = draw(st.one_of(st.just(0), st.integers(2 * order, 4 * order)))
    key_list = draw(st.lists(key, min_size=size, max_size=size))
    ops = draw(st.lists(st.tuples(st.sampled_from(["insert", "insert", "delete"]), key),
                        max_size=2 * order + 40))
    return order, draw(st.booleans()), key_list, ops


@given(count_workloads())
@settings(max_examples=60, deadline=None)
def test_counts_stay_the_typed_column_through_every_mutation_path(workload):
    order, bulk, key_list, ops = workload
    if bulk:
        tree = BPlusTree.from_keys(key_list, order=order)
    else:
        tree = _insert_built(key_list, order)
    model = Counter(key_list)
    tree.check_invariants()  # asserts every leaf's counts is the typed column

    # One run past the largest count the build saw: no OverflowError.
    hot = max(model, key=model.__getitem__, default=0)
    for _ in range(max(model.values(), default=0) + 2):
        tree.insert(hot)
        model[hot] += 1
    tree.check_invariants()

    for op, key in ops:
        if op == "insert":
            tree.insert(key)
            model[key] += 1
        else:
            assert tree.delete(key) == (model[key] > 0)
            model[key] = max(model[key] - 1, 0)
        tree.check_invariants()
    assert tree.keys() == sorted(model.elements())

    for key in sorted(model.elements()):  # drain: borrow, merge, root collapse
        assert tree.delete(key)
        tree.check_invariants()
    assert len(tree) == 0 and tree.height == 1


@st.composite
def run_columns(draw):
    """A key column with duplicates: ints, strings, or numpy ints (whose
    ``!=`` answers ``numpy.bool``)."""
    kind = draw(st.sampled_from(["int", "str", "numpy"]))
    if kind == "str":
        return draw(st.lists(st.text("ab", max_size=3), max_size=200))
    values = draw(st.lists(st.integers(-20, 20), max_size=200))
    if kind == "numpy":
        numpy = pytest.importorskip("numpy")
        return list(numpy.array(values, dtype=numpy.int64))
    return values


@given(run_columns(), orders)
@settings(max_examples=120, deadline=None)
def test_bulk_build_runs_equal_the_multiset(key_list, order):
    """``from_keys`` finds each distinct key and its count, by ``!=``'s
    truth: the columns and state bytes of a bulk load over the multiset."""
    runs = sorted(Counter(key_list).items())
    distinct, counts = [key for key, _ in runs], columns.counts(count for _, count in runs)
    tree = BPlusTree.from_keys(key_list, order=order)
    assert tree._columns() == (distinct, counts)
    assert tree.to_state() == BPlusTree._bulk_load(order, distinct, counts).to_state()


# -- count words: every count write against a Counter model --------------------

# A tree counts in one unsigned word, the narrowest that holds its largest
# count when it is built.  Counts start beside the edges of 'B' and 'H' (and
# past them), so single inserts cross 255 and 65 535 and deletes come back.
edge_counts = st.sampled_from([253, 254, 255, 256, 65_533, 65_534, 65_535, 65_536])
word_orders = st.sampled_from([4, 5, 6, 64])
dump_tree, load_tree = state_codec(BPlusTree.from_state)


def _word_for(count: int) -> str:
    """The narrowest unsigned machine word that holds ``count``."""
    return next(code for code in "BHIQ" if count < 1 << 8 * array(code).itemsize)


def _words(tree):
    return {leaf.counts.typecode for leaf in tree._leaves()}


def _same_as_model(tree, model):
    tree.check_invariants()  # one word for every leaf, each count positive
    assert _runs(tree) == sorted((+model).items())
    assert len(tree) == sum(model.values())


def _built_like_model(tree, model):
    """A bulk-loaded tree: the model's runs, in the narrowest word."""
    _same_as_model(tree, model)
    assert _words(tree) == {_word_for(max(model.values(), default=0))}


@st.composite
def count_word_workloads(draw):
    order = draw(word_orders)
    span = draw(st.integers(1, 3 * order))  # distinct small keys: 1 .. span
    small = draw(st.lists(st.integers(1, span), max_size=4 * order))
    hot = draw(st.lists(st.tuples(st.integers(0, span + 1), edge_counts), max_size=2,
                        unique_by=lambda pair: pair[0]))
    key = st.one_of(st.integers(0, span + 1), st.sampled_from([key for key, _ in hot] or [0]))
    ops = draw(st.lists(st.one_of(
        st.tuples(st.sampled_from(["insert", "delete"]), key, st.integers(1, 4)),
        st.tuples(st.sampled_from(["copy", "reload"]), st.just(0), st.just(1)),
    ), max_size=40))
    return order, small, hot, ops


@given(count_word_workloads(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_every_count_write_matches_a_counter_and_keeps_one_narrow_word(workload, drain_up):
    order, small, hot, ops = workload
    model = Counter(small)
    key_list = list(small)
    for key, count in hot:
        model[key] += count
        key_list += [key] * count
    tree = BPlusTree.from_keys(key_list, order=order)
    _built_like_model(tree, model)
    peak = max(model.values(), default=0)  # the largest count since the last bulk load

    for op, key, times in ops:
        if op == "insert":  # a count past its word re-types every leaf at once
            for _ in range(times):
                tree.insert(key)
                model[key] += 1
                peak = max(peak, model[key])
            _same_as_model(tree, model)
            assert _words(tree) == {_word_for(peak)}  # wide enough, and no wider
        elif op == "delete":
            for _ in range(times):
                assert tree.delete(key) == (model[key] > 0)
                model[key] = max(model[key] - 1, 0)
            _same_as_model(tree, model)
        elif op == "copy":  # a private copy is a bulk load: narrow again
            original = tree
            tree = copy.deepcopy(original)
            _built_like_model(tree, model)
            peak = max(model.values(), default=0)
            assert all(a.counts is not b.counts for a, b in zip(original._leaves(), tree._leaves()))
        else:  # the artifact round trip, byte for byte
            blob = dump_tree(tree)
            tree = load_tree(blob)
            _built_like_model(tree, model)
            peak = max(model.values(), default=0)
            assert dump_tree(tree) == blob

    # Drain the small keys from one end: leaves carrying the hot counts are
    # borrowed from and merged into until they share the root.
    for key in sorted((key for key in model if model[key] < 253), reverse=drain_up):
        for _ in range(model.pop(key)):
            assert tree.delete(key)
        _same_as_model(tree, model)
