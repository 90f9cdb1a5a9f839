"""Property tests: the B+-tree behaves like a sorted multiset of keys."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import IndexError_
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
    tree = BPlusTree.build([(k, None) for k in key_list], order=order)
    assert tree.keys() == sorted(key_list)
    tree.check_invariants()


@given(operations, orders)
@settings(max_examples=60)
def test_interleaved_operations_match_multiset_model(ops, order):
    tree = BPlusTree(order=order)
    model: Counter = Counter()
    for op, key in ops:
        if op == "insert":
            tree.insert(key, None)
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
    tree = BPlusTree.build([(k, k) for k in key_list], order=order)
    expected = sorted(k for k in key_list if low <= k <= high)
    assert [k for k, _ in tree.range_iter(low, high)] == expected
    assert tree.range_nonempty(low, high) == bool(expected)


# -- bulk loading (build and from_state share one loader) ----------------------

# A narrow key domain makes heavy duplicates the common case; orders span the
# smallest legal node up to twice the serving default.
dup_keys = st.integers(min_value=-12, max_value=12)
bulk_orders = st.integers(min_value=4, max_value=64)
bulk_entries = st.one_of(
    st.just([]),
    st.lists(st.tuples(dup_keys, st.integers(0, 5)), min_size=1, max_size=1),
    st.lists(st.tuples(dup_keys, st.integers(0, 5)), max_size=400),
    st.lists(st.tuples(keys, st.integers(0, 5)), max_size=400),
)


def _insert_built(entries, order):
    tree = BPlusTree(order=order)
    for key, payload in entries:
        tree.insert(key, payload)
    return tree


@given(bulk_entries, bulk_orders, st.lists(st.tuples(keys, st.integers(0, 30)), max_size=40))
@settings(max_examples=120, deadline=None)
def test_bulk_build_equals_insert_build(entries, order, probes):
    bulk = BPlusTree.build(entries, order=order)
    bulk.check_invariants()
    inserted = _insert_built(entries, order)
    # Same pairs in the same order: the sort is stable, so payloads under a
    # duplicate key keep their input order exactly as repeated inserts do.
    assert list(bulk.items()) == list(inserted.items())
    assert len(bulk) == len(inserted) == len(entries)
    for low, span in probes:
        high = low + span
        expected = inserted.contains(low)
        assert bulk.contains(low) == bulk.contains_fast(low) == expected
        expected = inserted.range_nonempty(low, high)
        assert bulk.range_nonempty(low, high) == expected
        assert bulk.range_nonempty_fast(low, high) == expected


@given(bulk_entries, bulk_orders)
@settings(max_examples=120, deadline=None)
def test_bulk_built_tree_round_trips_through_flat_state(entries, order):
    tree = BPlusTree.build(entries, order=order)
    state = tree.to_state()
    assert set(state) == {"order", "keys", "counts", "payloads"}
    assert len(state["keys"]) == len(state["counts"])
    assert sum(state["counts"]) == len(state["payloads"]) == len(entries)
    clone = BPlusTree.from_state(state)
    clone.check_invariants()
    assert clone.order == tree.order
    assert list(clone.items()) == list(tree.items())
    assert clone.to_state() == state
    # The clone owns its payload lists: folding into it never reaches back.
    clone.insert(0, "private")
    assert list(tree.items()) == list(BPlusTree.from_state(state).items())


@given(bulk_entries, bulk_orders, operations)
@settings(max_examples=80, deadline=None)
def test_bulk_built_tree_survives_interleaved_maintenance(entries, order, ops):
    tree = BPlusTree.build([(key, None) for key, _ in entries], order=order)
    model: Counter = Counter(key for key, _ in entries)
    for op, key in ops:
        if op == "insert":
            tree.insert(key, None)
            model[key] += 1
        else:
            deleted = tree.delete(key)
            assert deleted == (model[key] > 0)
            if deleted:
                model[key] -= 1
    tree.check_invariants()
    assert tree.keys() == sorted(model.elements())
    assert len(tree) == sum(model.values())


# -- counted trees: from_keys is from_columns over None payloads ---------------

counted_operations = st.lists(
    st.tuples(st.sampled_from(["insert", "insert", "delete", "delete-payload"]), dup_keys),
    max_size=200,
)
windows = st.lists(st.tuples(dup_keys, st.integers(0, 6)), max_size=20)


def _observed(tree, windows):
    """Everything a caller can read of ``tree``, untracked probes included."""
    return (
        list(tree.items()),
        len(tree),
        [tree.search(key) for key in range(-13, 14)],
        [list(tree.range_iter(low, low + span)) for low, span in windows],
        [(tree.contains(low), tree.contains_fast(low)) for low, _ in windows],
        [
            (tree.range_nonempty(low, low + span), tree.range_nonempty_fast(low, low + span))
            for low, span in windows
        ],
    )


@given(st.one_of(st.lists(dup_keys, max_size=400), st.lists(keys, max_size=400)),
       bulk_orders, counted_operations, windows)
@settings(max_examples=120, deadline=None)
def test_counted_tree_is_the_tree_of_none_payloads(key_list, order, ops, windows):
    counted = BPlusTree.from_keys(key_list, order=order)
    reference = BPlusTree.from_columns(key_list, [None] * len(key_list), order=order)
    for op, key in ops:
        if op == "insert":
            counted.insert(key, None)
            reference.insert(key, None)
        else:
            payload = "row" if op == "delete-payload" else None
            assert counted.delete(key, payload) == reference.delete(key, payload)
    counted.check_invariants()
    observed = _observed(counted, windows)
    assert observed == _observed(reference, windows)

    state = counted.to_state()
    assert state == {name: column for name, column in reference.to_state().items()
                     if name != "payloads"}
    clone = BPlusTree.from_state(state)
    clone.check_invariants()
    assert clone.order == order and clone.to_state() == state
    assert _observed(clone, windows) == observed

    # A payload other than None is refused before the tree moves.
    with pytest.raises(IndexError_):
        counted.insert(0, "row")
    counted.check_invariants()
    assert _observed(counted, windows) == observed


# -- flat leaves: multi-payload runs under every maintenance path --------------

# At most eight distinct keys and the smallest legal nodes: most keys own a
# run of several payloads, and those runs are what _split, _borrow (from
# either side) and _merge have to carry across leaves in one piece.
run_keys = st.integers(min_value=0, max_value=7)
run_orders = st.integers(min_value=4, max_value=6)
run_operations = st.lists(
    st.tuples(st.sampled_from(["insert", "insert", "pop", "remove"]), run_keys, st.integers(0, 3)),
    max_size=200,
)


def _maintained(entries, order, ops):
    """A tree bulk-built over ``entries`` (keys folded into eight) and then
    driven through ``ops`` beside a ``key -> [payloads]`` model; returns the
    tree, the model and the ``items()`` the model predicts."""
    entries = [(key % 8, payload) for key, payload in entries]
    tree = BPlusTree.build(entries, order=order)
    model: dict = {}
    for key, payload in entries:
        model.setdefault(key, []).append(payload)
    for op, key, payload in ops:
        run = model.setdefault(key, [])
        if op == "insert":
            tree.insert(key, payload)
            run.append(payload)
        elif op == "pop":
            assert tree.delete(key) == bool(run)
            if run:
                run.pop()
        else:
            assert tree.delete(key, payload) == (payload in run)
            if payload in run:
                run.remove(payload)  # that payload and only it, first match
    return tree, model, [(key, payload) for key in sorted(model) for payload in model[key]]


@given(bulk_entries, run_orders, run_operations)
@settings(max_examples=150, deadline=None)
def test_payload_runs_survive_every_maintenance_path(entries, order, ops):
    tree, model, expected = _maintained(entries, order, ops)
    tree.check_invariants()
    assert list(tree.items()) == expected
    assert len(tree) == len(expected)
    for key in range(-1, 9):
        found = tree.search(key)
        assert found == model.get(key, [])
        found.append("mutated")  # a copy: the tree does not see this
        assert tree.search(key) == model.get(key, [])
        assert tree.contains(key) == tree.contains_fast(key) == bool(model.get(key))
    assert list(tree.range_iter(2, 5)) == [pair for pair in expected if 2 <= pair[0] <= 5]


@given(bulk_entries, run_orders, run_operations, st.lists(st.tuples(run_keys, st.integers(0, 4))))
@settings(max_examples=100, deadline=None)
def test_maintained_tree_round_trips_and_answers_like_a_scan(entries, order, ops, probes):
    tree, model, expected = _maintained(entries, order, ops)
    state = tree.to_state()
    clone = BPlusTree.from_state(state)
    clone.check_invariants()
    assert clone.to_state() == state
    assert list(clone.items()) == expected
    present = {key for key, _ in expected}
    for low, span in probes:
        high = low + span
        assert clone.contains(low) == clone.contains_fast(low) == (low in present)
        naive = any(low <= key <= high for key in present)
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
    entries = draw(st.lists(st.tuples(key, st.integers(0, 3)), min_size=size, max_size=size))
    ops = draw(st.lists(st.tuples(st.sampled_from(["insert", "insert", "delete"]), key),
                        max_size=2 * order + 40))
    return order, draw(st.booleans()), entries, ops


@given(count_workloads())
@settings(max_examples=60, deadline=None)
def test_counts_stay_the_typed_column_through_every_mutation_path(workload):
    order, bulk, entries, ops = workload
    if bulk:
        keys, payloads = zip(*entries) if entries else ((), ())
        tree = BPlusTree.from_columns(keys, payloads, order=order)
    else:
        tree = _insert_built(entries, order)
    model = Counter(key for key, _ in entries)
    tree.check_invariants()  # asserts every leaf's counts is the typed column

    # One run past the largest count the build saw: no OverflowError.
    hot = max(model, key=model.__getitem__, default=0)
    for _ in range(max(model.values(), default=0) + 2):
        tree.insert(hot, None)
        model[hot] += 1
    tree.check_invariants()

    for op, key in ops:
        if op == "insert":
            tree.insert(key, None)
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
