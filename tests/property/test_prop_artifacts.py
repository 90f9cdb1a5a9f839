"""Property tests for artifact serialization (ISSUE 1, round-trip guarantee).

Two families of properties:

* **round-trip identity**: for every serializable scheme, ``load(dump(Pi(D)))``
  answers every query exactly like the freshly built structure (and both
  agree with the naive reference semantics);
* **tamper evidence**: flipping any single byte of a stored artifact makes
  the store raise an :class:`~repro.core.errors.ArtifactError` subclass
  instead of silently returning a damaged payload.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.cost import CostTracker
from repro.core.errors import (
    ArtifactCorruptionError,
    ArtifactError,
    ArtifactVersionError,
)
from repro.indexes.btree import BPlusTree
from repro.queries import (
    btree_point_scheme,
    btree_range_scheme,
    closure_scheme,
    dag_bitset_scheme,
    dag_lca_class,
    euler_tour_scheme,
    fischer_heun_scheme,
    hash_point_scheme,
    membership_class,
    point_selection_class,
    range_selection_class,
    reachability_class,
    rmq_class,
    sorted_run_scheme,
    sparse_table_scheme,
    threshold_algorithm_scheme,
    topk_class,
    tree_lca_class,
)
from repro.service.artifacts import ArtifactKey, ArtifactStore

#: Every (query class, serializable scheme) pair the engine can persist.
SERIALIZABLE_CASES = [
    ("point-selection/btree", point_selection_class, btree_point_scheme),
    ("point-selection/hash", point_selection_class, hash_point_scheme),
    ("range-selection/btree", range_selection_class, btree_range_scheme),
    ("membership/sorted-run", membership_class, sorted_run_scheme),
    ("rmq/fischer-heun", rmq_class, fischer_heun_scheme),
    ("rmq/sparse-table", rmq_class, sparse_table_scheme),
    ("tree-lca/euler-tour", tree_lca_class, euler_tour_scheme),
    ("dag-lca/bitset", dag_lca_class, dag_bitset_scheme),
    ("reachability/closure", reachability_class, closure_scheme),
    ("topk/threshold-algorithm", topk_class, threshold_algorithm_scheme),
]


@pytest.mark.parametrize(
    "make_class,make_scheme",
    [case[1:] for case in SERIALIZABLE_CASES],
    ids=[case[0] for case in SERIALIZABLE_CASES],
)
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(size=st.integers(min_value=4, max_value=72), seed=st.integers(0, 2**20))
def test_load_dump_round_trip_answers_identically(make_class, make_scheme, size, seed):
    query_class = make_class()
    scheme = make_scheme()
    assert scheme.serializable
    data, queries = query_class.sample_workload(size, seed, 12)
    built = scheme.preprocess(data, CostTracker())
    loaded = scheme.load(scheme.dump(built))
    for query in queries:
        expected = scheme.answer(built, query)
        assert scheme.answer(loaded, query) == expected
        assert query_class.pair_in_language(data, query) == expected


@settings(max_examples=30, deadline=None)
@given(
    keys=st.lists(st.integers(-500, 500), min_size=0, max_size=300),
    order=st.integers(min_value=4, max_value=33),
)
def test_btree_state_round_trip_preserves_invariants(keys, order):
    tree = BPlusTree.from_keys(keys, order=order)
    clone = BPlusTree.from_state(tree.to_state())
    clone.check_invariants()
    assert Counter(clone.keys()) == Counter(tree.keys()) == Counter(keys)
    assert clone.keys() == tree.keys()
    assert len(clone) == len(tree)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    payload=st.binary(min_size=1, max_size=400),
    position_seed=st.integers(0, 2**30),
    flip=st.integers(1, 255),
)
# Falsified the store-format-1 header (", " / ": " separators): position 105
# of the 247-byte file was a separator space, and 0x20 ^ 45 is a carriage
# return -- JSON whitespace, so the header parsed unchanged.
@example(payload=b"\x00" * 5, position_seed=170288, flip=45)
def test_single_byte_corruption_is_always_detected(tmp_path, payload, position_seed, flip):
    store = ArtifactStore(tmp_path / "store")
    key = ArtifactKey(fingerprint="f" * 64, scheme="prop-scheme", params="p|v1")
    path = store.put(key, payload)
    blob = bytearray(path.read_bytes())
    position = position_seed % len(blob)
    blob[position] ^= flip
    path.write_bytes(bytes(blob))
    with pytest.raises(ArtifactError):
        store.get(key)
    # The distinction matters to callers: version errors mean "rebuild",
    # corruption errors mean "rebuild and distrust the medium" -- but both
    # derive from ArtifactError, so the engine's recovery path is uniform.
    try:
        store.get(key)
    except (ArtifactCorruptionError, ArtifactVersionError):
        pass


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(payload=st.binary(min_size=0, max_size=2000))
def test_store_round_trips_arbitrary_payloads(tmp_path, payload):
    store = ArtifactStore(tmp_path / "store")
    key = ArtifactKey(fingerprint="a" * 64, scheme="sort+binary-search", params="|v1")
    store.put(key, payload)
    assert store.get(key) == payload
    assert store.contains(key)
    assert list(store.keys()) == [key]
