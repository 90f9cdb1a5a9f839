"""Property tests: a store load keeps a value run in its machine word.

A build keeps the list that shares D's own ints; a load has only bytes, so
``from_state`` decodes the sorted run, the Fischer--Heun array and the
sparse-table array straight into the ``array`` that
:func:`repro.indexes.columns.words` picks, boxing no value.  These tests
pin that a loaded structure

* holds that word (a list only where a list was stored) and dumps the very
  bytes it was loaded from;
* answers like the build, the tracked path and the naive evaluator, served
  immutable at shards 1 and 4 and mutable;
* takes writes its word cannot hold -- a negative into an unsigned word, an
  int past 64 bits, a float, a string -- exactly as the build does,
  re-typing the column to a wider signed word or, for anything but a plain
  int, to a list;
* retains no more traced memory than ``preprocess`` over the same D.
"""

from __future__ import annotations

import gc
import random
import tempfile
import tracemalloc
from array import array

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.catalog import build_query_engine
from repro.core.cost import NULL_TRACKER, CostTracker
from repro.incremental.changes import ChangeKind, PointWrite, TupleChange
from repro.indexes import columns
from repro.queries.membership import sorted_run_scheme
from repro.queries.rmq import fischer_heun_scheme, rmq_class, sparse_table_scheme
from repro.service.artifacts import ArtifactStore

#: ``(scheme, the loaded structure's value column, the values it holds)``.
SCHEMES = [
    (sorted_run_scheme, lambda index: index._run, sorted),
    (fischer_heun_scheme, lambda index: index._array, list),
    (sparse_table_scheme, lambda index: index._array, list),
]
IDS = ["sorted-run", "fischer-heun", "sparse-table"]

#: Runs for every word: bytes, wider unsigned, signed, past 2**63, past 64 bits.
RUNS = st.sampled_from([(0, 255), (0, 1 << 20), (-(1 << 20), 1 << 20), (1 << 63, (1 << 64) - 1),
                        (0, 1 << 70)]).flatmap(
    lambda ends: st.lists(st.integers(*ends), min_size=1, max_size=80))


@pytest.mark.parametrize("make, column, order", SCHEMES, ids=IDS)
@given(values=RUNS)
@settings(max_examples=25, deadline=None, derandomize=True)
def test_a_load_holds_the_word_it_was_stored_in_and_dumps_the_same_bytes(make, column, order,
                                                                         values):
    scheme = make()
    blob = scheme.dump(scheme.preprocess(values, NULL_TRACKER))
    loaded = scheme.load(blob)
    expected = columns.words(order(values))
    held = column(loaded)
    assert type(held) is type(expected) and list(held) == order(values)
    if isinstance(expected, array):
        assert held.typecode == expected.typecode
    assert scheme.dump(loaded) == blob


def _answers(scheme, index, n):
    return [scheme.evaluate(index, (i, j, p), NULL_TRACKER)
            for i in range(n) for j in range(i, min(n, i + 6)) for p in range(i, j + 1)]


@pytest.mark.parametrize("write", [-1, 1 << 64, 0.5, -(1 << 40), "x"])
@pytest.mark.parametrize("make, column, order", SCHEMES[1:], ids=IDS[1:])
def test_a_point_write_the_word_cannot_hold_retypes_the_array_like_a_build(make, column, order,
                                                                           write):
    rng = random.Random(0)
    values = [rng.randrange(256) for _ in range(40)]
    scheme = make()
    built = scheme.preprocess(values, NULL_TRACKER)
    loaded = scheme.load(scheme.dump(built))
    assert column(loaded).typecode == "B"
    outcomes = []
    for index in (built, loaded):
        try:
            scheme.apply_delta(index, [PointWrite(7, write)], NULL_TRACKER)
            outcomes.append(None)
        except TypeError:
            outcomes.append(TypeError)
    assert outcomes[0] is outcomes[1]
    if outcomes[0] is TypeError:  # a string beside ints: neither side can compare it
        return
    held = column(loaded)
    if type(write) is int and -(1 << 63) <= write < 1 << 63:
        assert isinstance(held, array) and held.typecode in "hq"
    else:
        assert held == column(built) and isinstance(held, list)
    if hasattr(loaded, "_summary"):
        assert loaded._summary._array is held
    assert _answers(scheme, loaded, len(values)) == _answers(scheme, built, len(values))
    assert scheme.dump(loaded) == scheme.dump(built)


@pytest.mark.parametrize("key", [-1, 1 << 64, 0.5, (1 << 40), "x", True])
def test_an_insert_the_word_cannot_hold_retypes_the_run_like_a_build(key):
    scheme = sorted_run_scheme()
    built = scheme.preprocess([3, 1, 4, 1, 5, 9, 2, 6], NULL_TRACKER)
    loaded = scheme.load(scheme.dump(built))
    assert loaded._run.typecode == "B"
    for index in (built, loaded):
        if isinstance(key, str):
            with pytest.raises(TypeError):
                index.insert_value(key)
        else:
            index.insert_value(key)
    if isinstance(key, str):
        assert loaded._run == list(built._run)
        return
    assert list(loaded._run) == built._run
    assert isinstance(loaded._run, array) is (type(key) is int and abs(key) < 1 << 63)
    for probe in (key, 1, 7, -1, 1 << 64):
        assert loaded.contains_fast(probe) is built.contains_fast(probe)
        assert loaded.contains(probe) is built.contains(probe)
    assert scheme.dump(loaded) == scheme.dump(built)


# -- served from the store -----------------------------------------------------

#: Mutable sessions by write shape: each delta kind takes its writes in place.
SESSIONS = {"members": ["list-membership"], "rmq": ["minimum-range-query", "sparse-table"]}
KINDS = [kind for kinds in SESSIONS.values() for kind in kinds]


def _engine(store):
    engine = build_query_engine(store=store)
    engine.register("sparse-table", rmq_class(), sparse_table_scheme())
    return engine


def _widening_batch(kind, snapshot, rng):
    """A batch of writes no stored word holds, for ``kind``'s data shape."""
    odd = rng.choice([-(1 << 40), -1, 1 << 64, 0.25])
    if kind == "list-membership":
        return [TupleChange(ChangeKind.INSERT, (odd,)),
                TupleChange(ChangeKind.DELETE, (snapshot[0],))]
    return [PointWrite(rng.randrange(len(snapshot)), odd)]


def _check(ds, kind, query_class, data, rng):
    queries = query_class.generate_queries(data, rng, 8)
    fast = [ds.query(kind, query) for query in queries]
    tracked = [ds.query_tracked(kind, query, CostTracker()) for query in queries]
    batched = ds.query_batch([(kind, query) for query in queries])
    naive = [query_class.pair_in_language(data, query) for query in queries]
    assert fast == tracked == batched == naive, kind
    assert {type(answer) for answer in fast + tracked + batched} == {bool}, kind


@given(values=st.lists(st.integers(0, 1 << 20), min_size=4, max_size=48),
       seed=st.integers(0, 2**16), shards=st.sampled_from([1, 4]))
@settings(max_examples=10, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_loaded_structures_answer_like_the_naive_evaluator(values, seed, shards):
    """A second engine over the first one's store serves every kind from
    loads, immutable and mutable, through writes no stored word holds
    (folded in place into the loaded structures when unsharded)."""
    rng = random.Random(seed)
    data = tuple(values)
    with tempfile.TemporaryDirectory() as root:
        store = ArtifactStore(root)
        with _engine(store) as engine:
            ds = engine.attach("d", data, kinds=KINDS, shards=shards)
            for kind in KINDS:
                _check(ds, kind, engine.registration(kind)[0], data, rng)
        with _engine(store) as engine:
            ds = engine.attach("d", data, kinds=KINDS, shards=shards)
            classes = {kind: engine.registration(kind)[0] for kind in KINDS}
            lives = {name: engine.attach(name, data, kinds=kinds, shards=shards, mutable=True)
                     for name, kinds in SESSIONS.items()}
            for name, kinds in SESSIONS.items():
                for kind in kinds:  # every kind loads before any batch
                    _check(ds, kind, classes[kind], data, rng)
                    _check(lives[name], kind, classes[kind], data, rng)
            stats = engine.stats().per_kind
            assert all(stats[kind].builds == 0 < stats[kind].store_hits for kind in KINDS)
            for name, kinds in SESSIONS.items():
                for _ in range(3):
                    lives[name].apply_changes(_widening_batch(kinds[0], lives[name].dataset(), rng))
                    for kind in kinds:
                        _check(lives[name], kind, classes[kind], lives[name].dataset(), rng)
            if shards == 1:
                stats = engine.stats().per_kind
                assert all(stats[kind].fallback_rebuilds == 0 < stats[kind].delta_batches
                           for kind in KINDS)


# -- what a load retains -------------------------------------------------------


def _retained(step) -> int:
    """Bytes ``tracemalloc`` still traces once ``step()`` returns, its
    result held."""
    gc.collect()
    tracemalloc.start()
    try:
        kept = step()
        size, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del kept
    return size


@pytest.mark.parametrize("make", [sorted_run_scheme, fischer_heun_scheme], ids=IDS[:2])
def test_a_load_retains_no_more_than_a_build_over_the_same_data(make):
    """At 2**16 random ints below 2**20 (seed 0) a load retained ~2.5 MiB
    (a boxed int per value) against a build's ~0.5 MiB (D's own ints)."""
    rng = random.Random(0)
    data = [rng.randrange(1 << 20) for _ in range(1 << 16)]
    scheme = make()
    blob = scheme.dump(scheme.preprocess(data, NULL_TRACKER))
    built = _retained(lambda: scheme.preprocess(data, NULL_TRACKER))
    loaded = _retained(lambda: scheme.load(blob))
    assert loaded <= built, (loaded, built)
