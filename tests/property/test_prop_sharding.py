"""Property test: sharded answers equal monolithic answers (ISSUE 2).

The headline equivalence guarantee of the sharding subsystem: for random
datasets and any shard count K in {1, 2, 4, 8}, scatter-gather serving
returns exactly the answers of the monolithic path -- and of the naive
reference semantics -- for every registered query kind that declares a
shard spec.  This is what lets the engine choose K freely as a pure
performance knob.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.catalog import build_query_engine
from helpers import shardable_kinds

#: One engine shared across hypothesis examples to keep the test fast --
#: K is said per attach; each example attaches its datasets and detaches
#: them again (``with engine.attach(...)``).
_ENGINE = build_query_engine()
_KINDS = shardable_kinds(_ENGINE)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    size=st.integers(min_value=4, max_value=160),
    seed=st.integers(min_value=0, max_value=2**16),
    shards=st.sampled_from([1, 2, 4, 8]),
)
def test_sharded_equals_monolithic_for_every_kind(size, seed, shards):
    for kind in _KINDS:
        query_class, _ = _ENGINE.registration(kind)
        data, queries = query_class.sample_workload(size, seed, 6)
        pairs = [(kind, query) for query in queries]
        with _ENGINE.attach("probe", data, kinds=[kind], shards=shards) as probe:
            assert probe.shards_for(kind) == shards
            got = probe.query_batch(pairs)
        with _ENGINE.attach("reference", data, kinds=[kind]) as reference_ds:
            reference = [reference_ds.query(kind, query) for query in queries]
        naive = [query_class.pair_in_language(data, query) for query in queries]
        assert got == reference == naive, (kind, shards, size, seed)


@settings(max_examples=10, deadline=None)
@given(
    size=st.integers(min_value=4, max_value=96),
    seed=st.integers(min_value=0, max_value=2**16),
    shards=st.sampled_from([2, 4, 8]),
)
def test_concurrent_sharded_batch_equals_naive(size, seed, shards):
    """The same equivalence holds under caller threads (builds may race),
    with at most one build per shard artifact."""
    builds = {kind: _ENGINE.stats().per_kind[kind].builds for kind in _KINDS}
    pairs, naive = [], []
    for kind in _KINDS:
        query_class, _ = _ENGINE.registration(kind)
        data, queries = query_class.sample_workload(size, seed, 3)
        _ENGINE.attach(kind, data, kinds=[kind], shards=shards)
        for query in queries:
            pairs.append((kind, query))
            naive.append(query_class.pair_in_language(data, query))
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:  # test-owned threads
            futures = [
                pool.submit(_ENGINE.dataset(kind).query, kind, query)
                for kind, query in pairs
            ]
            assert [future.result(timeout=60) for future in futures] == naive
        for kind in _KINDS:
            assert _ENGINE.stats().per_kind[kind].builds - builds[kind] <= shards, kind
    finally:
        for kind in _KINDS:
            _ENGINE.detach(kind)
