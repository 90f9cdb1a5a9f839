"""Property test: sharded answers equal monolithic answers (ISSUE 2).

The headline equivalence guarantee of the sharding subsystem: for random
datasets and any shard count K in {1, 2, 4, 8}, scatter-gather serving
returns exactly the answers of the monolithic path -- and of the naive
reference semantics -- for every registered query kind that declares a
shard spec.  This is what lets the engine choose K freely as a pure
performance knob.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.catalog import build_query_engine
from repro.service.engine import QueryRequest

#: One monolithic reference engine, and one engine per sharded K, shared
#: across hypothesis examples to keep the test fast; each example attaches
#: its datasets and detaches them again (``with engine.attach(...)``).
_MONOLITHIC = build_query_engine()
_SHARDED = {k: build_query_engine(shards=k) for k in (2, 4, 8)}
_KINDS = _MONOLITHIC.shardable_kinds()


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
    engine = _MONOLITHIC if shards == 1 else _SHARDED[shards]
    for kind in _KINDS:
        query_class, _ = engine.registration(kind)
        data, queries = query_class.sample_workload(size, seed, 6)
        requests = [QueryRequest(kind, dataset="probe", query=query) for query in queries]
        with engine.attach("probe", data, kinds=[kind]):
            got = engine.execute_batch(requests)
        with _MONOLITHIC.attach("reference", data, kinds=[kind]) as reference_ds:
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
    """The same equivalence holds under the thread pool (builds may race)."""
    engine = _SHARDED[shards]
    requests, naive = [], []
    for kind in _KINDS:
        query_class, _ = engine.registration(kind)
        data, queries = query_class.sample_workload(size, seed, 3)
        engine.attach(kind, data, kinds=[kind])
        for query in queries:
            requests.append(QueryRequest(kind, dataset=kind, query=query))
            naive.append(query_class.pair_in_language(data, query))
    try:
        futures = [
            engine.dataset(request.dataset).submit(request.kind, request.query)
            for request in requests
        ]
        assert [future.result(timeout=60) for future in futures] == naive
    finally:
        for kind in _KINDS:
            engine.detach(kind)
