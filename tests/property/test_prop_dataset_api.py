"""Property test: both ways to address a session are indistinguishable (ISSUE 4).

The contract of the dataset-first surface: for any workload, looking the
session up by name per query (``engine.dataset(name).query(kind, q)``) and
batching on the session object itself (``Dataset.query_batch``) return
**identical answers and identical build counts** across all five shardable
kinds, on both the monolithic and the ``attach(..., shards=4)`` paths.
Build-count equality is the strong half -- it pins down that every surface
resolves through exactly the same artifact layers, never a duplicate build
or a spurious cache split.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.catalog import build_query_engine
from helpers import shardable_kinds

#: The five servable kinds with a ShardSpec (point/range selection, list
#: membership, minimum range query, top-k) -- the same set the engine
#: benchmarks serve.
_KINDS = shardable_kinds(build_query_engine())


def test_the_five_servable_kinds_are_served():
    assert _KINDS == [
        "list-membership",
        "minimum-range-query",
        "point-selection",
        "range-selection",
        "topk-threshold",
    ]


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    size=st.integers(min_value=4, max_value=96),
    seed=st.integers(min_value=0, max_value=2**16),
    shards=st.sampled_from([1, 4]),
)
def test_named_requests_match_payload_requests(size, seed, shards):
    # Fresh engines per example: build counts must be attributable.
    with build_query_engine() as session_engine, build_query_engine() as named_engine:
        for kind in _KINDS:
            query_class, _ = session_engine.registration(kind)
            data, queries = query_class.sample_workload(size, seed, 5)
            name = f"{kind}-workload"
            ds = session_engine.attach(name, data, kinds=[kind], shards=shards)
            named_engine.attach(name, data, kinds=[kind], shards=shards)
            session_answers = ds.query_batch([(kind, query) for query in queries])
            named_answers = [
                named_engine.dataset(name).query(kind, query) for query in queries
            ]
            naive = [query_class.pair_in_language(data, query) for query in queries]
            assert session_answers == named_answers == naive, (kind, shards, size, seed)

        session_stats = session_engine.stats()
        named_stats = named_engine.stats()
        for kind in _KINDS:
            session_kind = session_stats.per_kind[kind]
            named_kind = named_stats.per_kind[kind]
            assert session_kind.builds == named_kind.builds, kind
            assert session_kind.queries == named_kind.queries, kind
