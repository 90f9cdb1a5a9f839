"""Property tests: the untracked fast path answers exactly like the tracked
path (ISSUE 5).

The hot-path contract: for every served kind (immutable sessions) and every
shardable kind (mutable sessions), on shards 1 and 4, the serve-plan fast
path (``Dataset.query`` / ``query_batch`` -> untracked kernels) returns
answers identical to the analytic tracked path (``Dataset.query_tracked``
-> cost-charging ``evaluate``) and to the naive reference semantics --
including right after ``apply_changes``, where stale serve plans would be
the failure mode.  Every answer is exactly a ``bool``: ``==`` alone would
pass a value that merely compares equal to one.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.catalog import build_query_engine
from repro.core.cost import CostTracker
from repro.incremental.changes import ChangeKind, PointWrite, TupleChange
from helpers import shardable_kinds

#: The five shardable kinds (they all declare ShardSpecs and fast kernels).
_KINDS = shardable_kinds(build_query_engine())


def _change_batch(kind: str, data, rng: random.Random):
    """A small, valid change batch for ``kind``'s dataset shape."""
    if kind == "minimum-range-query":
        return [
            PointWrite(rng.randrange(len(data)), rng.randint(-len(data), len(data)))
            for _ in range(rng.randint(1, 3))
        ]
    if kind == "list-membership":
        changes = [
            TupleChange(ChangeKind.INSERT, (rng.randint(0, 4 * len(data)),))
            for _ in range(rng.randint(1, 2))
        ]
        changes.append(TupleChange(ChangeKind.DELETE, (data[rng.randrange(len(data))],)))
        return changes
    if kind == "topk-threshold":
        return [
            TupleChange(ChangeKind.INSERT, (rng.randint(0, 1000), rng.randint(0, 1000)))
            for _ in range(rng.randint(1, 3))
        ]
    # point-/range-selection: a relation -- insert fresh rows, delete a live one.
    rows = data.rows()
    arity = len(rows[0])
    changes = [
        TupleChange(
            ChangeKind.INSERT,
            tuple(rng.randint(0, 4 * len(rows)) for _ in range(arity)),
        )
        for _ in range(rng.randint(1, 2))
    ]
    changes.append(TupleChange(ChangeKind.DELETE, rows[rng.randrange(len(rows))]))
    return changes


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    size=st.integers(min_value=4, max_value=64),
    seed=st.integers(min_value=0, max_value=2**16),
    shards=st.sampled_from([1, 4]),
)
def test_fast_path_equals_tracked_path_immutable(size, seed, shards):
    """Every served kind; ``shards=4`` keeps a kind without a ShardSpec
    monolithic."""
    with build_query_engine() as engine:
        for kind in engine.kinds():
            query_class, _ = engine.registration(kind)
            data, queries = query_class.sample_workload(size, seed, 6)
            ds = engine.attach(f"{kind}-ds", data, kinds=[kind], shards=shards)
            fast = [ds.query(kind, query) for query in queries]
            again = [ds.query(kind, query) for query in queries]  # plan warm
            tracked = [
                ds.query_tracked(kind, query, CostTracker()) for query in queries
            ]
            batched = ds.query_batch([(kind, query) for query in queries])
            naive = [query_class.pair_in_language(data, query) for query in queries]
            assert fast == again == tracked == batched == naive, (kind, shards)
            assert {type(a) for a in fast + again + tracked + batched} == {bool}, kind


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    size=st.integers(min_value=4, max_value=48),
    seed=st.integers(min_value=0, max_value=2**16),
    shards=st.sampled_from([1, 4]),
)
def test_fast_path_equals_tracked_path_mutable_across_batches(size, seed, shards):
    """Mutable sessions: equality must hold at version 0, and -- the plan-
    invalidation half of the contract -- immediately after every applied
    change batch, whether the kind was delta-maintained in place or
    fallback-rebuilt (sharded kinds always rebuild)."""
    rng = random.Random(seed)
    with build_query_engine() as engine:
        for kind in _KINDS:
            query_class, _ = engine.registration(kind)
            data, queries = query_class.sample_workload(size, seed, 5)
            ds = engine.attach(
                f"{kind}-mut", data, kinds=[kind], shards=shards, mutable=True
            )
            for round_number in range(3):
                snapshot = ds.dataset()
                probes = list(queries) + query_class.generate_queries(snapshot, rng, 3)
                fast = [ds.query(kind, query) for query in probes]
                tracked = [
                    ds.query_tracked(kind, query, CostTracker()) for query in probes
                ]
                batched = ds.query_batch([(kind, query) for query in probes])
                naive = [
                    query_class.pair_in_language(snapshot, query) for query in probes
                ]
                assert fast == tracked == batched == naive, (
                    kind,
                    shards,
                    round_number,
                )
                assert {type(a) for a in fast + tracked + batched} == {bool}, kind
                ds.apply_changes(_change_batch(kind, snapshot, rng))
