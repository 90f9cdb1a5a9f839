#!/usr/bin/env python3
"""The dataset-first serving API, end to end (ISSUE 4).

The paper's economics -- preprocess D once, answer many queries in polylog
-- make the *preprocessed dataset* the natural unit of the serving API.
This example walks the `Dataset` session surface:

1. attach a payload once under a stable name; serve several query kinds
   (including a sharded one) through the one session, synchronously and
   asynchronously;
2. many datasets on one engine: request records address each session by
   name, every payload is hashed and built exactly once, and the request
   path stays at microseconds however many datasets are live;
3. a mutable session: one change batch maintains every served structure
   behind a single published version pointer (delta hook for RMQ point
   writes, touched-shards rebuild for the sharded membership kind).

Run:  python examples/dataset_sessions.py
"""

import random
import time

from repro.catalog import build_query_engine
from repro.incremental.changes import PointWrite
from repro.queries import (
    fischer_heun_scheme,
    membership_class,
    rmq_class,
    sorted_run_scheme,
)
from repro.service import QueryEngine, QueryRequest

SEED = 20130826
SIZE = 2**14
LIVE_DATASETS = 48
ROUNDS = 4


def section(title):
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def main() -> None:
    section("1. One session, many kinds")
    engine = build_query_engine()
    data, probes = membership_class().sample_workload(SIZE, SEED, 8)
    ds = engine.attach("events", data, shards=4)
    print(f"attached {len(data):,} elements as {ds.name!r}; kinds = {len(ds.kinds)}")

    answers = ds.query_batch([("list-membership", probe) for probe in probes])
    print(f"membership batch  : {answers}")
    argmin = min(range(len(data)), key=lambda i: (data[i], i))
    print(f"rmq (full window) : {ds.query('minimum-range-query', (0, len(data) - 1, argmin))}")
    futures = [ds.submit("list-membership", probe) for probe in probes]
    print(f"async futures     : {[future.result() for future in futures]}")
    assert [future.result() for future in futures] == answers

    membership_stats = ds.stats()["kinds"]["list-membership"]
    print(
        f"shard_builds={membership_stats['shard_builds']} "
        f"builds={membership_stats['builds']}"
    )
    engine.close()

    section("2. Many datasets, one engine: requests address sessions by name")
    workloads = [
        membership_class().sample_workload(256, SEED + i, 1)
        for i in range(LIVE_DATASETS)
    ]
    engine = build_query_engine()
    for i, (data, _) in enumerate(workloads):
        engine.attach(f"d{i}", data, kinds=["list-membership"])
    started = time.perf_counter()
    for _ in range(ROUNDS):
        for i, (data, queries) in enumerate(workloads):
            request = QueryRequest("list-membership", dataset=f"d{i}", query=queries[0])
            assert engine.execute(request) == (queries[0] in data)
    seconds = time.perf_counter() - started
    stats = engine.stats().per_kind["list-membership"]
    engine.close()

    requests = LIVE_DATASETS * ROUNDS
    print(
        f"{LIVE_DATASETS} live datasets, {requests} named requests: "
        f"{seconds / requests * 1e6:.1f} us/request, "
        f"builds={stats.builds} (one per dataset), queries={stats.queries}"
    )
    assert stats.builds == LIVE_DATASETS and stats.queries == requests

    section("3. A mutable session: one batch, every kind")
    engine = QueryEngine()
    engine.register("membership", membership_class(), sorted_run_scheme(), shards=4)
    engine.register("rmq", rmq_class(), fischer_heun_scheme())
    base = tuple(random.Random(SEED).randint(-1000, 1000) for _ in range(SIZE))
    ds = engine.attach("sensor", base, mutable=True)
    ds.warm()

    print(f"v{ds.version}: membership(-2000) = {ds.query('membership', -2000)}")
    ds.apply_changes([PointWrite(1234, -2000)])
    left, right = ds.query_batch([("membership", -2000), ("rmq", (0, SIZE - 1, 1234))])
    print(f"v{ds.version}: membership(-2000) = {left}, rmq argmin@1234 = {right}")
    assert left and right

    session_stats = ds.stats()["kinds"]
    print(
        f"rmq delta_batches={session_stats['rmq']['delta_batches']} "
        f"(PointWrite folded in place); membership "
        f"fallback_rebuilds={session_stats['membership']['fallback_rebuilds']} "
        f"(touched shards rebuilt)"
    )
    assert session_stats["rmq"]["delta_batches"] == 1
    assert session_stats["membership"]["fallback_rebuilds"] == 1
    ds.detach()
    engine.close()
    print("\nall session checks passed")


if __name__ == "__main__":
    main()
