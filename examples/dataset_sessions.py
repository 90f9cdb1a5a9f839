#!/usr/bin/env python3
"""The dataset-first serving API, end to end (ISSUE 4).

The paper's economics -- preprocess D once, answer many queries in polylog
-- make the *preprocessed dataset* the natural unit of the serving API.
This example walks the `Dataset` session surface:

1. attach a payload once under a stable name; serve several query kinds
   (sharded: K is said at attach) through the one session, from the
   calling thread and from threads the caller brings;
2. many datasets on one engine: ``engine.dataset(name)`` addresses each
   session, every payload is hashed and built exactly once, and the request
   path stays at microseconds however many datasets are live;
3. a mutable session: one change batch maintains every served structure
   behind a single published version pointer (delta hook for RMQ point
   writes, touched-shards rebuild for the sharded membership kind).

Run:  python examples/dataset_sessions.py
"""

import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

from repro.catalog import build_query_engine
from repro.incremental.changes import PointWrite
from repro.queries import (
    fischer_heun_scheme,
    membership_class,
    rmq_class,
    sorted_run_scheme,
)
from repro.service import QueryEngine

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
    with ThreadPoolExecutor(max_workers=4) as pool:  # the engine runs no serve threads
        threaded = list(pool.map(lambda probe: ds.query("list-membership", probe), probes))
    print(f"caller threads    : {threaded}")
    assert threaded == answers

    membership_stats = ds.stats()["kinds"]["list-membership"]
    print(
        f"shards={ds.shards_for('list-membership')} "
        f"builds={membership_stats['builds']} (one per shard)"
    )
    engine.close()

    section("2. Many datasets, one engine: sessions are addressed by name")
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
            answer = engine.dataset(f"d{i}").query("list-membership", queries[0])
            assert answer == (queries[0] in data)
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
    engine.register("membership", membership_class(), sorted_run_scheme())
    # shards=K at attach shards every kind whose scheme declares a ShardSpec;
    # this rmq variant declares none, so the session keeps it monolithic and
    # its delta hook applies.
    engine.register("rmq", rmq_class(), replace(fischer_heun_scheme(), sharding=None))
    base = tuple(random.Random(SEED).randint(-1000, 1000) for _ in range(SIZE))
    ds = engine.attach("sensor", base, shards=4, mutable=True)
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
