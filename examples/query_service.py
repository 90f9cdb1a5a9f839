#!/usr/bin/env python3
"""The serving economics, end to end: preprocess once, serve many (ISSUE 1).

The paper's point is that the Pi-structure is built *once* (PTIME) and then
amortized over many polylog queries.  This example makes that concrete with
the service stack:

1. the anti-pattern every earlier example quietly committed: rebuild the
   index for every query (what "no preprocessing infrastructure" costs);
2. the QueryEngine over an ArtifactStore: one cold build, then warm
   batches served through the sessions' serve plans at microseconds per
   query;
3. a process "restart": a fresh engine over the same store deserializes
   the persisted artifact instead of rebuilding.

Run:  python examples/query_service.py
"""

import statistics
import tempfile
import time

from repro.core.cost import CostTracker
from repro.queries import (
    fischer_heun_scheme,
    membership_class,
    rmq_class,
    sorted_run_scheme,
)
from repro.service import ArtifactStore, QueryEngine

SEED = 20130826
MEMBERSHIP_SIZE = 2**16  # the acceptance-criteria dataset
RMQ_SIZE = 2**14
BATCH_PER_KIND = 128
REBUILD_SAMPLE = 12  # rebuilding per query is so slow we only sample it


def build_engine(store, kinds):
    """An engine over ``store`` with each workload's dataset attached once,
    under its kind's name -- ``engine.dataset(kind)`` then addresses it."""
    engine = QueryEngine(store=store, cache_entries=16)
    engine.register("list-membership", membership_class(), sorted_run_scheme())
    engine.register("minimum-range-query", rmq_class(), fischer_heun_scheme())
    for kind, (data, _queries) in kinds:
        engine.attach(kind, data, kinds=[kind])
    return engine


def workloads():
    membership = membership_class().sample_workload(MEMBERSHIP_SIZE, SEED, BATCH_PER_KIND)
    rmq = rmq_class().sample_workload(RMQ_SIZE, SEED, BATCH_PER_KIND)
    return [("list-membership", membership), ("minimum-range-query", rmq)]


def serve(engine, kinds):
    """Each workload's batch through the session named after its kind."""
    answers = []
    for kind, (_data, queries) in kinds:
        answers += engine.dataset(kind).query_batch([(kind, query) for query in queries])
    return answers


def main() -> None:
    print("=" * 72)
    print("Preprocess once, serve many: ArtifactStore + QueryEngine")
    print("=" * 72)
    print(
        f"\nDatasets: {MEMBERSHIP_SIZE:,}-element list (membership), "
        f"{RMQ_SIZE:,}-element array (RMQ); {BATCH_PER_KIND} queries each.\n"
    )

    kinds = workloads()
    requests = [(kind, query) for kind, (_data, queries) in kinds for query in queries]

    # 1. The rebuild-per-query anti-pattern, sampled.
    rebuild_schemes = {
        "list-membership": sorted_run_scheme(),
        "minimum-range-query": fischer_heun_scheme(),
    }
    rebuild_latencies = []
    rebuild_answers = {}
    for kind, (data, queries) in kinds:
        scheme = rebuild_schemes[kind]
        for query in queries[:REBUILD_SAMPLE]:
            started = time.perf_counter()
            structure = scheme.preprocess(data, CostTracker())
            answer = scheme.answer(structure, query)
            rebuild_latencies.append(time.perf_counter() - started)
            rebuild_answers[(kind, query)] = answer
    rebuild_per_query = statistics.mean(rebuild_latencies)
    print(f"rebuild-per-query : {rebuild_per_query * 1e3:9.2f} ms/query  (sampled on {len(rebuild_latencies)} queries)")

    with tempfile.TemporaryDirectory() as root:
        store = ArtifactStore(root)

        # 2. Cold batch (pays each build once), then warm batch.
        with build_engine(store, kinds) as engine:
            started = time.perf_counter()
            cold_answers = serve(engine, kinds)
            cold_seconds = time.perf_counter() - started
            started = time.perf_counter()
            warm_answers = serve(engine, kinds)
            warm_seconds = time.perf_counter() - started
            stats = engine.stats()

        warm_per_query = warm_seconds / len(requests)
        print(f"cold batch        : {cold_seconds / len(requests) * 1e3:9.2f} ms/query  (builds amortized over {len(requests)} queries)")
        print(f"warm batch        : {warm_per_query * 1e3:9.2f} ms/query  ({len(requests) / warm_seconds:,.0f} queries/s)")

        # 3. Restart: fresh process image, same store.
        with build_engine(store, kinds) as engine:
            started = time.perf_counter()
            restart_answers = serve(engine, kinds)
            restart_seconds = time.perf_counter() - started
            restart_stats = engine.stats()
        print(f"restart batch     : {restart_seconds / len(requests) * 1e3:9.2f} ms/query  (artifacts loaded, zero rebuilds)")

        # Correctness: every path agrees, including with the rebuild baseline.
        assert cold_answers == warm_answers == restart_answers
        for position, request in enumerate(requests):
            expected = rebuild_answers.get(request)
            if expected is not None:
                assert cold_answers[position] == expected
        restart_snapshot = restart_stats.stats_snapshot()
        assert sum(s["builds"] for s in restart_snapshot["per_kind"].values()) == 0

        print("\nPer-scheme serving statistics (first engine):")
        for kind, s in stats.stats_snapshot()["per_kind"].items():
            print(
                f"  {kind:22s} scheme={s['scheme']:14s} queries={s['queries']:4d} "
                f"builds={s['builds']} hit_rate={s['hit_rate']:5.1%} "
                f"build={s['build_seconds'] * 1e3:7.1f}ms "
                f"serve={s['serve_seconds'] * 1e3:7.1f}ms"
            )

        speedup = rebuild_per_query / warm_per_query
        print(
            f"\nWarm-cache serving vs per-query rebuild: {speedup:,.0f}x faster "
            f"({rebuild_per_query * 1e3:.2f} ms -> {warm_per_query * 1e6:.0f} us per query)"
        )
        assert speedup >= 10, f"expected >= 10x, measured {speedup:.1f}x"
        print("acceptance check: >= 10x speedup on a 2^16-element dataset -- PASS")


if __name__ == "__main__":
    main()
