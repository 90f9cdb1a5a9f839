"""C10 -- the serving economics: cold build vs warm serve (ISSUE 1).

The paper's amortization argument, measured end to end through the service
stack: attaching a dataset and asking its *first* query pays the fingerprint
and the PTIME build; every later query is answered through the session's
serve plan in polylog time; a process restart pays only artifact
deserialization, not the build.

Artifacts are keyed by the *structure* a scheme builds, and point- and
range-selection share one (the same B+-trees, Section 4(1)): a cold
``range-selection`` row measures a cache hit, not a build, whenever it
follows ``point-selection`` on the same relation.  Here each kind samples
its own relation (``sample_workload`` seeds by class name), so both rows
stay cold builds and the restart still takes one store hit per kind.

This module also feeds the machine-readable perf record ``BENCH_engine.json``
(via the ``bench_json`` fixture) with cold/warm/restart latency percentiles
and the cache hit rate, so the serving-path trajectory is tracked by CI.
"""

from __future__ import annotations

import statistics
import time

from conftest import bench_size, format_table

from repro.catalog import build_query_engine
from repro.service import ArtifactStore, QueryRequest

SEED = 20130826
KINDS = (
    "point-selection",
    "range-selection",
    "list-membership",
    "minimum-range-query",
    "topk-threshold",
)
QUERIES_PER_KIND = 16


def _workloads(engine, size):
    for kind in KINDS:
        query_class, _ = engine.registration(kind)
        yield kind, query_class.sample_workload(size, SEED, QUERIES_PER_KIND)


def _timed(engine, kind, query, data=None):
    """Seconds and answer for one named request; with ``data`` the clock
    also covers attaching it under the kind's name (the cold path)."""
    started = time.perf_counter()
    if data is not None:
        engine.attach(kind, data, kinds=[kind])
    answer = engine.execute(QueryRequest(kind, dataset=kind, query=query))
    return time.perf_counter() - started, answer


def test_c10_engine_cold_vs_warm_vs_restart(
    benchmark, experiment_report, bench_json, tmp_path
):
    size = bench_size(13)
    store = ArtifactStore(tmp_path / "artifacts")

    def run():
        cold, warm, answers = [], [], {}
        with build_query_engine(store=store, max_workers=4) as engine:
            for kind, (data, queries) in _workloads(engine, size):
                seconds, answer = _timed(engine, kind, queries[0], data)
                cold.append(seconds)
                answers[(kind, 0)] = answer
                for position, query in enumerate(queries[1:], start=1):
                    seconds, answer = _timed(engine, kind, query)
                    warm.append(seconds)
                    answers[(kind, position)] = answer
            # A concurrent warm batch for throughput (all artifacts hot).
            requests = [
                QueryRequest(kind, dataset=kind, query=query)
                for kind, (_data, queries) in _workloads(engine, size)
                for query in queries
            ]
            started = time.perf_counter()
            batch_answers = engine.execute_batch(requests)
            batch_seconds = time.perf_counter() - started
            first_stats = engine.stats()

        # Restart: a fresh engine over the same store deserializes instead
        # of rebuilding.
        restart = []
        with build_query_engine(store=store, max_workers=4) as engine:
            for kind, (data, queries) in _workloads(engine, size):
                seconds, answer = _timed(engine, kind, queries[0], data)
                restart.append(seconds)
                assert answer == answers[(kind, 0)]
            restart_stats = engine.stats()
        return (
            cold,
            warm,
            restart,
            batch_answers,
            batch_seconds,
            first_stats,
            restart_stats,
            answers,
        )

    (
        cold,
        warm,
        restart,
        batch_answers,
        batch_seconds,
        first_stats,
        restart_stats,
        answers,
    ) = benchmark.pedantic(run, rounds=1, iterations=1)

    cold_p50 = statistics.median(cold)
    warm_p50 = statistics.median(warm)
    restart_p50 = statistics.median(restart)
    # Share of the first engine's queries that skipped a build.
    hit_rate = 1 - sum(s.builds for s in first_stats.per_kind.values()) / max(
        first_stats.total_queries(), 1
    )
    total_queries = len(KINDS) * QUERIES_PER_KIND

    experiment_report(
        f"C10 (service): cold build vs warm serve vs restart, |D| = {size}",
        format_table(
            ["pass", "queries", "p50 latency (us)", "notes"],
            [
                ("cold", len(cold), f"{cold_p50 * 1e6:.0f}", "build + persist + serve"),
                ("warm", len(warm), f"{warm_p50 * 1e6:.0f}", "serve-plan hit"),
                ("restart", len(restart), f"{restart_p50 * 1e6:.0f}", "artifact load, no build"),
                (
                    "warm batch",
                    total_queries,
                    f"{batch_seconds / total_queries * 1e6:.0f}",
                    f"{total_queries / batch_seconds:.0f} q/s on 4 threads",
                ),
            ],
        ),
    )
    bench_json(
        "engine",
        {
            "dataset_size": size,
            "kinds": list(KINDS),
            "queries_per_kind": QUERIES_PER_KIND,
            "cold_p50_ms": cold_p50 * 1e3,
            "warm_p50_ms": warm_p50 * 1e3,
            "restart_p50_ms": restart_p50 * 1e3,
            "warm_batch_qps": total_queries / batch_seconds,
            "hit_rate": hit_rate,
            "restart_builds": sum(
                s.builds for s in restart_stats.per_kind.values()
            ),
        },
    )

    # Warm serving must beat cold building by a wide margin, repeats must
    # never rebuild, and a restart must never rebuild.
    assert warm_p50 * 5 < cold_p50
    assert hit_rate > 0.9
    assert sum(s.builds for s in restart_stats.per_kind.values()) == 0
    assert sum(s.store_hits for s in restart_stats.per_kind.values()) == len(KINDS)
    # Batch answers equal the sequential per-query answers, in order.
    expected = [answers[(kind, position)] for kind in KINDS for position in range(QUERIES_PER_KIND)]
    assert batch_answers == expected
