"""C14 -- the serving hot path: tracked dispatch vs serve-plan fast path (ISSUE 5).

The paper's query step is polylog; what users feel is polylog *times a
constant*.  This benchmark takes the constant apart on a warm engine:

* **tracked dispatch** (``Dataset.query_tracked``) -- the analytic path:
  liveness check, plan lookup, and the cost-charging evaluator (every
  comparison pays a ``CostTracker.tick``);
* **fast path** (``Dataset.query``) -- the serve plan: one dict hit plus
  one untracked kernel call (C ``bisect``);
* **bare kernel** (``scheme.answer_fast`` on a structure preprocessed here)
  -- the floor Python allows, isolating what dispatch still costs;
* **batches** -- the PR-4 baseline (one pool task per query through the
  tracked path) vs the vectorized ``query_batch`` (group by kind, one
  ``answer_many`` per group, inline on the calling thread).

Feeds the ``hotpath`` section of ``BENCH_engine.json`` and asserts the
regression floor: the fast path must stay well ahead of tracked dispatch
(single-query p50) and the per-query pool baseline (batch qps), so a
refactor that silently drops the plans or the vectorized path fails CI.
"""

from __future__ import annotations

import statistics
import time

from conftest import bench_size, format_table

from repro.catalog import build_query_engine
from repro.core.cost import NULL_TRACKER

SEED = 20130826
KIND = "list-membership"
WARMUP = 64
SAMPLES = 600
BATCH_REPEAT = 16  # 64 distinct queries x 16 = 1024-query batches

#: Regression floors (fast-vs-tracked p50 ratio, vectorized-vs-pool qps
#: ratio).  Measured headroom is ~5x / ~15x at 2^16 and ~4x / ~20x at the
#: smoke cap; the floors leave slack for noisy CI runners.
SINGLE_FLOOR = 2.5
BATCH_FLOOR = 4.0


def _p50(run_one, queries, samples=SAMPLES):
    latencies = []
    for position in range(samples):
        query = queries[position % len(queries)]
        started = time.perf_counter()
        run_one(query)
        latencies.append(time.perf_counter() - started)
    return statistics.median(latencies)


def test_c14_hotpath_dispatch_overhead_and_batch_qps(
    benchmark, experiment_report, bench_json
):
    size = bench_size(16)

    def run():
        engine = build_query_engine()
        query_class, scheme = engine.registration(KIND)
        data, queries = query_class.sample_workload(size, SEED, 64)
        ds = engine.attach("bench", data).warm([KIND])
        for query in queries[:WARMUP]:  # steady state on every path
            assert ds.query(KIND, query) == ds.query_tracked(KIND, query)

        tracked_p50 = _p50(lambda q: ds.query_tracked(KIND, q), queries)
        fast_p50 = _p50(lambda q: ds.query(KIND, q), queries)
        structure = scheme.preprocess(data, NULL_TRACKER)
        kernel_p50 = _p50(lambda q: scheme.answer_fast(structure, q), queries)

        pairs = [(KIND, query) for query in queries] * BATCH_REPEAT
        started = time.perf_counter()
        baseline_answers = list(
            engine._ensure_pool().map(lambda pair: ds.query_tracked(*pair), pairs)
        )
        baseline_qps = len(pairs) / (time.perf_counter() - started)
        started = time.perf_counter()
        vector_answers = ds.query_batch(pairs)
        vector_qps = len(pairs) / (time.perf_counter() - started)
        assert baseline_answers == vector_answers

        engine.close()
        return tracked_p50, fast_p50, kernel_p50, baseline_qps, vector_qps

    tracked_p50, fast_p50, kernel_p50, baseline_qps, vector_qps = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    experiment_report(
        f"C14 (hot path): dispatch-overhead breakdown, |D| = {size}",
        format_table(
            ["path", "p50 (us)", "vs tracked", "notes"],
            [
                (
                    "tracked dispatch",
                    f"{tracked_p50 * 1e6:.2f}",
                    "1.0x",
                    "plan lookup + cost-charging evaluate",
                ),
                (
                    "serve-plan fast path",
                    f"{fast_p50 * 1e6:.2f}",
                    f"{tracked_p50 / fast_p50:.1f}x",
                    "dict hit + untracked kernel call",
                ),
                (
                    "bare kernel",
                    f"{kernel_p50 * 1e6:.2f}",
                    f"{tracked_p50 / kernel_p50:.1f}x",
                    "answer_fast on a preprocessed structure (floor)",
                ),
            ],
        )
        + format_table(
            ["batch path (1024 queries)", "qps", "vs pool-per-query"],
            [
                ("pool task per query (PR-4)", f"{baseline_qps:,.0f}", "1.0x"),
                (
                    "vectorized",
                    f"{vector_qps:,.0f}",
                    f"{vector_qps / baseline_qps:.1f}x",
                ),
            ],
        ),
    )
    bench_json(
        "hotpath",
        {
            "dataset_size": size,
            "kind": KIND,
            "samples": SAMPLES,
            "batch_queries": 64 * BATCH_REPEAT,
            "tracked_p50_us": tracked_p50 * 1e6,
            "fast_p50_us": fast_p50 * 1e6,
            "kernel_p50_us": kernel_p50 * 1e6,
            "single_query_speedup": tracked_p50 / fast_p50,
            "batch_pool_per_query_qps": baseline_qps,
            "batch_vectorized_qps": vector_qps,
            "batch_speedup": vector_qps / baseline_qps,
        },
    )

    # Regression floors (ISSUE 5 acceptance; see module docstring).
    assert fast_p50 * SINGLE_FLOOR <= tracked_p50, (fast_p50, tracked_p50)
    assert vector_qps >= BATCH_FLOOR * baseline_qps, (vector_qps, baseline_qps)
