"""Case 15: workload harness -- tail latency under skew and read/write mixes.

The paper's serving economics are stated in per-query asymptotics; this case
measures what a *served mix* actually looks like at the tail.  Three
experiments over 2^16-element sessions, all written to
``BENCH_workloads.json`` (merge-with-provenance and untracked, like
``BENCH_engine.json``; CI checks the file its own run just wrote):

* ``zipf_read_heavy`` -- a Zipf(1.1) read-only mix over list-membership +
  minimum-range-query on an immutable session: the first tail-latency
  baseline (p50/p95/p99/p999, achieved qps).
* ``read_write_90_10`` -- the same membership traffic with 10% change
  batches through ``Dataset.apply_changes`` on a mutable session, plus a
  pure-read control on an identical mutable session, so the read-tail cost
  of concurrent writers (version publication + the delta path) is a
  measured delta, not a guess.  This section is also a *gate*: readers are
  lock-free against the published version record, so the mixed read p999
  must stay within ``P999_RATIO_LIMIT`` of the pure-read control (an
  absolute-gap guard absorbs smoke-size noise).  Under a reader--writer
  latch on the read path the ratio sat around 3x; a regression back to
  reader/writer blocking fails here and in CI's shape check.
* ``open_loop_curve`` -- offered-vs-achieved qps phases; latency measured
  from scheduled arrival, so the saturated phase shows queueing honestly.

The ``bottleneck`` section compares the two next-bottleneck candidates from
ISSUE 6: per-request batch-grouping overhead (``query_batch`` vs the serve-
plan ``query`` loop on identical operations) against the mutable read path's
writer cost (read p99 with writers vs without).  Whichever costs more at the
p99 is named in ``next_bottleneck``.
"""

from __future__ import annotations

import pytest

from conftest import bench_size, format_table

from repro.catalog import build_query_engine
from repro.workloads import WorkloadSpec, ZipfKeys, run_closed_loop, run_open_loop

SEED = 20130826
JSON_PATH = "BENCH_workloads.json"

#: The acceptance-criteria dataset size (2^16 full-size; capped in smoke).
SIZE = bench_size(16)
#: Closed-loop operation budget, scaled with the dataset so smoke runs in
#: seconds while the full-size tail has >= 16k samples behind p999.
OPERATIONS = max(400, SIZE // 4)
THREADS = 4
WARMUP = 32

#: Gate on the lock-free read tail: with 10% writers in the mix, the read
#: p999 may be at most this multiple of the pure-read control's p999.  The
#: latch-guarded path sat around 3x; the versioned-read path holds well
#: under 2x at the 2^16 acceptance size.
P999_RATIO_LIMIT = 2.0
#: Absolute-gap noise guard (microseconds): at smoke sizes both p999s are a
#: handful of microseconds and a scheduler hiccup can double one of them, so
#: the ratio alone would flake.  A real latch regression costs milliseconds
#: (~16,000 us pre-fix), so requiring the gap to also exceed this floor
#: keeps the gate sensitive while ignoring sub-200us jitter.
P999_GAP_FLOOR_US = 200.0


def _attach(engine, name, *, kinds, mutable=False):
    data = tuple(range(SIZE))
    return engine.attach(name, data, kinds=kinds, mutable=mutable)


def _assert_tail_shape(report):
    """The CI shape check: percentiles recorded, ordered, and finite."""
    latency = report.read_latency
    assert latency.count > 0
    assert 0 <= latency.p50 <= latency.p95 <= latency.p99 <= latency.p999 <= latency.max
    ratio = latency.p999 / latency.p50 if latency.p50 > 0 else float("inf")
    assert ratio == ratio and ratio != float("inf")  # finite, not NaN
    assert report.achieved_qps > 0
    return ratio


def _tail_row(label, report):
    latency = report.read_latency.to_dict()
    return [
        label,
        f"{report.achieved_qps:,.0f}",
        f"{latency['p50_us']:.1f}",
        f"{latency['p95_us']:.1f}",
        f"{latency['p99_us']:.1f}",
        f"{latency['p999_us']:.1f}",
        sum(report.errors.values()),
    ]


def test_zipf_read_heavy_tail_baseline(experiment_report, bench_json):
    """Zipf(1.1) read-only mix: the repo's first tail-latency baseline."""
    with build_query_engine() as engine:
        ds = _attach(
            engine, "zipf", kinds=["list-membership", "minimum-range-query"]
        )
        spec = WorkloadSpec(
            mix={"list-membership": 3.0, "minimum-range-query": 1.0},
            distribution=ZipfKeys(1.1),
            hit_fraction=0.5,
            seed=SEED,
        )
        report = run_closed_loop(
            ds, spec, threads=THREADS, operations=OPERATIONS, warmup=WARMUP
        )
    ratio = _assert_tail_shape(report)
    assert report.reads == OPERATIONS and report.writes == 0
    assert report.errors == {}
    bench_json(
        "zipf_read_heavy",
        dict(report.to_dict(), size=SIZE, p999_over_p50=ratio),
        path=JSON_PATH,
    )
    experiment_report(
        f"case 15a: Zipf(1.1) read-heavy mix, n={SIZE:,}, "
        f"{OPERATIONS:,} ops x {THREADS} threads",
        format_table(
            ["mix", "qps", "p50us", "p95us", "p99us", "p999us", "errors"],
            [_tail_row("zipf 3:1 member:rmq", report)],
        ),
    )


def test_read_write_mix_and_latch_cost(experiment_report, bench_json):
    """90/10 read/write through apply_changes, with a pure-read control on an
    identical mutable session -- the writers' read-tail cost, measured and
    gated (lock-free readers must keep p999 within 2x of the control)."""
    with build_query_engine() as engine:
        control_ds = _attach(engine, "control", kinds=["list-membership"], mutable=True)
        control = run_closed_loop(
            control_ds,
            WorkloadSpec(mix={"list-membership": 1.0}, seed=SEED),
            threads=THREADS,
            operations=OPERATIONS,
            warmup=WARMUP,
        )
        mixed_ds = _attach(engine, "mixed", kinds=["list-membership"], mutable=True)
        mixed = run_closed_loop(
            mixed_ds,
            WorkloadSpec(
                mix={"list-membership": 1.0}, write_ratio=0.1, seed=SEED
            ),
            threads=THREADS,
            operations=OPERATIONS,
            warmup=WARMUP,
        )
        version = mixed_ds.version
    for report in (control, mixed):
        _assert_tail_shape(report)
        assert report.errors == {}
    assert mixed.writes > 0 and version > 0
    # Every write batch landed in the session's counter window.
    assert mixed.stats_window["version"] == version
    writer_p99_cost = mixed.read_latency.p99 - control.read_latency.p99
    p999_ratio = mixed.read_latency.p999 / max(control.read_latency.p999, 1e-12)
    p999_gap_us = (mixed.read_latency.p999 - control.read_latency.p999) * 1e6
    bench_json(
        "read_write_90_10",
        dict(
            mixed.to_dict(),
            size=SIZE,
            p999_over_p50=mixed.read_latency.p999 / max(mixed.read_latency.p50, 1e-12),
            control_read_latency=control.read_latency.to_dict(),
            writer_read_p99_cost_us=writer_p99_cost * 1e6,
            read_p999_ratio_vs_control=p999_ratio,
            read_p999_gap_us=p999_gap_us,
            read_p999_ratio_limit=P999_RATIO_LIMIT,
            read_p999_gap_floor_us=P999_GAP_FLOOR_US,
        ),
        path=JSON_PATH,
    )
    # The gate: readers are lock-free, so concurrent writers may not multiply
    # the read tail.  Fail only when the ratio is bad AND the gap is too big
    # to be scheduler noise -- a genuine latch regression trips both by a
    # wide margin.
    assert p999_ratio <= P999_RATIO_LIMIT or p999_gap_us <= P999_GAP_FLOOR_US, (
        f"90/10 read p999 is {p999_ratio:.2f}x the pure-read control "
        f"(gap {p999_gap_us:+.0f} us); the mutable read path must stay "
        f"lock-free (limit {P999_RATIO_LIMIT}x beyond {P999_GAP_FLOOR_US} us)"
    )
    experiment_report(
        f"case 15b: 90/10 read/write vs pure-read control (mutable, n={SIZE:,})",
        format_table(
            ["mix", "qps", "p50us", "p95us", "p99us", "p999us", "errors"],
            [
                _tail_row("reads only (control)", control),
                _tail_row("90/10 via apply_changes", mixed),
            ],
        )
        + [
            f"writer read-p99 cost: {writer_p99_cost * 1e6:+.1f} us",
            f"read p999 vs control: {p999_ratio:.2f}x "
            f"(gate: <= {P999_RATIO_LIMIT}x beyond {P999_GAP_FLOOR_US:.0f} us)",
        ],
    )


def test_degraded_mode_tail(experiment_report, bench_json):
    """Tail latency with a fault plan armed: a sharded membership session
    under a low-probability dead-shard storm (ISSUE 7).  Union kinds answer
    partial instead of erroring, so the run completes with zero errors, a
    nonzero ``degraded`` count, and a p99 comparable to the healthy control
    -- degraded mode is a latency mode, not an outage."""
    from repro.service.faults import scenario

    spec = WorkloadSpec(
        mix={"list-membership": 1.0},
        distribution=ZipfKeys(1.1),
        hit_fraction=0.5,
        seed=SEED,
    )
    with build_query_engine(shards=4) as engine:
        control_ds = _attach(engine, "healthy", kinds=["list-membership"])
        control_ds.warm()
        control = run_closed_loop(
            control_ds, spec, threads=THREADS, operations=OPERATIONS, warmup=WARMUP
        )
        degraded_ds = _attach(engine, "degraded", kinds=["list-membership"])
        degraded_ds.warm()
        plan = scenario(
            "dead-shard",
            kind="list-membership",
            times=None,
            probability=0.02,
            seed=SEED,
        )
        degraded = run_closed_loop(
            degraded_ds,
            spec,
            threads=THREADS,
            operations=OPERATIONS,
            warmup=WARMUP,
            fault_plan=plan,
        )
    for report in (control, degraded):
        _assert_tail_shape(report)
        assert report.errors == {}  # union kinds degrade, they never error
    assert control.degraded == 0
    assert degraded.degraded > 0  # the storm actually bit, and loudly
    # Warmup probes fire faults too but are not recorded, so fired >= degraded.
    assert plan.fired_count("shard.partial") >= degraded.degraded
    health = degraded.stats_window["kinds"]["list-membership"]
    assert health["degraded_answers"] >= degraded.degraded
    bench_json(
        "degraded_mode",
        dict(
            degraded.to_dict(),
            size=SIZE,
            p999_over_p50=degraded.read_latency.p999
            / max(degraded.read_latency.p50, 1e-12),
            control_read_latency=control.read_latency.to_dict(),
            degraded_read_p99_cost_us=(
                degraded.read_latency.p99 - control.read_latency.p99
            )
            * 1e6,
            fault_plan={"scenario": "dead-shard", "probability": 0.02},
        ),
        path=JSON_PATH,
    )
    experiment_report(
        f"case 15e: degraded-mode tail under 2% dead-shard storm "
        f"(4 shards, n={SIZE:,})",
        format_table(
            ["mode", "qps", "p50us", "p95us", "p99us", "p999us", "errors"],
            [
                _tail_row("healthy (no plan)", control),
                _tail_row("2% dead-shard storm", degraded),
            ],
        )
        + [f"explicitly degraded answers: {degraded.degraded}"],
    )


def test_open_loop_offered_vs_achieved(experiment_report, bench_json):
    """Offered-load phases; the overloaded phase must show achieved < offered
    (latency from scheduled arrival -- queueing counts)."""
    with build_query_engine() as engine:
        ds = _attach(engine, "curve", kinds=["list-membership"])
        spec = WorkloadSpec(
            mix={"list-membership": 1.0}, distribution=ZipfKeys(1.1), seed=SEED
        )
        # Probe capacity first so the schedule brackets saturation on any
        # machine: one phase comfortably below, one far above.
        probe = run_closed_loop(ds, spec, threads=THREADS, operations=OPERATIONS // 4)
        capacity = probe.achieved_qps
        schedule = [(capacity * 0.2, 0.5), (capacity * 4.0, 0.5)]
        report = run_open_loop(ds, spec, schedule=schedule, concurrency=THREADS)
    _assert_tail_shape(report)
    relaxed, overloaded = report.phases
    assert overloaded["achieved_qps"] < overloaded["offered_qps"]
    bench_json(
        "open_loop_curve",
        dict(report.to_dict(), size=SIZE, probe_capacity_qps=capacity),
        path=JSON_PATH,
    )
    experiment_report(
        f"case 15c: open-loop offered vs achieved (n={SIZE:,}, "
        f"probed capacity {capacity:,.0f} qps)",
        format_table(
            ["offered qps", "achieved qps", "p99us", "p999us"],
            [
                [
                    f"{phase['offered_qps']:,.0f}",
                    f"{phase['achieved_qps']:,.0f}",
                    f"{phase['latency']['p99_us']:.1f}",
                    f"{phase['latency']['p999_us']:.1f}",
                ]
                for phase in report.phases
            ],
        ),
    )


def test_next_bottleneck_batch_grouping_vs_latch(experiment_report, bench_json):
    """Name the next bottleneck: batch-grouping overhead vs the mutable
    write path, compared at the read p99 on identical operations."""
    import time

    with build_query_engine() as engine:
        # Batch grouping: the same reads through query() (serve-plan fast
        # path) and through query_batch() (group-by-artifact machinery).
        ds = _attach(engine, "grouping", kinds=["list-membership"])
        spec = WorkloadSpec(
            mix={"list-membership": 1.0}, distribution=ZipfKeys(1.1), seed=SEED
        )
        stream = spec.bind(ds).stream(0)
        ops = [next(stream) for _ in range(OPERATIONS)]
        reads = [(op.kind, op.query) for op in ops if not op.is_write]
        ds.query("list-membership", reads[0][1])  # first-touch build
        loop_samples = []
        for kind, query in reads:
            begin = time.perf_counter()
            ds.query(kind, query)
            loop_samples.append(time.perf_counter() - begin)
        begin = time.perf_counter()
        ds.query_batch(reads)
        batch_seconds = time.perf_counter() - begin

        # Writers: pure-read vs 90/10 on mutable sessions (small, local rerun
        # so both candidates are measured in the same process state).
        control_ds = _attach(engine, "writer-control", kinds=["list-membership"], mutable=True)
        mixed_ds = _attach(engine, "writer-mixed", kinds=["list-membership"], mutable=True)
        read_spec = WorkloadSpec(mix={"list-membership": 1.0}, seed=SEED)
        mixed_spec = WorkloadSpec(mix={"list-membership": 1.0}, write_ratio=0.1, seed=SEED)
        control = run_closed_loop(
            control_ds, read_spec, threads=THREADS, operations=OPERATIONS, warmup=WARMUP
        )
        mixed = run_closed_loop(
            mixed_ds, mixed_spec, threads=THREADS, operations=OPERATIONS, warmup=WARMUP
        )

    loop_per_op = sum(loop_samples) / len(loop_samples)
    batch_per_op = batch_seconds / len(reads)
    grouping_cost = batch_per_op - loop_per_op
    writer_cost = mixed.read_latency.p99 - control.read_latency.p99
    next_bottleneck = (
        "batch-grouping" if grouping_cost > writer_cost else "mutable-writers"
    )
    bench_json(
        "bottleneck",
        {
            "size": SIZE,
            "operations": len(reads),
            "query_loop_us_per_op": loop_per_op * 1e6,
            "query_batch_us_per_op": batch_per_op * 1e6,
            "batch_grouping_cost_us_per_op": grouping_cost * 1e6,
            "writer_read_p99_cost_us": writer_cost * 1e6,
            "next_bottleneck": next_bottleneck,
        },
        path=JSON_PATH,
    )
    experiment_report(
        f"case 15d: next-bottleneck comparison (n={SIZE:,})",
        [
            f"query() loop        : {loop_per_op * 1e6:8.2f} us/op",
            f"query_batch()       : {batch_per_op * 1e6:8.2f} us/op "
            f"(grouping cost {grouping_cost * 1e6:+.2f} us/op)",
            f"writer read-p99 cost: {writer_cost * 1e6:+8.2f} us",
            f"next bottleneck     : {next_bottleneck}",
        ],
    )
