"""The seven workloads and the procedure every one of them follows.

    set-up (timed) -> untimed warm-up -> timed window in slices
        -> restart over the populated store (timed) -> two more set-ups

A traced run does the same around the sliced replay of ``layers.py`` and
reports the per-layer metrics instead of the end-to-end ones.

Sized for two cores: the generator is one process with at most two
threads/connections; on ``wire-*`` workloads the front runs in its own
process (``front_proc.py``) with two workers.  No workload attaches more
than two datasets or four kinds, far inside the engine's 64-entry
artifact cache: cache thrash is out of scope until a change targets it.
"""

from __future__ import annotations

import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.catalog import build_query_engine

from perf import gen, layers, metrics as names
from perf.drivers import (
    bind_stream, calibrate_loop, machine_speed, run_closed_loop, run_ladder,
)
from perf.gen import MEMBERSHIP, POINT, RANGE, RMQ
from perf.targets import WORKERS, LocalTarget, SessionSpec, WireTarget

__all__ = ["WORKLOADS", "FULL_SIZE", "QUICK_SIZE", "BenchmarkError", "run_workload"]

FULL_SIZE = 1 << 16
QUICK_SIZE = 1 << 10
#: Set-ups and restarts timed per run; the median of each is reported.
REPEATS = 3
#: Open-loop ladder of wire-point (requests/s over both connections), the
#: seconds each rung lasts and the latency limit on p99 from scheduled
#: arrival.  The rung length is fixed: it does not follow ``--seconds``.
LADDER = (500, 750, 1000, 1250, 1500, 2000, 2500, 3000)
RUNG_SECONDS = 2.5
QUICK_RUNG_SECONDS = 0.2
SLO_US = 5000.0
#: Requests replayed through the slices of the traced pass.
TRACE_POINT_REQUESTS = 2000
TRACE_BATCH_REQUESTS = 48
#: Oracle answers re-derived from QueryClass.pair_in_language per kind.
CROSS_CHECKS = 6


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a valid result."""


@dataclass
class Plan:
    sessions: Dict[str, SessionSpec]
    streams: List[list]  # one op stream per generator thread
    weight: int = 1  # queries carried by one read op
    offsets: Optional[List[int]] = None
    writer: Optional[int] = None  # index of the stream that writes
    trace_writer: Optional[list] = None  # a short writer cycle for the traced pass


@dataclass(frozen=True)
class Workload:
    name: str
    wire: bool
    plan: Callable[[int, int, Any], Plan]


def _scaled(full: int, n: int) -> int:
    """Stream lengths shrink with the dataset in --quick mode."""
    return max(64, full * n // FULL_SIZE)


def _ints_and_relation(n: int, engine: Any):
    ints = gen.make_ints(n)
    relation = gen.make_relation(n, engine.registration(POINT)[0])
    sessions = {
        "ints": SessionSpec(ints, (MEMBERSHIP, RMQ)),
        "rel": SessionSpec(relation, (POINT, RANGE)),
    }
    return sessions, gen.IntsOracle(ints), gen.RelationOracle(relation)


def _plan_local_point(seed: int, n: int, engine: Any) -> Plan:
    sessions, ints, relation = _ints_and_relation(n, engine)
    stream = gen.point_stream(
        seed, "local-point", (MEMBERSHIP, RMQ, POINT, RANGE),
        _scaled(1 << 16, n), ints, relation,
    )
    return Plan(sessions, [stream])


def _plan_local_batch(seed: int, n: int, engine: Any) -> Plan:
    sessions, ints, relation = _ints_and_relation(n, engine)
    size = 1024
    stream = gen.batch_stream(
        seed, "local-batch", {name: spec.kinds for name, spec in sessions.items()},
        max(4, _scaled(64, n)), size, ints, relation,
    )
    return Plan(sessions, [stream], weight=size)


def _plan_local_sharded(seed: int, n: int, engine: Any) -> Plan:
    ints = gen.make_ints(n)
    sessions = {"ints": SessionSpec(ints, (MEMBERSHIP, RMQ), shards=4)}
    stream = gen.sharded_stream(
        seed, "local-sharded", _scaled(1 << 14, n), gen.IntsOracle(ints)
    )
    return Plan(sessions, [stream])


def _plan_mixed(tag: str, reader_full: int, writer_full: int):
    def plan(seed: int, n: int, engine: Any) -> Plan:
        members = gen.make_ints(n, "members")
        array = gen.make_ints(n, "array")
        sessions = {
            "members": SessionSpec(members, (MEMBERSHIP,), mutable=True),
            "array": SessionSpec(array, (RMQ,), mutable=True),
        }
        reader, writer = gen.mixed_streams(
            seed, tag, _scaled(reader_full, n), _scaled(writer_full, n),
            gen.IntsOracle(members), gen.IntsOracle(array),
        )
        # The traced pass replays a whole cycle three times over; a
        # shorter one (with the same shape) keeps it to seconds.
        _reader, short = gen.mixed_streams(
            seed, tag + "/trace", 64, _scaled(640, n),
            gen.IntsOracle(members), gen.IntsOracle(array),
        )
        return Plan(sessions, [reader, writer], writer=1, trace_writer=short)

    return plan


def _plan_wire_point(seed: int, n: int, engine: Any) -> Plan:
    ints = gen.make_ints(n)
    sessions = {"ints": SessionSpec(ints, (MEMBERSHIP, RMQ))}
    stream = gen.point_stream(
        seed, "wire-point", (MEMBERSHIP, RMQ), _scaled(1 << 14, n), gen.IntsOracle(ints)
    )
    return Plan(sessions, [stream, stream], offsets=[0, len(stream) // 2])


def _plan_wire_batch(seed: int, n: int, engine: Any) -> Plan:
    ints = gen.make_ints(n)
    sessions = {"ints": SessionSpec(ints, (MEMBERSHIP, RMQ))}
    size = 256
    stream = gen.batch_stream(
        seed, "wire-batch", {"ints": (MEMBERSHIP, RMQ)},
        max(4, _scaled(64, n)), size, gen.IntsOracle(ints),
    )
    return Plan(sessions, [stream, stream], weight=size,
                offsets=[0, len(stream) // 2])


#: Why each workload exists is recorded where it is named: BENCHMARK.json.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("local-point", False, _plan_local_point),
        Workload("local-batch", False, _plan_local_batch),
        Workload("local-sharded", False, _plan_local_sharded),
        Workload("local-mixed-rw", False, _plan_mixed("local-mixed-rw", 1 << 15, 1 << 13)),
        Workload("wire-point", True, _plan_wire_point),
        Workload("wire-batch", True, _plan_wire_batch),
        Workload("wire-mixed-rw", True, _plan_mixed("wire-mixed-rw", 1 << 13, 1 << 13)),
    )
}


# -- the common procedure ------------------------------------------------------


def _probes(plan: Plan) -> List[tuple]:
    """The first read per (session, kind): set-up ends when each has
    returned its expected answer."""
    seen, probes = set(), []
    for stream in plan.streams:
        for op in stream:
            session, method, args, _expected = op
            if method == "apply_changes":
                continue
            key = (session, args[0] if method == "query" else None)
            if key not in seen:
                seen.add(key)
                probes.append(op)
    return probes


def _verify(target: Any, probes: Sequence[tuple]) -> None:
    # Over the wire immutable reads go round the workers in turn: twice
    # as many sends as workers reaches every one of them.
    repeats = 2 * WORKERS if target.wire else 1
    for session, method, args, expected in probes:
        call = target.bind(session, method)
        for _ in range(repeats):
            answer = call(*args)
            if type(answer) is not type(expected) or answer != expected:
                raise BenchmarkError(
                    f"set-up probe {method}{args!r} on {session!r} answered "
                    f"{answer!r}, expected {expected!r}"
                )


def _cross_check(plan: Plan, engine: Any) -> None:
    """Tie the benchmark's own oracle to the repo's reference semantics:
    CROSS_CHECKS answers per served kind are re-derived by
    ``QueryClass.pair_in_language`` (a full scan each, hence a sample)."""
    todo = {kind: CROSS_CHECKS for spec in plan.sessions.values() for kind in spec.kinds}
    for index, stream in enumerate(plan.streams):
        if index == plan.writer:
            continue  # its expectations depend on the writes before them
        for session, method, args, expected in stream:
            if not todo:
                return
            pairs = [(args, expected)] if method == "query" else zip(args[0], expected)
            for (kind, query), answer in pairs:
                if kind not in todo:
                    continue
                todo[kind] -= 1
                if not todo[kind]:
                    del todo[kind]
                query_class, _scheme = engine.registration(kind)
                truth = query_class.pair_in_language(plan.sessions[session].data, query)
                if truth is not answer:
                    raise BenchmarkError(
                        f"oracle disagrees with pair_in_language on {kind} "
                        f"{query!r}: {answer!r} vs {truth!r}"
                    )


def _kind_counters(stats: Dict[str, Dict[str, Any]]) -> Dict[str, float]:
    """Sum the per-kind serving counters of ``Dataset.stats()`` over every
    session of a target."""
    total: Dict[str, float] = {}
    for session in stats.values():
        for counters in session["kinds"].values():
            for key, value in counters.items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    total[key] = total.get(key, 0) + value
    return total


def _resolutions(counters: Dict[str, float]) -> Tuple[float, float]:
    hits = sum(counters.get(k, 0) for k in
               ("cache_hits", "store_hits", "shard_cache_hits", "shard_store_hits"))
    builds = counters.get("builds", 0) + counters.get("shard_builds", 0)
    return hits, builds


class _Run:
    """One run of one workload: owns its scratch directory."""

    def __init__(self, workload: Workload, seed: int, n: int, out_dir: Path):
        self.workload = workload
        self.seed = seed
        self.n = n
        self.scratch = out_dir / f"tmp-{workload.name}-{seed}-{time.time_ns()}"
        self.scratch.mkdir(parents=True)
        self.raw_opens: List[Tuple[float, float]] = []  # (raw seconds, speed)
        self._stores = 0

    def fresh_store(self) -> str:
        self._stores += 1
        return str(self.scratch / f"store-{self._stores}")

    def open(self, plan: Plan, store_root: str, probes: Sequence[tuple]) -> Tuple[Any, float]:
        """Nothing running -> first verified answer for every kind; returns
        the target and the seconds it took at reference machine speed (the
        speed measured just before and just after)."""
        cls = WireTarget if self.workload.wire else LocalTarget
        speed = machine_speed()
        begin = time.perf_counter()
        target = cls(store_root, plan.sessions)
        try:
            _verify(target, probes)
        except BaseException:
            target.close()
            raise
        elapsed = time.perf_counter() - begin
        speed = (speed + machine_speed()) / 2
        self.raw_opens.append((elapsed, speed))
        return target, elapsed * speed

    def cleanup(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, *, n: int = FULL_SIZE,
    out_dir: Path, repeats: int = REPEATS, rung_seconds: float = RUNG_SECONDS,
) -> Dict[str, Any]:
    """Run one workload once; returns ``correct`` / ``attempted`` /
    ``failed`` / ``metrics`` (name -> value) plus a ``detail`` block."""
    run = _Run(WORKLOADS[name], seed, n, out_dir)
    reference = build_query_engine()  # registrations only; it serves nothing
    try:
        return _run(run, reference, seconds, trace, repeats, rung_seconds)
    finally:
        reference.close()
        run.cleanup()


def _run(
    run: _Run, reference: Any, seconds: float, trace: bool, repeats: int,
    rung_seconds: float,
) -> Dict[str, Any]:
    workload, seed, n = run.workload, run.seed, run.n
    plan = workload.plan(seed, n, reference)
    _cross_check(plan, reference)
    probes = _probes(plan)
    measured: Dict[str, float] = {}
    detail: Dict[str, Any] = {"workload": workload.name, "size": n, "seed": seed}

    store_root = run.fresh_store()
    target, first_setup = run.open(plan, store_root, probes)
    setups = [first_setup]
    try:
        store_bytes = target.store_bytes()
        after_setup = _kind_counters(target.stats())
        if trace:
            measured.update(_traced_pass(run, plan, reference, target, detail))
        streams = [bind_stream(target, stream) for stream in plan.streams]
        before = _kind_counters(target.stats())
        window = run_closed_loop(
            streams, seconds, warm_seconds=min(0.5, seconds / 8),
            weight=plan.weight, offsets=plan.offsets,
            at_window_end=target.rss_bytes,
        )
        rss = window.at_window_end
        after = _kind_counters(target.stats())
        health = target.health()
        ladder = None
        # After the window and with nothing traced while it climbs; in the
        # pass that prints its result (slo_rate_per_s is a per-layer name).
        if trace and workload.name == "wire-point":
            ladder = run_ladder(
                streams, LADDER, rung_seconds, gen.rng_for(seed, "ladder"),
                slo_us=SLO_US,
            )
    finally:
        target.close()

    # Restart: the same, over the store the first set-up populated -- load,
    # not build.  Then the remaining set-ups, each on an empty store.
    restarts, restart_counters = [], {}
    for _ in range(repeats):
        reopened, elapsed = run.open(plan, store_root, probes)
        restarts.append(elapsed)
        restart_counters = _kind_counters(reopened.stats())
        reopened.close()
    for _ in range(repeats - 1):
        again, elapsed = run.open(plan, run.fresh_store(), probes)
        setups.append(elapsed)
        again.close()

    attempted = window.attempted + (ladder["attempted"] if ladder else 0)
    failed = window.failed + (ladder["failed"] if ladder else 0)
    measured.update(
        setup_s=statistics.median(setups),
        restart_s=statistics.median(restarts),
        ops_per_s=window.ops_per_s,
        read_p50_us=window.read_p50_us,
        read_p99_us=window.read_p99_us,
        read_p999_us=window.read_p999_us,
        write_p50_us=window.write_p50_us,
        write_p99_us=window.write_p99_us,
        rss_mb=sum(rss) / 2**20,
        store_bytes_per_item=store_bytes / n,
        verified_share=1.0 - failed / attempted,
    )
    measured["loadgen.machine_speed"] = window.machine_speed
    if ladder:
        measured["slo_rate_per_s"] = ladder["slo_rate_per_s"]
        measured["loadgen.late_p99_us"] = ladder["late_p99_us"]
        detail["ladder"] = ladder["rungs"]
    detail.update(
        setups_s=setups, restarts_s=restarts, raw_opens=run.raw_opens,
        slice_values=window.slice_values,
        read_samples=window.read_samples, write_samples=window.write_samples,
        window_seconds=seconds, threads=len(plan.streams), rss_bytes=rss,
        measured=measured,
    )

    if not trace:
        metrics = {name: float(measured[name]) for name in names.end_to_end()}
    else:
        measured.update(_counters(after_setup, restart_counters, before, after, health))
        if workload.wire:
            measured["workers.spawn_s"] = target.spawn_s * run.raw_opens[0][1]
            measured["workers.rss_mb_each"] = statistics.median(rss[1:]) / 2**20
        measured["loadgen.self_us_per_op"] = calibrate_loop()
        unnamed = set(measured) - set(names.unit_of())
        if unnamed:
            raise BenchmarkError(f"unnamed metrics: {sorted(unnamed)}")
        metrics = {name: float(measured.get(name, 0.0)) for name in names.per_layer()}

    return {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
        "detail": detail,
    }


def _counters(
    after_setup: Dict[str, float], restart: Dict[str, float],
    before: Dict[str, float], after: Dict[str, float], health: Dict[str, Any],
) -> Dict[str, float]:
    """Counts read at the layer boundaries: after set-up, after restart,
    and over the timed window."""
    layer: Dict[str, float] = {}
    layer["engine.store_hits"], layer["engine.builds"] = _resolutions(after_setup)
    layer["engine.restart_store_hits"], layer["engine.restart_builds"] = (
        _resolutions(restart)
    )
    delta = {key: after.get(key, 0) - before.get(key, 0) for key in after}
    hits, builds = _resolutions(delta)
    layer["cache.hit_rate"] = hits / (hits + builds) if hits + builds else 1.0
    layer["mutable.delta_batches"] = delta.get("delta_batches", 0)
    layer["mutable.fallback_rebuilds"] = delta.get("fallback_rebuilds", 0)
    if "cache" in health:
        layer["cache.evictions"] = health["cache"]["evictions"]
        return layer
    supervisor, gateway = health["supervisor"], health["gateway"]
    for counter in ("hedged_requests", "retried_requests", "failed_requests",
                    "journal_checkpoints"):
        layer[f"supervisor.{counter}"] = supervisor[counter]
    layer["supervisor.deadline_expired"] = (
        supervisor["deadline_expired_supervisor"]
        + supervisor["deadline_expired_worker"] + gateway["deadline_expired"]
    )
    layer["server.shed_requests"] = gateway["overloaded_rejections"]
    layer.update(health["client"])
    return layer


def _traced_pass(
    run: _Run, plan: Plan, engine: Any, target: Any, detail: Dict[str, Any]
) -> Dict[str, float]:
    """Cost probes and the sliced replay.  Runs before the window, so the
    mutable content is exactly the attached content when it starts (and,
    a writer cycle being an identity, when it ends)."""
    workload = run.workload
    tracer = layers.Tracer()
    metrics, structures = layers.cost_probes(
        engine, plan.sessions, str(run.scratch / "probe-store")
    )
    metrics["engine.attach_s"] = target.attach_s * run.raw_opens[0][1]
    batch = plan.weight > 1
    limit = TRACE_BATCH_REQUESTS if batch else TRACE_POINT_REQUESTS
    reads = [op for op in plan.streams[0] if op[1] != "apply_changes"][:limit]
    local = target
    if workload.wire:
        local = LocalTarget(str(run.scratch / "trace-store"), plan.sessions)
    try:
        wire = target if workload.wire else None
        slices, by_kind, wire_codec = layers.trace_reads(
            tracer, reads, engine, structures, local, wire
        )
        thickest = slices["remote" if wire else "dataset"]
        traced_p50 = layers.median_us(thickest)
        metrics["trace.overhead_share"] = layers.overhead_share(reads, target)
        if plan.trace_writer is not None:
            metrics.update(layers.trace_writes(
                tracer, plan.trace_writer, engine, structures, local, wire
            ))
    finally:
        if local is not target:
            local.close()

    weight = plan.weight
    kernel_name = "answer_many_us_per_query" if batch else "answer_us"
    for kind, values in by_kind.items():
        metrics[f"kernel.{kernel_name}.{kind}"] = layers.median_us(values)
    dataset_self = (slices["dataset"] - slices["kernel"]) / weight
    if workload.name == "local-sharded":
        kinds = np.array([op[2][0] for op in reads])
        metrics["sharding.routed_self_us"] = layers.median_us(dataset_self[kinds == MEMBERSHIP])
        metrics["sharding.scatter_self_us"] = layers.median_us(dataset_self[kinds == RMQ])
        layer = "service.sharding"
    elif plan.writer is not None:
        layer = "service.mutable"
        metrics["mutable.read_self_us"] = layers.median_us(dataset_self)
    else:
        layer = "service.dataset"
        name = "dataset.batch_self_us_per_query" if batch else "dataset.query_self_us"
        metrics[name] = layers.median_us(dataset_self)
    rows = [
        ("queries/indexes (kernel)", layers.median_us(slices["kernel"] / weight)),
        (layer, layers.median_us(dataset_self)),
    ]
    if workload.wire:
        wire_metrics, wire_rows = layers.wire_self_times(slices, wire_codec, weight)
        metrics.update(wire_metrics)
        rows += wire_rows
    thickest_p50 = traced_p50 / weight
    metrics["trace.thickest_p50_us"] = thickest_p50
    metrics["trace.unattributed_us"] = thickest_p50 - sum(v for _n, v in rows)
    tracer.flush(run.scratch.parent / f"trace-{workload.name}.jsonl")
    largest = max(rows[1:], key=lambda row: row[1])
    detail["trace"] = {
        "requests": len(reads),
        "rows": rows,
        "thickest_p50_us": thickest_p50,
        "largest_non_kernel_row": largest[0],
        "table": layers.format_table(rows, thickest_p50),
    }
    return metrics
