"""Load drivers: a sliced closed loop and an open-loop rate ladder.

*Closed loop*: each thread replays its bound op stream cyclically and
sends the next op only when the previous one has answered.  Every latency
is kept (in buffers allocated and touched before the window opens, so
sample storage never shows up as memory growth), every answer is compared
with its expectation.

*Slices*: the timed window is cut into SLICES equal slices; a reported
rate or percentile is the median of the slice values, and every slice's
own value is kept beside it (min and max are printed).  All slices count:
a phase the program itself makes slow -- a checkpoint, a rebuild -- is in
the numbers.

*Machine speed*: the one correction.  This sandbox runs a quarter of an
hour at one speed and the next a third slower (a fixed spin loop shows it
with nothing else running), so a raw time mostly says which quarter of an
hour it was taken in.  ``machine_speed`` runs that spin loop for a few
milliseconds before each slice and after the last one, and each slice's
times are multiplied by the speed measured around it: every timed value
reads "at reference machine speed".  The speeds are kept beside the
values, so the raw ones can be had back.

*Open loop*: arrivals follow a seeded Poisson schedule that does not
wait for answers; latency runs from the *scheduled* arrival, so a stall
is charged to every request it delays.  How late the generator itself
ran (time it could have sent but had not) is reported beside the
latencies, and a rung the generator could not keep up with is invalid,
not passed.
"""

from __future__ import annotations

import statistics
import threading
import time
from array import array
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from perf.stats import percentile, summarize_ns, tail_percentile

__all__ = [
    "SLICES",
    "BoundOp",
    "bind_stream",
    "machine_speed",
    "ClosedLoopResult",
    "run_closed_loop",
    "calibrate_loop",
    "run_ladder",
]

SLICES = 5
#: Latency samples kept per thread per slice; a slice that completes more
#: ops keeps the most recent ones (the op count stays exact).
SLICE_CAPACITY = 1 << 19
WRITE_CAPACITY = 1 << 15

#: ``(callable, args, expected, is_write)``
BoundOp = Tuple[Callable, tuple, Any, bool]


def bind_stream(target: Any, stream: Sequence[tuple]) -> List[BoundOp]:
    """Resolve each op's ``(session, method)`` to the target's callable."""
    bound: Dict[Tuple[str, str], Callable] = {}
    ops: List[BoundOp] = []
    for session, method, args, expected in stream:
        key = (session, method)
        call = bound.get(key)
        if call is None:
            call = bound[key] = target.bind(session, method)
        ops.append((call, args, expected, method == "apply_changes"))
    return ops


def _verified(answer: Any, expected: Any) -> bool:
    # Type identity as well as equality: a DegradedAnswer equals the bool
    # it wraps, and a degraded answer is a failure here.
    return type(answer) is type(expected) and answer == expected


#: Spin rounds per second that count as speed 1.0 (this sandbox's fast
#: level under python 3.11).  The constant only fixes the unit of a timed
#: value; two commits are always measured with the same one.
REFERENCE_ROUNDS_PER_S = 53_000.0


def machine_speed(seconds: float = 0.01) -> float:
    """How fast this machine is right now: the rate of a fixed spin loop
    over ``seconds``, as a share of REFERENCE_ROUNDS_PER_S."""
    clock = time.perf_counter
    begin = clock()
    rounds = 0
    while True:
        total = 0
        for i in range(500):
            total += i * i
        rounds += 1
        now = clock()
        if now - begin >= seconds:
            return rounds / (now - begin) / REFERENCE_ROUNDS_PER_S


class _ThreadLog:
    """One thread's pre-touched sample buffers and per-slice counters."""

    def __init__(self, has_writes: bool):
        self.reads = array("q", bytes(8 * SLICE_CAPACITY * SLICES))
        self.writes = array("q", bytes(8 * (WRITE_CAPACITY * SLICES if has_writes else 1)))
        self.read_count = [0] * SLICES
        self.write_count = [0] * SLICES
        self.failed = [0] * SLICES
        self.seconds = [0.0] * SLICES
        self.warm_count = 0
        self.warm_failed = 0

    def samples(self, index: int, writes: bool = False) -> np.ndarray:
        capacity = WRITE_CAPACITY if writes else SLICE_CAPACITY
        count = (self.write_count if writes else self.read_count)[index]
        buffer = self.writes if writes else self.reads
        view = np.frombuffer(buffer, dtype=np.int64)
        return view[index * capacity : index * capacity + min(count, capacity)]


def _replay(
    ops: List[BoundOp], offset: int, barrier: threading.Barrier,
    warm_seconds: float, slice_seconds: float, log: _ThreadLog,
) -> None:
    """Warm up (verified, not timed), then the slices.  Every thread starts
    each slice off the same barrier (between slices the main thread probes
    the machine's speed); the cursor carries over, so a stream with writes
    is never restarted mid-cycle."""
    clock_ns = time.perf_counter_ns
    reads, writes = log.reads, log.writes
    read_mask = SLICE_CAPACITY - 1
    write_mask = WRITE_CAPACITY - 1
    length = len(ops)
    cursor = offset % length
    barrier.wait()
    end_ns = clock_ns() + int(warm_seconds * 1e9)
    while clock_ns() < end_ns:
        call, args, expected, _is_write = ops[cursor]
        try:
            answer = call(*args)
        except Exception:
            answer = None
        if not _verified(answer, expected):
            log.warm_failed += 1
        log.warm_count += 1
        cursor += 1
        if cursor == length:
            cursor = 0
    barrier.wait()
    for index in range(SLICES):
        barrier.wait()
        end_ns = clock_ns() + int(slice_seconds * 1e9)
        read_base = index * SLICE_CAPACITY
        write_base = index * WRITE_CAPACITY
        read_count = write_count = failed = 0
        while True:
            call, args, expected, is_write = ops[cursor]
            started = clock_ns()
            try:
                answer = call(*args)
            except Exception:  # an errored op is a failed op, never a crash
                answer = None
            now = clock_ns()
            if is_write:
                writes[write_base + (write_count & write_mask)] = now - started
                write_count += 1
            else:
                reads[read_base + (read_count & read_mask)] = now - started
                read_count += 1
            if type(answer) is not type(expected) or answer != expected:
                failed += 1
            cursor += 1
            if cursor == length:
                cursor = 0
            if now >= end_ns:
                break
        log.read_count[index] = read_count
        log.write_count[index] = write_count
        log.failed[index] = failed
        log.seconds[index] = slice_seconds + (now - end_ns) / 1e9
        barrier.wait()


@dataclass
class ClosedLoopResult:
    """Reported numbers (medians over the slices, at reference machine
    speed) and every slice's own value and speed."""

    attempted: int = 0
    failed: int = 0
    ops_per_s: float = 0.0
    read_p50_us: float = 0.0
    read_p99_us: float = 0.0
    read_p999_us: float = 0.0
    write_p50_us: float = 0.0
    write_p99_us: float = 0.0
    read_samples: int = 0
    write_samples: int = 0
    machine_speed: float = 0.0
    slice_values: Dict[str, List[float]] = field(default_factory=dict)
    at_window_end: Any = None


def run_closed_loop(
    streams: Sequence[List[BoundOp]], seconds: float, *, warm_seconds: float = 0.0,
    weight: int = 1, offsets: "Sequence[int] | None" = None,
    at_window_end: "Callable[[], Any] | None" = None,
) -> ClosedLoopResult:
    """One thread per stream: ``warm_seconds`` untimed, then ``seconds`` of
    timed window in SLICES slices.

    ``weight`` is how many queries one read op carries (the batch size on
    batch workloads): throughput counts ``weight`` per verified read and
    read latency is divided by it.
    """
    offsets = list(offsets) if offsets is not None else [0] * len(streams)
    logs = [_ThreadLog(any(op[3] for op in ops)) for ops in streams]
    slice_seconds = seconds / SLICES
    barrier = threading.Barrier(len(streams) + 1)
    errors: List[BaseException] = []

    def work(ops: List[BoundOp], offset: int, log: _ThreadLog) -> None:
        try:
            _replay(ops, offset, barrier, warm_seconds, slice_seconds, log)
        except threading.BrokenBarrierError:
            pass  # another thread failed; its error is the one to report
        except BaseException as exc:
            errors.append(exc)
            barrier.abort()

    threads = [
        threading.Thread(target=work, args=(ops, offset, log), name=f"perf-loop-{i}")
        for i, (ops, offset, log) in enumerate(zip(streams, offsets, logs))
    ]
    for thread in threads:
        thread.start()
    speeds: List[float] = []
    try:
        barrier.wait()  # warm-up starts
        barrier.wait()  # warm-up done
        for _ in range(SLICES):
            speeds.append(machine_speed())
            barrier.wait()  # slice starts
            barrier.wait()  # slice done
        speeds.append(machine_speed())
    except threading.BrokenBarrierError:
        pass
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]

    result = ClosedLoopResult()
    if at_window_end is not None:
        # Before the samples are sorted: memory read here is the program's,
        # not the statistics'.
        result.at_window_end = at_window_end()
    result.attempted = sum(log.warm_count for log in logs) * weight
    result.failed = sum(log.warm_failed for log in logs) * weight

    values: Dict[str, List[float]] = {
        name: [] for name in
        ("ops_per_s", "read_p50_us", "read_p99_us", "write_p50_us", "write_p99_us")
    }
    # A slice run at speed 0.7 lasted 0.7 reference-seconds per second, and
    # so did every latency in it.
    speed = [(before + after) / 2 for before, after in zip(speeds, speeds[1:])]
    for index in range(SLICES):
        reads = sum(log.read_count[index] for log in logs)
        writes = sum(log.write_count[index] for log in logs)
        failed = sum(log.failed[index] for log in logs)
        result.attempted += reads * weight + writes
        result.failed += failed * weight
        elapsed = max(log.seconds[index] for log in logs) * speed[index]
        values["ops_per_s"].append((reads * weight + writes - failed * weight) / elapsed)
        read = summarize_ns(np.concatenate([log.samples(index) for log in logs]))
        result.read_samples += read["count"]
        if read["count"]:
            values["read_p50_us"].append(read["p50_us"] * speed[index] / weight)
            values["read_p99_us"].append(read["p99_us"] * speed[index] / weight)
        write = summarize_ns(np.concatenate([log.samples(index, True) for log in logs]))
        result.write_samples += write["count"]
        if write["count"]:
            values["write_p50_us"].append(write["p50_us"] * speed[index])
            values["write_p99_us"].append(write["p99_us"] * speed[index])
    for name, per_slice in values.items():
        if per_slice:
            setattr(result, name, statistics.median(per_slice))
    # The far tail needs the whole window's samples to have ten beyond it.
    everything = np.sort(np.concatenate(
        [log.samples(index) * speed[index] for index in range(SLICES) for log in logs]
    ))
    result.read_p999_us = tail_percentile(everything, 0.999) / 1000.0 / weight
    values["machine_speed"] = speed
    result.machine_speed = statistics.median(speed)
    result.slice_values = values
    return result


def calibrate_loop(seconds: float = 0.4) -> float:
    """Microseconds the closed loop itself spends per op: the same replay
    loop over a target that does nothing.  Local latencies of 1-2 us are
    to be read net of this."""
    ops: List[BoundOp] = [((lambda kind, query: True), ("k", 0), True, False)]
    return 1e6 / run_closed_loop([ops], seconds).ops_per_s


# -- open loop -----------------------------------------------------------------


def _poisson_schedule(rate: float, seconds: float, rng: Any) -> List[float]:
    at, schedule = 0.0, []
    while True:
        at += rng.expovariate(rate)
        if at >= seconds:
            return schedule
        schedule.append(at)


def _open_worker(
    ops: List[BoundOp], offset: int, schedule: List[float], begin: float,
    out: Dict[str, Any],
) -> None:
    clock = time.perf_counter
    latencies, late = [], []
    failed = 0
    cursor = offset % len(ops)
    free_at = begin
    for due in schedule:
        due += begin
        # Sleep, never spin: a spinning thread would hold the interpreter
        # lock against the other connection's thread.
        wait = due - clock()
        if wait > 0:
            time.sleep(wait)
        call, args, expected, _is_write = ops[cursor]
        cursor = (cursor + 1) % len(ops)
        sent = clock()
        # Time the generator could have sent (connection free, arrival
        # due) but had not: its own lateness, apart from server backlog.
        late.append(sent - max(due, free_at))
        try:
            answer = call(*args)
        except Exception:
            answer = None
        free_at = clock()
        latencies.append(free_at - due)
        if not _verified(answer, expected):
            failed += 1
    out.update(latencies=latencies, late=late, failed=failed,
               finished=clock() - begin)


def run_ladder(
    streams: Sequence[List[BoundOp]], rates: Sequence[int], rung_seconds: float,
    seed_rng: Any, *, slo_us: float, max_late_us: float = 1000.0,
) -> Dict[str, Any]:
    """Climb ``rates`` (requests/s over all connections); stop after two
    consecutive misses.  A rung passes when p99 from scheduled arrival is
    within ``slo_us``, achieved rate is at least 0.98 of offered, nothing
    failed, and the generator's own p99 lateness is within ``max_late_us``."""
    rungs: List[Dict[str, Any]] = []
    misses = 0
    best = 0
    for rate in rates:
        per_thread = rate / len(streams)
        schedules = [
            _poisson_schedule(per_thread, rung_seconds, seed_rng) for _ in streams
        ]
        outs: List[Dict[str, Any]] = [{} for _ in streams]
        begin = time.perf_counter() + 0.05
        threads = [
            threading.Thread(
                target=_open_worker,
                args=(ops, i * len(ops) // len(streams), schedule, begin, out),
            )
            for i, (ops, schedule, out) in enumerate(zip(streams, schedules, outs))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        latencies = sorted(x for out in outs for x in out["latencies"])
        late = sorted(x for out in outs for x in out["late"])
        sent = len(latencies)
        failed = sum(out["failed"] for out in outs)
        elapsed = max(rung_seconds, max(out["finished"] for out in outs))
        rung = {
            "offered_per_s": rate,
            "achieved_per_s": sent / elapsed,
            "sent": sent,
            "failed": failed,
            "p50_us": percentile(latencies, 0.50) * 1e6,
            "p99_us": percentile(latencies, 0.99) * 1e6,
            "late_p99_us": percentile(late, 0.99) * 1e6,
        }
        rung["valid"] = rung["late_p99_us"] <= max_late_us
        rung["passed"] = bool(
            rung["valid"]
            and failed == 0
            and rung["p99_us"] <= slo_us
            and rung["achieved_per_s"] >= 0.98 * sent / rung_seconds
        )
        rungs.append(rung)
        if rung["passed"]:
            best, misses = rate, 0
        else:
            misses += 1
            if misses == 2:
                break
    return {
        "slo_rate_per_s": best,
        "late_p99_us": max(rung["late_p99_us"] for rung in rungs),
        "attempted": sum(rung["sent"] for rung in rungs),
        "failed": sum(rung["failed"] for rung in rungs),
        "rungs": rungs,
    }
