"""The traced pass: one workload's own requests through thicker slices.

End-to-end numbers come from the untraced window.  This pass replays the
first requests of the workload's stream through successively thicker
slices of the stack, timing calls into public functions only --

    answer_fast -> Dataset.query -> workers.handle_frame (local engine)
        -> Supervisor.call (inside the front process) -> RemoteDataset.query

-- and records one in-memory span per call (name, start, end, request,
slice, parent slice), written to ``perf/out/trace-<workload>.jsonl`` when
the pass ends.  A layer's *self* time is a slice minus the next thinner
one, paired per request, then the median.  The table's rows plus an
explicit ``unattributed`` row sum to the thickest slice's median.

Like every timed value of a run, each replay's times are multiplied by the
machine speed measured around it (``drivers.machine_speed``), so the table
and the untraced window read on one scale.  Spans keep raw clock readings.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.core.cost import NULL_TRACKER
from repro.service.artifacts import ArtifactKey, ArtifactStore
from repro.service.frontend import protocol, workers
from repro.storage.fingerprint import dataset_fingerprint

from perf.drivers import bind_stream, machine_speed
from perf.targets import CODEC, LocalTarget, SessionSpec

__all__ = [
    "Tracer",
    "cost_probes",
    "trace_reads",
    "trace_writes",
    "wire_self_times",
    "overhead_share",
    "median_us",
    "format_table",
]

#: Thinnest to thickest; a span's parent is the next slice up.
SLICE_ORDER = ("kernel", "dataset", "frame", "supervisor", "remote")
_PARENT = dict(zip(SLICE_ORDER, SLICE_ORDER[1:]))

Call = Tuple[int, Callable, tuple]


class _Speed:
    """The machine speed around a block of timed calls: ``factor`` turns
    the block's raw times into times at reference speed."""

    factor = 1.0

    def __enter__(self) -> "_Speed":
        self._before = machine_speed()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.factor = (self._before + machine_speed()) / 2


class Tracer:
    """Spans kept in memory, flushed once."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, int, int, int, str]] = []

    def time_calls(
        self, slice_name: str, name: str, calls: Iterable[Call], count: int
    ) -> np.ndarray:
        """Run ``calls`` (request index, callable, args) and return the
        nanoseconds per request index (summed over a request's calls)."""
        elapsed = np.zeros(count, dtype=np.int64)
        clock = time.perf_counter_ns
        record = self.spans.append
        with _Speed() as speed:
            for request, call, args in calls:
                begin = clock()
                call(*args)
                end = clock()
                record((name, begin, end, request, slice_name))
                elapsed[request] += end - begin
        return elapsed * speed.factor

    def add_remote(self, slice_name: str, name: str, durations_ns: Sequence[int]) -> None:
        """Spans timed in another process: durations are exact, start
        instants are laid end to end from now."""
        at = time.perf_counter_ns()
        for request, ns in enumerate(durations_ns):
            self.spans.append((name, at, at + ns, request, slice_name))
            at += ns

    def flush(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for name, begin, end, request, slice_name in self.spans:
                handle.write(json.dumps({
                    "name": name, "start_ns": begin, "end_ns": end,
                    "request": request, "slice": slice_name,
                    "parent": _PARENT.get(slice_name),
                }) + "\n")


def median_us(values_ns: Any) -> float:
    values = np.asarray(values_ns, dtype=np.float64)
    return float(np.median(values)) / 1000.0 if values.size else 0.0


def _timed(call: Callable, *args: Any) -> Tuple[float, Any]:
    with _Speed() as speed:
        begin = time.perf_counter()
        value = call(*args)
        elapsed = time.perf_counter() - begin
    return elapsed * speed.factor, value


# -- cost side: build / dump / load / bytes / fingerprint / store --------------


def cost_probes(
    engine: Any, sessions: Dict[str, SessionSpec], scratch: str
) -> Tuple[Dict[str, float], Dict[Tuple[str, str], Any]]:
    """What the polylog answers cost up front, per kind the workload
    serves.  Returns the metrics and the built ``(session, kind)``
    structures (the kernel slice answers from them)."""
    metrics: Dict[str, float] = {}
    structures: Dict[Tuple[str, str], Any] = {}
    largest_blob, largest_session, largest_scheme = b"", "", ""
    for session, spec in sessions.items():
        for kind in spec.kinds:
            _query_class, scheme = engine.registration(kind)
            seconds, structure = _timed(scheme.preprocess, spec.data, NULL_TRACKER)
            structures[(session, kind)] = structure
            metrics[f"kernel.build_s.{kind}"] = seconds
            seconds, blob = _timed(scheme.dump, structure)
            metrics[f"kernel.dump_s.{kind}"] = seconds
            metrics[f"kernel.artifact_bytes.{kind}"] = float(len(blob))
            metrics[f"kernel.load_s.{kind}"], _loaded = _timed(scheme.load, blob)
            if len(blob) > len(largest_blob):
                largest_blob, largest_session, largest_scheme = blob, session, scheme.name
    seconds, fingerprint = _timed(dataset_fingerprint, sessions[largest_session].data)
    metrics["fingerprint.hash_s"] = seconds
    store = ArtifactStore(scratch)
    key = ArtifactKey(fingerprint=fingerprint, scheme=largest_scheme, params="perf")
    metrics["artifacts.put_s"], _path = _timed(store.put, key, largest_blob)
    metrics["artifacts.get_s"], _blob = _timed(store.get, key)
    return metrics, structures


# -- read path -----------------------------------------------------------------


def _wire_value(method: str, args: tuple) -> Dict[str, Any]:
    """The request body ``RemoteDataset`` sends for one op."""
    if method == "query":
        return {"kind": args[0], "query": args[1]}
    if method == "query_batch":
        return {"pairs": [tuple(pair) for pair in args[0]]}
    return {"changes": list(args[0])}


def _calls(target: Any, ops: Sequence[tuple]) -> Iterable[Call]:
    for request, (call, args, _expected, _write) in enumerate(bind_stream(target, ops)):
        yield request, call, args


def trace_reads(
    tracer: Tracer,
    reads: Sequence[tuple],
    engine: Any,
    structures: Dict[Tuple[str, str], Any],
    local: LocalTarget,
    wire: Any,
) -> Tuple[Dict[str, "np.ndarray"], Dict[str, List[float]], Dict[str, float]]:
    """Replay read ops through every slice the workload has.

    Returns nanoseconds per request for each slice, the kernel's
    per-query nanoseconds grouped by kind, and the protocol metrics
    (whole-frame numbers; the caller divides by the batch size).
    """
    count = len(reads)
    clock = time.perf_counter_ns
    slices: Dict[str, np.ndarray] = {}

    # kernel: scheme.answer_fast / answer_many on structures built here
    kernel = np.zeros(count, dtype=np.int64)
    by_kind: Dict[str, List[float]] = {}
    with _Speed() as speed:
        for request, (session, method, args, _expected) in enumerate(reads):
            if method == "query":
                groups = [(args[0], None, args[1])]
            else:
                grouped: Dict[str, list] = {}
                for kind, query in args[0]:
                    grouped.setdefault(kind, []).append(query)
                groups = [(kind, queries, None) for kind, queries in grouped.items()]
            for kind, queries, query in groups:
                _query_class, scheme = engine.registration(kind)
                structure = structures[(session, kind)]
                begin = clock()
                if queries is None:
                    scheme.answer_fast(structure, query)
                else:
                    scheme.answer_many(structure, queries)
                end = clock()
                tracer.spans.append((f"answer:{kind}", begin, end, request, "kernel"))
                kernel[request] += end - begin
                by_kind.setdefault(kind, []).append(
                    (end - begin) / (1 if queries is None else len(queries))
                )
    slices["kernel"] = kernel * speed.factor
    by_kind = {kind: [ns * speed.factor for ns in values]
               for kind, values in by_kind.items()}

    # dataset: Dataset.query / query_batch on the in-process engine
    method = reads[0][1]
    slices["dataset"] = tracer.time_calls(
        "dataset", f"Dataset.{method}", _calls(local, reads), count
    )
    protocol_metrics: Dict[str, float] = {}
    if not wire:
        return slices, by_kind, protocol_metrics

    # frame: workers.handle_frame on the same in-process engine
    headers = [{"op": op[1], "rid": request, "dataset": op[0]}
               for request, op in enumerate(reads)]
    values = [_wire_value(op[1], op[2]) for op in reads]
    bodies = [protocol.encode_body(value, CODEC) for value in values]
    responses: List[bytes] = [b""] * count

    def handle(request: int) -> None:
        _header, responses[request] = workers.handle_frame(
            local.engine, headers[request], bodies[request], CODEC
        )

    slices["frame"] = tracer.time_calls(
        "frame", "workers.handle_frame",
        ((request, handle, (request,)) for request in range(count)), count,
    )

    # codec: what the worker (decode request, encode answer) and the client
    # (pack request frame, unpack + decode answer frame) each pay
    encode = np.zeros(count, dtype=np.int64)
    decode = np.zeros(count, dtype=np.int64)
    worker_codec = np.zeros(count, dtype=np.int64)
    client_codec = np.zeros(count, dtype=np.int64)
    wire_bytes = np.zeros(count, dtype=np.int64)
    with _Speed() as speed:
        for request in range(count):
            answer = protocol.decode_body(responses[request], CODEC)
            response_frame = protocol.pack_frame(
                {"rid": request, "ok": True, "op": method},
                body_bytes=responses[request], codec=CODEC,
            )
            t0 = clock()
            protocol.encode_body(values[request], CODEC)
            t1 = clock()
            protocol.encode_body(answer, CODEC)
            t2 = clock()
            protocol.decode_body(bodies[request], CODEC)
            t3 = clock()
            protocol.decode_body(responses[request], CODEC)
            t4 = clock()
            request_frame = protocol.pack_frame(headers[request], values[request], codec=CODEC)
            _header, body, codec = protocol.unpack_frame(response_frame)
            protocol.decode_body(body, codec)
            t5 = clock()
            encode[request] = t2 - t0
            decode[request] = t4 - t2
            worker_codec[request] = t3 - t1
            client_codec[request] = t5 - t4
            wire_bytes[request] = len(request_frame) + len(response_frame)
            tracer.spans.append(("worker.codec", t1, t3, request, "codec"))
            tracer.spans.append(("client.codec", t4, t5, request, "codec"))
    slices["worker_codec"] = worker_codec * speed.factor
    slices["client_codec"] = client_codec * speed.factor
    protocol_metrics = {
        "encode_us": median_us(encode * speed.factor),
        "decode_us": median_us(decode * speed.factor),
        "bytes": float(np.median(wire_bytes)),
    }

    # supervisor: Supervisor.call, made by the helper inside the front process
    with _Speed() as speed:
        reply = wire.control("call", requests=[
            (header["op"], header["dataset"], value)
            for header, value in zip(headers, values)
        ])
    slices["supervisor"] = np.asarray(reply["ns"], dtype=np.int64) * speed.factor
    tracer.add_remote("supervisor", "Supervisor.call", reply["ns"])

    # remote: RemoteDataset.query / query_batch over loopback
    slices["remote"] = tracer.time_calls(
        "remote", f"RemoteDataset.{method}", _calls(wire, reads), count
    )
    return slices, by_kind, protocol_metrics


def wire_self_times(
    slices: Dict[str, "np.ndarray"], codec: Dict[str, float], weight: int
) -> Tuple[Dict[str, float], List[Tuple[str, float]]]:
    """The wire layers' self times (per query) from ``trace_reads``' slices:
    the per-layer metrics and the table rows above ``service.*``."""
    batch = weight > 1
    suffix = "_per_query.batch" if batch else ".point"
    worker_codec = median_us(slices["worker_codec"] / weight)
    metrics = {
        f"protocol.encode_us{suffix}": codec["encode_us"] / weight,
        f"protocol.decode_us{suffix}": codec["decode_us"] / weight,
        "protocol.bytes_per_query" + (".batch" if batch else ".point"):
            codec["bytes"] / weight,
        "workers.frame_self_us": median_us(
            (slices["frame"] - slices["worker_codec"] - slices["dataset"]) / weight),
        "supervisor.hop_self_us": median_us(
            (slices["supervisor"] - slices["frame"]) / weight),
        "client.codec_self_us": median_us(slices["client_codec"] / weight),
        "server.hop_self_us": median_us(
            (slices["remote"] - slices["client_codec"] - slices["supervisor"]) / weight),
    }
    rows = [
        ("frontend.protocol (worker side)", worker_codec),
        ("frontend.workers", metrics["workers.frame_self_us"]),
        ("frontend.supervisor", metrics["supervisor.hop_self_us"]),
        ("frontend.client (codec)", metrics["client.codec_self_us"]),
        ("frontend.server (gateway + loopback)", metrics["server.hop_self_us"]),
    ]
    return metrics, rows


def overhead_share(reads: Sequence[tuple], target: Any) -> float:
    """What recording a span per call costs, as a share of the call.

    The thickest slice once more, alternate blocks of eight requests with
    and without a span recorded, so both halves see the same machine and
    the same mix of kinds; |median traced - median bare| over median bare."""
    clock = time.perf_counter_ns
    spans: List[tuple] = []
    traced, bare = [], []
    for request, call, args in _calls(target, reads):
        begin = clock()
        call(*args)
        end = clock()
        if (request // 8) % 2:
            bare.append(end - begin)
        else:
            spans.append(("overhead-probe", begin, end, request, "probe"))
            traced.append(clock() - begin)
    reference = median_us(bare)
    return abs(median_us(traced) - reference) / reference if reference else 0.0


# -- write path ----------------------------------------------------------------


def trace_writes(
    tracer: Tracer,
    writer: Sequence[tuple],
    engine: Any,
    structures: Dict[Tuple[str, str], Any],
    local: LocalTarget,
    wire: Any,
) -> Dict[str, float]:
    """One full cycle of the writer stream (which restores the content it
    started from) through ``apply_delta``, ``Dataset.apply_changes`` and,
    on wire workloads, ``Supervisor.call("apply_changes")``."""
    metrics: Dict[str, float] = {}
    count = len(writer)
    writes = [request for request, op in enumerate(writer) if op[1] == "apply_changes"]
    sizes = np.array([len(writer[request][2][0]) for request in writes])

    # kernel: scheme.apply_delta on the structures built by cost_probes
    clock = time.perf_counter_ns
    by_kind: Dict[str, List[float]] = {}
    with _Speed() as speed:
        for request in writes:
            session, _method, (changes,), _expected = writer[request]
            (kind,) = local.sessions[session].kinds
            _query_class, scheme = engine.registration(kind)
            begin = clock()
            structures[(session, kind)] = scheme.apply_delta(
                structures[(session, kind)], changes, NULL_TRACKER
            )
            end = clock()
            tracer.spans.append((f"apply_delta:{kind}", begin, end, request, "kernel"))
            by_kind.setdefault(kind, []).append((end - begin) / len(changes))
    for kind, values in by_kind.items():
        metrics[f"kernel.delta_us_per_change.{kind}"] = median_us(values) * speed.factor

    # dataset: the whole cycle, reads included, so that every batch lands
    # on the content its inverse expects
    elapsed = tracer.time_calls("dataset", "Dataset.cycle", _calls(local, writer), count)
    apply = elapsed[writes]
    metrics["mutable.apply_us_per_change"] = median_us(apply / sizes)
    if not wire:
        return metrics

    codec = np.zeros(len(writes), dtype=np.int64)
    with _Speed() as speed:
        for slot, request in enumerate(writes):
            value = _wire_value("apply_changes", writer[request][2])
            ack = {"version": request, "changed": int(sizes[slot]),
                   "input_changes": int(sizes[slot]), "output_changes": 0}
            begin = clock()
            protocol.decode_body(protocol.encode_body(value, CODEC), CODEC)
            protocol.decode_body(protocol.encode_body(ack, CODEC), CODEC)
            codec[slot] = clock() - begin
        reply = wire.control("call", requests=[
            (method, session, _wire_value(method, args))
            for session, method, args, _expected in writer
        ])
    tracer.add_remote("supervisor", "Supervisor.call:cycle", reply["ns"])
    hop = np.asarray(reply["ns"], dtype=np.int64)[writes]
    metrics["supervisor.write_hop_self_us"] = median_us(
        (hop - codec) * speed.factor - apply)
    return metrics


def format_table(rows: List[Tuple[str, float]], thickest_p50_us: float) -> str:
    """Self-time rows, the remainder no row explains, and their sum."""
    total = sum(value for _name, value in rows)
    lines = [f"  {'layer':<40}{'self us':>12}"]
    for name, value in rows:
        lines.append(f"  {name:<40}{value:>12.3f}")
    lines.append(f"  {'unattributed':<40}{thickest_p50_us - total:>12.3f}")
    lines.append(f"  {'= thickest slice p50':<40}{thickest_p50_us:>12.3f}")
    return "\n".join(lines)
