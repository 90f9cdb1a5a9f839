"""One command for every number the repo is judged by.

    python3 perf/run.py --seed N                      all workloads, both passes
    python3 perf/run.py --workload W --seed N --seconds S --trace 0|1
                                                      one run (the driver's form)

A single run prints each metric with its unit and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}`` -- the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
It exits non-zero when any op failed.

Without ``--workload`` every workload runs in a fresh process, untraced
then traced, and the collected result (with provenance) is written to
``perf/out/result-seed<N>.json`` -- the file ``perf/compare.py`` reads.
``--record`` also copies it to ``perf/RECORD.json``; ``--quick`` (tiny
datasets and windows, for the self-test) refuses to, and never writes
outside ``perf/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
OUT = HERE / "out"
sys.path[:0] = [str(REPO), str(REPO / "src")]

try:
    from perf.metrics import unit_of
    from perf.targets import CODEC_NAME, WORKERS
    from perf.workloads import (
        FULL_SIZE, QUICK_RUNG_SECONDS, QUICK_SIZE, REPEATS, RUNG_SECONDS,
        WORKLOADS, run_workload,
    )
except ImportError as exc:  # the program under test is not in this checkout
    print(f"perf/run.py: cannot import the program under test: {exc}", file=sys.stderr)
    sys.exit(2)

DEFAULT_SECONDS = 6.0
QUICK_SECONDS = 0.5


def provenance(seed: int, size: int, seconds: float, quick: bool) -> Dict[str, Any]:
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=REPO, capture_output=True,
                              text=True, check=True).stdout.strip()

    try:
        commit = git("rev-parse", "HEAD")
        if git("status", "--porcelain", "--", "src", "perf", "BENCHMARK.json"):
            commit += "+uncommitted"
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    return {
        "commit": commit,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "codec": CODEC_NAME,
        "size": size,
        "seed": seed,
        "window_seconds": seconds,
        "quick": quick,
        "configuration": {
            "engine": "build_query_engine(store=ArtifactStore(<fresh dir>)), defaults",
            "front": f"ServingFront(workers={WORKERS}, store_root=<fresh dir>), defaults",
            "client": "RemoteClient(codec=JSON), defaults",
        },
        "wall_clock_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _seconds(values: List[float]) -> str:
    return "[" + " ".join(f"{value:.3f}" for value in values) + "] s"


def print_metrics(result: Dict[str, Any], trace: bool) -> None:
    units = unit_of()
    detail = result["detail"]

    def line(name: str, value: float) -> None:
        values = detail["slice_values"].get(name)
        extra = (f"   (median of {len(values)} slices: min {min(values):.6g} "
                 f"max {max(values):.6g})" if values else "")
        print(f"{name:<52}{value:>16.6g} {units[name]}{extra}")

    print(f"# {detail['workload']}  size={detail['size']} seed={detail['seed']} "
          f"trace={int(trace)}  attempted={result['attempted']} failed={result['failed']}")
    for name, value in result["metrics"].items():
        line(name, value)
    if not trace:
        print("also measured in this pass (not gated; per-layer names, in the "
              "result line only with --trace 1):")
        for name, value in detail["measured"].items():
            if name not in result["metrics"] and value:
                line(name, value)
    print(f"{detail['read_samples']} read samples, {detail['write_samples']} "
          f"write samples; set-ups {_seconds(detail['setups_s'])}, restarts "
          f"{_seconds(detail['restarts_s'])}")
    if trace and "trace" in detail:
        print(f"sliced trace ({detail['trace']['requests']} requests; self time per "
              f"query, us; spans in perf/out/trace-{detail['workload']}.jsonl):")
        print(detail["trace"]["table"])
        print(f"largest non-kernel row: {detail['trace']['largest_non_kernel_row']}")
    for rung in detail.get("ladder", ()):
        state = "pass" if rung["passed"] else ("miss" if rung["valid"] else "invalid")
        print(f"  ladder {rung['offered_per_s']:>5}/s: achieved "
              f"{rung['achieved_per_s']:.0f}/s p50 {rung['p50_us']:.0f}us "
              f"p99 {rung['p99_us']:.0f}us generator-late p99 "
              f"{rung['late_p99_us']:.0f}us -> {state}")


def contract_line(result: Dict[str, Any]) -> str:
    units = unit_of()
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in result["metrics"].items()
        },
    })


def run_one(args: argparse.Namespace) -> int:
    size = QUICK_SIZE if args.quick else FULL_SIZE
    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), n=size,
        out_dir=OUT, repeats=1 if args.quick else REPEATS,
        rung_seconds=QUICK_RUNG_SECONDS if args.quick else RUNG_SECONDS,
    )
    print_metrics(result, bool(args.trace))
    if args.detail_file:
        Path(args.detail_file).write_text(json.dumps(result), encoding="utf-8")
    print(contract_line(result))
    return 0 if result["correct"] else 1


def next_perf_target(record: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """ROADMAP's "next perf target": the largest non-kernel row of
    wire-point's sliced trace."""
    try:
        trace = record["workloads"]["wire-point"]["traced"]["detail"]["trace"]
    except KeyError:
        return None
    name, self_us = max(trace["rows"][1:], key=lambda row: row[1])
    return {"workload": "wire-point", "layer": name, "self_us": self_us,
            "of_thickest_p50_us": trace["thickest_p50_us"]}


def run_all(args: argparse.Namespace) -> int:
    suffix = "-quick" if args.quick else ""
    out_file = Path(args.out) if args.out else OUT / f"result-seed{args.seed}{suffix}.json"
    if args.quick and args.record:
        print("perf/run.py: --quick results are never recorded", file=sys.stderr)
        return 2
    if args.quick and OUT not in out_file.resolve().parents:
        print("perf/run.py: --quick writes only under perf/out/", file=sys.stderr)
        return 2
    size = QUICK_SIZE if args.quick else FULL_SIZE
    OUT.mkdir(exist_ok=True)
    record: Dict[str, Any] = {
        "provenance": provenance(args.seed, size, args.seconds, args.quick),
        "workloads": {},
    }
    status = 0
    began = time.perf_counter()
    for name in WORKLOADS:
        entry: Dict[str, Any] = {}
        for trace in (0, 1):
            detail_file = OUT / f"detail-{name}-{trace}-{os.getpid()}.json"
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace), "--detail-file", str(detail_file),
            ] + (["--quick"] if args.quick else [])
            pass_began = time.perf_counter()
            done = subprocess.run(command, capture_output=True, text=True)
            # Everything but the contract line is for the reader.
            sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")
            sys.stderr.write(done.stderr)
            if not detail_file.exists():
                print(f"perf/run.py: {name} trace={trace} produced no result "
                      f"(exit {done.returncode})", file=sys.stderr)
                status = 1
                continue
            result = json.loads(detail_file.read_text(encoding="utf-8"))
            detail_file.unlink()
            status = status or done.returncode
            key = "per_layer" if trace else "end_to_end"
            entry[key] = result["metrics"]
            entry["traced" if trace else "untraced"] = {
                "attempted": result["attempted"], "failed": result["failed"],
                "run_seconds": time.perf_counter() - pass_began,
                "detail": result["detail"],
            }
            print(f"  ({name} trace={trace}: {time.perf_counter() - pass_began:.1f} s)\n")
        record["workloads"][name] = entry
    record["provenance"]["total_seconds"] = time.perf_counter() - began
    record["next_perf_target"] = next_perf_target(record)
    out_file.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(f"result written to {out_file}")
    if args.record:
        # The committed record stays legible: every metric, provenance and
        # the trace rows; of the per-slice arrays, their min and max.
        for entry in record["workloads"].values():
            for run in (entry["untraced"], entry["traced"]):
                slices = run["detail"].pop("slice_values")
                run["detail"]["slice_min_max"] = {
                    name: [min(values), max(values)]
                    for name, values in slices.items() if values
                }
                run["detail"].get("trace", {}).pop("table", None)
        (HERE / "RECORD.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
        print(f"recorded to {HERE / 'RECORD.json'}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help=f"timed window per run (default {DEFAULT_SECONDS:g}, "
                             f"{QUICK_SECONDS:g} with --quick)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny datasets and windows: a self-test, not a measurement")
    parser.add_argument("--out", help="result file of an all-workloads pass")
    parser.add_argument("--record", action="store_true",
                        help="also copy a full-size all-workloads result to perf/RECORD.json")
    parser.add_argument("--detail-file", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else DEFAULT_SECONDS
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
