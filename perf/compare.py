"""Judge side B against side A, one row per (end-to-end metric x workload).

    python3 perf/compare.py A.json B.json [A2.json B2.json ...]

Each side is one or more result files written by ``perf/run.py`` (all
workloads).  Files are given in A B pairs; with several pairs each side's
value is the median of its runs and its spread is the inter-quartile
distance as a share of that median.  The bound of each metric comes from
``BENCHMARK.json``.  Verdicts:

``agree``       B's median is within the bound of A's, either way (a metric
                with bound 0 is a count that must repeat exactly: there
                each side's worst run is compared, not its median)
``better``      B is better than A by more than the bound
``worse``       B is worse than A by more than the bound
``unresolved``  a side's spread is wider than the bound, so the comparison
                cannot tell -- unless every run of B reads better than
                every run of A (``better``) or worse than every run of A
                (``worse``)

Exits non-zero on any ``worse`` row.  ``verified_share`` (1 - failed
share) has bound 0, so any rise in failed ops is a ``worse`` row.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perf.metrics import spec
from perf.stats import iqr_share

__all__ = ["verdict", "compare", "main"]


def verdict(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> str:
    """One row's verdict from each side's runs of one metric."""
    sign = 1.0 if better == "lower" else -1.0  # > 0 means B got worse
    if bound == 0:
        # A count that must repeat exactly: each side's worst run decides.
        worst = max if better == "lower" else min
        change = sign * (worst(b) - worst(a))
        return "worse" if change > 0 else "better" if change < 0 else "agree"
    a_mid, b_mid = statistics.median(a), statistics.median(b)
    change = sign * (b_mid - a_mid) / abs(a_mid) if a_mid else 0.0
    if max(iqr_share(a), iqr_share(b)) > bound:
        if all(sign * (y - x) > 0 for x in a for y in b):
            return "worse"
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "better"
        return "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "agree"


def compare(
    a_runs: List[Dict[str, Any]], b_runs: List[Dict[str, Any]],
    end_to_end: List[Dict[str, Any]],
) -> List[Tuple[str, str, float, float, str]]:
    """Rows ``(workload, metric, A median, B median, verdict)``."""
    rows = []
    for workload in a_runs[0]["workloads"]:
        if any(workload not in run["workloads"] for run in a_runs + b_runs):
            raise ValueError(f"workload {workload!r} is missing from a result file")
        for metric in end_to_end:
            name = metric["name"]
            a = [run["workloads"][workload]["end_to_end"][name] for run in a_runs]
            b = [run["workloads"][workload]["end_to_end"][name] for run in b_runs]
            rows.append((workload, name, statistics.median(a), statistics.median(b),
                         verdict(a, b, metric["better"], metric["bound"])))
    return rows


def main(argv: Sequence[str]) -> int:
    if len(argv) < 2 or len(argv) % 2:
        print(__doc__, file=sys.stderr)
        return 2
    files = [json.loads(Path(name).read_text(encoding="utf-8")) for name in argv]
    rows = compare(files[0::2], files[1::2], spec()["end_to_end"])
    if len(files) < 6:
        print("note: fewer than three runs a side -- the spread is unknown, so a "
              "'worse' or 'better' here may be one noisy run")
    print(f"{'workload':<16}{'metric':<24}{'A':>14}{'B':>14}  verdict")
    for workload, metric, a_mid, b_mid, outcome in rows:
        print(f"{workload:<16}{metric:<24}{a_mid:>14.6g}{b_mid:>14.6g}  {outcome}")
    counts = {o: sum(1 for row in rows if row[4] == o)
              for o in ("agree", "better", "worse", "unresolved")}
    print(" ".join(f"{key}={value}" for key, value in counts.items()))
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
