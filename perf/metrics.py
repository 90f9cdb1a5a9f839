"""The benchmark's definition, read from ``BENCHMARK.json``.

``BENCHMARK.json`` at the repo root is the one place that names the
workloads, the end-to-end metrics with their bounds and the per-layer
metrics; everything in ``perf/`` asks here.  An untraced run prints exactly
the end-to-end metrics, a traced run exactly the per-layer ones, so moving
a name from one list to the other in that file is all a demotion takes.
A per-layer metric reads 0 on a workload whose requests never pass through
that layer (or that kind).
"""

from __future__ import annotations

import functools
import json
from pathlib import Path
from typing import Any, Dict, List

__all__ = ["BENCHMARK", "spec", "end_to_end", "per_layer", "unit_of"]

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


@functools.lru_cache(maxsize=None)
def spec() -> Dict[str, Any]:
    return json.loads(BENCHMARK.read_text(encoding="utf-8"))


def end_to_end() -> List[str]:
    return [metric["name"] for metric in spec()["end_to_end"]]


def per_layer() -> List[str]:
    return [metric["name"] for metric in spec()["per_layer"]]


def unit_of() -> Dict[str, str]:
    both = spec()["end_to_end"] + spec()["per_layer"]
    return {metric["name"]: metric["unit"] for metric in both}
