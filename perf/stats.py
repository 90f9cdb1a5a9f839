"""Percentile, slice-median and spread math, owned by the benchmark.

Percentiles are nearest-rank on the sorted sample (no interpolation), so a
reported value is always a latency that was actually observed.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence

import numpy as np

__all__ = [
    "percentile",
    "tail_percentile",
    "iqr_share",
    "summarize_ns",
]

#: ``p999`` is only reported when at least this many samples lie beyond it.
MIN_TAIL_SAMPLES = 10


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (0 < q <= 1) of an ascending sample."""
    if len(ordered) == 0:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def tail_percentile(ordered: Sequence[float], q: float) -> float:
    """``percentile`` when at least MIN_TAIL_SAMPLES samples lie beyond the
    rank, else 0.0 (the sample cannot support that tail)."""
    if len(ordered) * (1.0 - q) < MIN_TAIL_SAMPLES:
        return 0.0
    return percentile(ordered, q)


def iqr_share(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median -- the spread the
    driver and ``compare.py`` judge a metric's steadiness by."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    if median == 0:
        return 0.0 if q3 == q1 else math.inf
    return abs(q3 - q1) / abs(median)


def summarize_ns(samples_ns: "np.ndarray") -> Dict[str, float]:
    """count / p50 / p99 / p999 (microseconds) of a nanosecond sample."""
    ordered = np.sort(samples_ns)
    if ordered.size == 0:
        return {"count": 0, "p50_us": 0.0, "p99_us": 0.0, "p999_us": 0.0}
    return {
        "count": int(ordered.size),
        "p50_us": percentile(ordered, 0.50) / 1000.0,
        "p99_us": percentile(ordered, 0.99) / 1000.0,
        "p999_us": tail_percentile(ordered, 0.999) / 1000.0,
    }
