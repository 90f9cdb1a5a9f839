"""Scaling-law fitting: deciding "polylog or polynomial?" from measurements.

The certifier in :mod:`repro.core.tractability` sweeps input sizes in
geometric progression, measures evaluator depth (parallel time) at each size,
and must decide which asymptotic family the curve belongs to.  Two models are
fitted by least squares in log space:

``power``      y = c * n^a          (log y linear in log n)
``polylog``    y = c * (log2 n)^k   (log y linear in log log n)

Over any finite size range a polylog curve *is* well approximated by a small
power law: for n in [2^12, 2^20], ``log2 n`` grows by a factor 20/12, which
matches a local exponent of ln(20/12)/ln(2^8) = 0.09, and ``(log2 n)^3``
matches 0.28.  A genuinely linear cost has exponent 1.0 and sqrt has 0.5.
The verdict therefore uses the fitted *power* exponent as the discriminator,
with a decision threshold of 0.35 between POLYLOG and POLYNOMIAL -- curves
``(log n)^k`` for k <= 3 fall well below it, ``n^0.5`` and up fall well above.
This heuristic is documented behaviour, exercised directly by the tests in
``tests/unit/test_fitting.py``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

from repro.core.errors import CertificationError

__all__ = [
    "ScalingKind",
    "Fit",
    "ScalingVerdict",
    "fit_power",
    "fit_polylog",
    "classify_scaling",
    "POLYLOG_EXPONENT_THRESHOLD",
    "CONSTANT_RATIO_THRESHOLD",
]

#: Fitted power exponents at or below this value are classified POLYLOG.
POLYLOG_EXPONENT_THRESHOLD = 0.35

#: If max(y)/min(y) stays below this, the curve is classified CONSTANT.
CONSTANT_RATIO_THRESHOLD = 3.0


class ScalingKind(enum.Enum):
    """Asymptotic family assigned to a measured cost curve."""

    CONSTANT = "O(1)"
    POLYLOG = "polylog(n)"
    POLYNOMIAL = "poly(n)"


@dataclass(frozen=True)
class Fit:
    """One fitted model ``y = scale * basis(n) ** exponent``.

    ``r2`` is the coefficient of determination in log space (1.0 = perfect).
    """

    model: str
    scale: float
    exponent: float
    r2: float


@dataclass(frozen=True)
class ScalingVerdict:
    """The classification of a measured (sizes, costs) curve."""

    kind: ScalingKind
    power: Fit
    polylog: Fit
    sizes: tuple[int, ...]
    values: tuple[float, ...]

    @property
    def is_feasible_online(self) -> bool:
        """True when the curve is CONSTANT or POLYLOG -- the paper's notion of
        query cost that remains feasible as data grows big."""
        return self.kind is not ScalingKind.POLYNOMIAL

    def describe(self) -> str:
        return (
            f"{self.kind.value} "
            f"[power exp={self.power.exponent:.3f} r2={self.power.r2:.3f}; "
            f"polylog exp={self.polylog.exponent:.3f} r2={self.polylog.r2:.3f}]"
        )


def _linear_least_squares(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float, float]:
    """Ordinary least squares for y = a*x + b; returns (a, b, r2).

    Implemented directly (no numpy dependency here) since the inputs are tiny
    -- one point per swept size.
    """
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    if sxx == 0.0:
        return 0.0, mean_y, 1.0
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return slope, intercept, r2


def _validate(sizes: Sequence[int], values: Sequence[float]) -> list[float]:
    if len(sizes) != len(values):
        raise CertificationError(
            f"sizes and values length mismatch: {len(sizes)} vs {len(values)}"
        )
    if len(sizes) < 3:
        raise CertificationError("need at least 3 sizes to fit a scaling law")
    if any(n < 4 for n in sizes):
        raise CertificationError("sizes must be >= 4 (log log n must be defined)")
    if sorted(set(sizes)) != list(sizes):
        raise CertificationError("sizes must be strictly increasing")
    # Clamp to >= 1 so log() is defined; a measured depth of 0 means O(1).
    return [max(float(v), 1.0) for v in values]


def fit_power(sizes: Sequence[int], values: Sequence[float]) -> Fit:
    """Fit ``y = c * n^a`` by least squares on (log n, log y)."""
    ys = _validate(sizes, values)
    log_n = [math.log(n) for n in sizes]
    log_y = [math.log(y) for y in ys]
    a, b, r2 = _linear_least_squares(log_n, log_y)
    return Fit(model="power", scale=math.exp(b), exponent=a, r2=r2)


def fit_polylog(sizes: Sequence[int], values: Sequence[float]) -> Fit:
    """Fit ``y = c * (log2 n)^k`` by least squares on (log log2 n, log y)."""
    ys = _validate(sizes, values)
    log_log_n = [math.log(math.log2(n)) for n in sizes]
    log_y = [math.log(y) for y in ys]
    k, b, r2 = _linear_least_squares(log_log_n, log_y)
    return Fit(model="polylog", scale=math.exp(b), exponent=k, r2=r2)


def classify_scaling(sizes: Sequence[int], values: Sequence[float]) -> ScalingVerdict:
    """Classify a measured cost curve as CONSTANT, POLYLOG, or POLYNOMIAL.

    Decision procedure (documented heuristic, see module docstring):

    1. if the curve varies by less than ``CONSTANT_RATIO_THRESHOLD`` overall,
       it is CONSTANT;
    2. otherwise fit both models; if the power exponent is at most
       ``POLYLOG_EXPONENT_THRESHOLD`` the curve is POLYLOG, else POLYNOMIAL.
    """
    ys = _validate(sizes, values)
    power = fit_power(sizes, values)
    polylog = fit_polylog(sizes, values)
    if max(ys) / min(ys) < CONSTANT_RATIO_THRESHOLD:
        kind = ScalingKind.CONSTANT
    elif power.exponent <= POLYLOG_EXPONENT_THRESHOLD:
        kind = ScalingKind.POLYLOG
    else:
        kind = ScalingKind.POLYNOMIAL
    return ScalingVerdict(
        kind=kind,
        power=power,
        polylog=polylog,
        sizes=tuple(sizes),
        values=tuple(float(v) for v in values),
    )
