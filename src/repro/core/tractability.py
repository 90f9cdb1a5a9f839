"""Empirical Pi-tractability certification (paper, Definition 1, measured).

A :class:`~repro.core.query.PiScheme` *claims* that a query class is
Pi-tractable: PTIME preprocessing, NC online evaluation.  This module checks
the claim the only way an implementation can -- empirically:

1. **Correctness**: over a sweep of data sizes, every scheme answer must
   agree with the naive reference evaluator of the query class.
2. **Preprocessing is polynomial**: the measured preprocessing *work* is fit
   against a power law ``c * n^a``; the fit must be good and the exponent
   bounded (PTIME, and therefore poly-size output, is structural -- Python
   terminates and we additionally cap the exponent).
3. **Online evaluation is NC**: the measured evaluation *depth* (parallel
   time in the work--depth model) per query must classify as CONSTANT or
   POLYLOG in the data size, and the evaluation *work* must stay polynomial.

Alongside, for a scheme with a codec, the size of Pi(D) at rest -- the bytes
its ``dump`` emits -- is recorded per size and classified like a cost curve
(CONSTANT / POLYLOG / POLYNOMIAL, with the fitted power), exactly: bytes are
counts that repeat for a seed, untouched by host noise.

The result is a :class:`Certificate`, the object every case-study test and
the Figure 2 registry consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence

from repro.core.cost import Cost, CostTracker
from repro.core.errors import CertificationError
from repro.core.fitting import Fit, ScalingKind, ScalingVerdict, classify_scaling, fit_power
from repro.core.query import PiScheme, QueryClass

__all__ = ["SizeSample", "Certificate", "certify"]

#: Preprocessing power-law exponents above this fail certification outright;
#: generous (the paper allows any polynomial) but catches exponential blowup.
MAX_PREPROCESSING_EXPONENT = 4.5


@dataclass(frozen=True)
class SizeSample:
    """Measurements at one swept data size."""

    size: int
    query_count: int
    preprocessing: Cost
    max_eval_depth: int
    mean_eval_depth: float
    max_eval_work: int
    naive_mean_work: Optional[float]
    all_correct: bool
    #: ``len(scheme.dump(Pi(D)))``; None for a scheme with no codec.
    artifact_bytes: Optional[int] = None


@dataclass
class Certificate:
    """Outcome of certifying one (query class, Pi-scheme) pair."""

    query_class_name: str
    scheme_name: str
    samples: List[SizeSample]
    correct: bool
    preprocessing_fit: Fit
    evaluation_depth: ScalingVerdict
    evaluation_work: Fit
    naive_work: Optional[ScalingVerdict] = None
    notes: List[str] = field(default_factory=list)

    @property
    def preprocessing_polynomial(self) -> bool:
        return self.preprocessing_fit.exponent <= MAX_PREPROCESSING_EXPONENT

    @property
    def artifact_size(self) -> Optional[ScalingVerdict]:
        """The size verdict: Pi(D)'s bytes at rest against |D|, classified,
        its ``power`` the fitted law; None without a codec."""
        if any(s.artifact_bytes is None for s in self.samples):
            return None
        return classify_scaling(
            [s.size for s in self.samples], [s.artifact_bytes for s in self.samples]
        )

    def describe_size(self) -> Optional[str]:
        """The size verdict with its fitted power, e.g. ``poly(n) ~n^0.86``
        (every size linear or worse is POLYNOMIAL, so the kind alone cannot
        tell n^0.8 from n^1.8); None without a codec."""
        size = self.artifact_size
        return None if size is None else f"{size.kind.value} ~n^{size.power.exponent:.2f}"

    @property
    def is_pi_tractable(self) -> bool:
        """The empirical verdict: the scheme witnesses Definition 1."""
        return (
            self.correct
            and self.preprocessing_polynomial
            and self.evaluation_depth.is_feasible_online
        )

    def summary(self) -> str:
        lines = [
            f"Certificate[{self.query_class_name} / {self.scheme_name}]",
            f"  correct on all sampled queries : {self.correct}",
            f"  preprocessing work             : ~n^{self.preprocessing_fit.exponent:.2f}"
            f" (r2={self.preprocessing_fit.r2:.3f})",
            f"  online eval depth              : {self.evaluation_depth.describe()}",
            f"  online eval work               : ~n^{self.evaluation_work.exponent:.2f}",
        ]
        if self.naive_work is not None:
            lines.append(f"  naive eval work (baseline)     : {self.naive_work.describe()}")
        size = self.artifact_size
        if size is not None:
            first, last = self.samples[0], self.samples[-1]
            lines.append(
                f"  Pi(D) bytes / |D| at rest      : {first.artifact_bytes / first.size:.2f}"
                f" -> {last.artifact_bytes / last.size:.2f} (~n^{size.power.exponent:.2f})"
            )
            lines.append(f"  Pi(D) size                     : {self.describe_size()}")
        lines.append(f"  Pi-tractable                   : {self.is_pi_tractable}")
        return "\n".join(lines)


def certify(
    query_class: QueryClass,
    scheme: PiScheme,
    *,
    sizes: Sequence[int],
    queries_per_size: int = 24,
    seed: int = 20130826,  # the paper's presentation date at VLDB 2013
    compare_naive: bool = True,
) -> Certificate:
    """Measure a Pi-scheme across a size sweep and classify its scaling.

    Raises :class:`CertificationError` if the sweep is too small to fit
    scaling laws (fewer than 3 sizes).
    """
    if len(sizes) < 3:
        raise CertificationError("certification needs at least 3 sizes")

    samples: List[SizeSample] = []
    for size in sizes:
        data, queries = query_class.sample_workload(size, seed, queries_per_size)
        actual_size = query_class.size_of_data(data)

        prep_tracker = CostTracker()
        preprocessed = scheme.preprocess(data, prep_tracker)

        max_depth = 0
        depth_sum = 0
        max_work = 0
        naive_work_sum = 0
        all_correct = True
        for query in queries:
            eval_tracker = CostTracker()
            answer = scheme.answer(preprocessed, query, eval_tracker)
            cost = eval_tracker.snapshot()
            max_depth = max(max_depth, cost.depth)
            max_work = max(max_work, cost.work)
            depth_sum += cost.depth

            naive_tracker = CostTracker()
            expected = query_class.pair_in_language(data, query, naive_tracker)
            naive_work_sum += naive_tracker.snapshot().work
            if bool(answer) != bool(expected):
                all_correct = False

        samples.append(
            SizeSample(
                size=actual_size,
                query_count=len(queries),
                preprocessing=prep_tracker.snapshot(),
                max_eval_depth=max_depth,
                mean_eval_depth=depth_sum / max(len(queries), 1),
                max_eval_work=max_work,
                naive_mean_work=(naive_work_sum / max(len(queries), 1))
                if compare_naive
                else None,
                all_correct=all_correct,
                artifact_bytes=len(scheme.dump(preprocessed)) if scheme.serializable else None,
            )
        )

    sweep_sizes = [s.size for s in samples]
    prep_fit = fit_power(sweep_sizes, [max(s.preprocessing.work, 1) for s in samples])
    depth_verdict = classify_scaling(sweep_sizes, [s.max_eval_depth for s in samples])
    work_fit = fit_power(sweep_sizes, [max(s.max_eval_work, 1) for s in samples])
    naive_verdict = None
    if compare_naive:
        naive_verdict = classify_scaling(
            sweep_sizes, [s.naive_mean_work or 1.0 for s in samples]
        )

    notes: List[str] = []
    if depth_verdict.kind is ScalingKind.POLYNOMIAL:
        notes.append(
            "online evaluation depth grows polynomially -- scheme fails Definition 1"
        )

    return Certificate(
        query_class_name=query_class.name,
        scheme_name=scheme.name,
        samples=samples,
        correct=all(s.all_correct for s in samples),
        preprocessing_fit=prep_fit,
        evaluation_depth=depth_verdict,
        evaluation_work=work_fit,
        naive_work=naive_verdict,
        notes=notes,
    )
