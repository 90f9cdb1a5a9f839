"""Unit tests for scaling-law classification (repro.core.fitting)."""

import math

import pytest

from repro.core.errors import CertificationError
from repro.core.fitting import (
    ScalingKind,
    classify_scaling,
    fit_polylog,
    fit_power,
)

SIZES = [2**k for k in range(10, 21)]


class TestFits:
    def test_power_fit_recovers_exponent(self):
        for exponent in (0.5, 1.0, 2.0):
            fit = fit_power(SIZES, [3.0 * n**exponent for n in SIZES])
            assert fit.exponent == pytest.approx(exponent, abs=0.01)
            assert fit.r2 > 0.999

    def test_polylog_fit_recovers_exponent(self):
        for k in (1, 2, 3):
            fit = fit_polylog(SIZES, [2.0 * math.log2(n) ** k for n in SIZES])
            assert fit.exponent == pytest.approx(k, abs=0.05)
            assert fit.r2 > 0.999

    def test_predict(self):
        fit = fit_power(SIZES, [n for n in SIZES])
        assert fit.scale * 1000**fit.exponent == pytest.approx(1000, rel=0.05)


class TestClassification:
    def test_constant_curve(self):
        verdict = classify_scaling(SIZES, [7.0] * len(SIZES))
        assert verdict.kind is ScalingKind.CONSTANT
        assert verdict.is_feasible_online

    def test_logarithmic_curve_is_polylog(self):
        verdict = classify_scaling(SIZES, [math.log2(n) for n in SIZES])
        assert verdict.kind is not ScalingKind.POLYNOMIAL

    def test_cubed_log_curve_is_polylog(self):
        verdict = classify_scaling(SIZES, [math.log2(n) ** 3 for n in SIZES])
        assert verdict.kind is ScalingKind.POLYLOG
        assert verdict.is_feasible_online

    def test_linear_curve_is_polynomial(self):
        verdict = classify_scaling(SIZES, [2.0 * n for n in SIZES])
        assert verdict.kind is ScalingKind.POLYNOMIAL
        assert not verdict.is_feasible_online

    def test_sqrt_curve_is_polynomial(self):
        verdict = classify_scaling(SIZES, [n**0.5 for n in SIZES])
        assert verdict.kind is ScalingKind.POLYNOMIAL

    def test_nlogn_curve_is_polynomial(self):
        verdict = classify_scaling(SIZES, [n * math.log2(n) for n in SIZES])
        assert verdict.kind is ScalingKind.POLYNOMIAL

    def test_describe_mentions_kind(self):
        verdict = classify_scaling(SIZES, [5.0] * len(SIZES))
        assert "O(1)" in verdict.describe()


class TestValidation:
    def test_too_few_sizes_rejected(self):
        with pytest.raises(CertificationError):
            classify_scaling([16, 32], [1.0, 2.0])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(CertificationError):
            classify_scaling([16, 32, 64], [1.0, 2.0])

    def test_non_increasing_sizes_rejected(self):
        with pytest.raises(CertificationError):
            classify_scaling([64, 32, 16], [1.0, 2.0, 3.0])

    def test_tiny_sizes_rejected(self):
        with pytest.raises(CertificationError):
            classify_scaling([1, 2, 3], [1.0, 2.0, 3.0])

    def test_zero_values_are_clamped_not_fatal(self):
        verdict = classify_scaling([16, 32, 64, 128], [0, 0, 0, 0])
        assert verdict.kind is ScalingKind.CONSTANT
