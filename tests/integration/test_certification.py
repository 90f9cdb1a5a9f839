"""Integration: the empirical certifier (Definition 1, measured end-to-end).

The two directions that make certification meaningful:

* every scheme the paper calls Pi-tractable must PASS;
* the two schemes the paper proves cannot help (Figure 1's Upsilon',
  Theorem 9's Upsilon_0) must FAIL with polynomial evaluation depth.
"""

import pytest

from repro.core import Membership, Registry, RegistryEntry, ScalingKind, certify, figure2_report
from repro.core.errors import CertificationError
from repro.queries import (
    bds_query_class,
    bds_trivial_query_class,
    btree_point_scheme,
    cvp_trivial_class,
    fischer_heun_scheme,
    membership_class,
    no_preprocessing_scheme,
    point_selection_class,
    position_index_scheme,
    reevaluate_scheme,
    rmq_class,
    sorted_run_scheme,
)

SIZES = [2**k for k in range(7, 12)]
SMALL = [2**k for k in range(5, 10)]


class TestPositiveCertification:
    def test_point_selection_btree(self):
        certificate = certify(
            point_selection_class(), btree_point_scheme(), sizes=SIZES
        )
        assert certificate.correct
        assert certificate.is_pi_tractable
        assert certificate.evaluation_depth.kind is not ScalingKind.POLYNOMIAL
        # The naive baseline must be visibly polynomial for contrast.
        assert certificate.naive_work is not None
        assert certificate.naive_work.kind is ScalingKind.POLYNOMIAL

    def test_membership_sorted_run(self):
        certificate = certify(membership_class(), sorted_run_scheme(), sizes=SIZES)
        assert certificate.is_pi_tractable
        # Preprocessing is n log n: power-law fit close to 1.
        assert 0.8 < certificate.preprocessing_fit.exponent < 1.6

    def test_rmq_fischer_heun(self):
        certificate = certify(rmq_class(), fischer_heun_scheme(), sizes=SIZES)
        assert certificate.is_pi_tractable
        assert certificate.evaluation_depth.kind is ScalingKind.CONSTANT

    def test_bds_position_index(self):
        certificate = certify(
            bds_query_class(), position_index_scheme(), sizes=SMALL
        )
        assert certificate.is_pi_tractable

    def test_summary_renders(self):
        certificate = certify(membership_class(), sorted_run_scheme(), sizes=SMALL)
        text = certificate.summary()
        assert "Pi-tractable" in text
        assert "preprocessing work" in text


class TestArtifactBytes:
    """The size of Pi(D) at rest: the bytes ``dump`` emits per size, exact
    for a seed, fitted like the costs."""

    def test_fischer_heun_reports_bytes_per_item_falling_with_d(self):
        certificate = certify(rmq_class(), fischer_heun_scheme(), sizes=SIZES)
        assert [s.artifact_bytes for s in certificate.samples] == [348, 773, 1355, 2523, 4852]
        size = certificate.artifact_size
        assert round(size.power.exponent, 2) == 0.93
        assert size.kind is ScalingKind.POLYNOMIAL  # 348 -> 4 852 B: past the CONSTANT ratio
        assert certificate.describe_size() == "poly(n) ~n^0.93"
        assert "Pi(D) bytes / |D|" in certificate.summary()
        assert ": 2.72 -> 2.37 (~n^0.93)" in certificate.summary()
        assert "Pi(D) size                     : poly(n) ~n^0.93" in certificate.summary()

    def test_a_scheme_with_no_codec_reports_none(self):
        scheme = no_preprocessing_scheme()
        assert not scheme.serializable
        certificate = certify(
            bds_trivial_query_class(), scheme, sizes=SMALL, queries_per_size=6
        )
        assert [s.artifact_bytes for s in certificate.samples] == [None] * len(SMALL)
        assert certificate.artifact_size is None and certificate.describe_size() is None
        assert "Pi(D) bytes" not in certificate.summary()
        assert "Pi(D) size" not in certificate.summary()


    def test_figure2_report_has_a_pi_size_column(self):
        """The registry shows each entry's size verdict; an entry whose
        certificates have no codec shows none."""
        claims = {Membership.P, Membership.PI_T0Q, Membership.PI_TQ}
        registry = Registry()
        registry.add(RegistryEntry("rmq", set(claims), certificates=[
            certify(rmq_class(), fischer_heun_scheme(), sizes=SIZES)]))
        registry.add(RegistryEntry("no-codec", set(claims), certificates=[
            certify(bds_trivial_query_class(), no_preprocessing_scheme(), sizes=SMALL,
                    queries_per_size=6)]))
        rows = {line.split()[0]: line for line in figure2_report(registry).splitlines() if line}
        assert "Pi size" in rows["entry"]
        assert "poly(n) ~n^0.93" in rows["rmq"]
        assert rows["no-codec"].split()[6] == "-"  # after the five claim marks


class TestNegativeCertification:
    """The paper's impossibility results, as measured failures."""

    def test_figure1_right_side_fails(self):
        certificate = certify(
            bds_trivial_query_class(),
            no_preprocessing_scheme(),
            sizes=SMALL,
            queries_per_size=6,
        )
        assert certificate.correct  # answers are right...
        assert not certificate.is_pi_tractable  # ...but not in NC
        assert certificate.evaluation_depth.kind is ScalingKind.POLYNOMIAL
        assert certificate.notes  # the failure is called out

    def test_theorem9_upsilon0_fails(self):
        certificate = certify(
            cvp_trivial_class(),
            reevaluate_scheme(),
            sizes=SMALL,
            queries_per_size=6,
        )
        assert certificate.correct
        assert not certificate.is_pi_tractable
        assert certificate.evaluation_depth.kind is ScalingKind.POLYNOMIAL


class TestCertifierValidation:
    def test_too_few_sizes_rejected(self):
        with pytest.raises(CertificationError):
            certify(membership_class(), sorted_run_scheme(), sizes=[64, 128])

    def test_wrong_scheme_fails_correctness(self):
        # A scheme answering the wrong query class must fail `correct`.
        from repro.core import PiScheme

        broken = PiScheme(
            name="always-true",
            preprocess=lambda data, tracker: None,
            evaluate=lambda _, query, tracker: True,
        )
        certificate = certify(membership_class(), broken, sizes=SMALL)
        assert not certificate.correct
        assert not certificate.is_pi_tractable
