"""Submajorization comparators, gauges and the inequality check batteries."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specnest.majorize import (
    DEFAULT_GAUGES,
    CustomGauge,
    LogShift,
    Power,
    gauge_trace,
    hlp_transfer,
    log_plus_equivalence_check,
    log_submajorizes,
    pinch_log_check,
    shift_lemma_check,
    submajorizes,
    tau_log_plus,
    weyl_check,
)

SHEAR = np.array([[1, 1], [0, 2]], dtype=complex)


def random_matrix(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)


class TestComparators:
    def test_diagonal_submajorization(self):
        # [DERIVED] partial sums: 3 >= 2.5 and 4 >= 4 (with the slack).
        assert submajorizes(np.diag([3.0, 1.0]), np.diag([2.5, 1.5])).ok
        assert not submajorizes(np.diag([2.0, 2.0]), np.diag([3.0, 0.0])).ok

    def test_log_submajorization_of_shear_and_diagonal(self):
        # [DERIVED] sigma(SHEAR) = (2.288..., 0.874...): 2 <= 2.288 and the
        # full products both equal |det| = 2.
        N = np.diag([2.0, 1.0])
        verdict = log_submajorizes(SHEAR, N)
        assert verdict.ok
        assert verdict.worst_margin >= -1e-12

    def test_log_submajorization_fails_in_reverse(self):
        assert not log_submajorizes(np.diag([1.0, 1.0]), np.diag([2.0, 0.5])).ok

    def test_zero_singular_value_passes_dominated_side(self):
        A = np.diag([1.0, 0.5])
        B = np.diag([1.0, 0.0])
        assert log_submajorizes(A, B).ok

    def test_zero_singular_value_fails_dominating_side(self):
        # [DERIVED] partial products: 1 >= 0.5, then 0 < 0.25.
        verdict = log_submajorizes(np.diag([1.0, 0.0]), 0.5 * np.eye(2))
        assert not verdict.ok
        assert verdict.worst_margin == -np.inf
        assert verdict.worst_k == 2

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            submajorizes(np.eye(2), np.eye(3))

    def test_verdict_is_truthy(self):
        assert bool(submajorizes(np.eye(2), np.eye(2)))

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 3000))
    def test_scaling_invariance(self, seed):
        A = random_matrix(seed, 5)
        B = random_matrix(seed + 1, 5)
        base = log_submajorizes(A, B).ok
        for c in (0.01, 100.0):
            assert log_submajorizes(c * A, c * B).ok == base


class TestGauges:
    def test_power_gauge_trace(self):
        # [DERIVED] tau |diag(4, 1)|^(1/2) = (2 + 1) / 2.
        assert gauge_trace(np.diag([4.0, 1.0]), Power(0.5)) == pytest.approx(1.5)

    def test_logshift_gauge_trace(self):
        A = np.diag([1.0, 0.0])
        assert gauge_trace(A, LogShift(1.0)) == pytest.approx(np.log(2) / 2)

    def test_power_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Power(0.0)

    def test_custom_gauge_accepts_sqrt(self):
        g = CustomGauge(np.sqrt)
        assert g.label() == "custom"
        assert g(4.0) == pytest.approx(2.0)

    def test_custom_gauge_rejects_decreasing(self):
        with pytest.raises(ValueError):
            CustomGauge(lambda t: -np.asarray(t))

    def test_custom_gauge_rejects_concave_after_exp(self):
        # log(t) composed with exp is linear; log(log(1 + t) + 1) is concave
        # enough after exp to fail the certificate.
        with pytest.raises(ValueError):
            CustomGauge(lambda t: np.log1p(np.log1p(t)))


class TestHlpTransfer:
    def test_transfer_holds_for_convex_gauges(self):
        A = np.diag([3.0, 1.0])
        B = np.diag([2.5, 1.0])
        report = hlp_transfer(A, B, (Power(1.0), Power(2.0)))
        assert report.all_ok and not report.skipped

    def test_skips_when_hypothesis_fails(self):
        report = hlp_transfer(np.diag([1.0, 1.0]), np.diag([3.0, 0.0]), (Power(2.0),))
        assert report.skipped == ("pow:2",)
        assert report.rows == ()


class TestLogPlus:
    def test_hand_value(self):
        # [DERIVED] A = diag(e^2, e^-1), t = 1: mean of (2, 0) is 1.
        A = np.diag([np.exp(2.0), np.exp(-1.0)])
        assert tau_log_plus(A, 1.0) == pytest.approx(1.0)

    def test_threshold_scales_out(self):
        A = np.diag([4.0, 1.0])
        assert tau_log_plus(A, 4.0) == 0.0

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ValueError):
            tau_log_plus(np.eye(2), 0.0)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 5000))
    def test_equivalence_on_random_pairs(self, seed):
        A = random_matrix(seed, 5)
        B = random_matrix(seed + 1, 5)
        assert log_plus_equivalence_check(A, B).all_ok
        grid = np.geomspace(1e-3, 2.0, 40)
        failing = sum(tau_log_plus(B, t) > tau_log_plus(A, t) + 1e-10 for t in grid)
        row = log_plus_equivalence_check(A, B, grid).rows[0]
        assert row.params == f"grid:40;failing:{failing}"


class TestShiftLemma:
    def test_holds_on_ordered_psd_pair(self):
        report = shift_lemma_check(np.diag([4.0, 1.0]), np.diag([2.0, 1.0]))
        assert report.all_ok and not report.skipped
        assert len(report.rows) == 4

    def test_skips_non_psd(self):
        report = shift_lemma_check(np.diag([4.0, 1.0]), np.diag([-1.0, 1.0]))
        assert report.skipped == ("non-psd input",)

    def test_skips_when_hypothesis_fails(self):
        report = shift_lemma_check(np.diag([1.0, 1.0]), np.diag([3.0, 0.1]))
        assert report.skipped == ("hypothesis B <<_log A fails",)


class TestPinchLogCheck:
    def test_shear_coordinate_pinch(self):
        # [DERIVED] Delta(1 + S*S) = sqrt(10) and Delta(1 + T*T) = sqrt(11)
        # for the coordinate pinching of SHEAR.
        p = np.diag([1.0, 0.0]).astype(complex)
        report = pinch_log_check(SHEAR, p)
        assert report.all_ok
        det_row = next(r for r in report.rows if r.check == "pinch_det")
        assert det_row.lhs == pytest.approx(np.sqrt(10), rel=1e-10)
        assert det_row.rhs == pytest.approx(np.sqrt(11), rel=1e-10)

    def test_rejects_non_invariant_projection(self):
        p = np.diag([0.0, 1.0]).astype(complex)
        with pytest.raises(ValueError):
            pinch_log_check(SHEAR, p)

    def test_rejects_non_projection(self):
        # P + 1e-9 I keeps Tp = pTp within 1e-8 ||T||, but p^2 - p = 1e-9 (2P - I) + 1e-18.
        p = np.diag([1.0, 0.0]).astype(complex) + 1e-9 * np.eye(2)
        with pytest.raises(ValueError, match="not an orthogonal projection"):
            pinch_log_check(SHEAR, p)

    def test_takes_one_two_norm(self, two_norm_calls):
        # ||T||_2 scales the invariance check; the projection checks use nrm2.
        pinch_log_check(SHEAR, np.diag([1.0, 0.0]).astype(complex))
        assert two_norm_calls == [(2, 2)]


class TestWeylCheck:
    def test_shear_report(self):
        report = weyl_check(SHEAR)
        assert report.all_ok
        checks = {r.check for r in report.rows}
        assert checks == {"weyl_logmaj", "weyl_equality", "weyl_inequality"}
        assert len(report.rows) == 1 + 2 * len(DEFAULT_GAUGES)

    @settings(deadline=None, max_examples=15)
    @given(st.integers(0, 2000))
    def test_random_matrices(self, seed):
        assert weyl_check(random_matrix(seed, 6)).all_ok
