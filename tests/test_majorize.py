"""Submajorization comparators, gauges and the inequality check batteries."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specnest.majorize import (
    DEFAULT_GAUGES,
    LogShift,
    Power,
    log_plus_equivalence_check,
    log_submajorizes,
    pinch_log_check,
    shift_lemma_check,
    submajorizes,
    weyl_check,
)
from specnest.matrices import singular_values

SHEAR = np.array([[1, 1], [0, 2]], dtype=complex)


def random_matrix(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)


def tau_log_plus(A, t: float) -> float:
    """Reference: normalized trace of max(log(|A| / t), 0), one singular value at a time."""
    return float(np.mean([max(np.log(s / t), 0.0) if s > 0 else 0.0
                          for s in singular_values(A)]))


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
        assert -verdict.value >= -1e-12

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
        assert -verdict.value == -np.inf
        assert verdict.params == "k=2"

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
        assert np.mean(Power(0.5)(singular_values(np.diag([4.0, 1.0])))) == pytest.approx(1.5)

    def test_logshift_gauge_trace(self):
        A = np.diag([1.0, 0.0])
        assert np.mean(LogShift(1.0)(singular_values(A))) == pytest.approx(np.log(2) / 2)

    def test_power_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Power(0.0)


class TestLogPlus:
    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 5000))
    def test_equivalence_on_random_pairs(self, seed):
        A = random_matrix(seed, 5)
        B = random_matrix(seed + 1, 5)
        report = log_plus_equivalence_check(A, B)
        assert report.all_ok
        # The default grid: A's singular values and 64 log-spaced values up to
        # the larger norm.
        svA, svB = singular_values(A), singular_values(B)
        top = max(svA[0], svB[0])
        grid = np.unique(np.concatenate([svA, np.geomspace(1e-8 * top, top, 64)]))
        failing = sum(tau_log_plus(B, t) > tau_log_plus(A, t) + 1e-10 for t in grid)
        assert report.rows[0].params == f"grid:{len(grid)};failing:{failing}"


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

    def test_takes_one_svd_per_input_before_the_shifts(self, singular_value_calls):
        # The singular values of A and B serve the Hermitian tolerance and the
        # hypothesis; each of the 4 shifted comparisons takes 2 more.
        shift_lemma_check(np.diag([1.0, 1.0]), np.diag([3.0, 0.1]))
        assert singular_value_calls == [(2, 2)] * 2
        singular_value_calls.clear()
        shift_lemma_check(np.diag([4.0, 1.0]), np.diag([2.0, 1.0]))
        assert singular_value_calls == [(2, 2)] * (2 + 4 * 2)


class TestPinchLogCheck:
    def test_shear_coordinate_pinch(self):
        # [DERIVED] Delta(1 + S*S) = sqrt(10) and Delta(1 + T*T) = sqrt(11)
        # for the coordinate pinching of SHEAR.
        p = np.diag([1.0, 0.0]).astype(complex)
        report = pinch_log_check(SHEAR, p)
        assert report.all_ok
        det_row = next(r for r in report.rows if r.check == "pinch_det")
        assert det_row.value == pytest.approx(np.sqrt(10), rel=1e-10)
        assert det_row.bound == pytest.approx(np.sqrt(11) * (1 + 1e-10), rel=1e-10)

    def test_rejects_non_invariant_projection(self):
        p = np.diag([0.0, 1.0]).astype(complex)
        with pytest.raises(ValueError):
            pinch_log_check(SHEAR, p)

    def test_rejects_non_projection(self):
        # P + 1e-9 I keeps Tp = pTp within 1e-8 ||T||, but p^2 - p = 1e-9 (2P - I) + 1e-18.
        p = np.diag([1.0, 0.0]).astype(complex) + 1e-9 * np.eye(2)
        with pytest.raises(ValueError, match="not an orthogonal projection"):
            pinch_log_check(SHEAR, p)

    def test_takes_two_svds_and_no_two_norm(self, singular_value_calls):
        # The singular values of T and S serve the verdict, ||T||_2 (the
        # invariance check's scale) and both determinants.
        pinch_log_check(SHEAR, np.diag([1.0, 0.0]).astype(complex))
        assert singular_value_calls == [(2, 2), (2, 2)]

    def test_huge_matrix_raises_overflow_error(self):
        with pytest.raises(OverflowError, match="not finite"):
            pinch_log_check(1e200 * SHEAR, np.diag([1.0, 0.0]).astype(complex))


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
