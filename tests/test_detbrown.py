"""Determinants, spectral measures, density grids and block identities."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specnest.detbrown import (
    SpectralMeasure,
    block_det_identity_check,
    brown_density_grid,
    brown_measure_exact,
    default_bounds,
    fk_determinant,
    regularized_log_det,
)
from specnest.hsnest import Ball, hs_projection
from specnest.matrices import operator_norm


def random_matrix(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)


class TestFkDeterminant:
    def test_shear_example(self):
        # [DERIVED] |det [[1,1],[0,2]]|^(1/2) = sqrt(2).
        assert fk_determinant([[1, 1], [0, 2]]) == pytest.approx(np.sqrt(2), rel=1e-12)

    def test_unitary_has_determinant_one(self):
        rng = np.random.default_rng(5)
        U, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        assert fk_determinant(U) == pytest.approx(1.0, rel=1e-10)

    def test_singular_matrix_gives_zero(self):
        assert fk_determinant([[1, 0], [0, 0]]) == 0.0

    def test_multiplicative_on_products(self):
        A = random_matrix(7, 5)
        B = random_matrix(8, 5)
        assert fk_determinant(A @ B) == pytest.approx(
            fk_determinant(A) * fk_determinant(B), rel=1e-9
        )

    def test_matches_abs_det(self):
        T = random_matrix(9, 6)
        expected = abs(np.linalg.det(T)) ** (1 / 6)
        assert fk_determinant(T) == pytest.approx(expected, rel=1e-9)


class TestRegularizedLogDet:
    def test_identity_matrix(self):
        # [DERIVED] tau log(|I|^2 + 1) = log 2.
        assert regularized_log_det(np.eye(3), 0.0, 1.0) == pytest.approx(np.log(2))

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            regularized_log_det(np.eye(2), 0.0, 0.0)

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 1000))
    def test_matches_measure_for_normal_matrices(self, seed):
        rng = np.random.default_rng(seed)
        d = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        U, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
        T = U @ np.diag(d) @ U.conj().T
        measure = brown_measure_exact(T)
        for lam in (0.0, 0.5 + 0.5j):
            lhs = regularized_log_det(T, lam, 0.1)
            rhs = measure.regularized_potential(lam, 0.1)
            assert lhs == pytest.approx(rhs, abs=1e-9)


class TestSpectralMeasure:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            SpectralMeasure(((0.0, 0.5), (1.0, 0.4)))

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            SpectralMeasure(((0.0, 1.5), (1.0, -0.5)))

    def test_mass_within(self):
        m = SpectralMeasure(((0.0, 0.25), (1.0, 0.75)))
        assert m.mass_within(0.0, 0.5) == 0.25
        assert m.mass_within(0.5, 1.0) == 1.0

    def test_log_potential_at_atom_is_minus_inf(self):
        m = SpectralMeasure(((1.0, 1.0),))
        assert m.log_potential(1.0) == -np.inf

    def test_exact_measure_of_shear(self):
        # [DERIVED] eigenvalues of [[1,1],[0,2]] are 1 and 2, weight 1/2 each.
        m = brown_measure_exact([[1, 1], [0, 2]])
        assert m.atoms == ((1.0 + 0j, 0.5), (2.0 + 0j, 0.5))

    def test_clustered_multiplicity(self):
        m = brown_measure_exact(np.diag([1.0, 1.0, 3.0]))
        weights = {round(z.real): w for z, w in m.atoms}
        assert weights == {1: pytest.approx(2 / 3), 3: pytest.approx(1 / 3)}


class TestDensityGrid:
    def test_two_atom_grid(self):
        T = np.diag([1.0, -1.0]).astype(complex)
        grid = brown_density_grid(T, bounds=(-2, 2, -2, 2), resolution=101, eps=1e-8)
        assert grid.total_mass == pytest.approx(1.0, abs=0.02)
        assert grid.mass_within(1.0, 0.3) == pytest.approx(0.5, abs=0.02)
        assert grid.mass_within(-1.0, 0.3) == pytest.approx(0.5, abs=0.02)

    def test_bounds_must_cover_spectrum(self):
        with pytest.raises(ValueError):
            brown_density_grid(np.diag([5.0, -5.0]), bounds=(-1, 1, -1, 1))

    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            brown_density_grid(np.eye(2), bounds=(-3, 3, -3, 3), resolution=16)

    def test_default_bounds_scale_with_norm(self):
        T = 4.0 * np.eye(2)
        xmin, xmax, ymin, ymax = default_bounds(T)
        assert xmax == pytest.approx(5.0)
        assert (xmin, ymin, ymax) == (-xmax, -xmax, xmax)

    def test_mass_nonnegative_after_clamp(self):
        T = random_matrix(3, 4)
        grid = brown_density_grid(T, resolution=64, eps=1e-6)
        small_neg = grid.cell_mass[grid.cell_mass < 0]
        assert np.all(small_neg < -1e-6) or small_neg.size == 0
        assert grid.negative_cells_flagged == small_neg.size


class TestBlockDetIdentity:
    def test_invariant_coordinate_split(self):
        T = np.array([[1, 1], [0, 2]], dtype=complex)
        p = np.diag([1.0, 0.0]).astype(complex)
        report = block_det_identity_check(T, p)
        assert report.ok
        # [DERIVED] Delta factors as 1^(1/2) * 2^(1/2) = sqrt(2).
        assert report.rhs_det == pytest.approx(np.sqrt(2), rel=1e-10)

    def test_rejects_non_invariant_projection(self):
        T = np.array([[0, 1], [1, 0]], dtype=complex)
        p = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            block_det_identity_check(T, p)

    def test_rejects_non_projection(self):
        with pytest.raises(ValueError):
            block_det_identity_check(np.eye(2), 0.5 * np.eye(2))

    @settings(deadline=None, max_examples=20)
    @given(st.integers(0, 500), st.integers(1, 5))
    def test_random_triangular_splits(self, seed, k):
        n = 6
        rng = np.random.default_rng(seed)
        T = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        p = np.zeros((n, n), dtype=complex)
        p[np.arange(k), np.arange(k)] = 1.0
        report = block_det_identity_check(T, p)
        assert report.ok, (report.det_gap, report.measure_gap)

    def test_real_input_ball_split(self):
        # A real T has conjugate eigenvalue pairs; the measure gap must pair
        # them by distance, not by sort order.
        for seed in range(4):
            T = np.random.default_rng(seed).standard_normal((6, 6)) / np.sqrt(6)
            report = block_det_identity_check(T, hs_projection(T, Ball(0, 0.7)))
            assert report.ok, report.measure_gap
