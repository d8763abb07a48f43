"""Determinants, spectral measures and density grids."""
import math
import multiprocessing
import os
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specnest import detbrown
from specnest.curve import HilbertCurveMap, curve_points_batch
from specnest.detbrown import (
    CHUNK_ENTRIES,
    SpectralMeasure,
    _batched_log_phi,
    _gram_rho,
    brown_density_grid,
    brown_measure_exact,
    fk_determinant,
    regularized_log_det,
)
from specnest.ensembles import EnsembleSpec, Ginibre, Jordan, generate
from specnest.matrices import default_half_side, operator_norm


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


@pytest.mark.parametrize("build, name", [
    (lambda: curve_points_batch(HilbertCurveMap(), [np.nan]), "t values"),
    (lambda: HilbertCurveMap(half_side=math.inf), "half_side"),
    (lambda: HilbertCurveMap(half_side=math.nan), "half_side"),
    (lambda: brown_density_grid(np.eye(2), bounds=(-math.inf, math.inf, -math.inf, math.inf)),
     "bounds"),
    (lambda: SpectralMeasure(((0, math.nan),)), "weights"),
    (lambda: SpectralMeasure(((math.nan, 1.0),)), "locations"),
], ids=["curve-t-nan", "half-side-inf", "half-side-nan", "bounds-inf", "weight-nan",
        "location-nan"])
def test_nonfinite_input_raises_value_error_naming_it(build, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=name):
            build()


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

    def test_default_bounds_solve_no_eigvals(self, eigvals_calls):
        # The default square covers the disk of radius |T|_2 >= rho(T).
        brown_density_grid(random_matrix(4, 8), resolution=32)
        assert eigvals_calls == []

    def test_bounds_inside_the_norm_disk_solve_eigvals_once(self, eigvals_calls):
        # |T|_2 = 10 but rho(T) = 0: only the eigenvalues show the bounds cover.
        T = np.array([[0.0, 10.0], [0.0, 0.0]])
        grid = brown_density_grid(T, bounds=(-1, 1, -1, 1), resolution=32)
        assert eigvals_calls == [(2, 2)]
        assert grid.total_mass == pytest.approx(1.0, abs=0.05)

    def test_mass_within_matches_meshgrid_mask(self):
        T = random_matrix(3, 6)
        grid = brown_density_grid(T, resolution=48, eps=1e-6)
        A = absolute_stencil(T, grid)
        for center, radius in [(0.1 - 0.2j, 0.5), (0j, 1.0), (-0.3 + 0.4j, 0.05)]:
            mask = disk_mask(grid, center, radius)
            assert abs(grid.mass_within(center, radius) - float(np.sum(grid.cell_mass[mask]))) \
                <= stencil_sum_bound(A, mask)

    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            brown_density_grid(np.eye(2), bounds=(-3, 3, -3, 3), resolution=16)

    def test_resolution_takes_any_integer_type(self):
        T = random_matrix(3, 6)
        grid = brown_density_grid(T, resolution=np.int64(48), eps=1e-6)
        assert grid.resolution == (48, 48)
        assert np.array_equal(grid.cell_mass,
                              brown_density_grid(T, resolution=48, eps=1e-6).cell_mass)

    @pytest.mark.parametrize("resolution", [True, np.bool_(True), 48.0, (48, 48), "48"],
                             ids=["bool", "numpy-bool", "float", "tuple", "str"])
    def test_resolution_rejects_non_integers(self, resolution):
        with pytest.raises(TypeError):
            brown_density_grid(np.eye(2), bounds=(-3, 3, -3, 3), resolution=resolution)

    def test_default_bounds_scale_with_norm(self):
        T = 4.0 * np.eye(2)
        xmin, xmax, ymin, ymax = brown_density_grid(T, resolution=32).bounds
        assert xmax == pytest.approx(5.0)
        assert (xmin, ymin, ymax) == (-xmax, -xmax, xmax)

    def test_negative_cells_flagged_counts_cells_below_threshold(self):
        T = random_matrix(3, 4)
        grid = brown_density_grid(T, resolution=64, eps=1e-6)
        flagged = np.count_nonzero(grid.cell_mass < -1e-6)
        assert flagged > 0
        assert grid.negative_cells_flagged == flagged

    @pytest.mark.parametrize("center, radius, name", [
        (math.nan, 0.5, "center"), (complex(0, math.inf), 0.5, "center"),
        (0j, math.nan, "radius"), (0j, -0.5, "radius"), (0j, math.inf, "radius"),
    ], ids=["center-nan", "center-inf", "radius-nan", "radius-negative", "radius-inf"])
    @pytest.mark.parametrize("build", [
        lambda: brown_density_grid(np.diag([0.5, -0.5]), resolution=32),
        lambda: SpectralMeasure(((0.5, 0.5), (-0.5, 0.5))),
    ], ids=["grid", "measure"])
    def test_mass_within_rejects_a_bad_disk(self, build, center, radius, name):
        with pytest.raises(ValueError, match=name):
            build().mass_within(center, radius)


def disk_mask(grid, center, radius) -> np.ndarray:
    """The cells whose centers lie in the closed disk, as ``mass_within`` selects them."""
    X, Y = np.meshgrid(grid.x_centers, grid.y_centers, indexing="ij")
    return (X - center.real) ** 2 + (Y - center.imag) ** 2 <= radius**2


def log_phi(T, lams, eps) -> tuple:
    """``_batched_log_phi``'s (phi, kernel) at ``lams`` and the rho that chose the
    kernel, from T's norm and every point of ``lams``."""
    rho = _gram_rho(T.shape[0], operator_norm(T), lams, eps)
    return (*_batched_log_phi(T, lams, eps, rho), rho)


def grid_phi(T, grid) -> np.ndarray:
    """phi on every cell center of ``grid``, from the whole-grid point array."""
    lams = (grid.x_centers[:, None] + 1j * grid.y_centers[None, :]).ravel()
    phi = log_phi(T, lams, grid.epsilon)[0]
    return phi.reshape(grid.resolution)


def absolute_stencil(T, grid) -> np.ndarray:
    """Each cell's stencil on |phi|, A = ((|a| + 2|c| + |b|)/hx^2 + (|d| + 2|c| + |e|)/hy^2)
    hx hy / (2 pi); 0 on the border cells, which carry no mass."""
    phi = np.abs(grid_phi(T, grid))
    xmin, xmax, ymin, ymax = grid.bounds
    nx, ny = grid.resolution
    hx, hy = (xmax - xmin) / nx, (ymax - ymin) / ny
    c = 2 * phi[1:-1, 1:-1]
    A = np.zeros_like(phi)
    A[1:-1, 1:-1] = ((phi[2:, 1:-1] + c + phi[:-2, 1:-1]) / hx**2
                     + (phi[1:-1, 2:] + c + phi[1:-1, :-2]) / hy**2) * (hx * hy) / (2 * math.pi)
    return A


def stencil_sum_bound(A, mask) -> float:
    """Rounding bound on the gap between a flux mass and the sum of its cells.

    Both sides sum the same stencil of phi over the inner cells of ``mask``;
    each cell's mass takes about 8 roundings, each within u times the cell's
    absolute stencil A (``absolute_stencil``). Pairwise summation of N terms
    adds at most log2(N) u times their absolute sum, on each side, and an
    edge term of the flux,
    (phi(out) - phi(in))/h^2, is within one cell's A. A phi that differs by
    a few ulps between the whole-grid pass and a mass query's (its chunk
    holds other points) moves the flux by less than the 8 u A of a cell that
    uses it. So the gap is at most (2 log2(nx ny) + 16) u times the sum of A
    over the region.
    """
    return (2 * math.log2(A.size) + 16) * np.finfo(float).eps * float(np.sum(A[mask]))


@pytest.fixture
def phi_points(monkeypatch):
    """The points of every ``_batched_log_phi`` call, one complex array per call."""
    calls = []
    original = detbrown._batched_log_phi

    def counting(T, lams, *args, **kwargs):
        calls.append(np.asarray(lams[0:len(lams)]))
        return original(T, lams, *args, **kwargs)

    monkeypatch.setattr(detbrown, "_batched_log_phi", counting)
    return calls


def boundary_points(grid, inside) -> np.ndarray:
    """Centers of the cells on both sides of each edge leaving ``inside``, sorted."""
    keep = np.zeros_like(inside)
    for axis in (0, 1):
        lo = [slice(None), slice(None)]
        hi = [slice(None), slice(None)]
        lo[axis], hi[axis] = slice(None, -1), slice(1, None)
        cross = inside[tuple(lo)] != inside[tuple(hi)]
        keep[tuple(lo)] |= cross
        keep[tuple(hi)] |= cross
    ix, iy = np.nonzero(keep)
    return np.sort(grid.x_centers[ix] + 1j * grid.y_centers[iy])


def inner_cells(grid) -> np.ndarray:
    inside = np.zeros(grid.resolution, dtype=bool)
    inside[1:-1, 1:-1] = True
    return inside


class TestFluxMasses:
    """Masses from the boundary flux of phi: where phi runs, and what it sums to."""

    def test_construction_evaluates_the_four_corners(self, phi_points):
        grid = brown_density_grid(random_matrix(5, 8))
        [corners] = phi_points
        xs, ys = grid.x_centers, grid.y_centers
        assert np.array_equal(np.sort(corners), np.sort(
            [xs[0] + 1j * ys[0], xs[0] + 1j * ys[-1], xs[-1] + 1j * ys[0], xs[-1] + 1j * ys[-1]]))

    def test_total_mass_evaluates_two_rings(self, phi_points):
        grid = brown_density_grid(random_matrix(5, 8), resolution=201)
        grid.total_mass
        [_, points] = phi_points
        assert len(points) <= 4 * 2 * 201
        assert np.array_equal(np.sort(points), boundary_points(grid, inner_cells(grid)))

    @pytest.mark.parametrize("center, radius", [(0.3 - 0.1j, 0.7), (-1.9 + 0.2j, 0.9)],
                             ids=["inside", "across-the-border"])
    def test_disk_query_evaluates_its_boundary_pairs(self, phi_points, center, radius):
        grid = brown_density_grid(random_matrix(5, 8), resolution=201)
        grid.mass_within(center, radius)
        [_, points] = phi_points
        inside = disk_mask(grid, center, radius) & inner_cells(grid)
        assert np.array_equal(np.sort(points), boundary_points(grid, inside))

    def test_cell_reads_and_mass_reads_are_independent(self):
        T = random_matrix(5, 8)
        disks = [(0.3 - 0.1j, 0.7), (0j, 0.05), (-1.9 + 0.2j, 0.9)]
        masses_first = brown_density_grid(T, resolution=64)
        masses = [masses_first.total_mass] + [masses_first.mass_within(*d) for d in disks]
        cells_first = brown_density_grid(T, resolution=64)
        cells = cells_first.cell_mass.copy()
        assert np.array([cells_first.total_mass] + [cells_first.mass_within(*d) for d in disks]
                        ).tobytes() == np.array(masses).tobytes()
        assert masses_first.cell_mass.tobytes() == cells.tobytes()

    @pytest.mark.parametrize("T, kwargs", [
        (generate(EnsembleSpec(Ginibre(8), seed=3))[0], {}),
        (generate(EnsembleSpec(Ginibre(32), seed=1))[0], {}),
        (np.diag([1.0, -1.0, 1.0j, -1.0j]).astype(complex),
         dict(bounds=(-2, 2, -2, 2), resolution=301, eps=1e-8)),
        (np.diag(np.ones(3), 1).astype(complex),
         dict(bounds=(-1.5, 1.5, -1.5, 1.5), resolution=301, eps=1e-8)),
        (generate(EnsembleSpec(Ginibre(8), seed=3))[0],
         dict(bounds=(-2.5, 2.5, -1.5, 1.5), resolution=96)),
    ], ids=["ginibre8", "ginibre32", "four-atoms-301", "nilpotent-301", "unequal-steps"])
    def test_masses_equal_their_cell_sums(self, T, kwargs):
        grid = brown_density_grid(T, **kwargs)
        A = absolute_stencil(T, grid)
        assert abs(grid.total_mass - float(np.sum(grid.cell_mass))) \
            <= stencil_sum_bound(A, inner_cells(grid))
        for center, radius in [(0j, 0.3), (1.0 + 0j, 0.3), (0.4 - 0.9j, 1.1), (-0.2j, 0.0),
                               (-2.2 + 0.5j, 1.0), (0j, 10.0)]:
            mask = disk_mask(grid, center, radius)
            assert abs(grid.mass_within(center, radius) - float(np.sum(grid.cell_mass[mask]))) \
                <= stencil_sum_bound(A, mask)



def grid_points(T, resolution: int) -> np.ndarray:
    """Points spanning the default square of brown_density_grid."""
    half = default_half_side(operator_norm(T))
    xs = np.linspace(-half, half, resolution)
    return (xs[:, None] + 1j * xs[None, :]).ravel()


class TestLogPhiKernel:
    """Both kernels against the SVD reference (1/2) regularized_log_det."""

    def check_against_reference(self, T, eps, kernel):
        lams = grid_points(T, 41)
        phi, ran, rho = log_phi(T, lams, eps)
        ref = np.array([0.5 * regularized_log_det(T, lam, eps) for lam in lams])
        assert np.max(np.abs(phi - ref)) <= 1e-10
        assert ran == kernel, rho

    def test_gram_kernel_on_ginibre(self):
        T = generate(EnsembleSpec(Ginibre(32), seed=1))[0]
        self.check_against_reference(T, 1e-8, "cholesky")

    def test_large_norm_to_eps_takes_svd_kernel(self):
        # |T|^2 / eps ~ 1e16: the Gram matrix would lose about 3e-2 in phi.
        T = 1e4 * generate(EnsembleSpec(Jordan(0.3, 8)))[0]
        self.check_against_reference(T, 1e-8, "svd")

    # rho is scale-invariant, so both scales take the same kernel. The Gram
    # kernel's rounding is not smooth in lam: second differences of its phi
    # error leave cell masses within its 1e-10 phi accuracy, not at the SVD's
    # 1e-14 level.
    @pytest.mark.parametrize("c", [1e-6, 1e-3, 1e3, 1e6])
    @pytest.mark.parametrize("eps, kernel, tol", [(1e-13, "svd", 1e-12),
                                                  (1e-8, "cholesky", 1e-10)])
    def test_cell_mass_is_scale_invariant(self, c, eps, kernel, tol):
        T = generate(EnsembleSpec(Ginibre(16), seed=2))[0]
        grid = brown_density_grid(T, resolution=64, eps=eps)
        scaled = brown_density_grid(c * T, tuple(c * b for b in grid.bounds),
                                    resolution=64, eps=c * c * eps)
        assert scaled.kernel == grid.kernel == kernel
        assert scaled.rho == pytest.approx(grid.rho, rel=1e-12)
        assert np.max(np.abs(scaled.cell_mass - grid.cell_mass)) <= tol

    def test_overflow_raises(self):
        T = generate(EnsembleSpec(Ginibre(8), seed=3))[0]
        with pytest.raises(OverflowError):
            brown_density_grid(1e154 * T, resolution=32)


def one_expression_cell_mass(T, grid):
    """The grid's cell masses from its phi by the 5-point stencil written as
    one expression, then scaled as ``DensityGrid.cell_mass`` does."""
    xmin, xmax, ymin, ymax = grid.bounds
    nx, ny = grid.resolution
    hx, hy = (xmax - xmin) / nx, (ymax - ymin) / ny
    xs = xmin + (np.arange(nx) + 0.5) * hx
    ys = ymin + (np.arange(ny) + 0.5) * hy
    lams = (xs[:, None] + 1j * ys[None, :]).ravel()
    phi = log_phi(T, lams, grid.epsilon)[0].reshape(nx, ny)
    lap = np.zeros_like(phi)
    lap[1:-1, 1:-1] = (
        (phi[2:, 1:-1] - 2 * phi[1:-1, 1:-1] + phi[:-2, 1:-1]) / hx**2
        + (phi[1:-1, 2:] - 2 * phi[1:-1, 1:-1] + phi[1:-1, :-2]) / hy**2
    )
    return lap * (hx * hy) / (2.0 * math.pi)


@pytest.mark.parametrize("T, kwargs", [
    (generate(EnsembleSpec(Ginibre(8), seed=3))[0], {}),
    (np.diag([1.0, -1.0, 1.0j, -1.0j]).astype(complex),
     dict(bounds=(-2, 2, -2, 2), resolution=301, eps=1e-8)),
], ids=["ginibre8", "four-atoms"])
def test_in_place_stencil_equals_one_expression_bit_for_bit(T, kwargs):
    grid = brown_density_grid(T, **kwargs)
    assert grid.cell_mass.tobytes() == one_expression_cell_mass(T, grid).tobytes()


def serial_map_chunks(fn, count, step):
    for start in range(0, count, step):
        fn(start)


@pytest.fixture
def two_cores(monkeypatch):
    """Two usable cores."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


@pytest.fixture
def chunk_threads(monkeypatch):
    """The thread that ran each chunk of every ``_map_chunks`` call, one entry per chunk."""
    threads = []
    threaded_map = detbrown._map_chunks

    def recording(fn, count, step):
        def chunk(start):
            threads.append(threading.get_ident())
            fn(start)
        threaded_map(chunk, count, step)

    monkeypatch.setattr(detbrown, "_map_chunks", recording)
    return threads


def grid_in_child():
    # cell_mass runs the full-grid pass: 64 chunks of 16 points at n = 32.
    grid = brown_density_grid(random_matrix(1, 32), resolution=32)
    os._exit(0 if np.all(np.isfinite(grid.cell_mass)) else 1)


class TestChunkMap:
    """The chunk loop on every usable core gives the serial loop's phi bit for bit."""

    @pytest.mark.parametrize("n", [4, 8, 32])
    @pytest.mark.parametrize("eps, kernel", [(1e-8, "cholesky"), (1e-13, "svd")])
    def test_threaded_phi_equals_serial_loop(self, n, eps, kernel, two_cores, chunk_threads,
                                             monkeypatch):
        T = random_matrix(n, n)
        step = max(1, CHUNK_ENTRIES // (n * n))
        # Seven chunks, the last one short: not a multiple of the two shares.
        lams = grid_points(T, 90)[: 7 * step - 3]
        assert len(lams) == 7 * step - 3
        phi, ran, _ = log_phi(T, lams, eps)
        monkeypatch.setattr(detbrown, "_map_chunks", serial_map_chunks)
        serial, _, _ = log_phi(T, lams, eps)
        assert ran == kernel
        assert len(chunk_threads) == 7 and len(set(chunk_threads)) == 2
        assert phi.tobytes() == serial.tobytes()

    def test_one_core_starts_no_thread(self, monkeypatch, chunk_threads):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        before = threading.active_count()
        brown_density_grid(random_matrix(2, 32), resolution=64).cell_mass
        assert len(chunk_threads) > 1
        assert set(chunk_threads) == {threading.get_ident()}
        assert threading.active_count() == before

    def test_two_core_grid_joins_its_threads(self, two_cores, chunk_threads):
        before = threading.active_count()
        brown_density_grid(random_matrix(2, 32), resolution=64).cell_mass
        assert len(chunk_threads) > 1 and len(set(chunk_threads)) == 2
        assert threading.active_count() == before

    def test_worker_keeps_the_callers_errstate(self, two_cores):
        # The SVD kernel squares ~1e155 singular values at the grid's four
        # corners, one chunk on the calling thread, under the grid's
        # errstate(over="ignore"); the next test takes that errstate to the
        # worker threads.
        T = generate(EnsembleSpec(Ginibre(8), seed=3))[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError):
                brown_density_grid(T, bounds=(-1e155, 1e155, -1e155, 1e155),
                                   resolution=32, eps=1e-8)

    def test_worker_keeps_the_callers_errstate_over_many_chunks(self, two_cores, chunk_threads):
        # A grid raises at its corners, before any pass of several chunks; the
        # errstate that the passes run under must reach the worker thread too.
        T = 1e154 * generate(EnsembleSpec(Ginibre(8), seed=3))[0]
        lams = grid_points(T, 32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError):
                detbrown._finite_log_phi(T, lams, 1e-8,
                                         _gram_rho(len(T), operator_norm(T), lams, 1e-8))
        assert len(chunk_threads) > 2 and len(set(chunk_threads)) == 2

    def test_forked_child_runs_a_grid_after_a_threaded_one(self, two_cores, chunk_threads):
        brown_density_grid(random_matrix(1, 32), resolution=32).cell_mass
        assert len(chunk_threads) > 1 and len(set(chunk_threads)) == 2
        child = multiprocessing.get_context("fork").Process(target=grid_in_child)
        child.start()
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
            child.join()
            pytest.fail("grid in a forked child did not finish")
        assert child.exitcode == 0
