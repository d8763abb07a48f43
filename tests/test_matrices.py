"""Core matrix utilities: norms, projection nests, clusters, ordered Schur forms."""
import json

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.csgraph
from hypothesis import given, settings
from hypothesis import strategies as st

from specnest import cli, matrices, serialize
from specnest.decompose import decompose
from specnest.matrices import (
    CLUSTER_TOL,
    ProjectionNest,
    _complex_schur,
    as_operator,
    cluster_eigenvalues,
    frobenius,
    gemm,
    operator_norm,
    reorder_schur,
    singular_values,
    spectral_radius,
    spectrum_distance,
)


def random_matrix(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)


def jordan_with_corner(n: int, corner: float) -> np.ndarray:
    J = np.diag(np.ones(n - 1), 1).astype(complex)
    J[-1, 0] = corner
    return J


class TestAsOperator:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            as_operator(np.zeros((2, 3)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            as_operator([[np.nan, 0], [0, 1]])

    def test_copies_input(self):
        A = np.eye(2, dtype=complex)
        B = as_operator(A)
        B[0, 0] = 5.0
        assert A[0, 0] == 1.0


class TestTraceAndNorms:
    def test_singular_values_of_shear(self):
        # [DERIVED] sigma([[1,1],[0,2]])^2 are roots of x^2 - 6x + 4, so
        # sigma = sqrt(3 +- sqrt(5)).
        sv = singular_values([[1, 1], [0, 2]])
        expected = np.sqrt(np.array([3 + np.sqrt(5), 3 - np.sqrt(5)]))
        assert np.allclose(sv, expected, atol=1e-12)

    def test_spectral_radius_of_triangular(self):
        assert spectral_radius([[1, 100], [0, 2]]) == pytest.approx(2.0)

    def test_norm_vs_radius(self):
        T = random_matrix(0, 6)
        assert spectral_radius(T) <= operator_norm(T) + 1e-12


class TestDirectLapackCalls:
    """The bare LAPACK/BLAS calls return what scipy's wrappers return, bit for bit."""

    # zhseqr switches from zlahqr to the aggressive-deflation zlaqr0 at n = 75.
    SIZES = [1, 2, 8, 16, 74, 75, 76, 256]

    @pytest.mark.parametrize("n", SIZES)
    def test_complex_schur_equals_scipy_schur(self, n, monkeypatch):
        monkeypatch.setattr(matrices, "_LWORK", {})
        T = as_operator(random_matrix(n, n))
        R_want, U_want = scipy.linalg.schur(T, output="complex")
        for _ in range(2):  # the workspace query, then the cached size
            R, U = _complex_schur(T)
            assert np.array_equal(R, R_want) and np.array_equal(U, U_want)
        assert list(matrices._LWORK) == [("gees", n)]

    @pytest.mark.parametrize("n", SIZES)
    def test_operator_norm_equals_scipy_svd(self, n, monkeypatch):
        monkeypatch.setattr(matrices, "_LWORK", {})
        T = random_matrix(n + 1, n)
        want = scipy.linalg.svd(T, compute_uv=False)
        assert np.array_equal(singular_values(T), want)
        assert operator_norm(T) == want[0] and operator_norm(T) == want[0]
        assert list(matrices._LWORK) == [("gesdd", n)]
        # numpy's SVD runs in numpy's own OpenBLAS build, which need not
        # match scipy's bit for bit.
        gap = np.max(np.abs(singular_values(T) - np.linalg.svd(T, compute_uv=False)))
        assert gap <= 8 * n * np.finfo(float).eps * want[0]

    @pytest.mark.parametrize("n", SIZES)
    def test_frobenius_equals_scipy_norm(self, n):
        T = random_matrix(n + 2, n)
        for X in (T, T.real, np.asfortranarray(T)[:, ::2]):
            assert frobenius(X) == scipy.linalg.norm(np.ravel(X))

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, 3, 6])
    def test_frobenius_rejects_nonfinite_entries(self, dtype, bad, where):
        x = np.ones(7, dtype=dtype)
        x[where] = bad
        with pytest.raises(ValueError):
            frobenius(x)
        if dtype is complex:
            x[where] = complex(1.0, bad)
            with pytest.raises(ValueError):
                frobenius(x.reshape(1, 7))

    def test_frobenius_overflows_to_inf_on_finite_entries(self):
        assert frobenius(np.array([1.5e308, 1.5e308])) == np.inf
        assert frobenius(np.array([1.5e308, 1.5e308j])) == np.inf

    def test_frobenius_of_empty_array_is_zero(self):
        assert frobenius(np.zeros(0)) == 0.0
        assert frobenius(np.zeros((0, 3), dtype=complex)) == 0.0

    @pytest.mark.parametrize("routine", ["gees", "gesdd"])
    def test_lapack_failure_raises_linalg_error(self, routine, monkeypatch, tmp_path, capsys):
        # LAPACK's info > 0 (no convergence) keeps scipy's error type, and the
        # CLI maps it to exit code 2.
        original = scipy.linalg.get_lapack_funcs

        def failing(names, *args, **kwargs):
            funcs = original(names, *args, **kwargs)
            if names[0] != routine:
                return funcs

            def no_convergence(*a, **kw):
                out = funcs[0](*a, **kw)
                return out if kw.get("lwork") == -1 else (*out[:-1], 1)

            return [no_convergence, *funcs[1:]]

        monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", failing)
        T = as_operator(random_matrix(0, 4))
        entry_points = [_complex_schur] if routine == "gees" else [operator_norm,
                                                                  singular_values]
        for entry_point in entry_points:
            with pytest.raises(scipy.linalg.LinAlgError):
                entry_point(T)
        path = tmp_path / "m.json"
        serialize.write_matrix(str(path), T)
        commands = [["decompose", "--in", str(path), "--out", str(tmp_path / "d.json")]]
        if routine == "gesdd":
            commands.append(["check", "weyl", "--in", str(path)])
        for command in commands:
            assert cli.main(command) == 2
            assert json.loads(capsys.readouterr().err)["error"] == "LinAlgError"


class TestGemm:
    # From 2x2 up numpy's @ calls BLAS zgemm too (a 1x1 it multiplies itself).
    @pytest.mark.parametrize("n", [2, 5, 16])
    @pytest.mark.parametrize("order_a", ["C", "F"])
    @pytest.mark.parametrize("order_b", ["C", "F"])
    def test_equals_matmul_exactly(self, n, order_a, order_b):
        a = np.asarray(random_matrix(n, n), order=order_a)
        b = np.asarray(random_matrix(n + 1, n), order=order_b)
        for got, want in [(gemm(a, b), a @ b),
                          (gemm(a, b, adj_a=True), a.conj().T @ b),
                          (gemm(a, b, adj_b=True), a @ b.conj().T)]:
            assert np.array_equal(got, want)
            assert got.flags.c_contiguous


class TestProjectionNest:
    def test_rank_lookup(self):
        nest = ProjectionNest(np.eye(3), ((0.0, 0), (0.25, 1), (0.75, 3)))
        assert nest.rank_at(0.0) == 0
        assert nest.rank_at(0.25) == 1
        assert nest.rank_at(0.5) == 1
        assert nest.rank_at(0.75) == 3

    def test_projection_is_idempotent(self):
        nest = ProjectionNest(np.eye(3), ((0.0, 0), (0.25, 1), (0.75, 3)))
        p = nest.projection_at(0.3)
        assert np.allclose(p @ p, p)
        assert np.trace(p).real == pytest.approx(nest.rank_at(0.3)) == 1

    def test_rejects_non_unitary_basis(self):
        with pytest.raises(ValueError):
            ProjectionNest(np.ones((2, 2)), ((0.0, 0), (1.0, 2)))
        # ||U*U - I||_2 = 8e-11 is under the 1e-10 tolerance; its Frobenius norm 3.2e-10 is not.
        with pytest.raises(ValueError, match="not unitary"):
            ProjectionNest((1 + 4e-11) * np.eye(16), ((0.0, 0), (1.0, 16)))

    def test_rejects_non_increasing_jumps(self):
        with pytest.raises(ValueError):
            ProjectionNest(np.eye(2), ((0.0, 0), (0.5, 2), (0.5, 2)))

    def test_rejects_nan_jump_time(self):
        # NaN compares false both ways, so the increase check alone lets it through.
        with pytest.raises(ValueError, match=r"in \[0, 1\]"):
            ProjectionNest(np.eye(2), ((0.0, 0), (np.nan, 1), (1.0, 2)))

    def test_nan_time_raises(self):
        # NaN <= t_j is false for every jump, so the lookup alone answers rank 0.
        nest = decompose(np.diag([1, 2j, -1])).nest
        with pytest.raises(ValueError, match="NaN"):
            nest.rank_at(float("nan"))
        with pytest.raises(ValueError, match="NaN"):
            nest.projection_at(np.nan)

    def test_rejects_fractional_rank(self):
        with pytest.raises(ValueError, match="integers"):
            ProjectionNest(np.eye(2), ((0.0, 0), (0.5, 1.7), (1.0, 2)))

    def test_rejects_bool_rank(self):
        with pytest.raises(ValueError, match="integers"):
            ProjectionNest(np.eye(2), ((0.0, 0), (0.5, True), (1.0, 2)))

    def test_accepts_numpy_integer_ranks(self):
        nest = ProjectionNest(np.eye(2), ((0.0, np.int64(0)), (0.5, np.int32(1)), (1.0, 2)))
        assert nest.jumps == ((0.0, 0), (0.5, 1), (1.0, 2))


def reference_clusters(eigs: np.ndarray, tol: float) -> list:
    """Connected components of the tol-graph, ordered by smallest index."""
    near = np.abs(np.subtract.outer(eigs, eigs)) <= tol
    _, labels = scipy.sparse.csgraph.connected_components(near, directed=False)
    groups = [np.flatnonzero(labels == c) for c in range(labels.max() + 1)]
    return sorted(groups, key=lambda g: g[0])


def clusters_at(eigs: np.ndarray, tol: float) -> list:
    """``cluster_eigenvalues`` at distance tol as index lists, ordered by smallest
    index; each label is its cluster's smallest index."""
    labels, roots, _ = cluster_eigenvalues(eigs, tol / CLUSTER_TOL)
    assert np.array_equal(roots, np.unique(labels))
    groups = [np.flatnonzero(labels == r).tolist() for r in roots]
    assert all(g[0] == r for g, r in zip(groups, roots))
    return groups


class TestClusterEigenvalues:
    def test_chained_merging(self):
        eigs = np.array([0.0, 1e-11, 2e-11, 1.0])
        groups = clusters_at(eigs, 1.5e-11)
        sizes = sorted(len(g) for g in groups)
        assert sizes == [1, 3]
        # Groups come by smallest index, indices ascending; 2e-11 reaches 0 only through 1e-11.
        eigs = np.array([1.0, 2e-11, 3.0, 0.0, 1.0 + 1e-12j, 1e-11])
        groups = clusters_at(eigs, 1.5e-11)
        assert groups == [[0, 4], [1, 3, 5], [2]]
        rng = np.random.default_rng(0)
        for n in (1, 2, 7, 40):
            eigs = np.round(rng.standard_normal(n) + 1j * rng.standard_normal(n), 1)
            groups = clusters_at(eigs, 0.15)
            assert groups == [g.tolist() for g in reference_clusters(eigs, 0.15)]
        # A shuffled chain: each label reaches the smallest one only step by step.
        tol = 1e-10
        order = rng.permutation(256)
        groups = clusters_at((0.9 * tol * np.arange(256))[order] + 2.0, tol)
        assert groups == [list(range(256))]

    def test_singletons_when_far(self):
        eigs = np.array([0.0, 1.0, 2.0])
        assert len(clusters_at(eigs, 0.5)) == 3
        # Repeated values cluster even at tol = 0.
        eigs = np.array([2.0, 1j, 2.0, 0.0, 1j, 2.0])
        assert clusters_at(eigs, 0.0) == [[0, 2, 5], [1, 4], [3]]


    def test_representative_is_the_cluster_mean(self):
        eigs = np.array([1.0, 2e-11, 3.0 - 1j, 0.0, 1.0 + 1e-12j, 1e-11])
        labels, roots, reps = cluster_eigenvalues(eigs, 1.0)
        groups = [np.flatnonzero(labels == r) for r in roots]
        assert [g.tolist() for g in groups] == [[0, 4], [1, 3, 5], [2]]
        for rep, ix in zip(reps.tolist(), groups):
            assert rep == complex(np.mean(eigs[ix]))
        assert reps[2] == eigs[2]  # a singleton is its own representative


class TestSpectrumDistance:
    def test_conjugates_are_not_crossed(self):
        # Sorting pairs 1 - 1j with 1 + 1j here, a false gap of 2.
        a = np.array([1 + 1e-15 + 1j, 1 - 1j])
        b = np.array([1 + 1e-15 - 1j, 1 + 1j])
        assert spectrum_distance(a, b) <= 2e-15
        assert spectrum_distance(a, np.array([1.0, 1.0])) == 1.0

    def test_shared_nearest_value_takes_the_cheaper_pairing(self):
        # Both points are nearest 0.05; pairing 0.1 with 10 costs less in total.
        assert spectrum_distance(np.array([0.0, 0.1]), np.array([0.05, 10.0])) == 9.9


def ordered_schur(T, key):
    """reorder_schur of T's complex Schur form, keyed by ``key`` of its diagonal:
    (U, R, B, perm), R the Fortran-ordered triangle it reorders in place and B
    the flag form U*TU it returns."""
    R, U = (np.asfortranarray(F) for F in scipy.linalg.schur(T, output="complex"))
    keys = [key(complex(z)) for z in np.diag(R)]
    U, B, perm = reorder_schur(T, R, U, keys, operator_norm(T))
    return U, R, B, perm


def reference_reorder(R, U, keys) -> tuple:
    """The per-slot reorder: (U, R, perm) from one whole-matrix ``ztrexc`` call per
    out-of-place target, in the order of ``reorder_schur``'s sort, on copies."""
    R, U = np.array(R, order="F"), np.array(U, order="F")
    diag = R.diagonal()
    target = np.lexsort((np.arange(len(R)), diag.imag, diag.real, np.asarray(keys))).tolist()
    labels = list(range(len(R)))
    for k, slot in enumerate(target):
        j = labels.index(slot)
        if j != k:
            R, U, info = scipy.linalg.lapack.ztrexc(R, U, j + 1, k + 1)
            assert info == 0
            labels.insert(k, labels.pop(j))
    return np.ascontiguousarray(U), R, np.array(target)


def windowed_inputs(n: int) -> dict:
    """Inputs for the windowed reorder (n > REORDER_WINDOW): a Ginibre matrix, a
    Jordan block with a 1e-12 corner and a diagonal with repeated values."""
    return {"ginibre": random_matrix(n, n),
            "jordan-corner": jordan_with_corner(n, 1e-12),
            "repeated-diagonal": np.diag(np.resize([2.0, 1.0, 2.0, 0.0, 1.0], n)).astype(complex)}


WINDOWED_CASES = [(n, kind) for n in (65, 128, 200) for kind in windowed_inputs(2)]


@pytest.fixture
def ztrexc_shapes(monkeypatch):
    """The shape of the triangle each ``ztrexc`` call in ``reorder_schur`` reorders."""
    shapes, ztrexc = [], scipy.linalg.lapack.ztrexc

    def recording(a, *args, **kwargs):
        shapes.append(a.shape)
        return ztrexc(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "ztrexc", recording)
    return shapes


class TestOrderedSchur:
    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 10_000), st.integers(2, 8))
    def test_factorization_properties(self, seed, n):
        T = random_matrix(seed, n)
        U, R, B, perm = ordered_schur(T, key=lambda z: z.real)
        assert np.linalg.norm(U.conj().T @ U - np.eye(n), 2) < 1e-10
        assert np.linalg.norm(np.tril(R, -1), 2) < 1e-10
        assert np.linalg.norm(T - U @ R @ U.conj().T, 2) < 1e-9 * max(1, operator_norm(T))
        assert np.array_equal(B, gemm(gemm(U, T, adj_a=True), U))
        assert frobenius(B - R) <= 1e-9 * operator_norm(T)
        keys = [z.real for z in np.diag(R)]
        assert keys == sorted(keys)
        assert sorted(perm) == list(range(n))

    @pytest.mark.parametrize(
        "T",
        [jordan_with_corner(16, 1e-12),
         np.diag([2.0, 1.0, 2.0, 0.0, 1.0, 2.0, 0.0, 1.0]).astype(complex)],
        ids=["jordan16-corner", "repeated-diagonal"],
    )
    def test_reordering_permutes_schur_diagonal_exactly(self, T):
        n = T.shape[0]
        schur_diag = np.diag(scipy.linalg.schur(T, output="complex")[0])
        U, R, _, perm = ordered_schur(T, key=lambda z: z.real)
        keys = [z.real for z in np.diag(R)]
        assert keys == sorted(keys)
        assert np.array_equal(np.diag(R), schur_diag[perm])
        assert np.linalg.norm(U.conj().T @ U - np.eye(n), 2) < 1e-10
        assert np.linalg.norm(T - U @ R @ U.conj().T, 2) < 1e-9 * max(1, operator_norm(T))

    def test_fortran_ordered_factors_are_reordered_in_place(self):
        # _complex_schur's R and U are Fortran-ordered, and ztrexc overwrites
        # them; C-ordered copies of the same factors are left as they were.
        T = random_matrix(5, 6)
        R, U = _complex_schur(as_operator(T))
        assert R.flags.f_contiguous and U.flags.f_contiguous
        keys = [-z.real for z in R.diagonal().tolist()]
        R_c, U_c = np.ascontiguousarray(R), np.ascontiguousarray(U)
        R_before = R.copy()
        U_new, B, perm = reorder_schur(T, R, U, keys, operator_norm(T))
        assert perm.tolist() != list(range(6))
        assert np.array_equal(R.diagonal(), R_before.diagonal()[perm])
        assert not np.tril(R, -1).any() and not np.array_equal(R, R_before)
        assert np.array_equal(U, U_new)
        R_c_before, U_c_before = R_c.copy(), U_c.copy()
        U_c_new, B_c, _ = reorder_schur(T, R_c, U_c, keys, operator_norm(T))
        assert np.array_equal(R_c, R_c_before) and np.array_equal(U_c, U_c_before)
        assert np.array_equal(B_c, B) and np.array_equal(U_c_new, U_new)

    def test_ordering_by_custom_key(self):
        T = np.diag([3.0, 1.0, 2.0]).astype(complex)
        _, R, _, _ = ordered_schur(T, key=lambda z: -z.real)
        assert np.allclose(np.diag(R).real, [3.0, 2.0, 1.0])

    def test_repeated_eigenvalue_is_stable(self):
        T = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        U, R, _, _ = ordered_schur(T, key=lambda z: z.real)
        assert np.allclose(np.diag(R), [1.0, 1.0])
        assert np.linalg.norm(T - U @ R @ U.conj().T, 2) < 1e-12

    @pytest.mark.parametrize("n, kind", WINDOWED_CASES)
    def test_windowed_reorder_matches_the_per_slot_loop(self, n, kind, ztrexc_shapes):
        # R's diagonal and perm bit for bit; U and R's upper part only to rounding.
        T = windowed_inputs(n)[kind]
        R, U = scipy.linalg.schur(T, output="complex")
        keys = R.diagonal().real
        _, R_ref, perm_ref = reference_reorder(R, U, keys)
        ztrexc_shapes.clear()
        norm = operator_norm(T)
        R, U = np.asfortranarray(R), np.asfortranarray(U)
        U, _, perm = reorder_schur(T, R, U, keys, norm)
        assert set(ztrexc_shapes) == {(64, 64)}  # every move ran inside a window
        assert R.diagonal().tobytes() == R_ref.diagonal().tobytes()
        assert np.array_equal(perm, perm_ref)
        assert not np.tril(R, -1).any()
        assert frobenius(T - U @ R @ U.conj().T) <= 1e-9 * norm
        assert np.linalg.norm(U.conj().T @ U - np.eye(n), 2) < 1e-10

    @pytest.mark.parametrize("kind", windowed_inputs(2))
    def test_one_window_is_the_per_slot_loop_to_the_byte(self, kind):
        # At n = REORDER_WINDOW the window is the whole matrix: ztrexc moves one
        # eigenvalue at a time on R and U themselves, as the per-slot loop does.
        assert matrices.REORDER_WINDOW == 64
        T = windowed_inputs(64)[kind]
        R, U = scipy.linalg.schur(T, output="complex")
        keys = R.diagonal().real
        U_ref, R_ref, perm_ref = reference_reorder(R, U, keys)
        R, U = np.asfortranarray(R), np.asfortranarray(U)
        U_new, _, perm = reorder_schur(T, R, U, keys, operator_norm(T))
        assert perm.tolist() != list(range(64))
        assert R.tobytes() == R_ref.tobytes() and U_new.tobytes() == U_ref.tobytes()
        assert np.array_equal(perm, perm_ref)

    def test_windowed_reorder_keeps_the_fortran_in_place_contract(self):
        T = random_matrix(7, 100)
        R, U = _complex_schur(as_operator(T))
        keys = [-z.real for z in R.diagonal().tolist()]
        R_c, U_c = np.ascontiguousarray(R), np.ascontiguousarray(U)
        R_before = R.copy()
        U_new, B, perm = reorder_schur(T, R, U, keys, operator_norm(T))
        assert perm.tolist() != list(range(100))
        assert np.array_equal(R.diagonal(), R_before.diagonal()[perm])
        assert not np.tril(R, -1).any() and not np.array_equal(R, R_before)
        assert np.array_equal(U, U_new) and U_new.flags.c_contiguous
        R_c_before, U_c_before = R_c.copy(), U_c.copy()
        U_c_new, B_c, _ = reorder_schur(T, R_c, U_c, keys, operator_norm(T))
        assert np.array_equal(R_c, R_c_before) and np.array_equal(U_c, U_c_before)
        assert np.array_equal(B_c, B) and np.array_equal(U_c_new, U_new)

    @pytest.mark.parametrize("scale, raises", [(2e-9, True), (5e-10, False)])
    def test_residual_check_rejects_a_perturbed_schur_pair(self, scale, raises):
        # Negative control: with R + scale ||T||_2 e_10 e_90^T, U R U* misses T by
        # scale ||T||_2 in Frobenius norm, and the check's bound is 1e-9 ||T||_2.
        T = as_operator(random_matrix(8, 100))
        norm = operator_norm(T)
        R, U = _complex_schur(T)
        keys = R.diagonal().real.copy()
        R[10, 90] += scale * norm
        if raises:
            with pytest.raises(ArithmeticError, match="lost accuracy"):
                reorder_schur(T, R, U, keys, norm)
        else:
            reorder_schur(T, R, U, keys, norm)
