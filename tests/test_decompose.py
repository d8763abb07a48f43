"""Conditional expectations, pinchings and the normal + nilpotent split."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specnest.decompose import (
    MONO_SLACK,
    _average,
    _block_means,
    _column_groups,
    _det_gap_rows,
    _flag_form,
    _level_rows,
    convergence_report,
    decompose,
    expectation_full,
    pinch_commutant,
)
from specnest.detbrown import (SpectralMeasure, _counting_measure, brown_density_grid,
                               fk_determinant, regularized_log_det)
from specnest.ensembles import (
    EnsembleSpec,
    Ginibre,
    Jordan,
    NormalPlusNilpotent,
    UpperTriangularRandom,
    generate,
)
from specnest.hsnest import build_nest, default_curve
from specnest.majorize import pinch_log_check, weyl_check
from specnest.matrices import (CLUSTER_TOL, ProjectionNest, as_operator, operator_norm,
                               spectrum_distance)

SHEAR = np.array([[1, 1], [0, 2]], dtype=complex)
SRC = Path(__file__).resolve().parents[1] / "src"


def block_means(res) -> np.ndarray:
    """N's spectrum in flag order: each cluster's mean, repeated by multiplicity."""
    return np.repeat([z for _, _, z in res.ordering], [m for _, m, _ in res.ordering])


def random_matrix(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)


def expectation_dyadic(T, nest: ProjectionNest, n: int) -> np.ndarray:
    """Dense reference: expectation onto the algebra of the level-n dyadic nest
    projections, each dyadic increment f carrying trace(f T f) / trace(f)."""
    T = as_operator(T)
    B = _flag_form(T, nest, operator_norm(T), _column_groups(nest))
    return _average(nest.basis, _block_means(np.diag(B), _column_groups(nest, n)))


class TestShearExample:
    def test_normal_part_spectrum(self):
        res = decompose(SHEAR)
        eigs = np.sort(np.linalg.eigvals(res.N).real)
        assert eigs == pytest.approx([1.0, 2.0], abs=1e-10)

    def test_nilpotent_part(self):
        # [DERIVED] Q is unitarily equivalent to [[0,1],[0,0]]: rank one,
        # square zero, norm one.
        res = decompose(SHEAR)
        Q = res.Q
        assert np.linalg.norm(Q @ Q, 2) < 1e-10
        assert operator_norm(Q) == pytest.approx(1.0, abs=1e-10)

    def test_diagnostics_are_tight(self):
        d = decompose(SHEAR).diagnostics
        assert d["reconstruction_error"] < 1e-12
        assert d["normality_defect"] < 1e-10
        assert d["spectrum_gap"] < 1e-10
        assert d["q_spectral_radius"] < 1e-10

    def test_ordering_follows_curve(self):
        res = decompose(SHEAR)
        ts = [t for t, _, _ in res.ordering]
        assert ts == sorted(ts)
        values = [z for _, _, z in res.ordering]
        assert sorted(v.real for v in values) == pytest.approx([1.0, 2.0], abs=1e-10)


class TestExpectations:
    def test_trace_preserved_at_every_level(self):
        T = random_matrix(31, 6)
        nest = build_nest(T, default_curve(T))
        for n in range(0, 8):
            P = pinch_commutant(T, nest, n)
            assert np.trace(P) / 6 == pytest.approx(np.trace(T) / 6, abs=1e-12)
        assert np.trace(expectation_full(T, nest)) / 6 == pytest.approx(
            np.trace(T) / 6, abs=1e-12
        )

    def test_full_expectation_fixes_its_own_output(self):
        T = random_matrix(32, 5)
        nest = build_nest(T, default_curve(T))
        N = expectation_full(T, nest)
        assert np.allclose(expectation_full(N, nest), N, atol=1e-10)

    def test_dyadic_saturates_to_full(self):
        # At level 40 every dyadic group holds one nest increment.
        T = random_matrix(33, 5)
        nest = build_nest(T, default_curve(T))
        assert np.array_equal(pinch_commutant(T, nest, 40), pinch_commutant(T, nest, None))

    def test_expectation_output_is_normal(self):
        T = random_matrix(34, 6)
        nest = build_nest(T, default_curve(T))
        E = expectation_full(T, nest)
        defect = np.linalg.norm(E @ E.conj().T - E.conj().T @ E, 2)
        assert defect < 1e-10 * max(1.0, operator_norm(E) ** 2)

    def test_full_expectation_scales_with_huge_input(self):
        T = random_matrix(38, 6)
        nest = build_nest(T, default_curve(T))
        E = expectation_full(T, nest)
        gap = np.linalg.norm(expectation_full(1e200 * T, nest) / 1e200 - E, 2)
        assert gap <= 1e-12 * operator_norm(E)

    def test_rejects_negative_level(self):
        with pytest.raises(ValueError, match="n must be >= 0"):
            convergence_report(random_matrix(35, 4), n_range=range(-1, 2))

    def test_rejects_non_invariant_nest(self):
        T = random_matrix(36, 4)
        other = random_matrix(37, 4)
        nest = build_nest(other, default_curve(other))
        with pytest.raises(ValueError):
            expectation_full(T, nest)


class TestPinching:
    def test_level_zero_pinch_is_identity_map(self):
        T = random_matrix(41, 5)
        nest = build_nest(T, default_curve(T))
        assert np.allclose(pinch_commutant(T, nest, 0), T, atol=1e-12)

    def test_full_pinch_keeps_diagonal_blocks_only(self):
        T = random_matrix(42, 5)
        nest = build_nest(T, default_curve(T))
        P = pinch_commutant(T, nest, None)
        B = nest.basis.conj().T @ P @ nest.basis
        # With 5 distinct eigenvalues every increment is 1-dimensional.
        assert np.linalg.norm(B - np.diag(np.diag(B)), 2) < 1e-10

    def test_pinch_preserves_trace(self):
        T = random_matrix(43, 6)
        nest = build_nest(T, default_curve(T))
        for n in (1, 3, None):
            P = pinch_commutant(T, nest, n)
            assert np.trace(P) / 6 == pytest.approx(np.trace(T) / 6, abs=1e-12)

    def test_pinch_is_norm_contraction(self):
        T = random_matrix(44, 6)
        nest = build_nest(T, default_curve(T))
        for n in (1, 2, None):
            assert operator_norm(pinch_commutant(T, nest, n)) <= operator_norm(T) + 1e-10

    def test_shear_pinch_factors_the_determinant(self):
        nest = ProjectionNest(np.eye(2), ((0.0, 0), (0.5, 1), (1.0, 2)))
        # [DERIVED] Delta of diag(1, 2) is 1^(1/2) * 2^(1/2) = sqrt(2).
        assert fk_determinant(pinch_commutant(SHEAR, nest, None)) == pytest.approx(
            np.sqrt(2), rel=1e-10)

    @settings(deadline=None, max_examples=20)
    @given(st.integers(0, 500), st.integers(1, 5))
    def test_triangular_pinch_keeps_the_determinant(self, seed, k):
        # Delta(T) = Delta(pTp)^tau(p) Delta(p'Tp')^tau(p') for the invariant p
        # onto the first k coordinates.
        n = 6
        rng = np.random.default_rng(seed)
        T = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        nest = ProjectionNest(np.eye(n), ((0.0, 0), (0.5, k), (1.0, n)))
        assert fk_determinant(pinch_commutant(T, nest, None)) == pytest.approx(
            fk_determinant(T), rel=1e-8)


class TestDecomposeInvariants:
    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 5000), st.integers(3, 8))
    def test_soundness_on_random_matrices(self, seed, n):
        T = random_matrix(seed, n)
        res = decompose(T)
        d = res.diagnostics
        normT = d["operator_norm"]
        assert d["reconstruction_error"] <= 1e-12 * normT
        assert d["normality_defect"] <= 1e-10 * (operator_norm(res.N) / normT) ** 2
        assert d["spectrum_gap"] <= 1e-8
        assert d["spectrum_gap"] == np.max(np.abs(res.eigenvalues - block_means(res)))
        assert d["strict_upper_defect"] <= 1e-8 * normT
        assert d["q_spectral_radius"] <= 1e-8 * normT
        # An independent solver's spectrum matches N's, the block means.
        assert spectrum_distance(np.linalg.eigvals(T), block_means(res)) <= 1e-8
        # N is the full expectation, and the ordering carries its block means.
        E = expectation_full(T, res.nest)
        assert np.array_equal(res.N, E)
        U = res.nest.basis
        diag = np.diag(U.conj().T @ E @ U)
        for (t, mult, z), (t_inc, lo, hi) in zip(res.ordering, res.nest.increments()):
            assert (t, mult) == (t_inc, hi - lo)
            assert abs(z - np.mean(diag[lo:hi])) <= 1e-12 * normT

    def test_spectrum_gap_on_real_input(self):
        # Conjugate pairs of a real T must be matched, not sorted, to N's spectrum.
        for seed in range(4):
            T = np.random.default_rng(seed).standard_normal((8, 8))
            res = decompose(T)
            assert res.diagnostics["spectrum_gap"] <= 1e-8
            assert spectrum_distance(np.linalg.eigvals(T), block_means(res)) <= 1e-8

    def test_decompose_takes_one_two_norm(self, singular_value_calls):
        # One ||T||_2 (a scipy SVD) for the default curve, the nest builder and
        # the diagnostics; the guards and residual diagnostics use nrm2.
        decompose(random_matrix(65, 8))
        assert singular_value_calls == [(8, 8)]

    def test_spectrum_is_the_flag_diagonal(self):
        T = random_matrix(66, 8)
        res = decompose(T)
        U = res.nest.basis
        assert np.array_equal(res.eigenvalues, np.diag(U.conj().T @ T @ U))
        gap = spectrum_distance(res.eigenvalues, np.linalg.eigvals(T))
        assert gap <= 1e-12 * operator_norm(T)

    def test_decompose_solves_no_eigvals(self, eigvals_calls):
        decompose(random_matrix(67, 8))
        assert eigvals_calls == []

    def test_decompose_calls_nothing_in_numpy_linalg(self, monkeypatch):
        # Its products and 2-norms run in scipy's BLAS/LAPACK, not numpy's.
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg called")

        T = generate(EnsembleSpec(Ginibre(8), seed=68))[0]
        for name in ("norm", "svd", "eigvals", "qr"):
            monkeypatch.setattr(np.linalg, name, refuse)
        decompose(T)

    def test_spectrum_gap_imports_no_assignment_solver(self):
        # Chained clusters, where an optimal matching of the spectra would
        # fall back to scipy.optimize; the gap is read slot by slot instead.
        code = ("import sys; import numpy as np; from specnest import decompose; "
                "res = decompose(np.diag(1 + np.array([0, 0.9, 1.8, 2.7, 3.8]) * 1e-10)); "
                "print(res.diagnostics['spectrum_gap'], 'scipy.optimize' in sys.modules)")
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": path}, check=True).stdout
        gap, imported = out.split()
        assert float(gap) == pytest.approx(1.35e-10, rel=1e-6)
        assert imported == "False"

    def test_nonzero_flag_diagonal_of_q_raises(self):
        # One chained cluster (steps 0.9 CLUSTER_TOL ||T||) whose ends lie
        # 1.15e-8 ||T|| from its mean: Q's flag diagonal exceeds 1e-8 ||T||.
        T = np.diag(1.0 + 0.9 * CLUSTER_TOL * np.arange(256)).astype(complex)
        with pytest.raises(ArithmeticError, match="flag diagonal"):
            decompose(T)

    def test_normal_input_has_zero_nilpotent_part(self):
        rng = np.random.default_rng(51)
        d = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        U, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
        T = U @ np.diag(d) @ U.conj().T
        res = decompose(T)
        assert operator_norm(res.Q) < 1e-9


def haar_unitary(n: int, seed: int) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Ginibre with R's phases removed."""
    rng = np.random.default_rng(seed)
    Q, R = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    d = np.diag(R)
    return Q * (d / np.abs(d))


def relative_contract_failures(T, res) -> list:
    """Criterion 1's contract on T / ||T||: the names of the parts that fail."""
    scale = np.linalg.norm(T, 2)
    Tn, N, Q = T / scale, res.N / scale, res.Q / scale
    U = res.nest.basis
    B = U.conj().T @ Q @ U
    checks = {
        "finite": np.all(np.isfinite(res.N)) and np.all(np.isfinite(res.Q)),
        "reconstruction": np.linalg.norm(Tn - (N + Q), 2) <= 1e-12,
        "normality": np.linalg.norm(N @ N.conj().T - N.conj().T @ N, 2) <= 1e-10,
        "unitarity": np.linalg.norm(U.conj().T @ U - np.eye(len(U)), 2) <= 1e-10,
        "flag_diagonal": np.max(np.abs(np.diag(B))) <= 1e-8,
        "flag_strict_lower": np.linalg.norm(np.tril(B, -1), "fro") <= 1e-8,
    }
    return [name for name, ok in checks.items() if not ok]


def batch_kinds(seed: int, n: int = 16) -> dict:
    """One matrix of each kind of the decompose batch benchmark."""
    mats = {name: generate(EnsembleSpec(kind, seed=seed))[0] for name, kind in [
        ("ginibre", Ginibre(n)),
        ("upper-triangular", UpperTriangularRandom(n)),
        ("normal-plus-nilpotent", NormalPlusNilpotent(n)),
        ("jordan", Jordan(0.3 - 0.4j, n)),
    ]}
    mats["jordan-perturbed"] = mats["jordan"].copy()
    mats["jordan-perturbed"][-1, 0] += 1e-12
    return mats


class TestScaling:
    @pytest.mark.parametrize("scale", [1e160, 1e200])
    def test_huge_ginibre_keeps_the_contract(self, scale):
        # N N* and a sum-of-squares norm overflowed here before any check ran.
        T = scale * generate(EnsembleSpec(Ginibre(16), seed=5))[0]
        res = decompose(T)
        assert relative_contract_failures(T, res) == []
        assert np.all(np.isfinite(list(res.diagnostics.values())))

    def test_batch_kinds_keep_the_contract_at_every_scale(self):
        failures = {}
        for scale in (1e-250, 1e-12, 1e12, 1e200):
            for name, T in batch_kinds(seed=11).items():
                failed = relative_contract_failures(scale * T, decompose(scale * T))
                if failed:
                    failures[f"{name}@{scale:g}"] = failed
        assert failures == {}

    def test_extreme_scales_keep_the_jump_times(self):
        # At 2**-1008 and 1e-307 a cell side 2R / 2**32 is subnormal, and
        # dividing by it moved jump times; at ||T||_2 = 1e308, coord + R overflowed.
        # At 1e-310 ||T||_2 is subnormal, and N / ||T||_2 overflowed (a
        # RuntimeWarning, an error under this suite's warning filter).
        U = generate(EnsembleSpec(UpperTriangularRandom(8), seed=3))[0]
        assert decompose(np.ldexp(1.0, -1008) * U).nest.jumps == decompose(U).nest.jumps
        G = generate(EnsembleSpec(Ginibre(8), seed=3))[0]
        for scaled in (1e-307 * G, 1e-310 * G, 1e308 / operator_norm(G) * G):
            assert decompose(scaled).nest.jumps == decompose(G).nest.jumps

    @pytest.mark.parametrize("call", [
        decompose, default_curve, lambda T: brown_density_grid(T, resolution=32)],
        ids=["decompose", "default_curve", "brown_density_grid"])
    def test_default_square_overflow_names_the_norm(self, call):
        # 1.25 * ||T||_2 is not a double at ||T||_2 = 1.44e308.
        G = generate(EnsembleSpec(Ginibre(8), seed=3))[0]
        with pytest.raises(OverflowError, match=r"1\.25 \* \|\|T\|\|_2 overflows"):
            call(1.44e308 / operator_norm(G) * G)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 2000), st.integers(3, 16), st.booleans(),
           st.floats(-250.0, 250.0))
    def test_decompose_commutes_with_scaling(self, seed, n, triangular, log_c):
        kind = UpperTriangularRandom(n) if triangular else Ginibre(n)
        T = generate(EnsembleSpec(kind, seed=seed))[0]
        c = 10.0**log_c
        res, scaled = decompose(T), decompose(c * T)
        tol = 1e-12 * operator_norm(T)
        assert np.linalg.norm(scaled.N / c - res.N, 2) <= tol
        assert np.linalg.norm(scaled.Q / c - res.Q, 2) <= tol
        assert [r for _, r in scaled.nest.jumps] == [r for _, r in res.nest.jumps]

    # Worst 6.0e-14 relative over 3,000 draws of this distribution.
    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 2000), st.integers(3, 16), st.booleans(), st.integers(0, 2000))
    def test_decompose_commutes_with_unitary_conjugation(self, seed, n, triangular, v_seed):
        kind = UpperTriangularRandom(n) if triangular else Ginibre(n)
        T = generate(EnsembleSpec(kind, seed=seed))[0]
        V = haar_unitary(n, v_seed)
        res, conj = decompose(T), decompose(V @ T @ V.conj().T)
        tol = 1e-12 * operator_norm(T)
        assert np.linalg.norm(conj.N - V @ res.N @ V.conj().T, 2) <= tol
        assert np.linalg.norm(conj.Q - V @ res.Q @ V.conj().T, 2) <= tol
        assert [r for _, r in conj.nest.jumps] == [r for _, r in res.nest.jumps]


class TestConvergenceReport:
    def test_all_checks_pass_on_random_matrix(self):
        report = convergence_report(random_matrix(61, 8))
        assert report.all_ok, report.failures()[:5]

    @pytest.mark.parametrize("n_range", [range(0), range(5, 2), []])
    def test_empty_n_range_raises(self, n_range):
        # No level would give no row, and an all-pass verdict on nothing.
        with pytest.raises(ValueError, match="n_range"):
            convergence_report(random_matrix(61, 4), n_range=n_range)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("spec, scale, match", [
        (EnsembleSpec(Ginibre(8), seed=3), 1e154, "log-determinant"),
        (EnsembleSpec(Jordan(0.0, 8)), 1e160, "pinch determinant"),
    ], ids=["ginibre-det-gap", "jordan-pinch-det"])
    def test_overflow_raises_instead_of_nan_rows(self, spec, scale, match):
        # Squared singular values overflow: an error, not failing NaN rows and
        # numpy overflow warnings. The Jordan block's eigenvalues are all 0, so
        # only its pinch determinants overflow.
        with pytest.raises(OverflowError, match=match):
            convergence_report(scale * generate(spec)[0])

    def test_takes_one_svd_per_pinch_level(self, singular_value_calls):
        # decompose's ||T||_2; the level and det_gap rows read the flag
        # diagonal, and only the 11 pinch levels take an SVD, shared by the 3 m.
        T = random_matrix(68, 8)
        convergence_report(T)
        assert singular_value_calls == [(8, 8)] * (1 + 11)
        singular_value_calls.clear()
        result = decompose(T)
        _level_rows(result, range(0, 11))
        _det_gap_rows(result, range(0, 11), (1.0, 0.1, 0.01), (0.0, 1.0 + 1.0j))
        assert singular_value_calls == [(8, 8)]

    def test_evaluates_each_potential_once(self, monkeypatch):
        # One regularized_potential per (lam, eps), shared by the 11 levels.
        original = SpectralMeasure.regularized_potential
        calls = []

        def counting(self, lam, eps):
            calls.append((lam, eps))
            return original(self, lam, eps)

        monkeypatch.setattr(SpectralMeasure, "regularized_potential", counting)
        report = convergence_report(random_matrix(68, 8))
        assert len(calls) == len(set(calls)) == 9
        assert sum(r.check == "det_gap" for r in report.rows) == 99

    def test_calls_nothing_in_numpy_linalg_without_pinch_rows(self, monkeypatch):
        # Every values-only SVD, the pinch levels' and the checks' included,
        # runs in scipy's LAPACK.
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg called")

        T = random_matrix(69, 8)
        for name in ("norm", "svd", "eigvals", "qr"):
            monkeypatch.setattr(np.linalg, name, refuse)
        report = convergence_report(T)
        weyl_check(T)
        t, _ = report.decomposition.nest.jumps[1]
        pinch_log_check(T, report.decomposition.nest.projection_at(t))

    def test_row_families_present(self):
        report = convergence_report(random_matrix(62, 6), n_range=range(0, 5))
        checks = {r.check for r in report.rows}
        assert checks == {"norm_gap", "remainder_radius", "det_gap", "pinch_det_monotone"}

    def test_det_gap_binds_only_at_finest_level(self):
        report = convergence_report(random_matrix(63, 6), n_range=range(0, 5))
        rows = [r for r in report.rows if r.check == "det_gap"]
        levels = [int(r.params.split(";")[0].removeprefix("n=")) for r in rows]
        assert all(np.isinf(r.bound) for r, n in zip(rows, levels) if n < 4)
        assert all(np.isfinite(r.bound) for r, n in zip(rows, levels) if n == 4)

    @pytest.mark.parametrize("T, peak_failures", [
        (random_matrix(64, 6), ()),
        (generate(EnsembleSpec(UpperTriangularRandom(8), seed=64))[0], ()),
        (generate(EnsembleSpec(NormalPlusNilpotent(8), seed=64))[0], ()),
        # Eigenvalues 0.024 apart on a circle still share level-10 groups, so
        # the det_gap rows at lam_peak with eps 0.1 and 0.01 fail.
        (generate(EnsembleSpec(Jordan(0.3 - 0.4j, 8)))[0] + 1e-12 * np.eye(8, k=-7),
         (0.1, 0.01)),
        # A cluster chained in steps of CLUSTER_TOL / 2: its block mean c
        # differs from the flag diagonal by 5e-11.
        (np.triu(random_matrix(65, 6), 1) + np.diag(np.r_[
            1 + np.array([0.0, 0.5, 1.0]) * CLUSTER_TOL, np.diag(random_matrix(65, 6))[3:]]),
         ()),
    ], ids=["ginibre6", "upper-triangular8", "normal-plus-nilpotent8", "jordan8-corner",
            "chained-cluster6"])
    def test_rows_match_dense_recomputation(self, T, peak_failures):
        # The report reads closed forms on the flag diagonal; the reference
        # forms E_n, the pinchings and their SVDs densely, family by family.
        report = convergence_report(T)
        res = decompose(T)
        assert report.decomposition.nest.jumps == res.nest.jumps
        assert np.array_equal(report.decomposition.nest.basis, res.nest.basis)
        curve = default_curve(T)
        measure = _counting_measure(res.eigenvalues, res.diagnostics["operator_norm"])
        lams = (0.0, 1.0 + 1.0j, max((z for z, _ in measure.atoms), key=abs))
        U = res.nest.basis
        rows = []
        for n in range(0, 11):
            En = expectation_dyadic(T, res.nest, n)
            bound = curve.modulus(2.0**-n)
            rad = np.max(np.abs(np.diag(U.conj().T @ (T - En) @ U)))
            rows.append(("norm_gap", f"n={n}", np.linalg.norm(En - res.N, 2), bound))
            rows.append(("remainder_radius", f"n={n}", rad, bound))
        for n in range(0, 11):
            En = expectation_dyadic(T, res.nest, n)
            for lam in lams:
                for eps in (1.0, 0.1, 0.01):
                    gap = abs(regularized_log_det(En, lam, eps)
                              - measure.regularized_potential(lam, eps))
                    rows.append(("det_gap", f"n={n};{complex(lam)};{eps}", gap,
                                 1e-3 if n == 10 else np.inf))
        pinches = [pinch_commutant(T, res.nest, n) for n in range(0, 11)]
        for m in (1, 10, 100):
            seq = [np.exp(regularized_log_det(P, 0.0, 1.0 / m)) for P in pinches]
            rows.extend(("pinch_det_monotone", f"n={n};{float(m)}", seq[n],
                         seq[n - 1] + MONO_SLACK * max(1.0, abs(seq[n - 1])))
                        for n in range(1, 11))
        assert [(r.check, r.params) for r in report.rows] == [row[:2] for row in rows]
        for field, i in (("value", 2), ("bound", 3)):
            assert [getattr(r, field) for r in report.rows] == pytest.approx(
                [row[i] for row in rows], rel=1e-12, abs=1e-13)
        assert [(r.check, r.params) for r in report.failures()] == [
            ("det_gap", f"n=10;{complex(lams[2])};{eps}") for eps in peak_failures]
