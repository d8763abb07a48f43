"""Conditional expectations, pinchings and the normal + nilpotent split."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specnest.decompose import (
    convergence_report,
    decompose,
    expectation_dyadic,
    expectation_full,
    pinch_commutant,
)
from specnest.detbrown import brown_measure_exact, regularized_log_det
from specnest.ensembles import (
    EnsembleSpec,
    Ginibre,
    Jordan,
    NormalPlusNilpotent,
    UpperTriangularRandom,
    generate,
)
from specnest.hsnest import build_nest, default_curve
from specnest.matrices import normalized_trace, operator_norm

SHEAR = np.array([[1, 1], [0, 2]], dtype=complex)


def random_matrix(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)


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
            En = expectation_dyadic(T, nest, n)
            assert normalized_trace(En) == pytest.approx(normalized_trace(T), abs=1e-12)
        assert normalized_trace(expectation_full(T, nest)) == pytest.approx(
            normalized_trace(T), abs=1e-12
        )

    def test_full_expectation_fixes_its_own_output(self):
        T = random_matrix(32, 5)
        nest = build_nest(T, default_curve(T))
        N = expectation_full(T, nest)
        assert np.allclose(expectation_full(N, nest), N, atol=1e-10)

    def test_dyadic_saturates_to_full(self):
        T = random_matrix(33, 5)
        nest = build_nest(T, default_curve(T))
        N = expectation_full(T, nest)
        deep = expectation_dyadic(T, nest, 40)
        assert np.allclose(deep, N, atol=1e-10)

    def test_expectation_output_is_normal(self):
        T = random_matrix(34, 6)
        nest = build_nest(T, default_curve(T))
        E = expectation_dyadic(T, nest, 3)
        defect = np.linalg.norm(E @ E.conj().T - E.conj().T @ E, 2)
        assert defect < 1e-10 * max(1.0, operator_norm(E) ** 2)

    def test_full_expectation_scales_with_huge_input(self):
        T = random_matrix(38, 6)
        nest = build_nest(T, default_curve(T))
        E = expectation_full(T, nest)
        gap = np.linalg.norm(expectation_full(1e200 * T, nest) / 1e200 - E, 2)
        assert gap <= 1e-12 * operator_norm(E)

    def test_rejects_negative_level(self):
        T = random_matrix(35, 4)
        nest = build_nest(T, default_curve(T))
        with pytest.raises(ValueError):
            expectation_dyadic(T, nest, -1)

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
            assert normalized_trace(P) == pytest.approx(normalized_trace(T), abs=1e-12)

    def test_pinch_is_norm_contraction(self):
        T = random_matrix(44, 6)
        nest = build_nest(T, default_curve(T))
        for n in (1, 2, None):
            assert operator_norm(pinch_commutant(T, nest, n)) <= operator_norm(T) + 1e-10


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
        assert d["strict_upper_defect"] <= 1e-8 * normT
        assert d["q_spectral_radius"] <= 1e-8 * normT
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
            assert decompose(T).diagnostics["spectrum_gap"] <= 1e-8

    def test_decompose_takes_two_two_norms(self, two_norm_calls):
        # One ||T||_2 for the default curve and the diagnostics, one inside
        # build_nest; the guards and residual diagnostics use nrm2.
        decompose(random_matrix(65, 8))
        assert two_norm_calls == [(8, 8), (8, 8)]

    def test_keeps_the_spectrum_it_solved(self):
        T = random_matrix(66, 8)
        res = decompose(T)
        assert np.array_equal(res.eigenvalues, np.linalg.eigvals(T))

    def test_normal_input_has_zero_nilpotent_part(self):
        rng = np.random.default_rng(51)
        d = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        U, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
        T = U @ np.diag(d) @ U.conj().T
        res = decompose(T)
        assert operator_norm(res.Q) < 1e-9


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


class TestConvergenceReport:
    def test_all_checks_pass_on_random_matrix(self):
        report = convergence_report(random_matrix(61, 8))
        assert report.all_ok, report.failures()[:5]

    def test_row_families_present(self):
        report = convergence_report(random_matrix(62, 6), n_range=range(0, 5))
        checks = {r.check for r in report.rows}
        assert checks == {"norm_gap", "remainder_radius", "det_gap", "pinch_det_monotone"}

    def test_det_gap_binds_only_at_finest_level(self):
        report = convergence_report(random_matrix(63, 6), n_range=range(0, 5))
        rows = [r for r in report.rows if r.check == "det_gap"]
        assert all(np.isinf(r.bound) for r in rows if r.n < 4)
        assert all(np.isfinite(r.bound) for r in rows if r.n == 4)

    def test_rows_match_dense_recomputation(self):
        T = random_matrix(64, 6)
        report = convergence_report(T)
        res = decompose(T)
        assert report.decomposition.nest.jumps == res.nest.jumps
        assert np.array_equal(report.decomposition.nest.basis, res.nest.basis)
        curve = default_curve(T)
        measure = brown_measure_exact(T)
        eigs = np.linalg.eigvals(T)
        lams = (0.0, 1.0 + 1.0j, complex(eigs[np.argmax(np.abs(eigs))]))
        U = res.nest.basis
        rows = []
        for n in range(0, 11):
            En = expectation_dyadic(T, res.nest, n)
            bound = curve.modulus(2.0**-n)
            rad = np.max(np.abs(np.diag(U.conj().T @ (T - En) @ U)))
            rows.append(("norm_gap", n, (), np.linalg.norm(En - res.N, 2), bound))
            rows.append(("remainder_radius", n, (), rad, bound))
            for lam in lams:
                for eps in (1.0, 0.1, 0.01):
                    gap = abs(regularized_log_det(En, lam, eps)
                              - measure.regularized_potential(lam, eps))
                    rows.append(("det_gap", n, (lam, eps), gap,
                                 1e-3 if n == 10 else np.inf))
        pinches = [pinch_commutant(T, res.nest, n) for n in range(0, 11)]
        for m in (1, 10, 100):
            seq = [np.exp(regularized_log_det(P, 0.0, 1.0 / m)) for P in pinches]
            rows.extend(("pinch_det_monotone", n, (float(m),), seq[n], seq[n - 1])
                        for n in range(1, 11))
        assert [(r.check, r.n, r.params, r.value, r.bound) for r in report.rows] == rows
        assert report.all_ok
