"""Conditional expectations onto nest algebras and the normal + nilpotent split.

The nest saturates at finitely many jumps, so the expectation onto the full
nest algebra is computed directly from the jump increments;
``convergence_report`` checks the dyadic approximants against explicit
curve-modulus bounds and the block pinchings for determinant monotonicity.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from .curve import HilbertCurveMap
from .detbrown import _counting_measure, _regularized_log_det
from .hsnest import build_nest
from .matrices import (ProjectionNest, as_operator, default_half_side, frobenius, gemm,
                       operator_norm, singular_values)

NEST_INVARIANCE_TOL = 1e-9
# Bound on Q's flag diagonal (its spectral radius) relative to ||T||_2.
Q_DIAGONAL_TOL = 1e-8
DET_TOL = 1e-3
MONO_SLACK = 1e-10


def _column_groups(nest: ProjectionNest, n: int | None = None) -> list:
    """Contiguous (lo, hi) column ranges of the flag.

    ``n = None`` gives one range per nest increment; otherwise increments are
    merged by the level-n dyadic interval (k/2^n, (k+1)/2^n] of their jump time.
    """
    if n is None:
        return [(lo, hi) for _, lo, hi in nest.increments()]
    if n < 0:
        raise ValueError("n must be >= 0")
    groups = []
    prev = None
    for t, lo, hi in nest.increments():
        k = min(max(math.ceil(t * (1 << n)) - 1, 0), (1 << n) - 1)
        if k == prev:
            groups[-1] = (groups[-1][0], hi)
        else:
            groups.append((lo, hi))
        prev = k
    return groups


def _block_means(diag: np.ndarray, groups: list) -> np.ndarray:
    """The flag diagonal ``diag`` with each column group replaced by its mean."""
    coeffs = np.empty_like(diag)
    for lo, hi in groups:
        coeffs[lo:hi] = np.mean(diag[lo:hi]) if hi - lo > 1 else diag[lo]
    return coeffs


def _flag_form(T: np.ndarray, nest: ProjectionNest, norm: float) -> np.ndarray:
    """T in the flag basis, after checking that the nest is T-invariant.

    The Frobenius norm of the part below the diagonal blocks bounds the
    2-norm of every block B[r:, :r] cut at a jump, so one norm checks them all
    against NEST_INVARIANCE_TOL * norm, where ``norm`` is ||T||_2.
    """
    U = nest.basis
    B = gemm(gemm(U, T, adj_a=True), U)
    sizes = [hi - lo for _, lo, hi in nest.increments()]
    block = np.repeat(np.arange(len(sizes)), sizes)
    leak = frobenius(B[block[:, None] > block[None, :]])
    if leak > NEST_INVARIANCE_TOL * norm:
        raise ValueError(f"nest is not invariant for T (leak {leak:.3e})")
    return B


def _average(U: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Expectation U diag(coeffs) U* from the block means of a flag form U*TU."""
    return gemm(U, coeffs[:, None] * U.conj().T)


def _pinch(B: np.ndarray, groups: list) -> np.ndarray:
    """Pinching in the flag basis: the diagonal blocks of the flag form B = U*TU."""
    P = np.zeros_like(B)
    for lo, hi in groups:
        P[lo:hi, lo:hi] = B[lo:hi, lo:hi]
    return P


def expectation_full(T, nest: ProjectionNest) -> np.ndarray:
    """Expectation onto the full nest algebra: per-increment block averages.

    In the matrix model the dyadic refinement saturates, so no limit is
    needed; the result is the normal part of T relative to this nest.
    """
    T = as_operator(T)
    B = _flag_form(T, nest, operator_norm(T))
    return _average(nest.basis, _block_means(np.diag(B), _column_groups(nest)))


def pinch_commutant(T, nest: ProjectionNest, n: int | None = None) -> np.ndarray:
    """Block-diagonal pinching sum f_k T f_k over the level-n dyadic increments.

    ``n = None`` means full refinement (one block per nest increment).
    """
    T = as_operator(T)
    P = _pinch(_flag_form(T, nest, operator_norm(T)), _column_groups(nest, n))
    return gemm(gemm(nest.basis, P), nest.basis, adj_b=True)


@dataclasses.dataclass(frozen=True)
class DecompositionResult:
    """T = N + Q with N normal (same spectrum as T) and Q nilpotent."""

    N: np.ndarray
    Q: np.ndarray
    nest: ProjectionNest
    ordering: tuple  # (hit time, multiplicity, cluster value) in flag order
    diagnostics: dict
    eigenvalues: np.ndarray  # Schur eigenvalues, diag of U*TU in nest order; not serialized


def decompose(T) -> DecompositionResult:
    """Split T into its curve-ordered normal part and nilpotent remainder.

    The nest follows ``hsnest.default_curve(T)``; other curves go through
    ``build_nest`` and ``expectation_full``. ||T||_2 serves that curve and every
    check. Residuals are Frobenius norms; the normality defect is that of
    N / ||T||_2, so it is relative to ||T||_2^2 and finite for every finite T.

    T's spectrum is the diagonal of the flag form B = U*TU: exact eigenvalues
    of T + E, ||E||_F bounded by ``strict_upper_defect``. ``spectrum_gap`` is
    their largest distance to the block means in the same flag slots (N's
    spectrum), the cluster spread.
    Raises ArithmeticError when Q's flag diagonal exceeds Q_DIAGONAL_TOL * ||T||_2.
    """
    T = as_operator(T)
    normT = operator_norm(T)
    nest = build_nest(T, HilbertCurveMap(half_side=default_half_side(normT)))
    U = nest.basis
    B = _flag_form(T, nest, normT)
    eigs = np.diag(B).copy()
    coeffs = _block_means(eigs, _column_groups(nest))
    N = _average(U, coeffs)
    Q = T - N
    ordering = tuple((t, hi - lo, complex(coeffs[lo]))
                     for t, lo, hi in nest.increments())

    BQ = gemm(gemm(U, Q, adj_a=True), U)
    # Q is upper triangular in the flag basis, so its eigenvalues are the
    # diagonal there; a dense eigensolver on the defective Q is meaningless.
    q_radius = float(np.max(np.abs(np.diag(BQ))))
    if q_radius > Q_DIAGONAL_TOL * normT:
        raise ArithmeticError(f"Q's flag diagonal is not zero (|Q diag| {q_radius:.3e})")
    Ns = N / (normT or 1.0)
    diagnostics = {
        "reconstruction_error": frobenius(T - (N + Q)),
        "normality_defect": frobenius(gemm(Ns, Ns, adj_b=True) - gemm(Ns, Ns, adj_a=True)),
        # N is diagonal in the flag basis: its spectrum is the block means.
        "spectrum_gap": float(np.max(np.abs(eigs - coeffs))),
        "strict_upper_defect": frobenius(np.tril(BQ)),
        "q_spectral_radius": q_radius,
        "operator_norm": normT,
    }
    return DecompositionResult(N=N, Q=Q, nest=nest, ordering=ordering,
                               diagnostics=diagnostics, eigenvalues=eigs)


@dataclasses.dataclass(frozen=True)
class ConvergenceRow:
    check: str
    n: int
    params: tuple
    value: float
    bound: float
    ok: bool


@dataclasses.dataclass(frozen=True)
class ConvergenceReport:
    rows: tuple
    decomposition: DecompositionResult

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.rows)

    def failures(self) -> list:
        return [r for r in self.rows if not r.ok]


def convergence_report(
    T,
    n_range=range(0, 11),
    eps_list=(1.0, 0.1, 0.01),
    lam_list=None,
    m_list=(1, 10, 100),
) -> ConvergenceReport:
    """Dyadic-refinement diagnostics for the decomposition of T.

    Emits per n: the norm gap to the full expectation against the curve
    modulus bound; the regularized log-determinant gap to the integral
    against the exact eigenvalue measure (a limit: it binds at the finest n
    only); the pinching-determinant monotonicity sequence per m; and the
    remainder's spectral radius against the modulus bound (``decompose``'s curve).

    With c_n, c the level-n and full block means of the flag diagonal eigs,
    E_n = U diag(c_n) U* and N = U diag(c) U*: ||E_n - N||_2 = max|c_n - c|,
    T - E_n (triangular in U) has spectrum eigs - c_n and E_n - lam singular
    values |c_n - lam|. Only the pinch rows take the flag form (once) and
    SVDs (one per level, shared by every m). Raises OverflowError when a
    det_gap side or a pinch determinant is not finite.
    """
    if not n_range:
        raise ValueError("n_range must not be empty")
    T = as_operator(T)
    result = decompose(T)
    normT = result.diagnostics["operator_norm"]
    curve = HilbertCurveMap(half_side=default_half_side(normT))
    nest = result.nest
    eigs = result.eigenvalues
    c = _block_means(eigs, _column_groups(nest))
    measure = _counting_measure(eigs, normT)
    if lam_list is None:
        lam_peak = max((z for z, _ in measure.atoms), key=abs)
        lam_list = (0.0, 1.0 + 1.0j, lam_peak)

    rows = []
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        potentials = [[measure.regularized_potential(lam, eps) for eps in eps_list]
                      for lam in lam_list]
        for n in n_range:
            cn = _block_means(eigs, _column_groups(nest, n))
            bound = curve.modulus(2.0**-n)
            gap = float(np.max(np.abs(cn - c)))
            rows.append(ConvergenceRow("norm_gap", n, (), gap, bound, gap <= bound))
            rad = float(np.max(np.abs(eigs - cn)))
            rows.append(ConvergenceRow("remainder_radius", n, (), rad, bound, rad <= bound))
            bound_det = DET_TOL if n == max(n_range) else math.inf
            for lam, rhs_row in zip(lam_list, potentials):
                for eps, rhs in zip(eps_list, rhs_row):
                    lhs = _regularized_log_det(np.abs(cn - lam), eps)
                    if not math.isfinite(lhs) or not math.isfinite(rhs):
                        raise OverflowError(
                            f"regularized log-determinant is not finite (|T| = {normT:.3g})")
                    gap_det = abs(lhs - rhs)
                    rows.append(
                        ConvergenceRow(
                            "det_gap", n, (complex(lam), float(eps)), gap_det,
                            bound_det, gap_det <= bound_det,
                        )
                    )
        pinch_svs = []
        if m_list:
            B = _flag_form(T, nest, normT)
            pinch_svs = [singular_values(_pinch(B, _column_groups(nest, n))) for n in n_range]
        seqs = [[np.exp(_regularized_log_det(sv, 1.0 / m)) for sv in pinch_svs]
                for m in m_list]
    if not np.all(np.isfinite(seqs)):
        raise OverflowError(f"pinch determinant is not finite (|T| = {normT:.3g})")
    for m, seq in zip(m_list, seqs):
        for n, prev, cur in zip(list(n_range)[1:], seq, seq[1:]):
            rows.append(
                ConvergenceRow(
                    "pinch_det_monotone", n, (float(m),), float(cur), float(prev),
                    prev - cur >= -MONO_SLACK * max(1.0, abs(prev)),
                )
            )
    return ConvergenceReport(tuple(rows), result)
