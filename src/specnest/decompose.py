"""Conditional expectations onto nest algebras and the normal + nilpotent split.

The nest saturates at finitely many jumps, so the expectation onto the full
nest algebra is computed directly from the jump increments; the dyadic
expectations and block pinchings exist as testable approximants with explicit
curve-modulus bounds.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import scipy.linalg

from .curve import HilbertCurveMap
from .detbrown import brown_measure_exact, regularized_log_det
from .hsnest import build_nest, default_curve
from .matrices import ProjectionNest, as_operator, operator_norm

NEST_INVARIANCE_TOL = 1e-9


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


def _block_means(B: np.ndarray, groups: list) -> np.ndarray:
    """Diagonal of B with each column group replaced by its mean."""
    diag = np.diag(B)
    coeffs = np.empty_like(diag)
    for lo, hi in groups:
        coeffs[lo:hi] = np.mean(diag[lo:hi])
    return coeffs


def _flag_form(T: np.ndarray, nest: ProjectionNest, norm: float) -> np.ndarray:
    """T in the flag basis, after checking that the nest is T-invariant.

    The Frobenius norm of the part below the diagonal blocks bounds the
    2-norm of every block B[r:, :r] cut at a jump, so one norm checks them all;
    BLAS ``nrm2`` scales, so it stays finite for huge T. ``norm`` is ||T||_2.
    """
    U = nest.basis
    B = U.conj().T @ T @ U
    sizes = [hi - lo for _, lo, hi in nest.increments()]
    block = np.repeat(np.arange(len(sizes)), sizes)
    leak = float(scipy.linalg.norm(B[block[:, None] > block[None, :]]))
    if leak > NEST_INVARIANCE_TOL * max(norm, 1e-300):
        raise ValueError(f"nest is not invariant for T (leak {leak:.3e})")
    return B


def _expectation(T, nest: ProjectionNest, n: int | None) -> np.ndarray:
    T = as_operator(T)
    B = _flag_form(T, nest, operator_norm(T))
    coeffs = _block_means(B, _column_groups(nest, n))
    U = nest.basis
    return U @ (coeffs[:, None] * U.conj().T)


def expectation_dyadic(T, nest: ProjectionNest, n: int) -> np.ndarray:
    """Expectation onto the algebra of the level-n dyadic nest projections.

    Each dyadic increment f carries the block-average coefficient
    trace(f T f) / trace(f); the result is a normal matrix, diagonal in the
    flag basis and constant on each dyadic group.
    """
    return _expectation(T, nest, n)


def expectation_full(T, nest: ProjectionNest) -> np.ndarray:
    """Expectation onto the full nest algebra: per-increment block averages.

    In the matrix model the dyadic refinement saturates, so no limit is
    needed; the result is the normal part of T relative to this nest.
    """
    return _expectation(T, nest, None)


def pinch_commutant(T, nest: ProjectionNest, n: int | None = None) -> np.ndarray:
    """Block-diagonal pinching sum f_k T f_k over the level-n dyadic increments.

    ``n = None`` means full refinement (one block per nest increment).
    """
    T = as_operator(T)
    B = _flag_form(T, nest, operator_norm(T))
    P = np.zeros_like(B)
    for lo, hi in _column_groups(nest, n):
        P[lo:hi, lo:hi] = B[lo:hi, lo:hi]
    U = nest.basis
    return U @ P @ U.conj().T


@dataclasses.dataclass(frozen=True)
class DecompositionResult:
    """T = N + Q with N normal (same spectrum as T) and Q nilpotent."""

    N: np.ndarray
    Q: np.ndarray
    nest: ProjectionNest
    ordering: tuple  # (hit time, multiplicity, cluster value) in flag order
    diagnostics: dict

    @property
    def T(self) -> np.ndarray:
        return self.N + self.Q


def decompose(T, curve: HilbertCurveMap | None = None) -> DecompositionResult:
    """Split T into its curve-ordered normal part and nilpotent remainder."""
    T = as_operator(T)
    if curve is None:
        curve = default_curve(T)
    nest = build_nest(T, curve)
    U = nest.basis
    normT = max(operator_norm(T), 1e-300)
    B = _flag_form(T, nest, normT)
    coeffs = _block_means(B, _column_groups(nest))
    N = U @ (coeffs[:, None] * U.conj().T)
    Q = T - N
    ordering = tuple((t, hi - lo, complex(coeffs[lo]))
                     for t, lo, hi in nest.increments())

    BQ = U.conj().T @ Q @ U
    strict_lower = np.linalg.norm(np.tril(BQ), "fro")
    # Q is upper triangular in the flag basis, so its eigenvalues are the
    # diagonal there; a dense eigensolver on the defective Q is meaningless.
    q_radius = float(np.max(np.abs(np.diag(BQ))))
    # N is diagonal in the flag basis: its spectrum is the block means.
    eigs_T = np.sort_complex(np.linalg.eigvals(T))
    eigs_N = np.sort_complex(coeffs)
    diagnostics = {
        "reconstruction_error": float(np.linalg.norm(T - (N + Q), 2)),
        "normality_defect": float(
            np.linalg.norm(N @ N.conj().T - N.conj().T @ N, 2)
        ),
        "spectrum_gap": float(np.max(np.abs(eigs_T - eigs_N))),
        "strict_upper_defect": float(strict_lower),
        "q_spectral_radius": q_radius,
        "operator_norm": float(normT),
    }
    return DecompositionResult(N=N, Q=Q, nest=nest, ordering=ordering,
                               diagnostics=diagnostics)


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

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.rows)

    def failures(self) -> list:
        return [r for r in self.rows if not r.ok]


def convergence_report(
    T,
    curve: HilbertCurveMap | None = None,
    n_range=range(0, 11),
    eps_list=(1.0, 0.1, 0.01),
    lam_list=None,
    m_list=(1, 10, 100),
    det_tol: float = 1e-3,
    mono_slack: float = 1e-10,
) -> ConvergenceReport:
    """Dyadic-refinement diagnostics for the decomposition of T.

    Emits per n: the norm gap to the full expectation against the curve
    modulus bound; the regularized log-determinant gap to the integral
    against the exact eigenvalue measure; the pinching-determinant
    monotonicity sequence per m; and the spectral radius of the remainder
    against the modulus bound.
    """
    T = as_operator(T)
    if curve is None:
        curve = default_curve(T)
    result = decompose(T, curve)
    nest = result.nest
    N = result.N
    measure = brown_measure_exact(T)
    if lam_list is None:
        eigs = np.linalg.eigvals(T)
        lam_peak = complex(eigs[np.argmax(np.abs(eigs))])
        lam_list = (0.0, 1.0 + 1.0j, lam_peak)

    rows = []
    dyadic = {n: expectation_dyadic(T, nest, n) for n in n_range}
    for n in n_range:
        bound = curve.modulus(2.0**-n)
        gap = float(np.linalg.norm(dyadic[n] - N, 2))
        rows.append(ConvergenceRow("norm_gap", n, (), gap, bound, gap <= bound))
        # T - E_n is upper triangular in the flag basis; read its spectrum off
        # the diagonal there (stable, unlike eigvals of a defective matrix).
        Bn = nest.basis.conj().T @ (T - dyadic[n]) @ nest.basis
        rad = float(np.max(np.abs(np.diag(Bn))))
        rows.append(ConvergenceRow("remainder_radius", n, (), rad, bound, rad <= bound))
        # The determinant gap is a limit statement: the tolerance binds only
        # at the finest refinement in range; coarser rows are informational.
        final = n == max(n_range)
        for lam in lam_list:
            for eps in eps_list:
                lhs = regularized_log_det(dyadic[n], lam, eps)
                rhs = measure.regularized_potential(lam, eps)
                gap_det = abs(lhs - rhs)
                bound_det = det_tol if final else math.inf
                rows.append(
                    ConvergenceRow(
                        "det_gap", n, (complex(lam), float(eps)), gap_det,
                        bound_det, gap_det <= bound_det,
                    )
                )
    pinches = [pinch_commutant(T, nest, n) for n in n_range]
    for m in m_list:
        seq = [np.exp(regularized_log_det(P, 0.0, 1.0 / m)) for P in pinches]
        for i, n in enumerate(n_range):
            if i == 0:
                continue
            drop = seq[i - 1] - seq[i]
            rows.append(
                ConvergenceRow(
                    "pinch_det_monotone", n, (float(m),), float(seq[i]),
                    float(seq[i - 1]), drop >= -mono_slack * max(1.0, abs(seq[i - 1])),
                )
            )
    return ConvergenceReport(tuple(rows))
