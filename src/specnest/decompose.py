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
from .detbrown import SpectralMeasure, _regularized_log_det
from .hsnest import _build_nest
from .matrices import (ProjectionNest, _singular_values, as_operator, default_half_side,
                       frobenius, gemm, singular_values)

NEST_INVARIANCE_TOL = 1e-9
# Bound on Q's flag diagonal (its spectral radius) relative to ||T||_2.
Q_DIAGONAL_TOL = 1e-8
DET_TOL = 1e-3
MONO_SLACK = 1e-10
# The pinch determinants' regularizations eps = 1/m.
PINCH_M = (1, 10, 100)


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
        # k = ceil(t 2^n) - 1 in exact integers (t 2^n overflows a double from
        # n = 1024 on); jump times after the first lie in (0, 1], so 0 <= k < 2^n.
        num, den = t.as_integer_ratio()
        k = -(-(num << n) // den) - 1
        if k == prev:
            groups[-1] = (groups[-1][0], hi)
        else:
            groups.append((lo, hi))
        prev = k
    return groups


def _block_means(diag: np.ndarray, groups: list) -> np.ndarray:
    """The flag diagonal ``diag`` with each column group replaced by its mean."""
    coeffs = diag.copy()
    for lo, hi in groups:
        if hi - lo > 1:
            coeffs[lo:hi] = np.mean(diag[lo:hi])
    return coeffs


def _check_invariance(B: np.ndarray, norm: float, groups: list) -> None:
    """Raise ValueError unless the nest is T-invariant, read off T's flag form B = U*TU.

    ``groups`` are the nest increments' column ranges (``_column_groups(nest)``).
    The Frobenius norm of the part below the diagonal blocks bounds the
    2-norm of every block B[r:, :r] cut at a jump, so one norm checks them all
    against NEST_INVARIANCE_TOL * norm, where ``norm`` is ||T||_2. It is at most
    ``reorder_schur``'s residual ||B - R||_F, R the upper-triangular Schur factor.
    """
    block = np.repeat(np.arange(len(groups)), [hi - lo for lo, hi in groups])
    leak = frobenius(B[block[:, None] > block[None, :]])
    if leak > NEST_INVARIANCE_TOL * norm:
        raise ValueError(f"nest is not invariant for T (leak {leak:.3e})")


def _average(U: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Expectation U diag(coeffs) U* from the block means of a flag form U*TU."""
    return gemm(U, coeffs[:, None] * U.conj().T)


def _pinch(B: np.ndarray, groups: list) -> np.ndarray:
    """Pinching in the flag basis: the diagonal blocks of the flag form B = U*TU."""
    P = np.zeros_like(B)
    for lo, hi in groups:
        P[lo:hi, lo:hi] = B[lo:hi, lo:hi]
    return P


@dataclasses.dataclass(frozen=True)
class DecompositionResult:
    """T = N + Q with N normal (same spectrum as T) and Q nilpotent."""

    N: np.ndarray
    Q: np.ndarray
    nest: ProjectionNest
    ordering: tuple  # (hit time, multiplicity, cluster value) in flag order
    diagnostics: dict
    flag_form: np.ndarray  # U*TU in the nest basis U, checked by decompose; not serialized
    curve: HilbertCurveMap  # the curve the nest follows; not serialized

    @property
    def eigenvalues(self) -> np.ndarray:
        """T's Schur eigenvalues in nest order, the flag form's diagonal (read-only)."""
        return self.flag_form.diagonal()


def decompose(T) -> DecompositionResult:
    """Split T into its curve-ordered normal part and nilpotent remainder.

    The one entry point to a nest and its N: the nest follows ``curve``, the
    Hilbert curve on [-R, R]^2, R = 1.25 ||T||_2 (``default_half_side``); a
    pinching reads ``flag_form``. One ||T||_2 serves that curve, the nest
    builder (its clustering scale and reordering check) and every check here.
    Residuals are Frobenius norms; the normality defect is that of N / ||T||_2,
    so it is relative to ||T||_2^2 and finite for every finite T.

    T's spectrum is the diagonal of the flag form B = U*TU: exact eigenvalues
    of T + E, ||E||_F bounded by ``strict_upper_defect``. ``spectrum_gap`` is
    their largest distance to the block means in the same flag slots (N's
    spectrum), the cluster spread.
    Raises ArithmeticError when Q's flag diagonal exceeds Q_DIAGONAL_TOL * ||T||_2.
    """
    T = as_operator(T)
    normT = float(_singular_values(T)[0])
    curve = HilbertCurveMap(half_side=default_half_side(normT))
    nest, B = _build_nest(T, curve, normT)
    U = nest.basis
    increments = nest.increments()
    groups = [(lo, hi) for _, lo, hi in increments]
    _check_invariance(B, normT, groups)
    coeffs = _block_means(B.diagonal(), groups)
    N = _average(U, coeffs)
    Q = T - N
    means = coeffs.tolist()
    ordering = tuple((t, hi - lo, means[lo]) for t, lo, hi in increments)

    BQ = gemm(gemm(U, Q, adj_a=True), U)
    # Q is upper triangular in the flag basis, so its eigenvalues are the
    # diagonal there; a dense eigensolver on the defective Q is meaningless.
    q_radius = float(np.abs(BQ.diagonal()).max())
    if q_radius > Q_DIAGONAL_TOL * normT:
        raise ArithmeticError(f"Q's flag diagonal is not zero (|Q diag| {q_radius:.3e})")
    # N / ||T||_2 through the binary exponent of ||T||_2: exact where the plain
    # quotient is, and finite when ||T||_2 is subnormal.
    mant, e = math.frexp(normT or 1.0)
    Ns = np.ldexp(N.view(float), -e).view(complex) / mant
    slots = np.arange(len(T))
    diagnostics = {
        "reconstruction_error": frobenius(T - (N + Q)),
        "normality_defect": frobenius(gemm(Ns, Ns, adj_b=True) - gemm(Ns, Ns, adj_a=True)),
        # N is diagonal in the flag basis: its spectrum is the block means.
        "spectrum_gap": float(np.max(np.abs(B.diagonal() - coeffs))),
        "strict_upper_defect": frobenius(BQ[slots[:, None] >= slots]),  # BQ's lower triangle
        "q_spectral_radius": q_radius,
        "operator_norm": normT,
    }
    return DecompositionResult(N=N, Q=Q, nest=nest, ordering=ordering,
                               diagnostics=diagnostics, flag_form=B, curve=curve)


@dataclasses.dataclass(frozen=True)
class CheckRow:
    """One checked instance of an inequality: it passes iff value <= bound.

    The check's tolerance is inside ``bound``, so ``margin`` = bound - value
    is >= 0 exactly on the passing rows.
    """

    check: str
    params: str
    value: float
    bound: float

    @property
    def ok(self) -> bool:
        return bool(self.value <= self.bound)

    @property
    def margin(self) -> float:
        return self.bound - self.value

    def __bool__(self) -> bool:
        return self.ok


@dataclasses.dataclass(frozen=True)
class Report:
    """Check rows; the report passes when every row does."""

    rows: tuple

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.rows)

    def failures(self) -> list:
        return [r for r in self.rows if not r.ok]


def _levels(n_range) -> list:
    """``n_range`` as a list; ValueError unless it holds strictly increasing integers >= 0."""
    levels = list(n_range)
    if (not levels
            or any(isinstance(n, bool) or not isinstance(n, (int, np.integer)) for n in levels)
            or levels[0] < 0 or any(a >= b for a, b in zip(levels, levels[1:]))):
        raise ValueError(
            f"n_range must be non-empty, strictly increasing integers >= 0, got {n_range!r}")
    return [int(n) for n in levels]


def _means(result: DecompositionResult, n: int | None) -> np.ndarray:
    """The level-n block means c_n of the flag diagonal; ``n = None``: the full ones."""
    return _block_means(result.eigenvalues, _column_groups(result.nest, n))


def _measure(result: DecompositionResult) -> SpectralMeasure:
    """T's eigenvalue counting measure from the nest's clusters: each cluster's
    mean with weight multiplicity / n, sorted by (Re, Im)."""
    n = len(result.eigenvalues)
    return SpectralMeasure(tuple(sorted(((z, m / n) for _, m, z in result.ordering),
                                        key=lambda a: (a[0].real, a[0].imag))))


def _level_rows(result: DecompositionResult, n_range) -> list:
    """Per n: ||E_n - N||_2 and the spectral radius of T - E_n against the
    modulus bound of the decomposition's curve."""
    c = _means(result, None)
    rows = []
    for n in n_range:
        cn = _means(result, n)
        bound = result.curve.modulus(2.0**-n)
        rows.append(CheckRow("norm_gap", f"n={n}", float(np.max(np.abs(cn - c))), bound))
        rows.append(CheckRow("remainder_radius", f"n={n}",
                             float(np.max(np.abs(result.eigenvalues - cn))), bound))
    return rows


def _det_gap_rows(result: DecompositionResult, n_range, eps_list, lam_list) -> list:
    """Per n, lam and eps: the regularized log-determinant of E_n - lam against
    its integral over the exact eigenvalue measure. The gap is a limit, so it
    binds (DET_TOL) at the finest n only. Raises OverflowError when a side is
    not finite."""
    normT = result.diagnostics["operator_norm"]
    measure = _measure(result)
    rows = []
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        potentials = [[measure.regularized_potential(lam, eps) for eps in eps_list]
                      for lam in lam_list]
        for n in n_range:
            cn = _means(result, n)
            bound = DET_TOL if n == max(n_range) else math.inf
            for lam, rhs_row in zip(lam_list, potentials):
                for eps, rhs in zip(eps_list, rhs_row):
                    lhs = _regularized_log_det(np.abs(cn - lam), eps)
                    if not math.isfinite(lhs) or not math.isfinite(rhs):
                        raise OverflowError(
                            f"regularized log-determinant is not finite (|T| = {normT:.3g})")
                    rows.append(CheckRow("det_gap", f"n={n};{complex(lam)};{float(eps)}",
                                         abs(lhs - rhs), bound))
    return rows


def _pinch_rows(result: DecompositionResult, n_range) -> list:
    """Per m in PINCH_M and n after the first: the regularized determinant of
    the flag form's level-n pinching at eps = 1/m against that of the level
    before plus MONO_SLACK. One SVD per level, shared by every m. Raises
    OverflowError when a determinant is not finite."""
    normT = result.diagnostics["operator_norm"]
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        svs = [singular_values(_pinch(result.flag_form, _column_groups(result.nest, n)))
               for n in n_range]
        seqs = [[np.exp(_regularized_log_det(sv, 1.0 / m)) for sv in svs] for m in PINCH_M]
    if not np.all(np.isfinite(seqs)):
        raise OverflowError(f"pinch determinant is not finite (|T| = {normT:.3g})")
    return [CheckRow("pinch_det_monotone", f"n={n};{float(m)}", float(cur),
                     float(prev + MONO_SLACK * max(1.0, abs(prev))))
            for m, seq in zip(PINCH_M, seqs)
            for n, prev, cur in zip(n_range[1:], seq, seq[1:])]


def convergence_report(result: DecompositionResult, n_range=range(0, 11)) -> Report:
    """Dyadic-refinement diagnostics for a decomposition of T, by family.

    The level rows (``norm_gap``, ``remainder_radius``) per n; the ``det_gap``
    rows per n at lam in {0, 1 + i, the largest-modulus eigenvalue} and eps in
    {1, 0.1, 0.01}; the ``pinch_det_monotone`` rows per m in PINCH_M.
    ``n_range`` must be strictly increasing non-negative integers.

    With c_n, c the level-n and full block means of the flag diagonal eigs,
    E_n = U diag(c_n) U* and N = U diag(c) U*: ||E_n - N||_2 = max|c_n - c|,
    T - E_n (triangular in U) has spectrum eigs - c_n and E_n - lam singular
    values |c_n - lam|. Only the pinch rows take SVDs of the pinched flag form
    (one per level, shared by every m). Raises OverflowError when a det_gap
    side or a pinch determinant is not finite.
    """
    if not isinstance(result, DecompositionResult):
        raise TypeError(f"convergence_report takes a DecompositionResult, not {type(result)}")
    levels = _levels(n_range)
    lam_peak = max((z for z, _ in _measure(result).atoms), key=abs)
    rows = (_level_rows(result, levels)
            + _det_gap_rows(result, levels, (1.0, 0.1, 0.01), (0.0, 1.0 + 1.0j, lam_peak))
            + _pinch_rows(result, levels))
    return Report(tuple(rows))
