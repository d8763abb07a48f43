"""Submajorization and log-submajorization comparators and inequality checks.

Comparisons run in the log domain with a small additive slack absorbing SVD
rounding; zero singular values contribute -inf, and a partial sum containing
-inf passes every <= comparison on the dominated side.
"""
from __future__ import annotations

import dataclasses
import math
from typing import Sequence

import numpy as np

from .decompose import CheckRow, Report, decompose
from .matrices import _check_invariant_projection, as_operator, frobenius, singular_values

LOG_SLACK = 1e-10


@dataclasses.dataclass(frozen=True)
class Power:
    """Gauge t -> t^p; composed with exp it is convex for every p > 0."""

    p: float

    def __post_init__(self):
        if not 0 < self.p < math.inf:
            raise ValueError("p must be positive and finite")

    def __call__(self, t):
        return np.asarray(t, dtype=float) ** self.p

    def label(self) -> str:
        return f"pow:{self.p:g}"


@dataclasses.dataclass(frozen=True)
class LogShift:
    """Gauge t -> log(1 + s t); composed with exp it is convex for s > 0."""

    s: float

    def __post_init__(self):
        if not 0 < self.s < math.inf:
            raise ValueError("s must be positive and finite")

    def __call__(self, t):
        return np.log1p(self.s * np.asarray(t, dtype=float))

    def label(self) -> str:
        return f"logshift:{self.s:g}"


DEFAULT_GAUGES = (Power(0.5), Power(1.0), Power(2.0), Power(4.0),
                  LogShift(1.0), LogShift(10.0))


def submajorizes(A, B) -> CheckRow:
    """Whether every partial sum of B's singular values is below A's: the worst
    shortfall against the slack 1e-10 * ||A||_2, at the partial sum ``k=...``."""
    svA, svB = singular_values(A), singular_values(B)
    if len(svA) != len(svB):
        raise ValueError("dimension mismatch")
    shortfalls = np.cumsum(svB) - np.cumsum(svA)
    k = int(np.argmax(shortfalls))
    return CheckRow("submajorizes", f"k={k + 1}", float(shortfalls[k]),
                    1e-10 * float(svA[0]))


def _log_partials(sv: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.cumsum(np.log(sv))


def _log_majorization(svA: np.ndarray, svB: np.ndarray) -> CheckRow:
    """Log-submajorization row on descending singular value arrays: the worst
    log partial-sum shortfall against LOG_SLACK."""
    if len(svA) != len(svB):
        raise ValueError("dimension mismatch")
    cumB = _log_partials(svB)
    with np.errstate(invalid="ignore"):
        shortfalls = cumB - _log_partials(svA)
    # A zero product on the dominated side is trivially below; an undefined
    # (inf - inf) shortfall is not a violation either.
    shortfalls[(cumB == -math.inf) | np.isnan(shortfalls)] = -math.inf
    k = int(np.argmax(shortfalls))
    return CheckRow("log_submajorizes", f"k={k + 1}", float(shortfalls[k]), LOG_SLACK)


def log_submajorizes(A, B) -> CheckRow:
    """Whether every partial product of B's singular values is below A's.

    Compared in the log domain; a -inf on the dominated side passes.
    """
    return _log_majorization(singular_values(A), singular_values(B))


@dataclasses.dataclass(frozen=True)
class CheckReport(Report):
    skipped: tuple = ()


def _log_plus_traces(sv: np.ndarray, t) -> np.ndarray:
    """Mean of max(log(sv / t), 0) for a threshold t or an array of them."""
    with np.errstate(divide="ignore"):
        vals = np.log(sv / np.asarray(t, dtype=float)[..., None])
    return np.mean(np.maximum(vals, 0.0), axis=-1)


def log_plus_equivalence_check(A, B) -> CheckReport:
    """Biconditional: log-submajorization iff log-plus traces dominate on a grid.

    The grid holds the singular values of A (the proof's choice of
    thresholds) and 64 log-spaced values covering [1e-8, 1] times the larger norm.
    """
    svA = singular_values(A)
    svB = singular_values(B)
    top = max(float(svA[0]), float(svB[0]), 1e-12)
    fill = np.geomspace(top * 1e-8, top, 64)
    t_grid = np.unique(np.concatenate([svA[svA > 0], fill]))
    lhs_verdict = _log_majorization(svA, svB).ok
    failing = int(np.count_nonzero(
        _log_plus_traces(svB, t_grid) > _log_plus_traces(svA, t_grid) + 1e-10))
    disagree = lhs_verdict != (failing == 0)
    row = CheckRow("log_plus_equivalence", f"grid:{len(t_grid)};failing:{failing}",
                   float(disagree), 0.0)
    return CheckReport((row,))


def shift_lemma_check(A, B) -> CheckReport:
    """B log-submajorized by A (both PSD) implies nB + 1 log-submajorized by nA + 1,
    for n = 1, 2, 4, 8."""
    A = as_operator(A)
    B = as_operator(B)
    svA, svB = singular_values(A), singular_values(B)
    herm_gap = max(frobenius(A - A.conj().T), frobenius(B - B.conj().T))
    if herm_gap > 1e-10 * max(svA[0], svB[0]):
        return CheckReport((), skipped=("non-hermitian input",))
    if np.min(np.linalg.eigvalsh(A)) < -1e-10 or np.min(np.linalg.eigvalsh(B)) < -1e-10:
        return CheckReport((), skipped=("non-psd input",))
    if not _log_majorization(svA, svB).ok:
        return CheckReport((), skipped=("hypothesis B <<_log A fails",))
    eye = np.eye(A.shape[0])
    rows = tuple(dataclasses.replace(log_submajorizes(c * A + eye, c * B + eye),
                                     check="shift", params=f"n:{c}")
                 for c in (1, 2, 4, 8))
    return CheckReport(rows)


def pinch_log_check(T, p) -> CheckReport:
    """For T-invariant p: the two-block pinching S is log-submajorized by T,
    and the shifted determinants satisfy the matching inequality.

    One SVD each of T and S serves the verdict, ||T||_2 and both
    Delta(1 + X*X) = exp(mean(log(1 + sigma_X^2))). Raises OverflowError when
    these are not finite (|T| too large for its squares to be represented).
    """
    T = as_operator(T)
    p = as_operator(p)
    svT = singular_values(T)
    _check_invariant_projection(T, p, float(svT[0]))
    S = T @ p + (np.eye(T.shape[0]) - p) @ T
    svS = singular_values(S)
    with np.errstate(over="ignore"):  # reported below
        lhs, rhs = (float(np.exp(np.mean(np.log1p(sv**2)))) for sv in (svS, svT))
    if not math.isfinite(lhs) or not math.isfinite(rhs):
        raise OverflowError(f"Delta(1 + T*T) is not finite (|T| = {svT[0]:.3g})")
    rows = (
        dataclasses.replace(_log_majorization(svT, svS), check="pinch_logmaj", params=""),
        CheckRow("pinch_det", "", lhs, rhs * (1 + 1e-10)),
    )
    return CheckReport(rows)


def weyl_check(T, gauges: Sequence = DEFAULT_GAUGES) -> CheckReport:
    """Weyl inequality for the decomposition ``decompose(T)``: N log-submajorized
    by T, and the gauge traces of |N| equal the eigenvalue-modulus averages and
    stay below those of |T|."""
    T = as_operator(T)
    result = decompose(T)
    svT = singular_values(T)
    svN = singular_values(result.N)
    rows = [dataclasses.replace(_log_majorization(svT, svN), check="weyl_logmaj", params="")]
    moduli = np.abs(result.eigenvalues)
    for gauge in gauges:
        lhs = float(np.mean(gauge(svN)))
        from_eigs = float(np.mean(gauge(moduli)))
        rhs = float(np.mean(gauge(svT)))
        rows.append(CheckRow("weyl_equality", gauge.label(), abs(lhs - from_eigs),
                             1e-9 * max(1.0, abs(from_eigs))))
        rows.append(CheckRow("weyl_inequality", gauge.label(), lhs,
                             rhs + 1e-10 * max(1.0, rhs)))
    return CheckReport(tuple(rows))
