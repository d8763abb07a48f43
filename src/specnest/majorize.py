"""Submajorization and log-submajorization comparators and inequality checks.

Comparisons run in the log domain with a small additive slack absorbing SVD
rounding; zero singular values contribute -inf, and a partial sum containing
-inf passes every <= comparison on the dominated side.
"""
from __future__ import annotations

import dataclasses
import math
from typing import Callable, Sequence

import numpy as np

from .curve import HilbertCurveMap
from .decompose import decompose
from .detbrown import fk_determinant
from .matrices import (_check_invariant_projection, as_operator, frobenius, operator_norm,
                       singular_values)

LOG_SLACK = 1e-10


@dataclasses.dataclass(frozen=True)
class Power:
    """Gauge t -> t^p; composed with exp it is convex for every p > 0."""

    p: float

    def __post_init__(self):
        if self.p <= 0:
            raise ValueError("p must be positive")

    def __call__(self, t):
        return np.asarray(t, dtype=float) ** self.p

    def label(self) -> str:
        return f"pow:{self.p:g}"


@dataclasses.dataclass(frozen=True)
class LogShift:
    """Gauge t -> log(1 + s t); composed with exp it is convex for s > 0."""

    s: float

    def __post_init__(self):
        if self.s <= 0:
            raise ValueError("s must be positive")

    def __call__(self, t):
        return np.log1p(self.s * np.asarray(t, dtype=float))

    def label(self) -> str:
        return f"logshift:{self.s:g}"


@dataclasses.dataclass(frozen=True)
class CustomGauge:
    """User gauge certified increasing with convex composition with exp.

    The certificate checks nonnegative second differences of phi(exp(x)) on a
    log grid covering [exp(lo), exp(hi)].
    """

    fn: Callable
    lo: float = -12.0
    hi: float = 6.0
    grid_points: int = 1024

    def __post_init__(self):
        xs = np.linspace(self.lo, self.hi, self.grid_points)
        vals = np.asarray(self.fn(np.exp(xs)), dtype=float)
        if np.any(np.diff(vals) < -1e-12):
            raise ValueError("gauge is not increasing on the certificate grid")
        second = np.diff(vals, 2)
        if np.any(second < -1e-12 * max(1.0, np.max(np.abs(vals)))):
            raise ValueError("gauge composed with exp is not convex on the grid")

    def __call__(self, t):
        return np.asarray(self.fn(np.asarray(t, dtype=float)), dtype=float)

    def label(self) -> str:
        return "custom"


DEFAULT_GAUGES = (Power(0.5), Power(1.0), Power(2.0), Power(4.0),
                  LogShift(1.0), LogShift(10.0))


def gauge_trace(A, gauge) -> float:
    """Normalized trace of gauge(|A|), via singular values."""
    return float(np.mean(gauge(singular_values(A))))


@dataclasses.dataclass(frozen=True)
class MajorizationVerdict:
    ok: bool
    worst_margin: float
    worst_k: int

    def __bool__(self) -> bool:
        return self.ok


def submajorizes(A, B) -> MajorizationVerdict:
    """True iff every partial sum of B's singular values is below A's."""
    return _submajorization(singular_values(A), singular_values(B))


def _submajorization(svA: np.ndarray, svB: np.ndarray) -> MajorizationVerdict:
    """Submajorization verdict on descending singular value arrays."""
    if len(svA) != len(svB):
        raise ValueError("dimension mismatch")
    slack = 1e-10 * float(svA[0])
    margins = np.cumsum(svA) - np.cumsum(svB)
    k = int(np.argmin(margins))
    return MajorizationVerdict(bool(np.all(margins >= -slack)),
                               float(margins[k]), k + 1)


def _log_partials(sv: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.cumsum(np.log(sv))


def _log_majorization(svA: np.ndarray, svB: np.ndarray) -> MajorizationVerdict:
    """Log-submajorization verdict on descending singular value arrays."""
    if len(svA) != len(svB):
        raise ValueError("dimension mismatch")
    cumB = _log_partials(svB)
    with np.errstate(invalid="ignore"):
        margins = _log_partials(svA) - cumB
    # A zero product on the dominated side is trivially below; an undefined
    # (inf - inf) margin is not a violation either.
    margins[(cumB == -math.inf) | np.isnan(margins)] = math.inf
    k = int(np.argmin(margins))
    if margins[k] == math.inf:
        return MajorizationVerdict(True, 0.0, 0)
    return MajorizationVerdict(bool(np.all(margins >= -LOG_SLACK)),
                               float(margins[k]), k + 1)


def log_submajorizes(A, B) -> MajorizationVerdict:
    """True iff every partial product of B's singular values is below A's.

    Compared in the log domain; a -inf on the dominated side passes.
    """
    return _log_majorization(singular_values(A), singular_values(B))


@dataclasses.dataclass(frozen=True)
class CheckRow:
    check: str
    params: str
    lhs: float
    rhs: float
    margin: float
    ok: bool


@dataclasses.dataclass(frozen=True)
class CheckReport:
    rows: tuple
    skipped: tuple = ()

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.rows)

    def failures(self) -> list:
        return [r for r in self.rows if not r.ok]


def hlp_transfer(A, B, gauges: Sequence) -> CheckReport:
    """Submajorization transfers to trace inequalities for convex gauges.

    Requires submajorizes(A, B); when the hypothesis fails the gauges are
    reported as skipped rather than failed. Gauges here must themselves be
    increasing and convex (Power with p >= 1, for instance).
    """
    svA = singular_values(A)
    svB = singular_values(B)
    if not _submajorization(svA, svB).ok:
        return CheckReport((), skipped=tuple(g.label() for g in gauges))
    rows = []
    for gauge in gauges:
        lhs = float(np.mean(gauge(svB)))
        rhs = float(np.mean(gauge(svA)))
        slack = 1e-10 * max(1.0, rhs)
        rows.append(CheckRow("hlp", gauge.label(), lhs, rhs, rhs - lhs,
                             lhs <= rhs + slack))
    return CheckReport(tuple(rows))


def _log_plus_traces(sv: np.ndarray, t) -> np.ndarray:
    """Mean of max(log(sv / t), 0) for a threshold t or an array of them."""
    with np.errstate(divide="ignore"):
        vals = np.log(sv / np.asarray(t, dtype=float)[..., None])
    return np.mean(np.maximum(vals, 0.0), axis=-1)


def tau_log_plus(A, t: float) -> float:
    """Normalized trace of max(log(|A| / t), 0)."""
    if t <= 0:
        raise ValueError("t must be positive")
    return float(_log_plus_traces(singular_values(A), t))


def log_plus_equivalence_check(A, B, t_grid=None) -> CheckReport:
    """Biconditional: log-submajorization iff log-plus traces dominate on a grid.

    The grid always includes the singular values of A (the proof's choice of
    thresholds) and log-spaced fill covering (0, max norm].
    """
    svA = singular_values(A)
    svB = singular_values(B)
    top = max(float(svA[0]), float(svB[0]), 1e-12)
    if t_grid is None:
        fill = np.geomspace(top * 1e-8, top, 64)
        t_grid = np.concatenate([svA[svA > 0], fill])
    t_grid = np.unique(np.asarray(t_grid, dtype=float))
    t_grid = t_grid[t_grid > 0]
    lhs_verdict = _log_majorization(svA, svB).ok
    failing = int(np.count_nonzero(
        _log_plus_traces(svB, t_grid) > _log_plus_traces(svA, t_grid) + 1e-10))
    rhs_verdict = not failing
    row = CheckRow(
        "log_plus_equivalence",
        f"grid:{len(t_grid)};failing:{failing}",
        float(lhs_verdict), float(rhs_verdict), 0.0,
        lhs_verdict == rhs_verdict,
    )
    return CheckReport((row,))


def shift_lemma_check(A, B, scales=(1, 2, 4, 8)) -> CheckReport:
    """B log-submajorized by A (both PSD) implies nB + 1 log-submajorized by nA + 1."""
    A = as_operator(A)
    B = as_operator(B)
    herm_gap = max(frobenius(A - A.conj().T), frobenius(B - B.conj().T))
    if herm_gap > 1e-10 * max(operator_norm(A), operator_norm(B)):
        return CheckReport((), skipped=("non-hermitian input",))
    if np.min(np.linalg.eigvalsh(A)) < -1e-10 or np.min(np.linalg.eigvalsh(B)) < -1e-10:
        return CheckReport((), skipped=("non-psd input",))
    if not log_submajorizes(A, B).ok:
        return CheckReport((), skipped=("hypothesis B <<_log A fails",))
    eye = np.eye(A.shape[0])
    rows = []
    for c in scales:
        verdict = log_submajorizes(c * A + eye, c * B + eye)
        rows.append(CheckRow("shift", f"n:{c}", 0.0, 0.0,
                             verdict.worst_margin, verdict.ok))
    return CheckReport(tuple(rows))


def pinch_log_check(T, p) -> CheckReport:
    """For T-invariant p: the two-block pinching is log-submajorized by T,
    and the shifted determinants satisfy the matching inequality."""
    T = as_operator(T)
    p = as_operator(p)
    _check_invariant_projection(T, p, operator_norm(T))
    n = T.shape[0]
    S = T @ p + (np.eye(n) - p) @ T
    verdict = log_submajorizes(T, S)
    eye = np.eye(n)
    lhs = fk_determinant(eye + S.conj().T @ S)
    rhs = fk_determinant(eye + T.conj().T @ T)
    det_ok = lhs <= rhs * (1 + 1e-10)
    rows = (
        CheckRow("pinch_logmaj", "", 0.0, 0.0, verdict.worst_margin, verdict.ok),
        CheckRow("pinch_det", "", lhs, rhs, rhs - lhs, det_ok),
    )
    return CheckReport(rows)


def weyl_check(T, gauges: Sequence = DEFAULT_GAUGES,
               curve: HilbertCurveMap | None = None) -> CheckReport:
    """Weyl inequality for the decomposition: N log-submajorized by T, and the
    gauge traces of |N| equal the eigenvalue-modulus averages and stay below
    those of |T|."""
    T = as_operator(T)
    result = decompose(T, curve)
    svT = singular_values(T)
    svN = singular_values(result.N)
    verdict = _log_majorization(svT, svN)
    rows = [CheckRow("weyl_logmaj", "", 0.0, 0.0, verdict.worst_margin, verdict.ok)]
    moduli = np.abs(result.eigenvalues)
    for gauge in gauges:
        lhs = float(np.mean(gauge(svN)))
        from_eigs = float(np.mean(gauge(moduli)))
        rhs = float(np.mean(gauge(svT)))
        eq_ok = abs(lhs - from_eigs) <= 1e-9 * max(1.0, abs(from_eigs))
        ineq_ok = lhs <= rhs + 1e-10 * max(1.0, rhs)
        rows.append(CheckRow("weyl_equality", gauge.label(), lhs, from_eigs,
                             lhs - from_eigs, eq_ok))
        rows.append(CheckRow("weyl_inequality", gauge.label(), lhs, rhs,
                             rhs - lhs, ineq_ok))
    return CheckReport(tuple(rows))
