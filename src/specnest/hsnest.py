"""Invariant-subspace projections for spectral regions and curve-ordered nests.

In the matrix model, the projection attached to a region is the orthogonal
projection onto the invariant subspace spanned by the ordered Schur flag whose
leading eigenvalues are exactly those inside the region. The nest orders the
eigenvalue clusters by their first hit time along the Hilbert curve.
"""
from __future__ import annotations

import dataclasses
import math
import operator
from typing import Union

import numpy as np
import scipy.linalg

from .curve import DEEP_LEVEL, HilbertCurveMap, hit_index
from .matrices import (
    ProjectionNest,
    _complex_schur,
    _singular_values,
    as_operator,
    cluster_eigenvalues,
    reorder_schur,
)


@dataclasses.dataclass(frozen=True)
class Ball:
    center: complex
    radius: float

    def __post_init__(self):
        if not np.isfinite(self.center):
            raise ValueError("center must be finite")
        if not 0 <= self.radius < math.inf:
            raise ValueError("radius must be nonnegative and finite")

    def contains(self, z: complex) -> bool:
        return abs(z - self.center) <= self.radius


@dataclasses.dataclass(frozen=True)
class CurveSegment:
    """The image of [0, t] under the curve: the cells with hit time at most t."""

    t: float
    curve: HilbertCurveMap

    def __post_init__(self):
        if not 0.0 <= self.t <= 1.0:
            raise ValueError("t must lie in [0, 1]")

    def contains(self, z: complex) -> bool:
        return hit_index(self.curve, z) / 4.0**DEEP_LEVEL <= self.t


BorelSet = Union[Ball, CurveSegment]


def hs_projection(T, region: BorelSet) -> np.ndarray:
    """Projection onto the invariant subspace of the eigenvalues inside the region.

    Satisfies the four contract items: its normalized trace is the eigenvalue
    fraction in the region, its range is T-invariant, the compression's
    spectrum lies inside the region and the co-compression's outside, and it
    is monotone under region inclusion.
    """
    T = as_operator(T)
    R, U = _complex_schur(T)
    keys = [0 if region.contains(z) else 1 for z in R.diagonal().tolist()]
    U, _, _ = reorder_schur(T, R, U, keys, float(_singular_values(T)[0]))
    V = U[:, :keys.count(0)]
    return V @ V.conj().T


_RUN_GAP = -math.log(np.finfo(float).eps)
_RUN_SPAN = -0.5 * math.log(np.finfo(float).tiny)


def _runs(rows: np.ndarray, logs: np.ndarray) -> list:
    """Rows by decreasing log-scale, cut at the widest gap while one exceeds
    ln(1/eps) (rows apart by more are resolved one run at a time) or the run
    spans over half the double exponent range (its rescaled rows stay normal)."""
    gaps = -np.diff(logs[rows])
    if len(rows) < 2 or (gaps.max() <= _RUN_GAP and gaps.sum() <= _RUN_SPAN):
        return [rows] if len(rows) else []
    k = int(np.argmax(gaps)) + 1
    return _runs(rows[:k], logs) + _runs(rows[k:], logs)


def power_limit_operator(T, n: int) -> np.ndarray:
    """((T*)^n T^n)^(1/2n) by a graded product QR of S^n, S = T/||T|| (Stewart 1995).

    Eigenvalues tend to the sorted moduli of T's eigenvalues (Yamamoto). A
    pivoted QR S = Q_1 C grades C; n - 1 steps Q_k R_k = S Q_(k-1), C <- R_k C
    give S^n = Q_n C. C's rows stay unit-norm, log-scales kept apart, so
    singular values below 1e-308 keep their n-th roots; rows cut at wide scale
    gaps (_runs) get a pivoted QR and an SVD per run. Each step is backward
    stable (exact for S + E_k, ||E_k|| ~ eps), not exact for T: where T's
    eigenproblem is ill-conditioned in double, small eigenvalues move. O(n m^3).
    """
    if isinstance(n, bool) or not hasattr(n, "__index__"):
        raise TypeError(f"n must be an integer, got {n!r}")
    n = operator.index(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    T = as_operator(T)
    scale = float(_singular_values(T)[0])
    if scale == 0.0:
        return np.zeros_like(T.real)
    S = T / scale
    A, basis = np.zeros_like(S), np.zeros_like(S[:0])
    # The steps' QR in scipy's LAPACK, with the optimal workspaces numpy's QR
    # takes (a workspace query reads only the shapes, so S[0] stands in for tau).
    geqrf, ungqr = scipy.linalg.get_lapack_funcs(("geqrf", "ungqr"), (S,))
    lwork = int(geqrf(S, lwork=-1)[2][0].real), int(ungqr(S, S[0], lwork=-1)[1][0].real)
    with np.errstate(divide="ignore"):  # log 0 = -inf marks a zero row
        Q, C, piv = scipy.linalg.qr(S, pivoting=True)
        C, logs = C[:, np.argsort(piv)], np.zeros(len(S))
        for _ in range(n - 1):
            qr, tau, _, _ = geqrf(S @ Q, lwork=lwork[0], overwrite_a=1)
            R = np.triu(qr)
            Q, _, _ = ungqr(qr, tau, lwork=lwork[1], overwrite_a=1)
            # Row i of R diag(exp(logs)) C, relative to the largest scale it mixes in.
            top = np.maximum.accumulate(logs[::-1])[::-1]
            top[top == -np.inf] = 0.0
            C = (R * np.exp(np.minimum(logs - top[:, None], 0.0))) @ C
            norms = np.linalg.norm(C, axis=1)
            C, logs = C / np.where(norms > 0.0, norms, 1.0)[:, None], top + np.log(norms)
        for rows in _runs(np.argsort(-logs)[:np.count_nonzero(logs > -np.inf)], logs):
            B = np.exp(logs[rows] - logs[rows[0]])[:, None] * C[rows]
            B -= (B @ basis.conj().T) @ basis
            # gesvd (not gesdd) of this graded triangle keeps small singular values.
            W, P, _ = scipy.linalg.qr(B.conj().T, mode="economic", pivoting=True)
            U, s, _ = scipy.linalg.svd(P, lapack_driver="gesvd")
            Vh = (W @ U).conj().T
            A += (Vh.conj().T * np.exp((np.log(s) + logs[rows[0]]) / n)) @ Vh
            basis = np.vstack([basis, Vh])
    return scale * 0.5 * (A + A.conj().T)


def _build_nest(T: np.ndarray, curve: HilbertCurveMap, norm: float) -> tuple:
    """(nest, B): the curve-ordered nest of invariant projections for T (from
    ``as_operator``; ``norm`` = ||T||_2 its clustering scale) on a curve whose
    square covers T's spectral disk, and T's flag form B = U*TU in its basis U,
    the product ``reorder_schur`` checks. The Schur form is reordered into exact
    first-hit-index order of its clusters (ties by (Re, Im)); the jumps are (hit
    time, cumulative multiplicity). For the curve, its square and anchor, the
    projection at each jump time t is ``hs_projection(T, CurveSegment(t, curve))``
    up to rounding. Clusters whose hit times round to one double t still split,
    the later ones at the next doubles above t; the segment at t holds them all,
    so its projection is the nest projection at the last tied jump.
    """
    R, U = _complex_schur(T)
    labels, roots, reps = cluster_eigenvalues(R.diagonal(), norm)
    hits = [hit_index(curve, z) for z in reps.tolist()]
    order = np.lexsort((reps.imag, reps.real, np.array(hits, dtype=np.uint64)))
    # Schur key: each diagonal slot's cluster position in curve order.
    keys = np.argsort(order)[np.searchsorted(roots, labels)]
    U, B, _ = reorder_schur(T, R, U, keys, norm)

    jumps = [(0.0, 0)]
    times = np.ldexp(np.array(hits, dtype=float)[order], -2 * DEEP_LEVEL).tolist()
    for t, rank in zip(times, np.cumsum(np.bincount(keys)).tolist()):
        if t <= jumps[-1][0]:  # rounds to the previous jump's time: the next double
            t = min(math.nextafter(jumps[-1][0], 2.0), 1.0)
        jumps.append((t, rank))
    return ProjectionNest(U, tuple(jumps)), B
