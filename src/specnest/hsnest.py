"""Invariant-subspace projections for spectral regions and curve-ordered nests.

In the matrix model, the projection attached to a region is the orthogonal
projection onto the invariant subspace spanned by the ordered Schur flag whose
leading eigenvalues are exactly those inside the region. The nest orders the
eigenvalue clusters by their first hit time along the Hilbert curve.
"""
from __future__ import annotations

import dataclasses
import math
from typing import Callable, Union

import numpy as np

from .curve import DEEP_LEVEL, HilbertCurveMap, deep_hit_index, hit_index
from .matrices import (
    ProjectionNest,
    as_operator,
    eigenvalue_clusters,
    operator_norm,
    ordered_schur,
)


@dataclasses.dataclass(frozen=True)
class Ball:
    center: complex
    radius: float

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")

    def contains(self, z: complex) -> bool:
        return abs(z - self.center) <= self.radius


@dataclasses.dataclass(frozen=True)
class CurveSegment:
    """The image of [0, t] under the curve, at the curve's cell resolution."""

    t: float
    curve: HilbertCurveMap

    def __post_init__(self):
        if not 0.0 <= self.t <= 1.0:
            raise ValueError("t must lie in [0, 1]")

    def contains(self, z: complex) -> bool:
        return hit_index(self.curve, z) / self.curve.num_cells <= self.t


@dataclasses.dataclass(frozen=True)
class Predicate:
    member: Callable[[complex], bool]

    def contains(self, z: complex) -> bool:
        return bool(self.member(z))


BorelSet = Union[Ball, CurveSegment, Predicate]


def hs_projection(T, region: BorelSet) -> np.ndarray:
    """Projection onto the invariant subspace of the eigenvalues inside the region.

    Satisfies the four contract items: its normalized trace is the eigenvalue
    fraction in the region, its range is T-invariant, the compression's
    spectrum lies inside the region and the co-compression's outside, and it
    is monotone under region inclusion.
    """
    T = as_operator(T)
    U, R, _ = ordered_schur(T, key=lambda z: 0 if region.contains(z) else 1)
    diag = np.diag(R)
    k = int(sum(1 for z in diag if region.contains(complex(z))))
    V = U[:, :k]
    return V @ V.conj().T


def _power_svd_highprec(S: np.ndarray, n: int, prec: int):
    """Singular values and right factor of S^n in mpmath at the given precision."""
    import mpmath

    with mpmath.workprec(prec):
        M = mpmath.matrix([[mpmath.mpc(z) for z in row] for row in S])
        P = mpmath.eye(S.shape[0])
        base = M
        k = n
        while k:
            if k & 1:
                P = P * base
            k >>= 1
            if k:
                base = base * base
        _, sv, V = mpmath.svd_c(P)
        s = np.array([float(x) for x in sv])
        Vh = np.array([[complex(V[i, j]) for j in range(V.cols)]
                       for i in range(V.rows)])
    return s, Vh


def power_limit_operator(T, n: int) -> np.ndarray:
    """((T*)^n T^n)^(1/2n), via the SVD of T^n with rescaling to unit norm.

    Eigenvalues converge, as n grows, to the sorted moduli of the eigenvalues
    of T (Yamamoto limit, used as the oracle in tests). When the dynamic range
    of the singular values of T^n exceeds double precision, the power and its
    SVD are redone in multiprecision arithmetic at just enough bits.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    T = as_operator(T)
    scale = operator_norm(T)
    if scale == 0.0:
        return np.zeros_like(T.real)
    S = T / scale
    P = np.linalg.matrix_power(S, n)
    if not np.all(np.isfinite(P.real)) or not np.all(np.isfinite(P.imag)):
        raise ArithmeticError("matrix power overflowed even after rescaling")
    s = np.linalg.svd(P, compute_uv=False)
    # Singular values within n * eps of the top are trustworthy in doubles;
    # anything smaller has been swamped by accumulated rounding in S^n.
    sv_T = np.linalg.svd(S, compute_uv=False)
    contaminated = s[-1] <= s[0] * (n * 1e-14) and sv_T[-1] > 0.0
    if contaminated:
        # sigma_min(S^n) >= sigma_min(S)^n bounds the range of exponents.
        span_bits = n * max(1.0, -math.log2(sv_T[-1] / sv_T[0]))
        prec = min(int(span_bits) + 80, 6000)
        s, Vh = _power_svd_highprec(S, n, prec)
    else:
        _, s, Vh = np.linalg.svd(P)
    A = Vh.conj().T @ (s[:, None] ** (1.0 / n) * Vh)
    A = 0.5 * (A + A.conj().T)
    return scale * A


@dataclasses.dataclass(frozen=True)
class GrowthReport:
    """Growth rates of ||T^n xi||^(1/n) inside and outside the r-subspace."""

    r: float
    n_max: int
    rank: int
    inside_rates: tuple
    outside_rates: tuple
    max_inside_rate: float
    min_outside_rate: float


def _growth_rate(T: np.ndarray, xi: np.ndarray, n_max: int) -> float:
    """||T^n xi||^(1/n) at n = n_max, with renormalization to avoid overflow."""
    log_norm = 0.0
    v = xi / np.linalg.norm(xi)
    for _ in range(n_max):
        v = T @ v
        nv = np.linalg.norm(v)
        if nv == 0.0:
            return 0.0
        log_norm += math.log(nv)
        v = v / nv
    return math.exp(log_norm / n_max)


def growth_subspace_check(T, r: float, n_max: int = 64, samples: int = 8,
                          seed: int = 0) -> GrowthReport:
    """Diagnostic: growth rates of vectors in / orthogonal to the r-ball subspace."""
    if r <= 0:
        raise ValueError("r must be positive")
    T = as_operator(T)
    n = T.shape[0]
    p = hs_projection(T, Ball(0.0, r))
    k = int(round(np.trace(p).real))
    rng = np.random.default_rng(seed)
    inside, outside = [], []
    for _ in range(samples):
        xi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v_in = p @ xi
        if np.linalg.norm(v_in) > 1e-10:
            inside.append(_growth_rate(T, v_in, n_max))
        v_out = xi - p @ xi
        if np.linalg.norm(v_out) > 1e-10:
            outside.append(_growth_rate(T, v_out, n_max))
    return GrowthReport(
        r=float(r),
        n_max=n_max,
        rank=k,
        inside_rates=tuple(inside),
        outside_rates=tuple(outside),
        max_inside_rate=max(inside) if inside else 0.0,
        min_outside_rate=min(outside) if outside else math.inf,
    )


class AtomAtCurveStartError(ValueError):
    """An eigenvalue cluster occupies the curve's first cell for every anchor."""


def _try_build_nest(T: np.ndarray, curve: HilbertCurveMap) -> ProjectionNest:
    info = []
    for rep, mult in eigenvalue_clusters(T):
        deep = deep_hit_index(curve, rep)
        if deep >> (2 * (DEEP_LEVEL - curve.level)) == 0:
            raise AtomAtCurveStartError(
                f"cluster at {rep} occupies the first curve cell"
            )
        info.append((deep, rep.real, rep.imag, rep, mult))
    info.sort(key=lambda rec: rec[:3])

    # Schur key: position of the eigenvalue's cluster in curve order.
    reps_sorted = [rec[3] for rec in info]

    def key(z: complex) -> int:
        dists = [abs(z - rep) for rep in reps_sorted]
        return int(np.argmin(dists))

    U, R, _ = ordered_schur(T, key)

    jumps = [(0.0, 0)]
    rank = 0
    prev_t = 0.0
    for deep, _, _, _, mult in info:
        t = deep / float(1 << (2 * DEEP_LEVEL))
        if t <= prev_t:
            t = math.nextafter(prev_t, 2.0)
        rank += mult
        jumps.append((min(t, 1.0), rank))
        prev_t = jumps[-1][0]
    return ProjectionNest(U, tuple(jumps))


def build_nest(T, curve: HilbertCurveMap) -> ProjectionNest:
    """Curve-ordered nest of invariant projections for T.

    Clusters the eigenvalues, orders the clusters by deep-level first hit
    time (ties broken by (Re, Im)), and assembles the ordered Schur flag with
    jumps at (hit time, cumulative multiplicity). If a cluster sits in the
    curve's first cell, the curve entry corner is rotated and the build
    retried; all four corners failing is an error.
    """
    T = as_operator(T)
    if curve.half_side < operator_norm(T) * (1 - 1e-12):
        raise ValueError("curve half_side must be at least the operator norm")
    last_err = None
    for shift in range(4):
        anchored = curve.with_anchor((curve.anchor + shift) % 4)
        try:
            return _try_build_nest(T, anchored)
        except AtomAtCurveStartError as err:
            last_err = err
    raise AtomAtCurveStartError(
        f"all four curve anchors have an eigenvalue atom at the start: {last_err}"
    )


def default_curve(T, level: int = 16, half_side_factor: float = 1.25,
                  modulus_constant: float = 6.0) -> HilbertCurveMap:
    """Curve whose square comfortably contains the spectral disk of T."""
    half = half_side_factor * max(operator_norm(T), 1e-12)
    return HilbertCurveMap(level=level, half_side=half,
                           modulus_constant=modulus_constant)
