"""Fuglede-Kadison determinant, log-determinant potential and Brown measures.

The exact Brown measure of a matrix is its eigenvalue counting measure; the
numerical estimator recovers it as the discrete Laplacian of the regularized
log potential on a grid.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from .matrices import (
    as_operator,
    eigenvalue_clusters,
    operator_norm,
    singular_values,
    spectral_radius,
    spectrum_distance,
)

# Singular values at or below this fraction of the norm make Delta vanish.
SINGULAR_CUTOFF = 1e-14


@dataclasses.dataclass(frozen=True)
class SpectralMeasure:
    """Finitely supported probability measure on the complex plane."""

    atoms: tuple  # of (location: complex, weight: float)

    def __post_init__(self):
        atoms = tuple((complex(z), float(w)) for z, w in self.atoms)
        if any(w <= 0 for _, w in atoms):
            raise ValueError("weights must be positive")
        total = sum(w for _, w in atoms)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {total}")
        object.__setattr__(self, "atoms", atoms)

    @property
    def locations(self) -> np.ndarray:
        return np.array([z for z, _ in self.atoms])

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for _, w in self.atoms])

    def log_potential(self, lam: complex) -> float:
        """Integral of log|z - lam| against the measure (may be -inf)."""
        dist = np.abs(self.locations - lam)
        with np.errstate(divide="ignore"):
            return float(np.sum(self.weights * np.log(dist)))

    def regularized_potential(self, lam: complex, eps: float) -> float:
        """Integral of log(|z - lam|^2 + eps) against the measure."""
        dist2 = np.abs(self.locations - lam) ** 2
        return float(np.sum(self.weights * np.log(dist2 + eps)))

    def mass_within(self, center: complex, radius: float) -> float:
        dist = np.abs(self.locations - center)
        return float(np.sum(self.weights[dist <= radius]))


def fk_determinant(T) -> float:
    """Geometric mean of the singular values, |det T|^(1/n).

    Returns exactly 0 when any singular value is at or below
    SINGULAR_CUTOFF times the norm (the log-trace diverges there).
    """
    sv = singular_values(T)
    top = sv[0]
    if top == 0.0 or np.any(sv <= SINGULAR_CUTOFF * top):
        return 0.0
    return float(np.exp(np.mean(np.log(sv))))


def regularized_log_det(T, lam: complex = 0.0, eps: float = 1.0) -> float:
    """Normalized trace of log(|T - lam|^2 + eps); finite for every input."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    T = as_operator(T)
    sv = singular_values(T - lam * np.eye(T.shape[0]))
    return float(np.mean(np.log(sv**2 + eps)))


def brown_measure_exact(T) -> SpectralMeasure:
    """Eigenvalue counting measure, weight multiplicity/n per cluster."""
    T = as_operator(T)
    n = T.shape[0]
    clusters = eigenvalue_clusters(np.linalg.eigvals(T), operator_norm(T))
    atoms = [(rep, len(ix) / n) for rep, ix in clusters]
    atoms.sort(key=lambda a: (a[0].real, a[0].imag))
    return SpectralMeasure(tuple(atoms))


@dataclasses.dataclass(frozen=True)
class DensityGrid:
    """Brown density estimate on a rectangle; cell masses after clamping."""

    bounds: tuple  # (xmin, xmax, ymin, ymax)
    resolution: tuple  # (nx, ny)
    cell_mass: np.ndarray  # shape (nx, ny), indexed [ix, iy]
    epsilon: float
    total_mass: float
    negative_cells_flagged: int

    @property
    def x_centers(self) -> np.ndarray:
        xmin, xmax, _, _ = self.bounds
        nx = self.resolution[0]
        h = (xmax - xmin) / nx
        return xmin + (np.arange(nx) + 0.5) * h

    @property
    def y_centers(self) -> np.ndarray:
        _, _, ymin, ymax = self.bounds
        ny = self.resolution[1]
        h = (ymax - ymin) / ny
        return ymin + (np.arange(ny) + 0.5) * h

    def mass_within(self, center: complex, radius: float) -> float:
        X, Y = np.meshgrid(self.x_centers, self.y_centers, indexing="ij")
        mask = (X - center.real) ** 2 + (Y - center.imag) ** 2 <= radius**2
        return float(np.sum(self.cell_mass[mask]))


def default_bounds(T, factor: float = 1.25) -> tuple:
    """Square of half-side factor * norm(T), centered at the origin."""
    half = factor * max(operator_norm(T), 1e-12)
    return (-half, half, -half, half)


def _batched_log_phi(T: np.ndarray, lams: np.ndarray, eps: float) -> np.ndarray:
    """phi(lam) = tau log|T - lam| computed via the eps-regularized SVD form."""
    n = T.shape[0]
    eye = np.eye(n)
    out = np.empty(len(lams))
    chunk = max(1, 2_000_000 // (n * n))
    for start in range(0, len(lams), chunk):
        batch = lams[start : start + chunk]
        mats = T[None, :, :] - batch[:, None, None] * eye[None, :, :]
        sv = np.linalg.svd(mats, compute_uv=False)
        out[start : start + len(batch)] = 0.5 * np.mean(np.log(sv**2 + eps), axis=1)
    return out


def brown_density_grid(T, bounds=None, resolution=201, eps: float = 1e-8) -> DensityGrid:
    """Brown density via the 5-point discrete Laplacian of the log potential.

    Computes phi(lam) = (1/2) tau log(|T - lam|^2 + eps) on the cell centers,
    applies the Laplacian stencil, scales by cell area / (2 pi), and clamps
    tiny negative cells (counting those below -1e-6 as diagnostics).
    """
    T = as_operator(T)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if bounds is None:
        bounds = default_bounds(T)
    if isinstance(resolution, int):
        resolution = (resolution, resolution)
    nx, ny = resolution
    if nx < 32 or ny < 32:
        raise ValueError("resolution must be at least 32 per axis")
    xmin, xmax, ymin, ymax = bounds
    rad = spectral_radius(T) + 3.0 * math.sqrt(eps)
    if not (xmin <= -rad and xmax >= rad and ymin <= -rad and ymax >= rad):
        raise ValueError(
            f"bounds {bounds} do not cover the spectral disk of radius {rad:.4g}"
        )
    hx = (xmax - xmin) / nx
    hy = (ymax - ymin) / ny
    xs = xmin + (np.arange(nx) + 0.5) * hx
    ys = ymin + (np.arange(ny) + 0.5) * hy
    lams = (xs[:, None] + 1j * ys[None, :]).ravel()
    phi = _batched_log_phi(T, lams, eps).reshape(nx, ny)

    lap = np.zeros_like(phi)
    lap[1:-1, 1:-1] = (
        (phi[2:, 1:-1] - 2 * phi[1:-1, 1:-1] + phi[:-2, 1:-1]) / hx**2
        + (phi[1:-1, 2:] - 2 * phi[1:-1, 1:-1] + phi[1:-1, :-2]) / hy**2
    )
    mass = lap * (hx * hy) / (2.0 * math.pi)
    # Clamp only rounding-level negatives; sizable negative lobes (stencil
    # ringing next to a near-atomic spike) are kept, so that disk and total
    # masses telescope correctly, and their count is surfaced as a diagnostic.
    flagged = int(np.count_nonzero(mass < -1e-6))
    mass[(mass < 0.0) & (mass >= -1e-6)] = 0.0
    return DensityGrid(
        bounds=tuple(float(b) for b in bounds),
        resolution=(nx, ny),
        cell_mass=mass,
        epsilon=float(eps),
        total_mass=float(np.sum(mass)),
        negative_cells_flagged=flagged,
    )


@dataclasses.dataclass(frozen=True)
class BlockDetReport:
    """Both sides of the determinant and measure identities for T = [[A, B], [0, C]]."""

    lhs_det: float
    rhs_det: float
    det_gap: float
    measure_gap: float
    trace_p: float
    ok: bool


def _range_basis(p: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the range of an orthogonal projection."""
    vals, vecs = np.linalg.eigh(p)
    return vecs[:, vals > 0.5]


def block_det_identity_check(T, p, tol: float = 1e-8) -> BlockDetReport:
    """Check the block factorization of Delta and the Brown measure split.

    Requires Tp = pTp within 1e-8 * norm(T). Uses the convention that the
    determinant of an empty corner, raised to the power 0, is 1.
    """
    T = as_operator(T)
    p = as_operator(p)
    n = T.shape[0]
    normT = max(operator_norm(T), 1e-300)
    if np.linalg.norm(p @ p - p, 2) > 1e-10 or np.linalg.norm(p - p.conj().T, 2) > 1e-10:
        raise ValueError("p is not an orthogonal projection")
    if np.linalg.norm(T @ p - p @ T @ p, 2) > 1e-8 * normT:
        raise ValueError("range of p is not T-invariant")

    V = _range_basis(p)
    W = _range_basis(np.eye(n) - p)
    k = V.shape[1]
    tau_p = k / n
    lhs = fk_determinant(T)
    rhs = 1.0
    corner_eigs = []
    if k > 0:
        A = V.conj().T @ T @ V
        rhs *= fk_determinant(A) ** tau_p
        corner_eigs.extend(np.linalg.eigvals(A))
    if k < n:
        C = W.conj().T @ T @ W
        rhs *= fk_determinant(C) ** (1.0 - tau_p)
        corner_eigs.extend(np.linalg.eigvals(C))
    if lhs == 0.0 and rhs == 0.0:
        det_gap = 0.0
    else:
        det_gap = abs(lhs - rhs) / max(lhs, rhs)
    measure_gap = spectrum_distance(np.linalg.eigvals(T), np.array(corner_eigs))
    ok = det_gap <= tol and measure_gap <= tol * max(1.0, normT)
    return BlockDetReport(lhs, rhs, det_gap, measure_gap, tau_p, ok)
