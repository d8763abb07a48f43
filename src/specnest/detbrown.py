"""Fuglede-Kadison determinant, log-determinant potential and Brown measures.

The exact Brown measure of a matrix is its eigenvalue counting measure; the
numerical estimator recovers it as the discrete Laplacian of the regularized
log potential on a grid.
"""
from __future__ import annotations

import concurrent.futures
import contextvars
import dataclasses
import math
import os

import numpy as np

from .matrices import (
    as_operator,
    cluster_eigenvalues,
    default_half_side,
    operator_norm,
    singular_values,
    spectral_radius,
)

# Singular values at or below this fraction of the norm make Delta vanish.
SINGULAR_CUTOFF = 1e-14


@dataclasses.dataclass(frozen=True)
class SpectralMeasure:
    """Finitely supported probability measure on the complex plane."""

    atoms: tuple  # of (location: complex, weight: float)

    def __post_init__(self):
        atoms = tuple((complex(z), float(w)) for z, w in self.atoms)
        if not all(0 < w < math.inf for _, w in atoms):
            raise ValueError("weights must be positive and finite")
        if not all(np.isfinite(z) for z, _ in atoms):
            raise ValueError("locations must be finite")
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
    T = as_operator(T)
    return _regularized_log_det(singular_values(T - lam * np.eye(T.shape[0])), eps)


def _regularized_log_det(sv: np.ndarray, eps: float) -> float:
    """``regularized_log_det`` from the singular values ``sv`` of T - lam."""
    if not 0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    return float(np.mean(np.log(sv**2 + eps)))


def brown_measure_exact(T) -> SpectralMeasure:
    """Eigenvalue counting measure, weight multiplicity/n per cluster."""
    T = as_operator(T)
    return _counting_measure(np.linalg.eigvals(T), operator_norm(T))


def _counting_measure(eigs: np.ndarray, norm: float) -> SpectralMeasure:
    """``brown_measure_exact`` from T's eigenvalues and 2-norm ``norm``."""
    labels, roots, reps = cluster_eigenvalues(eigs, norm)
    atoms = sorted(zip(reps.tolist(), (np.bincount(labels)[roots] / len(eigs)).tolist()),
                   key=lambda a: (a[0].real, a[0].imag))
    return SpectralMeasure(tuple(atoms))


@dataclasses.dataclass(frozen=True)
class DensityGrid:
    """Brown density estimate on a rectangle; cell masses after clamping.

    ``kernel`` names the log-potential kernel that ran ("cholesky" or "svd")
    and ``rho`` is the conditioning figure that chose it (see
    ``brown_density_grid``).
    """

    bounds: tuple  # (xmin, xmax, ymin, ymax)
    resolution: tuple  # (nx, ny)
    cell_mass: np.ndarray  # shape (nx, ny), indexed [ix, iy]
    epsilon: float
    total_mass: float
    negative_cells_flagged: int
    kernel: str
    rho: float

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
        dx2 = (self.x_centers[:, None] - center.real) ** 2
        mask = dx2 + (self.y_centers[None, :] - center.imag) ** 2 <= radius**2
        return float(np.sum(self.cell_mass[mask]))


# The Gram kernel runs when rho = n u (|T|_2 + max|lam|)^2 / eps is at most
# this; rho bounds its phi error to first order (see _batched_log_phi).
GRAM_RHO_MAX = 2e-4
# Matrix entries per chunk of either kernel, max(1, CHUNK_ENTRIES // n^2)
# grid points: small chunks stay in cache, and large enough ones keep the
# per-chunk Python work (which holds the interpreter lock) small.
CHUNK_ENTRIES = 16 * 32 * 32

def _run_share(fn, starts) -> None:
    for start in starts:
        fn(start)


def _map_chunks(fn, count: int, step: int) -> None:
    """Call ``fn(start)`` for every start in range(0, count, step), on every usable core.

    The starts are dealt round-robin into one share per core (at most one per
    chunk); the calling thread runs the first share and threads started and
    joined within this call the others, each in a copy of the caller's context
    (numpy's errstate is a context variable). Each ``fn(start)`` must write
    only its own chunk's output, so the result does not depend on the number
    of cores. With one core, or one chunk, the chunks run in a plain loop.
    """
    starts = range(0, count, step)
    shares = min(len(os.sched_getaffinity(0)), len(starts))
    if shares <= 1:
        _run_share(fn, starts)
        return
    with concurrent.futures.ThreadPoolExecutor(
            shares - 1, thread_name_prefix="specnest-chunks") as pool:
        futures = [pool.submit(contextvars.copy_context().run, _run_share, fn, starts[i::shares])
                   for i in range(1, shares)]
        _run_share(fn, starts[::shares])
    for future in futures:
        future.result()


def _batched_log_phi(T: np.ndarray, lams: np.ndarray, eps: float, norm: float) -> tuple:
    """phi(lam) = (1/2) tau log(|T - lam|^2 + eps) at every lam; (phi, kernel, rho).

    The Gram kernel uses the identity
        G(lam) = (T - lam)*(T - lam) + eps
               = (T*T + eps) - Re lam (T + T*) - Im lam i(T* - T) + |lam|^2,
    three Hermitian matrices formed once and combined with real scalars, and
    phi = mean(log diag L) for the Cholesky factor G = LL*. Forming and
    factoring G perturbs it by about n u (|T|_2 + |lam|)^2 in norm (u is the
    machine epsilon) while G >= eps, so to first order phi moves by at most
    about rho / 2, with rho = n u (|T|_2 + max|lam|)^2 / eps; rho is
    invariant under (T, lam, eps) -> (cT, c lam, c^2 eps). When
    rho > GRAM_RHO_MAX the kernel takes the singular values of T - lam
    instead, which does not square the condition number. Either kernel runs
    in chunks of CHUNK_ENTRIES matrix entries spread over every usable core
    (``_map_chunks``); each point's phi depends on its own lam alone.
    """
    n = T.shape[0]
    rho = float(n * np.finfo(float).eps * np.square(norm + np.max(np.abs(lams))) / eps)
    out = np.empty(len(lams))
    step = max(1, CHUNK_ENTRIES // (n * n))
    if rho <= GRAM_RHO_MAX:
        Th = T.conj().T
        eye = np.eye(n, dtype=complex)
        # Rows: T*T + eps, T + T*, i(T* - T), I as real pairs, so that one
        # real matmul per chunk forms every G(lam) of the chunk.
        terms = np.stack([Th @ T + eps * eye, T + Th, 1j * (Th - T), eye])
        terms = terms.reshape(4, -1).view(float)
        diag = np.arange(n)

        def chunk(start):
            lam = lams[start : start + step]
            coef = np.stack([np.ones(len(lam)), -lam.real, -lam.imag, np.abs(lam) ** 2], axis=1)
            L = np.linalg.cholesky((coef @ terms).view(complex).reshape(-1, n, n))
            out[start : start + len(lam)] = np.mean(np.log(L[:, diag, diag].real), axis=1)

        kernel = "cholesky"
    else:
        eye = np.eye(n)

        def chunk(start):
            batch = lams[start : start + step]
            mats = T[None, :, :] - batch[:, None, None] * eye[None, :, :]
            sv = np.linalg.svd(mats, compute_uv=False)
            out[start : start + len(batch)] = 0.5 * np.mean(np.log(sv**2 + eps), axis=1)

        kernel = "svd"
    _map_chunks(chunk, len(lams), step)
    return out, kernel, rho


def brown_density_grid(T, bounds=None, resolution=201, eps: float = 1e-8) -> DensityGrid:
    """Brown density via the 5-point discrete Laplacian of the log potential.

    Computes phi(lam) = (1/2) tau log(|T - lam|^2 + eps) on the cell centers,
    applies the Laplacian stencil, scales by cell area / (2 pi), and clamps
    tiny negative cells (counting those below -1e-6 as diagnostics).

    phi comes from one Cholesky factor of the shifted Gram matrix
    G(lam) = (T*T + eps) - Re lam (T + T*) - Im lam i(T* - T) + |lam|^2 per
    cell when rho = n u (|T|_2 + max|lam|)^2 / eps <= GRAM_RHO_MAX (u is the
    machine epsilon; rho bounds the phi error of that path to first order),
    and from the singular values of T - lam otherwise. Raises OverflowError
    when phi is not finite (|T| too large for its squares to be represented).
    """
    T = as_operator(T)
    if not 0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    norm = operator_norm(T)
    if bounds is None:
        half = default_half_side(norm)
        bounds = (-half, half, -half, half)
    if isinstance(resolution, int):
        resolution = (resolution, resolution)
    nx, ny = resolution
    if nx < 32 or ny < 32:
        raise ValueError("resolution must be at least 32 per axis")
    xmin, xmax, ymin, ymax = bounds
    if not all(map(math.isfinite, bounds)):
        raise ValueError(f"bounds {bounds} must be finite")

    def covers(rad):
        return xmin <= -rad and xmax >= rad and ymin <= -rad and ymax >= rad

    # rho(T) <= |T|_2, so the eigensolve runs only when the norm's disk is not covered.
    if not covers(norm + 3.0 * math.sqrt(eps)):
        rad = spectral_radius(T) + 3.0 * math.sqrt(eps)
        if not covers(rad):
            raise ValueError(
                f"bounds {bounds} do not cover the spectral disk of radius {rad:.4g}"
            )
    hx = (xmax - xmin) / nx
    hy = (ymax - ymin) / ny
    xs = xmin + (np.arange(nx) + 0.5) * hx
    ys = ymin + (np.arange(ny) + 0.5) * hy
    lams = (xs[:, None] + 1j * ys[None, :]).ravel()
    with np.errstate(over="ignore"):  # reported by the check below
        phi, kernel, rho = _batched_log_phi(T, lams, eps, norm)
    if not np.all(np.isfinite(phi)):
        raise OverflowError(
            f"log potential is not finite ({kernel} kernel, |T| = {norm:.3g})"
        )
    phi = phi.reshape(nx, ny)

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
        kernel=kernel,
        rho=rho,
    )

