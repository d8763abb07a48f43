"""Fuglede-Kadison determinant, log-determinant potential and Brown measures.

The exact Brown measure of a matrix is its eigenvalue counting measure; the
numerical estimator recovers it as the discrete Laplacian of the regularized
log potential on a grid.
"""
from __future__ import annotations

import concurrent.futures
import contextvars
import dataclasses
import functools
import math
import operator
import os

import numpy as np

from .hsnest import Ball
from .matrices import (
    _singular_values,
    as_operator,
    cluster_eigenvalues,
    default_half_side,
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
        Ball(center, radius)  # a NaN would make every comparison below false
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
    return _counting_measure(np.linalg.eigvals(T), float(_singular_values(T)[0]))


def _counting_measure(eigs: np.ndarray, norm: float) -> SpectralMeasure:
    """``brown_measure_exact`` from T's eigenvalues and 2-norm ``norm``."""
    labels, roots, reps = cluster_eigenvalues(eigs, norm)
    atoms = sorted(zip(reps.tolist(), (np.bincount(labels)[roots] / len(eigs)).tolist()),
                   key=lambda a: (a[0].real, a[0].imag))
    return SpectralMeasure(tuple(atoms))


@dataclasses.dataclass(frozen=True, eq=False)
class DensityGrid:
    """Brown density estimate of T on a rectangle of cells (see ``brown_density_grid``).

    A cell's mass is the 5-point Laplacian of phi(lam) = (1/2) tau
    log(|T - lam|^2 + eps) at its center, times cell area / (2 pi); border
    cells carry none, and no cell is clamped. Summed over a set of inner cells
    the stencil telescopes to the flux of phi out of the set: hx hy / (2 pi)
    times the sum, over each edge from a cell inside to a neighbour outside,
    of (phi(out) - phi(in)) / h^2 (h the edge's step). ``total_mass`` and
    ``mass_within`` take that form, so each evaluates phi only on the cells on
    both sides of its region's boundary. ``cell_mass`` and
    ``negative_cells_flagged`` (cells below -1e-6: stencil ringing next to a
    near-atomic spike) evaluate phi on every cell when first read, and no
    mass query reuses that phi, so each value does not depend on what was
    read before it.

    ``kernel`` names the log-potential kernel ("cholesky" or "svd") and
    ``rho`` the conditioning figure that chose it; every evaluation of phi
    uses both.
    """

    bounds: tuple  # (xmin, xmax, ymin, ymax)
    resolution: tuple  # (nx, ny)
    epsilon: float
    kernel: str
    rho: float
    _T: dataclasses.InitVar[np.ndarray]  # the validated operator whose phi the grid reads

    def __post_init__(self, _T):
        object.__setattr__(self, "_T", _T)

    @property
    def x_centers(self) -> np.ndarray:
        return _centers(*self.bounds[:2], self.resolution[0])

    @property
    def y_centers(self) -> np.ndarray:
        return _centers(*self.bounds[2:], self.resolution[1])

    def _steps(self) -> tuple:
        xmin, xmax, ymin, ymax = self.bounds
        nx, ny = self.resolution
        return (xmax - xmin) / nx, (ymax - ymin) / ny

    def _phi(self, flat=None) -> np.ndarray:
        """phi at the cells of C-order flat indices ``flat`` (every cell when None)."""
        points = _GridPoints(self.x_centers, self.y_centers, flat)
        return _finite_log_phi(self._T, points, self.epsilon, self.rho)[0]

    @functools.cached_property
    def cell_mass(self) -> np.ndarray:
        """Cell masses, shape (nx, ny) indexed [ix, iy]."""
        nx, ny = self.resolution
        hx, hy = self._steps()
        phi = self._phi().reshape(nx, ny)
        # The stencil ((a - 2c) + b)/hx^2 + ((d - 2c) + e)/hy^2 in that order (a - 2c
        # is -2c + a exactly), built in the inner cells with one inner-sized temporary.
        mass = np.zeros_like(phi)
        lap, y = mass[1:-1, 1:-1], -2.0 * phi[1:-1, 1:-1]
        for part, a, b, h in ((lap, phi[2:, 1:-1], phi[:-2, 1:-1], hx),
                              (y, phi[1:-1, 2:], phi[1:-1, :-2], hy)):
            np.add(y, a, out=part)
            part += b
            part /= h**2
        lap += y
        mass *= hx * hy
        mass /= 2.0 * math.pi
        return mass

    @property
    def negative_cells_flagged(self) -> int:
        return int(np.count_nonzero(self.cell_mass < -1e-6))

    @functools.cached_property
    def total_mass(self) -> float:
        inside = np.zeros(self.resolution, dtype=bool)
        inside[1:-1, 1:-1] = True
        return self._flux_mass(inside)

    def mass_within(self, center: complex, radius: float) -> float:
        """Mass of the inner cells whose centers lie in the closed disk."""
        Ball(center, radius)  # a NaN would make every comparison below false
        center = complex(center)
        dx2 = (self.x_centers[:, None] - center.real) ** 2
        inside = dx2 + (self.y_centers[None, :] - center.imag) ** 2 <= radius**2
        inside[[0, -1], :] = inside[:, [0, -1]] = False
        return self._flux_mass(inside)

    def _flux_mass(self, inside: np.ndarray) -> float:
        """Stencil mass of the inner cells ``inside`` (an (nx, ny) mask) as the flux of phi."""
        nx, ny = self.resolution
        hx, hy = self._steps()
        flat = np.arange(nx * ny).reshape(nx, ny)
        # Each edge as (flat index of its lower cell, of its upper cell, step h).
        edges = [(low[cross], low[cross] + step, h) for cross, low, step, h in (
            (inside[:-1] != inside[1:], flat[:-1], ny, hx),
            (inside[:, :-1] != inside[:, 1:], flat[:, :-1], 1, hy))]
        cells = np.unique(np.concatenate([k for a, b, _ in edges for k in (a, b)]))
        phi = self._phi(cells)
        inside = inside.ravel()
        flux = 0.0
        for a, b, h in edges:
            out_minus_in = phi[np.searchsorted(cells, b)] - phi[np.searchsorted(cells, a)]
            np.negative(out_minus_in, out=out_minus_in, where=inside[b])
            flux += np.sum(out_minus_in) / h**2
        return float(flux * (hx * hy) / (2.0 * math.pi))


def _centers(lo: float, hi: float, n: int) -> np.ndarray:
    """Centers of n equal cells covering [lo, hi]."""
    return lo + (np.arange(n) + 0.5) * ((hi - lo) / n)


class _GridPoints:
    """Cell centers xs[i] + 1j ys[j] at C-order flat indices (every cell when
    ``flat`` is None), built one slice at a time, so that the kernel's chunks
    see the points of the whole-grid array without that array being made."""

    def __init__(self, xs: np.ndarray, ys: np.ndarray, flat=None):
        self.xs, self.ys, self.flat = xs, ys, flat

    def __len__(self) -> int:
        return len(self.xs) * len(self.ys) if self.flat is None else len(self.flat)

    def __getitem__(self, part: slice) -> np.ndarray:
        k = np.arange(*part.indices(len(self))) if self.flat is None else self.flat[part]
        i, j = np.divmod(k, len(self.ys))
        return self.xs[i] + 1j * self.ys[j]


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


def _batched_log_phi(T: np.ndarray, lams, eps: float, rho: float) -> tuple:
    """phi(lam) = (1/2) tau log(|T - lam|^2 + eps) at every lam; (phi, kernel).

    The Gram kernel uses the identity
        G(lam) = (T - lam)*(T - lam) + eps
               = (T*T + eps) - Re lam (T + T*) - Im lam i(T* - T) + |lam|^2,
    three Hermitian matrices formed once and combined with real scalars, and
    phi = mean(log diag L) for the Cholesky factor G = LL*. Forming and
    factoring G perturbs it by about n u (|T|_2 + |lam|)^2 in norm (u is the
    machine epsilon) while G >= eps, so to first order phi moves by at most
    about rho / 2, with rho = n u (|T|_2 + max|lam|)^2 / eps (``_gram_rho``);
    rho is invariant under (T, lam, eps) -> (cT, c lam, c^2 eps). When
    rho > GRAM_RHO_MAX the kernel takes the singular values of T - lam
    instead, which does not square the condition number. The caller gives
    rho, its max|lam| taken over every point it will evaluate (a grid's
    corners), so that every evaluation on one grid takes the same kernel.
    Either kernel runs in chunks of CHUNK_ENTRIES matrix entries spread over
    every usable core (``_map_chunks``); each point's phi depends on its own
    lam alone, though not always to the last bit on which points share its
    chunk.

    ``lams`` is an array, or any sequence whose slices are arrays (a
    ``_GridPoints``).
    """
    n = T.shape[0]
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
    return out, kernel


def _gram_rho(n: int, norm: float, lams: np.ndarray, eps: float) -> float:
    """rho = n u (|T|_2 + max|lam|)^2 / eps, the Gram kernel's first-order phi error
    bound; inf when the square overflows, which takes the SVD kernel."""
    with np.errstate(over="ignore"):
        return float(n * np.finfo(float).eps * np.square(norm + np.max(np.abs(lams))) / eps)


def _finite_log_phi(T: np.ndarray, lams, eps: float, rho: float) -> tuple:
    """``_batched_log_phi``'s (phi, kernel); OverflowError when phi is not
    finite (|T - lam| too large for its squares to be represented)."""
    with np.errstate(over="ignore"):  # reported below
        phi, kernel = _batched_log_phi(T, lams, eps, rho)
    if not np.all(np.isfinite(phi)):
        raise OverflowError(
            f"log potential is not finite ({kernel} kernel): |T - lam| too large to square"
        )
    return phi, kernel


def brown_density_grid(T, bounds=None, resolution=201, eps: float = 1e-8) -> DensityGrid:
    """Brown density via the 5-point discrete Laplacian of the log potential.

    The grid covers ``bounds`` with resolution x resolution cells (an integer
    >= 32, not a bool); a cell's mass is the Laplacian stencil of phi(lam) =
    (1/2) tau log(|T - lam|^2 + eps) at the cell centers, scaled by cell area
    / (2 pi), unclamped. Only the four corner cells' phi is evaluated here:
    masses come from the flux of phi through a region's boundary, and the
    cells on their first read (see ``DensityGrid``).

    phi comes from one Cholesky factor of the shifted Gram matrix
    G(lam) = (T*T + eps) - Re lam (T + T*) - Im lam i(T* - T) + |lam|^2 per
    cell when rho = n u (|T|_2 + max|lam|)^2 / eps <= GRAM_RHO_MAX (u is the
    machine epsilon; rho bounds the phi error of that path to first order),
    and from the singular values of T - lam otherwise. |lam| is largest at a
    corner cell, so the corners fix rho and the kernel for the whole grid.
    Raises OverflowError when phi at a corner is not finite (|T| too large for
    its squares to be represented): the largest singular value of T - lam is
    convex in lam, so the corners attain the grid's largest, and the Cholesky
    kernel runs only where nothing can overflow.
    """
    T = as_operator(T)
    if not 0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    norm = float(_singular_values(T)[0])
    if bounds is None:
        half = default_half_side(norm)
        bounds = (-half, half, -half, half)
    if isinstance(resolution, bool):
        raise TypeError("resolution must be an integer, not a bool")
    nx = ny = operator.index(resolution)
    if nx < 32:
        raise ValueError("resolution must be at least 32")
    if not all(map(math.isfinite, bounds)):
        raise ValueError(f"bounds {bounds} must be finite")
    bounds = tuple(float(b) for b in bounds)
    xmin, xmax, ymin, ymax = bounds

    def covers(rad):
        return xmin <= -rad and xmax >= rad and ymin <= -rad and ymax >= rad

    # rho(T) <= |T|_2, so the eigensolve runs only when the norm's disk is not covered.
    if not covers(norm + 3.0 * math.sqrt(eps)):
        rad = spectral_radius(T) + 3.0 * math.sqrt(eps)
        if not covers(rad):
            raise ValueError(
                f"bounds {bounds} do not cover the spectral disk of radius {rad:.4g}"
            )
    corners = _GridPoints(_centers(xmin, xmax, nx), _centers(ymin, ymax, ny),
                          np.array([0, ny - 1, (nx - 1) * ny, nx * ny - 1]))[:]
    rho = _gram_rho(T.shape[0], norm, corners, eps)
    _, kernel = _finite_log_phi(T, corners, eps, rho)
    return DensityGrid(
        bounds=bounds,
        resolution=(nx, ny),
        epsilon=float(eps),
        kernel=kernel,
        rho=rho,
        _T=T,
    )
