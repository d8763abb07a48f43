"""Dense complex matrix foundation.

Operator validation, norms and singular values, projection nests,
eigenvalue clusters, and Schur factorizations with a caller-supplied
ordering of the eigenvalues on the diagonal.

numpy and scipy each bundle their own OpenBLAS, each with its own thread
pool, and two pools waking in turn compete for the cores. So the products
(``gemm``) and 2-norms (``operator_norm``) that ``decompose`` reaches run in
scipy's BLAS/LAPACK, next to its Schur form and reordering; numpy does the
elementwise work.
"""
from __future__ import annotations

import dataclasses

import numpy as np
import scipy.linalg

# Two eigenvalues closer than this (relative to the operator norm) are
# treated as one cluster with multiplicity.
CLUSTER_TOL = 1e-10

# Half-side of the default squares (curve, Brown grid) relative to ||T||_2.
HALF_SIDE_FACTOR = 1.25


def default_half_side(norm: float) -> float:
    """Half-side of the default square for a matrix of 2-norm ``norm`` (1 if it is 0)."""
    return HALF_SIDE_FACTOR * norm if norm else 1.0


def as_operator(matrix) -> np.ndarray:
    """Validate and return a square complex matrix as a fresh complex128 array."""
    A = np.array(matrix, dtype=np.complex128)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A.real)) or not np.all(np.isfinite(A.imag)):
        raise ValueError("matrix entries must be finite")
    return A


def operator_norm(T) -> float:
    """Largest singular value (scipy's LAPACK; ``as_operator`` checked finiteness)."""
    return float(scipy.linalg.svd(as_operator(T), compute_uv=False, check_finite=False)[0])


def gemm(a: np.ndarray, b: np.ndarray, adj_a: bool = False, adj_b: bool = False) -> np.ndarray:
    """Complex product op(a) op(b), op the adjoint where asked, by scipy's BLAS zgemm.

    Equal to ``a @ b`` (or with ``a.conj().T``, ``b.conj().T``) and C-ordered.
    BLAS computes the transpose, op(b)^T op(a)^T, whose factors are the
    transposes of C-ordered operands: Fortran-ordered, so they are not copied.
    """
    return scipy.linalg.blas.zgemm(1.0, b.T, a.T, trans_a=2 * adj_b, trans_b=2 * adj_a).T


def frobenius(R) -> float:
    """Frobenius norm as BLAS nrm2 of the raveled entries: it bounds the 2-norm,
    cannot overflow, and raises ValueError on non-finite entries."""
    return float(scipy.linalg.norm(np.ravel(R)))


def spectral_radius(T) -> float:
    eigs = np.linalg.eigvals(as_operator(T))
    return float(np.max(np.abs(eigs)))


def singular_values(T) -> np.ndarray:
    """Singular values, descending."""
    return np.linalg.svd(as_operator(T), compute_uv=False)


@dataclasses.dataclass(frozen=True)
class ProjectionNest:
    """Increasing family of projections stored as a flag plus jump times.

    ``basis`` is unitary; the projection at time t is onto the span of the
    first ``rank_at(t)`` columns. ``jumps`` is a tuple of (t, rank) pairs with
    strictly increasing t and rank, starting at (0, 0) and ending with rank n;
    the family is right-continuous: rank_at(t) is the rank of the last jump
    with jump time <= t.
    """

    basis: np.ndarray
    jumps: tuple

    def __post_init__(self):
        U = as_operator(self.basis)
        n = U.shape[0]
        if frobenius(gemm(U, U, adj_a=True) - np.eye(n)) > 1e-10:
            raise ValueError("nest basis is not unitary")
        jumps = tuple((float(t), int(r)) for t, r in self.jumps)
        ts = [t for t, _ in jumps]
        ranks = [r for _, r in jumps]
        if jumps[0] != (0.0, 0) or ranks[-1] != n:
            raise ValueError("jumps must start at (0, 0) and end at full rank")
        if any(t2 <= t1 for t1, t2 in zip(ts, ts[1:])):
            raise ValueError("jump times must increase strictly")
        if any(r2 <= r1 for r1, r2 in zip(ranks, ranks[1:])):
            raise ValueError("jump ranks must increase strictly")
        if ts[-1] > 1.0:
            raise ValueError("jump times must lie in [0, 1]")
        object.__setattr__(self, "basis", U)
        object.__setattr__(self, "jumps", jumps)

    def rank_at(self, t: float) -> int:
        rank = 0
        for tj, rj in self.jumps:
            if tj <= t:
                rank = rj
        return rank

    def projection_at(self, t: float) -> np.ndarray:
        k = self.rank_at(t)
        V = self.basis[:, :k]
        return V @ V.conj().T

    def increments(self) -> list:
        """List of (t, lo, hi): minimal jump increment spanning columns lo:hi."""
        out = []
        prev = 0
        for t, r in self.jumps[1:]:
            out.append((t, prev, r))
            prev = r
        return out


def _check_invariant_projection(T: np.ndarray, p: np.ndarray, norm: float) -> None:
    """Raise ValueError unless p is an orthogonal projection (within 1e-10) with
    T-invariant range: ||Tp - pTp||_F <= 1e-8 * norm, where ``norm`` is ||T||_2."""
    if frobenius(p @ p - p) > 1e-10 or frobenius(p - p.conj().T) > 1e-10:
        raise ValueError("p is not an orthogonal projection")
    if frobenius(T @ p - p @ T @ p) > 1e-8 * norm:
        raise ValueError("range of p is not T-invariant")


def cluster_eigenvalues(eigs: np.ndarray, tol: float) -> list:
    """Partition eigenvalues into clusters of pairwise distance <= tol (chained).

    Returns the connected components of the graph joining eigenvalues within
    tol, as index arrays ordered by smallest index, indices ascending. Labels
    start as indices and drop to the smallest label within tol (and on to that
    label's own label) until each settles on its component's smallest index.
    """
    near = np.abs(np.subtract.outer(eigs, eigs)) <= tol
    labels = np.arange(len(eigs))
    while True:
        lower = np.where(near, labels, len(eigs)).min(axis=1)
        lower = lower[lower]
        if (lower == labels).all():
            break
        labels = lower
    order = np.argsort(labels, kind="stable")  # by root, indices ascending
    sizes = np.bincount(labels)
    ends = np.cumsum(sizes[sizes > 0]).tolist()
    return [order[a:b] for a, b in zip([0] + ends, ends)]


def eigenvalue_clusters(eigs: np.ndarray, norm: float) -> list:
    """Eigenvalues as (representative, index array) pairs.

    Eigenvalues within CLUSTER_TOL * norm (norm = ||T||_2, so cT clusters as T
    does) of each other (chained) form one cluster, represented by its mean.
    """
    tol = CLUSTER_TOL * norm
    return [(complex(np.mean(eigs[ix]) if len(ix) > 1 else eigs[ix[0]]), ix)
            for ix in cluster_eigenvalues(eigs, tol)]


def spectrum_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Largest distance between paired eigenvalues of two equal-size spectra.

    The pairs minimise the total distance: unlike a sort, they never cross
    conjugates, and no pairing can score below the optimal matching distance.
    """
    cost = np.abs(np.subtract.outer(a, b))
    nearest = np.argmin(cost, axis=1)  # the first of equal values in b
    _, first, mult = np.unique(b, return_index=True, return_counts=True)
    if np.array_equal(np.bincount(nearest, minlength=len(b))[first], mult):
        # Each a can keep its nearest value, so no pairing sums less.
        return float(np.max(cost[np.arange(len(a)), nearest]))
    # Imported only here, where few inputs get: it adds 0.3 s and 20 MiB.
    from scipy.optimize import linear_sum_assignment
    rows, cols = linear_sum_assignment(cost)
    return float(np.max(cost[rows, cols]))


def reorder_schur(T: np.ndarray, R: np.ndarray, U: np.ndarray, keys, norm: float):
    """Reorder a complex Schur form T = U R U* by ``keys[i]``, one key per slot i.

    Ties are broken by (Re, Im), then by slot, so the flag is deterministic.
    LAPACK ``ztrexc`` moves one eigenvalue at a time by adjacent unitary
    exchanges and copies the diagonal exactly. ``norm`` is ||T||_2, the scale
    of the residual check. Returns (U, R, perm), U C-ordered: perm[k] is the
    slot, in the given diagonal, of the eigenvalue now at slot k.
    """
    R = np.asfortranarray(R)
    U = np.asfortranarray(U)
    n = R.shape[0]
    sort_keys = [(keys[i], float(z.real), float(z.imag), i)
                 for i, z in enumerate(np.diag(R))]
    target = sorted(range(n), key=sort_keys.__getitem__)
    labels = list(range(n))
    for k in range(n):
        j = labels.index(target[k])
        if j == k:
            continue
        R, U, info = scipy.linalg.lapack.ztrexc(R, U, j + 1, k + 1,
                                                overwrite_a=1, overwrite_q=1)
        if info != 0:
            raise ArithmeticError(f"ztrexc failed (info {info})")
        labels.insert(k, labels.pop(j))
    U = np.ascontiguousarray(U)
    resid = frobenius(T - gemm(gemm(U, R), U, adj_b=True))
    if resid > 1e-9 * norm:
        raise ArithmeticError(
            f"Schur reordering lost accuracy (residual {resid:.3e})"
        )
    return U, R, np.array(labels)

