"""Dense complex matrix foundation.

Operator validation, norms and singular values, projection nests,
eigenvalue clusters, and Schur factorizations with a caller-supplied
ordering of the eigenvalues on the diagonal. ``reorder_schur`` moves the
eigenvalues up in batches of REORDER_BATCH = 32 through windows of
REORDER_WINDOW = 64 diagonal slots: LAPACK ``ztrexc`` works on a copy of each
window's block of R and three ``gemm`` products apply the window's unitary
to the rest of R and to U. At n <= 64 the one window is the whole matrix,
and ``ztrexc`` moves one eigenvalue at a time on R and U themselves. Either
way, Fortran-ordered complex128 factors are reordered in place, and the
residual check is taken on the flag form U*TU, which is returned with U.

numpy and scipy each bundle their own OpenBLAS, each with its own thread
pool, and two pools waking in turn compete for the cores. So the products
(``gemm``) that ``decompose`` reaches and every values-only SVD run in
scipy's BLAS/LAPACK, next to its Schur form and reordering; numpy does the
elementwise work. ``singular_values`` is the one values-only SVD: the
2-norm (``operator_norm``) is its first value, and the majorization checks
and determinants read its array.

numpy and scipy each bundle an OpenBLAS with its own thread pool. A numpy
call just before ``decompose`` leaves numpy's workers awake to compete with
scipy's, and a threaded scipy BLAS gives other bytes than a one-thread one
from n = 128. So ``decompose`` runs on one scipy BLAS thread up to
n = ONE_THREAD_MAX_N (``_one_blas_thread``) and restores the caller's count
on return or raise; above the cutoff it runs on the caller's count, as two
threads won at n = 512. The cutoff comes from the sweeps, with and without
numpy work between the calls, of ``scripts/blas_threads_timing.py``. The count is
set by OpenBLAS's ``openblas_set_num_threads_local``, looked up once through
scipy's LAPACK extension; where it is absent the region changes nothing. In
a pthreads OpenBLAS that setter acts on the whole process, so a reentrant
lock keeps the pinned region to one Python thread at a time, and scipy BLAS
work on another thread runs on one thread while it is open.

On small matrices scipy's wrappers cost more than the factorizations, so
the hot path calls the routines they would pick directly: LAPACK ``gees``
for the complex Schur form (``_complex_schur``, the one Schur entry point of
``hs_projection`` and the nest builder), ``gesdd`` without singular vectors
for ``singular_values`` and BLAS ``nrm2`` for ``frobenius``, with results
bit-identical to ``scipy.linalg.schur``, ``svd`` and ``norm``. A workspace
query reads only the order n, so the optimal size (the one scipy passes; the
minimal one gives another Schur form at n = 256) is asked once per routine
and n and kept in ``_LWORK``.
"""
from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import math
import threading

import numpy as np
import scipy.linalg
import scipy.linalg._flapack

# Two eigenvalues closer than this (relative to the operator norm) are
# treated as one cluster with multiplicity.
CLUSTER_TOL = 1e-10

# Bound on ||U*U - I||_F for the basis U of a projection nest.
NEST_UNITARY_TOL = 1e-10

# Half-side of the default squares (curve, Brown grid) relative to ||T||_2.
HALF_SIDE_FACTOR = 1.25

# reorder_schur moves its targets up in batches of REORDER_BATCH through
# windows of REORDER_WINDOW diagonal slots. A 64-slot window keeps every
# n <= 64 on the whole-matrix path; (64, 32) was the fastest such pair at
# n = 256 in most runs of the sweep in scripts/reorder_timing.py.
REORDER_WINDOW = 64
REORDER_BATCH = 32

# decompose runs on one scipy BLAS thread up to this order and on the
# caller's count above it. It is the smallest cutoff of five sweeps of
# scripts/blas_threads_timing.py (320, 352, 256, 256, 288 on 2 vCPUs): up to
# it one thread was no slower, with or without numpy BLAS work between the
# calls, and without that work two threads won at n = 512 in every sweep
# (BENCH_34.json).
ONE_THREAD_MAX_N = 256


def _thread_setter():
    """OpenBLAS's ``openblas_set_num_threads_local`` in scipy's bundled library,
    or None where scipy's LAPACK extension does not reach that symbol."""
    try:
        setter = ctypes.CDLL(scipy.linalg._flapack.__file__).openblas_set_num_threads_local
    except (AttributeError, OSError):
        return None
    setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
    return setter


# Sets scipy's BLAS thread count and returns the previous one.
_set_blas_threads = _thread_setter()
# The count is process-wide in a pthreads OpenBLAS, so one thread at a time
# holds it pinned; reentrant, as a pinned region may open another.
_BLAS_THREADS_LOCK = threading.RLock()


@contextlib.contextmanager
def _one_blas_thread(n: int):
    """Run the block on one scipy BLAS thread when n <= ONE_THREAD_MAX_N, holding
    _BLAS_THREADS_LOCK, and restore the caller's count on exit; above the cutoff,
    or without the setter, leave the count alone."""
    if _set_blas_threads is None or n > ONE_THREAD_MAX_N:
        yield
        return
    with _BLAS_THREADS_LOCK:
        previous = _set_blas_threads(1)
        try:
            yield
        finally:
            _set_blas_threads(previous)


def default_half_side(norm: float) -> float:
    """Half-side of the default square for a matrix of 2-norm ``norm`` (1 if it is 0).

    Raises OverflowError when HALF_SIDE_FACTOR * norm exceeds the largest double.
    """
    half = HALF_SIDE_FACTOR * norm if norm else 1.0
    if half == np.inf:
        raise OverflowError(f"the default square's half-side {HALF_SIDE_FACTOR} * ||T||_2 "
                            f"overflows (||T||_2 = {norm:.4g})")
    return half


def as_operator(matrix) -> np.ndarray:
    """Validate and return a square complex matrix as a fresh complex128 array."""
    A = np.array(matrix, dtype=np.complex128)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError("matrix entries must be finite")
    return A


# Optimal LAPACK workspace sizes by (routine, n).
_LWORK: dict = {}


def _no_sort(x, y=None):
    return None


def _complex_schur(T: np.ndarray) -> tuple:
    """(R, U) with T = U R U*, R upper triangular and U unitary, for a complex128
    T from ``as_operator``: ``scipy.linalg.schur(T, output="complex")`` as one
    bare LAPACK ``gees`` call. Raises LinAlgError when the QR iteration fails."""
    gees, = scipy.linalg.get_lapack_funcs(("gees",), (T,))
    n = T.shape[0]
    if ("gees", n) not in _LWORK:
        _LWORK["gees", n] = int(gees(_no_sort, T, lwork=-1)[-2][0].real)
    R, _, _, U, _, info = gees(_no_sort, T, lwork=_LWORK["gees", n], sort_t=0)
    if info:
        raise scipy.linalg.LinAlgError(f"Schur form not found (gees info {info})")
    return R, U


def singular_values(T) -> np.ndarray:
    """Singular values, descending: ``scipy.linalg.svd(T, compute_uv=False)`` as
    one bare LAPACK ``gesdd`` call. Raises LinAlgError when the SVD does not
    converge."""
    return _singular_values(as_operator(T))


def _singular_values(A: np.ndarray) -> np.ndarray:
    """``singular_values`` of a complex128 A from ``as_operator``."""
    gesdd, gesdd_lwork = scipy.linalg.get_lapack_funcs(("gesdd", "gesdd_lwork"), (A,),
                                                       ilp64="preferred")
    n = A.shape[0]
    if ("gesdd", n) not in _LWORK:
        _LWORK["gesdd", n] = int(gesdd_lwork(n, n, compute_uv=0, full_matrices=0)[0].real)
    _, s, _, info = gesdd(A, compute_uv=0, lwork=_LWORK["gesdd", n], full_matrices=0)
    if info:
        raise scipy.linalg.LinAlgError(f"SVD did not converge (gesdd info {info})")
    return s


def operator_norm(T) -> float:
    """Largest singular value, the first of ``singular_values``."""
    return float(singular_values(T)[0])


def gemm(a: np.ndarray, b: np.ndarray, adj_a: bool = False, adj_b: bool = False) -> np.ndarray:
    """Complex product op(a) op(b), op the adjoint where asked, by scipy's BLAS zgemm.

    Equal to ``a @ b`` (or with ``a.conj().T``, ``b.conj().T``) and C-ordered.
    BLAS computes the transpose, op(b)^T op(a)^T, whose factors are the
    transposes of C-ordered operands: Fortran-ordered, so they are not copied.
    """
    return scipy.linalg.blas.zgemm(1.0, b.T, a.T, trans_a=2 * adj_b, trans_b=2 * adj_a).T


def frobenius(R) -> float:
    """Frobenius norm as BLAS nrm2 of the raveled entries, so it bounds the
    2-norm. nrm2 scales as it sums, so no square overflows, but the norm itself
    is inf when it exceeds the largest double. Raises ValueError on non-finite
    entries, which are scanned for only when the norm is not finite."""
    x = np.asarray(R).ravel()
    if not x.size:
        return 0.0
    value = float(scipy.linalg.get_blas_funcs("nrm2", dtype=x.dtype, ilp64="preferred")(x))
    if not math.isfinite(value) and not np.isfinite(x).all():
        raise ValueError("array must not contain infs or NaNs")
    return value


def spectral_radius(T) -> float:
    eigs = np.linalg.eigvals(as_operator(T))
    return float(np.max(np.abs(eigs)))


@dataclasses.dataclass(frozen=True)
class ProjectionNest:
    """Increasing family of projections stored as a flag plus jump times.

    ``basis`` is unitary; the projection at time t is onto the span of the
    first ``rank_at(t)`` columns. ``jumps`` is a tuple of (t, rank) pairs, t in
    [0, 1] and rank an integer, with strictly increasing t and rank, starting
    at (0, 0) and ending with rank n;
    the family is right-continuous: rank_at(t) is the rank of the last jump
    with jump time <= t. A NaN t raises ValueError.
    """

    basis: np.ndarray
    jumps: tuple

    def __post_init__(self):
        # A non-square basis is not unitary, and frobenius rejects non-finite entries.
        U = np.array(self.basis, dtype=np.complex128)
        n = len(U) if U.ndim == 2 else 0
        if not n or U.shape != (n, n):
            raise ValueError("nest basis is not unitary")
        defect = gemm(U, U, adj_a=True)
        defect.flat[::n + 1] -= 1.0  # U*U - I
        if frobenius(defect) > NEST_UNITARY_TOL:
            raise ValueError("nest basis is not unitary")
        jumps = []
        for t, r in self.jumps:  # one pass over the jumps checks them all
            if isinstance(r, bool) or not isinstance(r, (int, np.integer)):
                raise ValueError("jump ranks must be integers")
            t, r = float(t), int(r)
            if not 0.0 <= t <= 1.0:  # NaN included
                raise ValueError("jump times must lie in [0, 1]")
            if jumps and t <= jumps[-1][0]:
                raise ValueError("jump times must increase strictly")
            if jumps and r <= jumps[-1][1]:
                raise ValueError("jump ranks must increase strictly")
            jumps.append((t, r))
        if not jumps or jumps[0] != (0.0, 0) or jumps[-1][1] != n:
            raise ValueError("jumps must start at (0, 0) and end at full rank")
        object.__setattr__(self, "basis", U)
        object.__setattr__(self, "jumps", tuple(jumps))

    def rank_at(self, t: float) -> int:
        if math.isnan(t):  # it compares false with every jump time
            raise ValueError("t must not be NaN")
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


def cluster_eigenvalues(eigs: np.ndarray, norm: float) -> tuple:
    """(labels, roots, reps): eigenvalues within CLUSTER_TOL * norm (norm = ||T||_2,
    so cT clusters as T does) of each other, chained, form one cluster.

    labels[i], the smallest index in i's cluster, starts as i and drops to the
    smallest label within tol (and on to that label's own) until all settle.
    ``roots`` holds those indices, ascending, and ``reps`` the cluster means.
    """
    near = np.abs(np.subtract.outer(eigs, eigs)) <= CLUSTER_TOL * norm
    labels = np.arange(len(eigs))
    while True:
        lower = np.where(near, labels, len(eigs)).min(axis=1)
        lower = lower[lower]
        if (lower == labels).all():
            break
        labels = lower
    roots = (labels == np.arange(len(eigs))).nonzero()[0]
    reps = eigs[roots]
    for k in (np.bincount(labels)[roots] > 1).nonzero()[0].tolist():
        reps[k] = np.mean(eigs[labels == roots[k]])
    return labels, roots, reps


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
    The targets move up in batches of REORDER_BATCH (Kressner, ACM TOMS 32,
    2006). A window of REORDER_WINDOW diagonal slots starts at the batch member
    lowest on the diagonal and slides up to the batch's final slots; in each window
    LAPACK ``ztrexc`` moves the members it holds, in target order, to its top
    by adjacent unitary exchanges on a copy of R's diagonal block, and three
    ``gemm`` products apply the accumulated window unitary to R's rows right
    of the window, R's columns above it and U's columns. ``ztrexc`` copies the
    diagonal exactly and leaves the strict lower triangle zero. At n <= the
    window size the window is the whole matrix, and ``ztrexc`` works on R and
    U themselves, one eigenvalue at a time. Returns (U, B, perm), U C-ordered
    and B = U*TU, T's flag form: perm[k] is the slot, in the given diagonal, of
    the eigenvalue now at slot k. The residual ||B - R||_F is checked against
    1e-9 ``norm`` (``norm`` = ||T||_2). Fortran-ordered complex128 R and U (as
    ``_complex_schur`` returns them) are reordered in place: the caller's R
    holds the reordered triangle and the caller's U the returned U. R and U in
    any other layout or type are copied first, and that R is not returned.
    """
    R = np.asarray(R, dtype=np.complex128, order="F")
    U = np.asarray(U, dtype=np.complex128, order="F")
    n, w = R.shape[0], REORDER_WINDOW
    diag = R.diagonal()
    target = np.lexsort((np.arange(n), diag.imag, diag.real, np.asarray(keys)))
    order = target.tolist()
    slots = list(range(n))  # slots[p]: the given slot of the eigenvalue now at slot p
    for k0 in range(0, n, REORDER_BATCH):
        batch = order[k0:k0 + REORDER_BATCH]  # slots below k0 hold the earlier targets
        bottom = max(slots.index(s, k0) for s in batch)
        while True:
            # w slots holding the batch's lowest member, none above k0 unless
            # the window would pass the matrix's end.
            lo = max(0, min(k0, n - w), bottom + 1 - w)
            hi = min(n, lo + w)
            whole = hi - lo == n
            Rw = R if whole else np.asfortranarray(R[lo:hi, lo:hi])
            Qw = U if whole else np.eye(hi - lo, dtype=np.complex128, order="F")
            bottom, moved = max(lo, k0) - 1, False
            for s in batch:
                p = slots.index(s, k0)
                if p < lo:  # a later window takes it
                    continue
                bottom += 1
                if p != bottom:
                    info = scipy.linalg.lapack.ztrexc(Rw, Qw, p - lo + 1, bottom - lo + 1,
                                                      overwrite_a=1, overwrite_q=1)[2]
                    if info != 0:
                        raise ArithmeticError(f"ztrexc failed (info {info})")
                    slots.insert(bottom, slots.pop(p))
                    moved = True
            if moved and not whole:
                # R[lo:hi, hi:] <- Qw* R[lo:hi, hi:], R[:lo, lo:hi] <- R[:lo, lo:hi] Qw
                # and U[:, lo:hi] <- U[:, lo:hi] Qw, on the transposes: R.T and U.T
                # are C-ordered, the layout gemm takes without a transposing copy.
                R[lo:hi, lo:hi] = Rw
                Rt, Ut = R.T, U.T
                Rt[hi:, lo:hi] = gemm(Rt[hi:, lo:hi], Qw.T, adj_b=True)
                Rt[lo:hi, :lo] = gemm(Qw.T, Rt[lo:hi, :lo])
                Ut[lo:hi] = gemm(Qw.T, Ut[lo:hi])
            if lo <= k0:
                break
    U = np.ascontiguousarray(U)
    B = gemm(gemm(U, T, adj_a=True), U)
    resid = frobenius(B - R)
    if resid > 1e-9 * norm:
        raise ArithmeticError(f"Schur reordering lost accuracy (residual {resid:.3e})")
    return U, B, target

