"""Time ``decompose`` on one scipy BLAS thread against the caller's thread
count, with and without numpy BLAS work between the calls, and pick the
largest size at which one thread still wins: ``matrices.ONE_THREAD_MAX_N``.

Usage:
    python3 scripts/blas_threads_timing.py [--sizes 128 192 256 288 320 352 512]
        [--repeats 8] [--out timing.json]

The input at each size is ``generate(EnsembleSpec(Ginibre(n), seed=0))``;
one untimed call per path and size goes first. Both paths run
``decompose``'s body (``decompose._decompose``) on the validated input: the
pinned path sets scipy's OpenBLAS to one thread around it at every size, the
other leaves the caller's count. The two paths take turns in each repeat,
which of them goes first alternating. The "numpy_between" sweep runs a
numpy values-only SVD and a numpy product of the input before every timed
call, untimed, as a caller's own numpy work would: they wake numpy's
OpenBLAS pool, whose threads then compete with scipy's. The "quiet" sweep
runs nothing between the calls. Figures are median ms per call.

``from_n`` is the smallest swept size at which one thread is slower than
the caller's count in either sweep, and the cutoff is the swept size just
below it, or the largest size when one thread is never slower.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np


def _input(n: int) -> np.ndarray:
    from specnest import EnsembleSpec, Ginibre, generate
    from specnest.matrices import as_operator
    return as_operator(generate(EnsembleSpec(Ginibre(n), seed=0))[0])


def _pinned(T: np.ndarray):
    """decompose's body on one scipy BLAS thread, whatever the size."""
    from specnest import matrices
    from specnest.decompose import _decompose
    with matrices._BLAS_THREADS_LOCK:
        previous = matrices._set_blas_threads(1)
        try:
            return _decompose(T)
        finally:
            matrices._set_blas_threads(previous)


def _callers(T: np.ndarray):
    """decompose's body on the caller's scipy BLAS thread count."""
    from specnest.decompose import _decompose
    return _decompose(T)


PATHS = {"one_thread_ms": _pinned, "callers_ms": _callers}


def _numpy_work(T: np.ndarray) -> None:
    np.linalg.svd(T, compute_uv=False)
    T @ T


def time_size(n: int, repeats: int, numpy_between: bool) -> dict:
    """Median ms per call of each path at size n."""
    T = _input(n)
    for path in PATHS.values():
        path(T)  # untimed: the first call at n sizes LAPACK's workspaces
    seconds = {name: [] for name in PATHS}
    for k in range(repeats):
        for name in (list(PATHS) if k % 2 == 0 else list(PATHS)[::-1]):
            if numpy_between:
                _numpy_work(T)
            start = time.perf_counter()
            PATHS[name](T)
            seconds[name].append(time.perf_counter() - start)
    return {name: round(1e3 * statistics.median(s), 3) for name, s in seconds.items()}


def cutoff(sweeps: dict) -> dict:
    """The smallest size at which one thread is slower in a sweep (``from_n``)
    and the swept size below it (``cutoff``)."""
    sizes = sorted({n for rows in sweeps.values() for n in rows})
    from_n = next((n for n in sizes if any(rows[n]["one_thread_ms"] > rows[n]["callers_ms"]
                                           for rows in sweeps.values())), None)
    below = [n for n in sizes if from_n is None or n < from_n]
    return {"from_n": from_n, "cutoff": below[-1] if below else None}


def machine() -> dict:
    import scipy
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": np.__version__, "scipy": scipy.__version__,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[128, 192, 256, 288, 320, 352, 512])
    parser.add_argument("--repeats", type=int, default=8)
    parser.add_argument("--out", help="write the JSON record here as well")
    args = parser.parse_args()

    from specnest import matrices
    if matrices._set_blas_threads is None:
        sys.exit("scipy's LAPACK does not reach openblas_set_num_threads_local: nothing to time")
    callers = matrices._set_blas_threads(1)
    matrices._set_blas_threads(callers)
    sweeps = {name: {n: time_size(n, args.repeats, numpy_between)
                     for n in sorted(args.sizes)}
              for name, numpy_between in (("numpy_between", True), ("quiet", False))}
    record = {"command": sys.argv, "machine": machine(), "callers_threads": callers,
              "one_thread_max_n": matrices.ONE_THREAD_MAX_N, "sweeps": sweeps,
              **cutoff(sweeps)}

    text = json.dumps(record, indent=1)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")


if __name__ == "__main__":
    main()
