"""Time the Schur reordering and ``decompose``, sweep the reorder's window and
batch sizes, and find the size from which the windowed reorder beats the
whole-matrix per-slot loop.

Usage:
    python3 scripts/reorder_timing.py [--sizes 256 512 1024] [--repeats 3]
        [--baseline OTHER/src] [--out timing.json]

The input at each size is ``generate(EnsembleSpec(Ginibre(n), seed=0))``;
one untimed ``decompose`` call per size goes first. Each ``decompose`` call
is timed whole, and its ``reorder_schur`` call (keyed
in curve order, as the nest builder keys it) on its own; the figures are
medians over the repeats. The (REORDER_WINDOW, REORDER_BATCH)
sweep and the cut-over time ``reorder_schur`` alone (its residual check
included) on the input's Schur form, the settings taking turns in
each repeat; in the cut-over the per-slot loop is the same function with
the window set to the whole matrix. With ``--baseline``, a second process imports
specnest from that source directory and times the same inputs; the two trees'
outputs are then compared: R's diagonal, the permutation, the nest jumps and
the ordering bit for bit, and N and Q as the largest entry of the difference
and the 2-norm of the difference, each relative to ||T||_2.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SWEEP = ((32, 16), (48, 24), (64, 16), (64, 32), (64, 48), (96, 48), (128, 64))
CUTOVER_SIZES = (80, 96, 112, 128, 160, 192)  # sizes above one window


def _input(n: int) -> np.ndarray:
    from specnest import EnsembleSpec, Ginibre, generate
    return generate(EnsembleSpec(Ginibre(n), seed=0))[0]


def _median_ms(seconds: list) -> float:
    return round(1e3 * statistics.median(seconds), 3)


def time_tree(sizes, repeats: int, save_dir=None) -> dict:
    """Per size: median decompose and reorder_schur times (ms) of the specnest
    on sys.path; with ``save_dir``, each size's outputs go to an npz there."""
    from specnest import decompose, hsnest
    from specnest.matrices import operator_norm

    reorder, calls = hsnest.reorder_schur, []

    def timed_reorder(T, R, U, keys, norm):
        # R, Fortran-ordered from the Schur form, is reordered in place.
        start = time.perf_counter()
        out = reorder(T, R, U, keys, norm)
        calls.append((time.perf_counter() - start, R, out[2]))
        return out

    hsnest.reorder_schur = timed_reorder
    result = {}
    try:
        for n in sizes:
            decompose_s, reorder_s = [], []
            T = _input(n)
            decompose(T)  # untimed: the first call at n sizes LAPACK's workspaces
            for _ in range(repeats):
                calls.clear()
                start = time.perf_counter()
                res = decompose(T)
                decompose_s.append(time.perf_counter() - start)
                [(seconds, R, perm)] = calls
                reorder_s.append(seconds)
            if save_dir is not None:
                np.savez(Path(save_dir) / f"n{n}.npz", norm=operator_norm(T),
                         diag=R.diagonal(), perm=perm,
                         jumps=np.array(res.nest.jumps),
                         ordering=np.array([(t, m) for t, m, _ in res.ordering]),
                         N=res.N, Q=res.Q)
            result[n] = {"decompose_ms": _median_ms(decompose_s),
                         "reorder_ms": _median_ms(reorder_s)}
    finally:
        hsnest.reorder_schur = reorder
    return result


def _reorder_case(n: int) -> tuple:
    """(T, R, U, keys, ||T||_2): the input's Schur form and the keys the
    nest builder hands to reorder_schur."""
    from specnest import hsnest, matrices
    from specnest.curve import HilbertCurveMap

    T = matrices.as_operator(_input(n))
    norm = matrices.operator_norm(T)
    captured = []

    def capture(T, R, U, keys, norm):
        captured.append((R.copy(order="F"), U.copy(order="F"), keys))
        return matrices.reorder_schur(T, R, U, keys, norm)

    hsnest.reorder_schur = capture
    try:
        hsnest._build_nest(T, HilbertCurveMap(matrices.default_half_side(norm)), norm)
    finally:
        hsnest.reorder_schur = matrices.reorder_schur
    [(R, U, keys)] = captured
    return T, R, U, keys, norm


def _reorder_s(case: tuple, window: int, batch: int) -> float:
    """Time of one reorder_schur call on copies of ``case``'s factors at (window, batch)."""
    from specnest import matrices

    T, R, U, keys, norm = case
    R, U = R.copy(order="F"), U.copy(order="F")
    saved = matrices.REORDER_WINDOW, matrices.REORDER_BATCH
    matrices.REORDER_WINDOW, matrices.REORDER_BATCH = window, batch
    try:
        start = time.perf_counter()
        matrices.reorder_schur(T, R, U, keys, norm)
        return time.perf_counter() - start
    finally:
        matrices.REORDER_WINDOW, matrices.REORDER_BATCH = saved


def _interleaved_ms(case: tuple, settings: dict, repeats: int) -> dict:
    """Median ms per named (window, batch), the settings taking turns in each
    repeat so that a drift in the machine's speed reaches them all alike."""
    seconds = {name: [] for name in settings}
    for _ in range(repeats):
        for name, (window, batch) in settings.items():
            seconds[name].append(_reorder_s(case, window, batch))
    return {name: _median_ms(s) for name, s in seconds.items()}


def sweep(sizes, repeats: int) -> dict:
    settings = {f"{w},{m}": (w, m) for w, m in SWEEP}
    return {n: _interleaved_ms(_reorder_case(n), settings, repeats) for n in sizes}


def cutover(repeats: int) -> dict:
    """Windowed reorder against the per-slot loop (one window over the whole
    matrix); ``from_n`` is the smallest size from which the windowed one wins."""
    from specnest import matrices
    window, batch = matrices.REORDER_WINDOW, matrices.REORDER_BATCH
    rows = {}
    for n in CUTOVER_SIZES:
        rows[n] = _interleaved_ms(_reorder_case(n),
                                  {"windowed_ms": (window, batch),
                                   "per_slot_ms": (max(n, window), batch)},
                                  max(repeats, 5))  # a few ms a call: more calls
    slower = [n for n, row in rows.items() if row["windowed_ms"] >= row["per_slot_ms"]]
    later = [n for n in rows if not slower or n > max(slower)]
    return {"sizes": rows, "from_n": later[0] if later else None}


def compare(dir_a: str, dir_b: str) -> dict:
    """Output differences between the npz files of two trees, per size."""
    from specnest.matrices import operator_norm
    out = {}
    for path in sorted(Path(dir_a).glob("*.npz")):
        a, b = np.load(path), np.load(Path(dir_b) / path.name)
        norm = float(a["norm"])
        row = {key: bool(np.array_equal(a[key], b[key]))
               for key in ("diag", "perm", "jumps", "ordering")}
        for key in ("N", "Q"):
            diff = a[key] - b[key]
            row[f"{key}_max_entry_rel"] = float(np.max(np.abs(diff))) / norm
            row[f"{key}_two_norm_rel"] = operator_norm(diff) / norm
        out[path.stem] = row
    return out


def machine() -> dict:
    import scipy
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": np.__version__, "scipy": scipy.__version__,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--sizes", type=int, nargs="+", default=[256, 512, 1024])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--baseline", help="source directory of the tree to compare with")
    parser.add_argument("--out", help="write the JSON record here as well")
    parser.add_argument("--worker", help=argparse.SUPPRESS)  # npz directory of a baseline run
    args = parser.parse_args()
    if args.worker:
        print(json.dumps(time_tree(args.sizes, args.repeats, args.worker)))
        return

    with tempfile.TemporaryDirectory() as tmp:
        mine, theirs = Path(tmp, "this"), Path(tmp, "baseline")
        mine.mkdir()
        record = {"command": sys.argv, "machine": machine(),
                  "this_tree": time_tree(args.sizes, args.repeats,
                                         mine if args.baseline else None)}
        if args.baseline:
            theirs.mkdir()
            env = dict(os.environ, PYTHONPATH=str(Path(args.baseline).resolve()))
            done = subprocess.run(
                [sys.executable, __file__, "--worker", str(theirs), "--repeats",
                 str(args.repeats), "--sizes", *map(str, args.sizes)],
                env=env, check=True, capture_output=True, text=True)
            record["baseline_tree"] = json.loads(done.stdout.splitlines()[-1])
            record["outputs"] = compare(str(mine), str(theirs))
        record["sweep_reorder_ms"] = sweep(args.sizes, args.repeats)
        record["cutover"] = cutover(args.repeats)

    text = json.dumps(record, indent=1)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")


if __name__ == "__main__":
    main()
