"""The benchmark's four workloads: seeded inputs, one pass of ops, output gates.

Every input comes from ``specnest.ensembles.generate`` with a seed derived
from the workload seed; scaling, Jordan eigenvalues, perturbations and query
disks are made here.  Ops call the program through attributes looked up at
call time (``specnest.decompose``, ``acceptance.run_all``), so the traced run's
wrappers see them.  Each workload exposes the same small interface:

``warm_up()``
    runs one op (``brown-grid``: one coarse grid), unchecked, so lazy
    set-up is paid before timing;
``run_pass(outside)``
    runs the workload's fixed op list once and returns a ``PassResult``;
    output checks run inside the ``outside()`` context, after each op's
    clock has stopped, so they never count as op time (the traced run passes
    a context that pauses its wrappers, a timed run one that may time the
    speed kernel of ``speed.py``);
``probe()``
    untimed extra checks (only ``decompose-batch`` has one), or ``None``.
"""
from __future__ import annotations

import contextlib
import dataclasses
import time
import warnings
from typing import Callable

import numpy as np

import specnest
from specnest import (
    EnsembleSpec,
    Ginibre,
    Jordan,
    NormalPlusNilpotent,
    UpperTriangularRandom,
    acceptance,
    generate,
)

# Criterion 1's contract, relative to ||T||: every quantity below is computed
# on T / ||T||, so the gate means the same at every scale of T.
RECONSTRUCTION_TOL = 1e-12
NORMALITY_TOL = 1e-10
FLAG_DIAGONAL_TOL = 1e-8
FLAG_STRICT_LOWER_TOL = 1e-8

# Criterion 8's mass tolerance, and how far (in grid cells) every eigenvalue
# must sit from a query disk's boundary.
MASS_TOL = 0.02
DISK_MARGIN_CELLS = 4
DISKS_PER_GRID = 12
GRID_RESOLUTION = 201
WARM_UP_RESOLUTION = 48  # 48**2 points > one 1953-matrix SVD chunk at n = 32

DENSE_N = 256
DENSE_COUNT = 2
BATCH_N = 16
BATCH_PER_KIND = 40
JORDAN_CORNER = 1e-12
PROBE_SCALES = (1e-250, 1e-12, 1e12, 1e200)
PROBE_PER_SCALE = 5
BROWN_N = 32


@dataclasses.dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], bool]


@dataclasses.dataclass
class PassResult:
    wall_s: float
    op_s: list
    failures: list  # (op name, reason) for every op that raised or failed its gate


def _subseed(seed: int, stream: int) -> int:
    """Independent ensemble seed for one input stream of a workload."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def _run_op(op: Op, outside) -> tuple:
    """(seconds, failure reason or None); the gate runs after the clock stops."""
    t0 = time.perf_counter()
    try:
        out = op.run()
    except Exception as err:  # a raising op is a failed op, never a crash
        return time.perf_counter() - t0, type(err).__name__
    seconds = time.perf_counter() - t0
    with outside():
        try:
            ok = op.check(out)
        except Exception as err:
            return seconds, f"check raised {type(err).__name__}"
    return seconds, None if ok else "gate"


class OpsWorkload:
    """A fixed list of independent ops; wall time is the sum of op times."""

    def __init__(self, ops: list, probe_ops: list | None = None, warm_up=None):
        self.ops = ops
        self.probe_ops = probe_ops
        self.warm_up = warm_up or ops[0].run

    def run_pass(self, outside=contextlib.nullcontext) -> PassResult:
        op_s, failures = [], []
        for op in self.ops:
            seconds, reason = _run_op(op, outside)
            op_s.append(seconds)
            if reason is not None:
                failures.append((op.name, reason))
        return PassResult(sum(op_s), op_s, failures)

    def probe(self) -> dict | None:
        if not self.probe_ops:
            return None
        by_name = {}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for op in self.probe_ops:
                _, reason = _run_op(op, contextlib.nullcontext)
                attempted, failed = by_name.get(op.name, (0, 0))
                by_name[op.name] = (attempted + 1, failed + (reason is not None))
        return {
            "attempted": sum(a for a, _ in by_name.values()),
            "failed": sum(f for _, f in by_name.values()),
            "by_op": {k: {"attempted": a, "failed": f} for k, (a, f) in by_name.items()},
        }


class BatteryWorkload:
    """``acceptance.run_all(seed)``; an op is one criterion."""

    def __init__(self, seed: int):
        self.seed = seed
        self.last_results = []

    def warm_up(self) -> None:
        acceptance.criterion_det_convergence(self.seed)

    def run_pass(self, outside=contextlib.nullcontext) -> PassResult:
        t0 = time.perf_counter()
        try:
            results = acceptance.run_all(self.seed)
        except Exception as err:
            wall = time.perf_counter() - t0
            self.last_results = []
            return PassResult(wall, [wall], [("run_all", type(err).__name__)])
        wall = time.perf_counter() - t0
        self.last_results = results
        failures = [(r.name, "criterion failed") for r in results if not r.passed]
        return PassResult(wall, [r.seconds for r in results], failures)

    def probe(self) -> None:
        return None


# -- gates -------------------------------------------------------------------

def decomposition_ok(T: np.ndarray, result) -> bool:
    """Criterion 1's contract on T / ||T||: T = N + Q, N normal, and Q strictly
    upper triangular in the flag basis (zero diagonal, zero strict lower part)."""
    scale = np.linalg.norm(T, 2)
    if not np.isfinite(scale) or scale == 0.0:
        return False
    Tn, N, Q = T / scale, result.N / scale, result.Q / scale
    U = result.nest.basis
    B = U.conj().T @ Q @ U
    return bool(
        np.linalg.norm(Tn - (N + Q), 2) <= RECONSTRUCTION_TOL
        and np.linalg.norm(N @ N.conj().T - N.conj().T @ N, 2) <= NORMALITY_TOL
        and np.linalg.norm(U.conj().T @ U - np.eye(len(U)), 2) <= NORMALITY_TOL
        and np.max(np.abs(np.diag(B))) <= FLAG_DIAGONAL_TOL
        and np.linalg.norm(np.tril(B, -1), "fro") <= FLAG_STRICT_LOWER_TOL
    )


def _decompose_op(name: str, T: np.ndarray) -> Op:
    return Op(name, lambda: specnest.decompose(T), lambda res: decomposition_ok(T, res))


def _query_disks(T: np.ndarray, rng: np.random.Generator) -> list:
    """Disks whose boundaries stay DISK_MARGIN_CELLS cells from every eigenvalue."""
    eigs = np.linalg.eigvals(T)
    rho = float(np.max(np.abs(eigs)))
    half = 1.25 * np.linalg.norm(T, 2)  # detbrown.default_bounds
    margin = DISK_MARGIN_CELLS * 2.0 * half / GRID_RESOLUTION
    disks = []
    for _ in range(100_000):
        center = complex(*rng.uniform(-rho, rho, 2))
        radius = float(rng.uniform(0.15, 0.6)) * rho
        if np.min(np.abs(np.abs(eigs - center) - radius)) >= margin:
            disks.append((center, radius))
            if len(disks) == DISKS_PER_GRID:
                return disks
    raise RuntimeError("could not place query disks away from the eigenvalues")


def _brown_op(name: str, T: np.ndarray, disks: list) -> Op:
    exact = specnest.brown_measure_exact(T)
    expected = [exact.mass_within(c, r) for c, r in disks]

    def run():
        grid = specnest.brown_density_grid(T, resolution=GRID_RESOLUTION)
        return grid.total_mass, [grid.mass_within(c, r) for c, r in disks]

    def check(out):
        total, masses = out
        return abs(total - 1.0) <= MASS_TOL and all(
            abs(m - e) <= MASS_TOL for m, e in zip(masses, expected)
        )

    return Op(name, run, check)


# -- workloads ---------------------------------------------------------------

def decompose_dense(seed: int) -> OpsWorkload:
    mats = generate(EnsembleSpec(Ginibre(DENSE_N), seed=seed, count=DENSE_COUNT))
    return OpsWorkload([_decompose_op(f"ginibre-{DENSE_N}", T) for T in mats])


def decompose_batch(seed: int) -> OpsWorkload:
    rng = np.random.default_rng(_subseed(seed, 0))
    streams = {
        name: generate(EnsembleSpec(kind, seed=_subseed(seed, k + 1), count=BATCH_PER_KIND))
        for k, (name, kind) in enumerate([
            ("ginibre", Ginibre(BATCH_N)),
            ("upper-triangular", UpperTriangularRandom(BATCH_N)),
            ("normal-plus-nilpotent", NormalPlusNilpotent(BATCH_N)),
        ])
    }
    lams = rng.uniform(-0.7, 0.7, (BATCH_PER_KIND, 2)) @ np.array([1.0, 1.0j])
    jordans = [generate(EnsembleSpec(Jordan(complex(lam), BATCH_N)))[0] for lam in lams]
    streams["jordan"] = jordans
    perturbed = [J.copy() for J in jordans]
    for P in perturbed:
        P[-1, 0] += JORDAN_CORNER
    streams["jordan-perturbed"] = perturbed
    # Interleave the kinds so that no kind's ops run back to back.
    inputs = [(name, mats[i])
              for i in range(BATCH_PER_KIND) for name, mats in streams.items()]
    # Scaled copies of every kind (ROADMAP item 3): three of the four scales
    # break the contract at the seed commit, so they run as an untimed probe
    # whose failures are reported on their own rather than among the timed ops.
    probe = [_decompose_op(f"scaled-{scale:g}", scale * inputs[k + len(PROBE_SCALES) * j][1])
             for k, scale in enumerate(PROBE_SCALES) for j in range(PROBE_PER_SCALE)]
    return OpsWorkload([_decompose_op(name, T) for name, T in inputs], probe)


def brown_grid(seed: int) -> OpsWorkload:
    rng = np.random.default_rng(_subseed(seed, 0))
    mats = {name: generate(EnsembleSpec(kind, seed=_subseed(seed, k + 1)))[0]
            for k, (name, kind) in enumerate([("ginibre", Ginibre(BROWN_N)),
                                              ("upper-triangular", UpperTriangularRandom(BROWN_N))])}
    ops = [_brown_op(f"grid-{name}-{BROWN_N}", T, _query_disks(T, rng)) for name, T in mats.items()]
    # The kernel keeps no state between calls, so a coarse grid that still
    # fills one whole batched-SVD chunk pays a full grid's lazy set-up in a
    # fraction of its time.
    T0 = mats["ginibre"]
    return OpsWorkload(ops, warm_up=lambda: specnest.brown_density_grid(
        T0, resolution=WARM_UP_RESOLUTION))


def verify_battery(seed: int) -> BatteryWorkload:
    return BatteryWorkload(seed)


# Workloads whose op times are rescaled to the reference speed (speed.py).
RESCALED = frozenset({"decompose-batch", "brown-grid"})

WORKLOADS = {
    "decompose-dense": decompose_dense,
    "decompose-batch": decompose_batch,
    "brown-grid": brown_grid,
    "verify-battery": verify_battery,
}
