"""Tests of the benchmark's tracer and timing.  Run with ``python3 -m pytest perfbench``."""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import mpmath  # noqa: E402
import numpy as np  # noqa: E402
import pytest  # noqa: E402
import scipy.linalg  # noqa: E402

import run  # noqa: E402
import specnest  # noqa: E402
import workloads  # noqa: E402
from spans import TRACED_MODULES, Tracer  # noqa: E402
from specnest.curve import HilbertCurveMap  # noqa: E402


def _small_ops() -> workloads.OpsWorkload:
    """A few ops that reach every kind of counter the tracer keeps."""
    batch = workloads.decompose_batch(0).ops[:15]
    T8 = specnest.generate(specnest.EnsembleSpec(specnest.Ginibre(8), seed=3))[0]
    extra = [
        workloads.Op("power-limit", lambda: specnest.power_limit_operator(T8, 64),
                     lambda A: np.all(np.isfinite(A))),
        workloads.Op("grid", lambda: specnest.brown_density_grid(T8, resolution=40),
                     lambda g: abs(g.total_mass - 1.0) < 0.1),
        workloads.Op("majorize", lambda: specnest.weyl_check(T8),
                     lambda rep: rep.all_ok),
    ]
    return workloads.OpsWorkload(batch + extra)


def _traced_pass():
    bench = _small_ops()
    tracer = Tracer()
    with tracer.installed():
        t0 = time.perf_counter()
        result = bench.run_pass(tracer.paused)
        wall = time.perf_counter() - t0
    assert not result.failures
    return tracer, wall


def _snapshot() -> dict:
    owners = [m for name, m in sys.modules.items()
              if name == "specnest" or name.startswith("specnest.")]
    owners += [np.linalg, scipy.linalg, mpmath, HilbertCurveMap]
    return {(id(o), attr): id(val) for o in owners for attr, val in list(vars(o).items())}


def test_two_traced_runs_count_the_same():
    first, _ = _traced_pass()
    second, _ = _traced_pass()
    assert dict(first.counts) == dict(second.counts)
    assert first.maxima == second.maxima
    for key in ("decompose.decompose.calls", "hsnest.build_nest.anchor_attempts",
                "lapack.svd.calls", "lapack.norm2.calls", "lapack.schur.calls",
                "hsnest.power_limit.mpmath_calls", "detbrown.brown_density_grid.points"):
        assert first.counts[key] > 0, key
    assert first.maxima["hsnest.power_limit.mpmath_max_bits"] > 53


def test_self_times_sum_to_at_most_the_wall_time():
    tracer, wall = _traced_pass()
    self_s = tracer.self_times()
    assert all(v >= 0.0 for v in self_s.values())
    total = sum(self_s.values())
    assert total == pytest.approx(tracer.root_seconds(), rel=1e-9)
    assert total <= wall


def test_wrappers_restore_the_original_attributes():
    before = _snapshot()
    original = specnest.decompose
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            hsnest = sys.modules["specnest.hsnest"]
            decompose_mod = sys.modules["specnest.decompose"]
            assert specnest.decompose is not original
            assert decompose_mod.build_nest is hsnest.build_nest
            assert decompose_mod.build_nest.__wrapped__ is not None
            raise RuntimeError("leave the block early")
    assert _snapshot() == before
    assert specnest.decompose is original


def test_checks_run_untraced():
    tracer = Tracer()
    with tracer.installed():
        with tracer.paused():
            np.linalg.norm(np.eye(3), 2)
            specnest.decompose(np.eye(2))
    assert not tracer.counts
    assert len(tracer.span_start) == 0


def test_traced_modules_exist():
    for short in TRACED_MODULES:
        assert f"specnest.{short}" in sys.modules


def test_metric_lists_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


def test_pass_seconds_sums_per_op_medians():
    passes = [workloads.PassResult(0.0, op_s, []) for op_s in ([1.0, 5.0], [3.0, 1.0], [2.0, 2.0])]
    assert run.pass_seconds(passes, [1.0, 1.0, 1.0]) == 4.0
    assert run.pass_seconds(passes, [2.0, 2.0, 2.0]) == 8.0
