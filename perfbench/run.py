"""specnest benchmark: one workload per process, correctness-gated timings.

    python3 perfbench/run.py --workload decompose-batch --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the workload's fixed op list runs in whole passes for about
``--seconds`` seconds (always at least one pass) with no wrapper installed,
and the end-to-end metrics are reported (for ``workloads.RESCALED``, with
``wall_s`` rescaled to the reference speed of ``speed.py``).  With
``--trace 1`` untraced passes run for half of ``--seconds`` and traced passes
for the other half, and the per-layer metrics per traced pass are reported.
Every op's output is checked outside its timed interval.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it repeat the metrics for people
and name the machine.  A fuller record, and in a traced run the spans, are
written under ``perfbench-out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench-out"
WORKLOAD_NAMES = ("decompose-dense", "decompose-batch", "brown-grid", "verify-battery")
SETUP_REPEATS = 3
P90_MIN_BEYOND = 10  # op_p90_s is reported only with this many samples above it

END_TO_END = (
    ("wall_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
)

PER_LAYER = (
    ("matrices.ordered_schur.self_s", "s"),
    ("matrices.ordered_schur.calls", "count"),
    ("matrices.cluster_eigenvalues.self_s", "s"),
    ("decompose.decompose.self_s", "s"),
    ("decompose.expectation_full.self_s", "s"),
    ("decompose.expectation_dyadic.self_s", "s"),
    ("decompose.pinch_commutant.self_s", "s"),
    ("curve.deep_hit_index.self_s", "s"),
    ("curve.deep_hit_index.calls", "count"),
    ("hsnest.build_nest.self_s", "s"),
    ("hsnest.build_nest.anchor_attempts", "count"),
    ("hsnest.hs_projection.self_s", "s"),
    ("hsnest.power_limit_operator.self_s", "s"),
    ("hsnest.power_limit.mpmath_calls", "count"),
    ("hsnest.power_limit.mpmath_max_bits", "bits"),
    ("detbrown.brown_density_grid.self_s", "s"),
    ("detbrown.brown_density_grid.points", "count"),
    ("majorize.tau_log_plus.self_s", "s"),
    ("majorize.tau_log_plus.calls", "count"),
    ("majorize.log_submajorizes.self_s", "s"),
    ("majorize.log_submajorizes.calls", "count"),
    ("majorize.weyl_check.self_s", "s"),
    *((f"acceptance.criterion_{i}.s", "s") for i in range(1, 11)),
    ("lapack.svd.calls", "count"),
    ("lapack.svd.n3", "count"),
    ("lapack.norm2.calls", "count"),
    ("lapack.eigvals.calls", "count"),
    ("lapack.eigh.calls", "count"),
    ("lapack.schur.calls", "count"),
    ("probe.scaled.failed", "count"),
    ("trace.overhead_s", "s"),
)


def limit_blas_threads() -> int:
    """Cap the BLAS thread count at the usable cores; call before importing numpy."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= nproc):
            os.environ[var] = str(nproc)
    return nproc


def import_program():
    """Import specnest from this checkout's ``src/``; return (seconds, workloads)."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import specnest
    import workloads
    seconds = time.perf_counter() - t0
    if Path(specnest.__file__).resolve().parent != src / "specnest":
        raise ImportError(f"specnest was imported from {specnest.__file__}, not {src}")
    return seconds, workloads


def fresh_import_seconds() -> float:
    """Seconds to import specnest from this checkout in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import specnest; print(time.perf_counter() - t)"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    return float(out.stdout)


def git_commit():
    """The checkout's commit read from ``.git``, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts(nproc: int) -> dict:
    import mpmath
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": nproc,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "commit": git_commit(),
    }


def run_passes(bench, seconds: float, speed, outside=None) -> tuple:
    """Whole passes while the next one, at the mean pass length, still fits.

    Returns the passes and each pass's speed factor, from kernel samples taken
    just before the pass, between its ops and just after it.  ``outside`` is
    the context for output checks; it defaults to ``speed.between_ops``.
    """
    passes, factors = [], []
    t0 = time.perf_counter()
    while True:
        start = len(speed.samples)
        speed.sample()
        passes.append(bench.run_pass(outside or speed.between_ops))
        speed.sample()
        factors.append(speed.factor(start))
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / len(passes) > seconds:
            return passes, factors


def op_percentiles(op_s: list) -> dict:
    import numpy as np

    p90 = float(np.percentile(op_s, 90))
    beyond = int(np.count_nonzero(np.asarray(op_s) > p90))
    return {
        "op_p50_s": statistics.median(op_s),
        "op_p90_s": p90 if beyond >= P90_MIN_BEYOND else None,
        "op_p90_samples_beyond": beyond,
        "op_samples": len(op_s),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def pass_seconds(passes, factors) -> float:
    """Sum over the op list of each op's median rescaled time over the passes:
    the time of one pass, robust to a slow burst that hits a few ops."""
    scaled = [[s * f for s in p.op_s] for p, f in zip(passes, factors)]
    return sum(statistics.median(col) for col in zip(*scaled))


def timed_run(bench, seconds: float, setup_s: float, speed) -> tuple:
    passes, factors = run_passes(bench, seconds, speed)
    op_s = [s for p in passes for s in p.op_s]
    failures = [f for p in passes for f in p.failures]
    metrics = {
        "wall_s": pass_seconds(passes, factors),
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": setup_s,
    }
    extra = {"passes": len(passes), "pass_wall_s": [p.wall_s for p in passes],
             "speed_samples_s": speed.samples, "speed_factors": factors,
             "raw_wall_s": pass_seconds(passes, [1.0] * len(passes)),
             "op_s": op_s, "ops_failed_frac": len(failures) / len(op_s), **op_percentiles(op_s)}
    return metrics, len(op_s), failures, extra


def traced_run(bench, seconds: float, out_stem: Path) -> tuple:
    """Untraced passes for half of ``seconds``, then traced passes for the
    other half (at least one of each); per-layer values are per traced pass."""
    from spans import Tracer
    from speed import Unscaled

    untraced, _ = run_passes(bench, seconds / 2, Unscaled())
    tracer = Tracer()
    with tracer.installed():
        traced, _ = run_passes(bench, seconds / 2, Unscaled(), tracer.paused)
    tracer.save(out_stem.with_suffix(".spans.npz"))
    n = len(traced)
    self_s = {name: total / n for name, total in tracer.self_times().items()}
    counts = {}
    for name, total in tracer.counts.items():
        per_pass, rest = divmod(total, n)
        counts[name] = per_pass if rest == 0 else total / n
    counts.update(tracer.maxima)
    criteria = [r.seconds for r in getattr(bench, "last_results", [])]
    untraced_s = pass_seconds(untraced, [1.0] * len(untraced))
    traced_s = pass_seconds(traced, [1.0] * n)
    metrics = {}
    for name, _ in PER_LAYER:
        if name == "trace.overhead_s":
            value = traced_s - untraced_s
        elif name.startswith("acceptance.criterion_"):
            i = int(name.split("_")[1].split(".")[0])
            value = criteria[i - 1] if len(criteria) >= i else 0.0
        elif name.endswith(".self_s"):
            value = self_s.get(name[: -len(".self_s")], 0.0)
        else:
            value = counts.get(name, 0)
        metrics[name] = value
    passes = untraced + traced
    failures = [f for p in passes for f in p.failures]
    extra = {"untraced_passes": len(untraced), "traced_passes": n,
             "untraced_wall_s": untraced_s, "traced_wall_s": traced_s,
             "spans": len(tracer.span_start), "self_s": self_s, "counts": counts}
    return metrics, sum(len(p.op_s) for p in passes), failures, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = limit_blas_threads()
    try:
        import_s, workloads = import_program()
    except ImportError as err:
        print(f"perfbench: cannot import the program: {err}", file=sys.stderr)
        return 2

    import_times = [import_s]  # this process's import, then fresh interpreters'
    setup_times = []
    for i in range(SETUP_REPEATS):
        if i:
            import_times.append(fresh_import_seconds())
        t0 = time.perf_counter()
        bench = workloads.WORKLOADS[args.workload](args.seed)
        bench.warm_up()
        setup_times.append(time.perf_counter() - t0)
    setup_s = statistics.median(import_times) + statistics.median(setup_times)

    OUT_DIR.mkdir(exist_ok=True)
    out_stem = OUT_DIR / f"{args.workload}_seed{args.seed}_trace{args.trace}"
    if args.trace:
        metrics, attempted, failures, extra = traced_run(bench, args.seconds, out_stem)
        units = dict(PER_LAYER)
    else:
        from speed import Speedometer, Unscaled

        speed = Speedometer() if args.workload in workloads.RESCALED else Unscaled()
        metrics, attempted, failures, extra = timed_run(bench, args.seconds, setup_s, speed)
        units = dict(END_TO_END)
    # Scaled copies run after timing, untimed and untraced; see workloads.py.
    probe = bench.probe()
    if args.trace:
        metrics["probe.scaled.failed"] = probe["failed"] if probe else 0

    facts = machine_facts(nproc)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": facts, "import_s": import_times,
              "setup_repeats_s": setup_times, "metrics": metrics, "attempted": attempted,
              "failures": failures, "probe": probe, **extra}
    out_stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")

    print("machine " + json.dumps(facts))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} ops, {len(failures)} failed")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:.6g} {units[name]}")
    if not args.trace:
        if extra["speed_samples_s"]:
            print(f"  {'raw wall_s':<40} {extra['raw_wall_s']:.6g} s (speed factors "
                  f"{min(extra['speed_factors']):.3f}..{max(extra['speed_factors']):.3f})")
        print(f"  {'op_p50_s':<40} {extra['op_p50_s']:.6g} s")
        p90 = extra["op_p90_s"]
        beyond = extra["op_p90_samples_beyond"]
        print(f"  {'op_p90_s':<40} " + (f"{p90:.6g} s ({beyond} samples beyond)" if p90 is not None
              else f"undefined ({beyond} of {extra['op_samples']} samples beyond p90, "
                   f"needs {P90_MIN_BEYOND})"))
        print(f"  {'ops_failed_frac':<40} {extra['ops_failed_frac']:.6g} "
              f"({len(failures)}/{attempted})")
    if probe:
        print(f"  scaled-copy probe (untimed): {probe['failed']}/{probe['attempted']} failed "
              + json.dumps(probe["by_op"]))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
