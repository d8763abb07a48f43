"""Command-line interface.

Exit codes: 0 success, 1 check failure, 2 usage, I/O or numerical error.
Outputs are machine-readable JSON/CSV files plus a human summary on stdout;
failure paths emit a JSON error record on stderr and never leave partial files.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import acceptance, ensembles, serialize
from .decompose import convergence_report, decompose
from .detbrown import brown_density_grid, brown_measure_exact
from .hsnest import Ball, hs_projection
from .majorize import DEFAULT_GAUGES, LogShift, Power, pinch_log_check, weyl_check
from .matrices import frobenius


def _out_dir(path: str | None) -> str:
    return path or os.environ.get("SPECNEST_OUT_DIR", ".")


def _parse_gauges(text: str):
    gauges = []
    for item in text.split(","):
        name, _, value = item.partition(":")
        if name == "pow":
            gauges.append(Power(float(value)))
        elif name == "logshift":
            gauges.append(LogShift(float(value)))
        else:
            raise ValueError(f"unknown gauge {item!r} (use pow:P or logshift:S)")
    return gauges


def _cmd_gen(args) -> int:
    kind_map = {
        "ginibre": lambda: ensembles.Ginibre(args.n),
        "jordan": lambda: ensembles.Jordan(complex(args.lam_re, args.lam_im), args.n),
        "upper-triangular": lambda: ensembles.UpperTriangularRandom(args.n),
        "normal-plus-nilpotent": lambda: ensembles.NormalPlusNilpotent(args.n),
    }
    spec = ensembles.EnsembleSpec(kind_map[args.kind](), seed=args.seed,
                                  count=args.count)
    out = _out_dir(args.out)
    os.makedirs(out, exist_ok=True)
    for i, T in enumerate(ensembles.generate(spec)):
        path = os.path.join(out, f"{args.kind}_{args.n}_{args.seed}_{i:04d}.json")
        serialize.write_matrix(path, T)
        print(f"wrote {path}")
    return 0


def _cmd_decompose(args) -> int:
    result = decompose(serialize.read_matrix(args.infile))
    report = convergence_report(result) if args.report else None
    serialize.write_text(args.out, json.dumps(serialize.decomposition_to_dict(result)) + "\n")
    print(f"decomposed {args.infile}: "
          f"|Q diag| <= {result.diagnostics['q_spectral_radius']:.3e}, "
          f"normality defect {result.diagnostics['normality_defect']:.3e} x ||T||^2")
    print(f"wrote {args.out}")
    if report:
        serialize.write_text(args.report, serialize.report_rows_csv(report.rows))
        print(f"wrote {args.report}")
        if not report.all_ok:
            print(f"{len(report.failures())} convergence checks failed")
            return 1
    return 0


def _cmd_brown(args) -> int:
    T = serialize.read_matrix(args.infile)
    grid = brown_density_grid(T, resolution=args.grid, eps=args.eps)
    serialize.write_text(args.out, serialize.density_grid_csv(grid))
    measure = brown_measure_exact(T)
    print(f"grid total mass {grid.total_mass:.4f} over {len(measure.atoms)} atoms; "
          f"{grid.negative_cells_flagged} negative cells flagged; "
          f"{grid.kernel} kernel, rho {grid.rho:.3g}")
    print(f"wrote {args.out}")
    return 0


def _cmd_hs(args) -> int:
    T = serialize.read_matrix(args.infile)
    re, im, radius = args.ball
    p = hs_projection(T, Ball(complex(re, im), radius))
    serialize.write_text(args.out, json.dumps(serialize.matrix_to_dict(p)) + "\n")
    frac = float(np.trace(p).real) / T.shape[0]
    leak = frobenius(T @ p - p @ T @ p)
    print(f"projection trace {frac:.4f}, invariance leak {leak:.3e}")
    print(f"wrote {args.out}")
    return 0


def _write_check_report(rows, out_path: str | None) -> None:
    if out_path:
        serialize.write_text(out_path, serialize.report_rows_csv(rows))
        print(f"wrote {out_path}")


def _cmd_check_weyl(args) -> int:
    T = serialize.read_matrix(args.infile)
    gauges = _parse_gauges(args.gauges) if args.gauges else DEFAULT_GAUGES
    report = weyl_check(T, gauges)
    for row in report.rows:
        status = "pass" if row.ok else "FAIL"
        print(f"{row.check} {row.params} value={row.value:.6g} bound={row.bound:.6g} {status}")
    _write_check_report(report.rows, args.out)
    return 0 if report.all_ok else 1


def _cmd_check_lemmas(args) -> int:
    T = serialize.read_matrix(args.infile)
    result = decompose(T)
    rows = list(convergence_report(result, n_range=range(0, args.n_max + 1)).rows)
    # Pinching inequality along the nest: coordinate cut at every jump rank,
    # each row labelled with the jump that made its cut.
    nest = result.nest
    for t, rank in nest.jumps[1:-1]:
        rows.extend(dataclasses.replace(row, params=f"t={t!r};rank={rank}")
                    for row in pinch_log_check(T, nest.projection_at(t)).rows)
    fails = [r for r in rows if not r.ok]
    print(f"{len(rows)} checks, {len(fails)} failures on {args.infile} "
          f"(dim {len(T)}, norm {result.diagnostics['operator_norm']:.4g})")
    _write_check_report(rows, args.out)
    return 1 if fails else 0


def _cmd_verify(args) -> int:
    results = acceptance.run_all(seed=args.seed, out_dir=args.out)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] {res.name} ({res.seconds:.1f}s)")
        for row in res.failures():  # each failing row and the bound it failed
            print(f"  {row.check} {row.params} value={row.value:.6g} bound={row.bound:.6g}")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 0 if not failed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specnest",
        description="Normal + nilpotent matrix decomposition along curve-ordered "
                    "invariant nests, with determinant / measure / majorization checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a seeded matrix ensemble")
    p.add_argument("--kind", required=True,
                   choices=["ginibre", "jordan", "upper-triangular",
                            "normal-plus-nilpotent"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--lam-re", type=float, default=0.0)
    p.add_argument("--lam-im", type=float, default=0.0)
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("decompose", help="split a matrix into normal + nilpotent parts")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None, help="also write convergence report CSV")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("brown", help="Brown density grid estimate")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--grid", type=int, default=201)
    p.add_argument("--eps", type=float, default=1e-8)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_brown)

    p = sub.add_parser("hs", help="invariant-subspace projection for a ball")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--ball", nargs=3, type=float, required=True,
                   metavar=("RE", "IM", "R"))
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_hs)

    p = sub.add_parser("check", help="inequality / convergence check batteries")
    csub = p.add_subparsers(dest="check_command", required=True)
    pw = csub.add_parser("weyl", help="eigenvalue-vs-singular-value inequality")
    pw.add_argument("--in", dest="infile", required=True)
    pw.add_argument("--gauges", default=None,
                    help="comma list, e.g. pow:0.5,pow:2,logshift:1")
    pw.add_argument("--out", default=None, help="report CSV path")
    pw.set_defaults(func=_cmd_check_weyl)
    pl = csub.add_parser("lemmas", help="convergence, monotonicity and pinching checks")
    pl.add_argument("--in", dest="infile", required=True)
    pl.add_argument("--n-max", type=int, default=10)
    pl.add_argument("--out", default=None, help="report CSV path")
    pl.set_defaults(func=_cmd_check_lemmas)

    p = sub.add_parser("verify", help="run the full acceptance battery")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", default=None, help="directory for report artifacts")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError, ArithmeticError) as err:
        record = {"error": type(err).__name__, "message": str(err)}
        print(json.dumps(record), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
