"""File formats: matrix JSON, step-function / grid / report CSV, nest JSON.

All float output goes through repr() so that identical inputs produce
byte-identical files.
"""
from __future__ import annotations

import json
import os

import numpy as np

from .matrices import ProjectionNest, StepFunction, as_operator


def matrix_to_dict(T) -> dict:
    A = as_operator(T)
    n = A.shape[0]
    entries = [[float(v.real), float(v.imag)] for v in A.ravel()]
    return {"dim": n, "entries": entries}


def matrix_from_dict(data: dict) -> np.ndarray:
    n = int(data["dim"])
    entries = data["entries"]
    if len(entries) != n * n:
        raise ValueError(f"expected {n * n} entries, got {len(entries)}")
    flat = np.array([complex(re, im) for re, im in entries])
    return as_operator(flat.reshape(n, n))


def write_matrix(path: str, T) -> None:
    _atomic_write(path, json.dumps(matrix_to_dict(T)) + "\n")


def read_matrix(path: str) -> np.ndarray:
    with open(path) as fh:
        return matrix_from_dict(json.load(fh))


def step_function_csv(sf: StepFunction) -> str:
    lines = ["t,value"]
    for t, v in zip(sf.breakpoints[:-1], sf.values):
        lines.append(f"{t!r},{v!r}")
    return "\n".join(lines) + "\n"


def measure_to_json(measure) -> str:
    rows = [{"re": z.real, "im": z.imag, "w": w} for z, w in measure.atoms]
    return json.dumps(rows) + "\n"


def density_grid_csv(grid) -> str:
    xmin, xmax, ymin, ymax = grid.bounds
    nx, ny = grid.resolution
    header = (
        f"# bounds={xmin!r},{xmax!r},{ymin!r},{ymax!r}"
        f" resolution={nx}x{ny} eps={grid.epsilon!r}"
        f" total_mass={grid.total_mass!r}"
        f" kernel={grid.kernel} rho={grid.rho!r}"
    )
    lines = [header, "x,y,mass"]
    xs = grid.x_centers
    ys = grid.y_centers
    for ix in range(nx):
        for iy in range(ny):
            lines.append(f"{xs[ix]!r},{ys[iy]!r},{grid.cell_mass[ix, iy]!r}")
    return "\n".join(lines) + "\n"


def nest_to_dict(nest: ProjectionNest) -> dict:
    return {
        "basis": matrix_to_dict(nest.basis),
        "jumps": [{"t": t, "rank": r} for t, r in nest.jumps],
    }


def nest_from_dict(data: dict) -> ProjectionNest:
    basis = matrix_from_dict(data["basis"])
    jumps = tuple((j["t"], j["rank"]) for j in data["jumps"])
    return ProjectionNest(basis, jumps)


def decomposition_to_dict(result) -> dict:
    return {
        "schemaVersion": 1,
        "N": matrix_to_dict(result.N),
        "Q": matrix_to_dict(result.Q),
        "nest": nest_to_dict(result.nest),
        "ordering": [
            {"t": t, "multiplicity": m, "re": z.real, "im": z.imag}
            for t, m, z in result.ordering
        ],
        "diagnostics": [
            {"name": k, "value": v} for k, v in sorted(result.diagnostics.items())
        ],
    }


def report_rows_csv(rows) -> str:
    """CheckRow / ConvergenceRow sequences to CSV; schema version in the header."""
    lines = ["# schemaVersion=1", "check,n_or_params,lhs_or_value,rhs_or_bound,margin,pass"]
    for r in rows:
        if hasattr(r, "params") and hasattr(r, "lhs"):
            params = r.params if isinstance(r.params, str) else _fmt_params(r.params)
            lines.append(
                f"{r.check},{params},{r.lhs!r},{r.rhs!r},{r.margin!r},{int(r.ok)}"
            )
        else:
            params = f"n={r.n}" + ("" if not r.params else ";" + _fmt_params(r.params))
            lines.append(
                f"{r.check},{params},{r.value!r},{r.bound!r},{r.value - r.bound!r},{int(r.ok)}"
            )
    return "\n".join(lines) + "\n"


def _fmt_params(params) -> str:
    return ";".join(str(p) for p in params)


def _atomic_write(path: str, text: str) -> None:
    """Write via a temp file and rename; a failed run never leaves a partial file."""
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_text(path: str, text: str) -> None:
    _atomic_write(path, text)
