"""File formats: matrix and decomposition JSON, density-grid and report CSV.

All float output goes through repr() so that identical inputs produce
byte-identical files.
"""
from __future__ import annotations

import json
import os

import numpy as np

from .matrices import ProjectionNest, as_operator


def matrix_to_dict(T) -> dict:
    A = as_operator(T)
    n = A.shape[0]
    entries = [[float(v.real), float(v.imag)] for v in A.ravel()]
    return {"dim": n, "entries": entries}


def matrix_from_dict(data: dict) -> np.ndarray:
    """Matrix from ``{"dim": n, "entries": [[re, im], ...]}``: n * n pairs, row by row.

    Any other shape or type (a JSON boolean included) raises ValueError.
    """
    if not isinstance(data, dict):
        raise ValueError("a matrix must be a JSON object")
    n, entries = data["dim"], data["entries"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"dim must be a positive integer, got {n!r}")
    if not isinstance(entries, list) or len(entries) != n * n:
        raise ValueError(f"expected a list of {n * n} entries")
    if not all(isinstance(e, list) and len(e) == 2 and all(map(_is_real, e)) for e in entries):
        raise ValueError("each entry must be a pair [re, im] of real numbers")
    flat = np.array([complex(re, im) for re, im in entries])
    return as_operator(flat.reshape(n, n))


def _is_real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def write_matrix(path: str, T) -> None:
    write_text(path, json.dumps(matrix_to_dict(T)) + "\n")


def read_matrix(path: str) -> np.ndarray:
    with open(path) as fh:
        return matrix_from_dict(json.load(fh))


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
    xs, ys, mass = grid.x_centers.tolist(), grid.y_centers.tolist(), grid.cell_mass.tolist()
    for ix in range(nx):
        for iy in range(ny):
            lines.append(f"{xs[ix]!r},{ys[iy]!r},{mass[ix][iy]!r}")
    return "\n".join(lines) + "\n"


def nest_to_dict(nest: ProjectionNest) -> dict:
    return {
        "basis": matrix_to_dict(nest.basis),
        "jumps": [{"t": t, "rank": r} for t, r in nest.jumps],
    }


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
    """Check rows to CSV; schema version in the header.

    A row passes iff value <= bound, iff its margin bound - value is >= 0.
    """
    lines = ["# schemaVersion=3", "check,params,value,bound,margin,pass"]
    lines += [f"{r.check},{r.params},{r.value!r},{r.bound!r},{r.margin!r},{int(r.ok)}"
              for r in rows]
    return "\n".join(lines) + "\n"


def write_text(path: str, text: str) -> None:
    """Write via a temp file and rename; a failed write or rename leaves neither
    a partial file nor the temp file."""
    tmp = path + ".tmp"
    fh = open(tmp, "w")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise
