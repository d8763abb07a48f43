"""Hilbert curve filling the square [-R, R]^2.

Used to linearly order the complex spectrum: the curve index of the cell
containing a point gives its first hit time. The entry corner can be
re-anchored (rotating the square) when a spectral atom sits in the first cell.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

# Deepest refinement used to separate clusters sharing a coarse cell. 4**32
# indices stay exact as Python ints; only the final jump times are floats.
DEEP_LEVEL = 32


def _d2xy(order: int, d):
    """Curve index -> cell coordinates on the 2**order grid.

    Branch-free, so ``d`` may be a Python int (exact at any order) or an
    int64 array (order <= 31).
    """
    x = y = 0
    t = d
    for k in range(order):
        s = 1 << k
        rx = 1 & (t >> 1)
        ry = 1 & (t ^ rx)
        swap = 1 - ry
        flip = swap & rx
        x = x + flip * (s - 1 - 2 * x)
        y = y + flip * (s - 1 - 2 * y)
        x, y = x + swap * (y - x), y + swap * (x - y)
        x = x + s * rx
        y = y + s * ry
        t = t >> 2
    return x, y


def _xy2d(order: int, x: int, y: int) -> int:
    """Cell coordinates -> curve index (exact integers)."""
    d = 0
    s = 1 << (order - 1)
    while s > 0:
        rx = 1 if (x & s) > 0 else 0
        ry = 1 if (y & s) > 0 else 0
        d += s * s * ((3 * rx) ^ ry)
        if ry == 0:
            if rx == 1:
                x = s - 1 - x
                y = s - 1 - y
            x, y = y, x
        s >>= 1
    return d


def _anchor_fwd(anchor: int, side: int, x, y):
    """Rotate curve-frame cell coords into the physical frame (anchor quarter turns)."""
    for _ in range(anchor):
        x, y = side - 1 - y, x
    return x, y


@dataclasses.dataclass(frozen=True)
class HilbertCurveMap:
    """Level-m Hilbert curve on the square [-R, R]^2.

    ``modulus(dt) = modulus_constant * half_side * sqrt(dt)`` bounds the
    distance between curve points with parameter gap dt (sampled invariant).
    """

    level: int = 16
    half_side: float = 1.0
    modulus_constant: float = 6.0
    anchor: int = 0

    def __post_init__(self):
        if self.level < 1:
            raise ValueError("level must be >= 1")
        if self.half_side <= 0:
            raise ValueError("half_side must be positive")
        if self.anchor not in (0, 1, 2, 3):
            raise ValueError("anchor must be 0..3")

    @property
    def cells_per_side(self) -> int:
        return 1 << self.level

    @property
    def num_cells(self) -> int:
        return 1 << (2 * self.level)

    @property
    def cell_side(self) -> float:
        return 2.0 * self.half_side / self.cells_per_side

    def modulus(self, dt: float) -> float:
        return self.modulus_constant * self.half_side * math.sqrt(abs(dt))

    def with_anchor(self, anchor: int) -> "HilbertCurveMap":
        return dataclasses.replace(self, anchor=anchor)


def _cell_center(curve: HilbertCurveMap, idx):
    """Center (x, y) of the cell with curve index ``idx`` (an int or an int64 array)."""
    px, py = _anchor_fwd(curve.anchor, curve.cells_per_side, *_d2xy(curve.level, idx))
    h = curve.cell_side
    return -curve.half_side + (px + 0.5) * h, -curve.half_side + (py + 0.5) * h


def curve_point(curve: HilbertCurveMap, t: float) -> complex:
    """Center of the level-m cell with curve index floor(t * 4**m); t=1 -> last cell."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    idx = min(curve.num_cells - 1, int(t * curve.num_cells))
    return complex(*_cell_center(curve, idx))


def _candidate_cells(curve: HilbertCurveMap, coord: float) -> list:
    """Cell indices along one axis whose closed cell contains the coordinate."""
    R = curve.half_side
    side = curve.cells_per_side
    slack = 1e-12 * max(1.0, R)
    if coord < -R - slack or coord > R + slack:
        raise ValueError(f"point with coordinate {coord} outside the square of half-side {R}")
    frac = (min(max(coord, -R), R) + R) / curve.cell_side
    i = min(side - 1, int(math.floor(frac)))
    cells = [i]
    if frac == math.floor(frac) and 1 <= frac <= side - 1:
        cells.append(i - 1)  # point sits on a shared edge
    return cells


def hit_index(curve: HilbertCurveMap, z: complex, level: int | None = None) -> int:
    """Curve index of the cell containing z at the given level (default: map level).

    Points on shared cell edges resolve to the cell with the smaller index.
    """
    if level is None:
        level = curve.level
    base = dataclasses.replace(curve, level=level)
    side = base.cells_per_side
    inverse = -curve.anchor % 4  # the rotation that undoes the anchor's
    return min(_xy2d(level, *_anchor_fwd(inverse, side, px, py))
               for px in _candidate_cells(base, z.real)
               for py in _candidate_cells(base, z.imag))


def first_hit_time(curve: HilbertCurveMap, z: complex) -> float:
    """Minimal t with z in the closed cell of curve index floor(t * 4**m)."""
    return hit_index(curve, z) / curve.num_cells


def deep_hit_index(curve: HilbertCurveMap, z: complex) -> int:
    """Hit index at the deep refinement level; refines the map-level index."""
    return hit_index(curve, z, level=DEEP_LEVEL)


def curve_points_batch(curve: HilbertCurveMap, ts: np.ndarray) -> np.ndarray:
    """Vectorized curve_point for sampling tests (map level must be <= 31)."""
    if curve.level > 31:
        raise ValueError("vectorized path supports level <= 31 only")
    ts = np.asarray(ts, dtype=float)
    if np.any(ts < 0) or np.any(ts > 1):
        raise ValueError("t values must lie in [0, 1]")
    idx = np.minimum(curve.num_cells - 1, (ts * curve.num_cells).astype(np.int64))
    x, y = _cell_center(curve, idx)
    return x + 1j * y
