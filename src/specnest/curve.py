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


def _d2xy(order: int, d: int):
    """Curve index -> cell coordinates on the 2**order grid (exact integers)."""
    x = y = 0
    t = d
    s = 1
    side = 1 << order
    while s < side:
        rx = 1 & (t >> 1)
        ry = 1 & (t ^ rx)
        if ry == 0:
            if rx == 1:
                x = s - 1 - x
                y = s - 1 - y
            x, y = y, x
        x += s * rx
        y += s * ry
        t >>= 2
        s <<= 1
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


def _anchor_fwd(anchor: int, side: int, x: int, y: int):
    """Rotate curve-frame cell coords into the physical frame."""
    if anchor == 0:
        return x, y
    if anchor == 1:
        return side - 1 - y, x
    if anchor == 2:
        return side - 1 - x, side - 1 - y
    if anchor == 3:
        return y, side - 1 - x
    raise ValueError("anchor must be 0..3")


def _anchor_inv(anchor: int, side: int, x: int, y: int):
    """Physical-frame cell coords back into the curve frame."""
    if anchor == 0:
        return x, y
    if anchor == 1:
        return y, side - 1 - x
    if anchor == 2:
        return side - 1 - x, side - 1 - y
    if anchor == 3:
        return side - 1 - y, x
    raise ValueError("anchor must be 0..3")


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


def curve_point(curve: HilbertCurveMap, t: float) -> complex:
    """Center of the level-m cell with curve index floor(t * 4**m); t=1 -> last cell."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    idx = min(curve.num_cells - 1, int(t * curve.num_cells))
    cx, cy = _d2xy(curve.level, idx)
    px, py = _anchor_fwd(curve.anchor, curve.cells_per_side, cx, cy)
    h = curve.cell_side
    return complex(-curve.half_side + (px + 0.5) * h, -curve.half_side + (py + 0.5) * h)


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
    best = None
    for px in _candidate_cells(base, z.real):
        for py in _candidate_cells(base, z.imag):
            cx, cy = _anchor_inv(curve.anchor, side, px, py)
            d = _xy2d(level, cx, cy)
            if best is None or d < best:
                best = d
    return best


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
    x = np.zeros_like(idx)
    y = np.zeros_like(idx)
    t = idx.copy()
    s = 1
    side = curve.cells_per_side
    while s < side:
        rx = 1 & (t >> 1)
        ry = 1 & (t ^ rx)
        swap = ry == 0
        flip = swap & (rx == 1)
        xf = np.where(flip, s - 1 - x, x)
        yf = np.where(flip, s - 1 - y, y)
        x = np.where(swap, yf, xf)
        y = np.where(swap, xf, yf)
        x = x + s * rx
        y = y + s * ry
        t >>= 2
        s <<= 1
    px, py = _anchor_fwd(curve.anchor, side, x, y)
    h = curve.cell_side
    return (-curve.half_side + (px + 0.5) * h) + 1j * (-curve.half_side + (py + 0.5) * h)
