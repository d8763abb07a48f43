"""Hilbert curve filling the square [-R, R]^2.

Used to linearly order the complex spectrum: the curve index of the cell
containing a point gives its first hit time. The anchor picks the entry corner
(quarter turns of the square); a nest follows the anchor it is given.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

# Deepest refinement used to separate clusters sharing a coarse cell. 4**32
# indices stay exact as Python ints; only the final jump times are floats.
DEEP_LEVEL = 32

MODULUS_CONSTANT = 6.0  # see HilbertCurveMap.modulus (a sampled invariant)


def _chunk_tables():
    """Four curve levels per step: for key ``state << 8 | x_chunk << 4 | y_chunk``
    the 8 index bits and ``next state << 8``, and the inverse map
    ``state << 8 | index bits -> next state << 8 | x_chunk << 4 | y_chunk``.

    A state is the frame of the remaining bits: bit 0 swaps x and y, bit 1
    complements both (the per-bit Hilbert step applies one or both).
    """
    index, nxt, inverse = [0] * 1024, [0] * 1024, [0] * 1024
    for key in range(1024):
        state, d = key >> 8, 0
        for b in (3, 2, 1, 0):
            rx, ry = (key >> 4 + b) & 1, (key >> b) & 1
            if state & 1:
                rx, ry = ry, rx
            rx, ry = rx ^ (state >> 1), ry ^ (state >> 1)
            d = d << 2 | (3 * rx) ^ ry
            if ry == 0:
                state ^= 1 | rx << 1
        index[key], nxt[key] = d, state << 8
        inverse[key & 0x300 | d] = state << 8 | key & 0xFF
    return index, nxt, inverse


_XY2D_INDEX, _XY2D_NEXT, _D2XY = _chunk_tables()
_D2XY_ARRAY = np.array(_D2XY, dtype=np.int64)


def _d2xy(order: int, d):
    """Curve index -> cell coordinates on the 2**order grid.

    ``d`` may be a Python int (exact at any order) or an int64 array
    (order <= 31), which is left unmodified.
    """
    table = _D2XY_ARRAY if isinstance(d, np.ndarray) else _D2XY
    # The walk pads order to a multiple of 4 with leading zero bits, each of
    # which swaps the frame; it starts in the frame those swaps undo.
    x = y = 0
    state = (-order % 4 & 1) << 8
    for shift in range(8 * ((order + 3) // 4) - 8, -1, -8):
        v = table[state | (d >> shift) & 0xFF]
        x, y, state = x << 4 | (v >> 4) & 15, y << 4 | v & 15, v & 0x300
    return x, y


def _xy2d(order: int, x: int, y: int) -> int:
    """Cell coordinates -> curve index (exact integers)."""
    d = 0
    state = (-order % 4 & 1) << 8  # as in _d2xy
    for shift in range(4 * ((order + 3) // 4) - 4, -1, -4):
        key = state | (x >> shift & 15) << 4 | y >> shift & 15
        d, state = d << 8 | _XY2D_INDEX[key], _XY2D_NEXT[key]
    return d


def _anchor_fwd(anchor: int, side: int, x, y):
    """Rotate curve-frame cell coords into the physical frame (anchor quarter turns)."""
    for _ in range(anchor):
        x, y = side - 1 - y, x
    return x, y


@dataclasses.dataclass(frozen=True)
class HilbertCurveMap:
    """Level-m Hilbert curve on the square [-R, R]^2.

    ``modulus(dt) = MODULUS_CONSTANT * half_side * sqrt(dt)`` bounds the
    distance between curve points with parameter gap dt.
    """

    level: int = 16
    half_side: float = 1.0
    anchor: int = 0

    def __post_init__(self):
        for name in ("level", "anchor"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.level < 1:
            raise ValueError("level must be >= 1")
        if not 0 < self.half_side < math.inf:
            raise ValueError("half_side must be positive and finite")
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
        return MODULUS_CONSTANT * self.half_side * math.sqrt(abs(dt))

    def with_anchor(self, anchor: int) -> "HilbertCurveMap":
        return dataclasses.replace(self, anchor=anchor)


def _cell_center(curve: HilbertCurveMap, idx):
    """Center (x, y) of the cell with curve index ``idx`` (an int or an int64 array)."""
    px, py = _anchor_fwd(curve.anchor, curve.cells_per_side, *_d2xy(curve.level, idx))
    h = curve.cell_side
    return -curve.half_side + (px + 0.5) * h, -curve.half_side + (py + 0.5) * h


def hit_index(curve: HilbertCurveMap, z: complex, level: int | None = None) -> int:
    """Curve index of the cell containing z at the given level (default: map level).

    Points on shared cell edges resolve to the cell with the smaller index.
    """
    if level is None:
        level = curve.level
    if level < 1:
        raise ValueError("level must be >= 1")
    R, side = curve.half_side, 1 << level
    h, slack = 2.0 * R / side, 1e-12 * R
    cells = []  # per axis, the cells whose closed cell contains the coordinate
    for coord in (z.real, z.imag):
        if not -R - slack <= coord <= R + slack:
            raise ValueError(f"point with coordinate {coord} outside the square of half-side {R}")
        frac = ((-R if coord < -R else R if coord > R else coord) + R) / h  # slack clamped
        i = math.floor(frac)
        if i >= side:  # coord = R, or a rounded subnormal cell side
            i = side - 1
        cells.append((i, i - 1) if frac == i >= 1 else (i,))  # i - 1: on a shared edge
    xs, ys = cells
    inverse = -curve.anchor % 4  # the rotation that undoes the anchor's
    if len(xs) == len(ys) == 1:
        return _xy2d(level, *_anchor_fwd(inverse, side, xs[0], ys[0]))
    return min(_xy2d(level, *_anchor_fwd(inverse, side, px, py)) for px in xs for py in ys)


def deep_hit_index(curve: HilbertCurveMap, z: complex) -> int:
    """Hit index at the deep refinement level; refines the map-level index."""
    return hit_index(curve, z, level=DEEP_LEVEL)


def curve_points_batch(curve: HilbertCurveMap, ts: np.ndarray) -> np.ndarray:
    """Centers of the level-m cells with curve indices floor(t * 4**m), t = 1 -> the
    last cell, for an array of t (map level must be <= 31)."""
    if curve.level > 31:
        raise ValueError("map level must be <= 31 (int64 curve indices)")
    ts = np.asarray(ts, dtype=float)
    if not np.all((0 <= ts) & (ts <= 1)):
        raise ValueError("t values must lie in [0, 1]")
    idx = np.minimum(curve.num_cells - 1, (ts * curve.num_cells).astype(np.int64))
    x, y = _cell_center(curve, idx)
    return x + 1j * y
