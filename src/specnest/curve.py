"""Level-32 Hilbert curve filling the square [-R, R]^2.

Used to linearly order the complex spectrum: the curve index of the cell
containing a point, over 4**32, gives its first hit time. The anchor picks the
entry corner (quarter turns of the square); ``decompose`` builds its nest on
anchor 0.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

# The curve's one resolution. Its 4**32 cell indices are exact as Python ints
# and fit uint64; only the final jump times are floats.
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
_D2XY_ARRAY = np.array(_D2XY, dtype=np.uint64)


def _d2xy(order: int, d):
    """Curve index -> cell coordinates on the 2**order grid.

    ``d`` may be a Python int (exact at any order) or a uint64 array
    (order <= 32), which is left unmodified.
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
    """Level-32 (DEEP_LEVEL) Hilbert curve on the square [-R, R]^2.

    ``modulus(dt) = MODULUS_CONSTANT * half_side * sqrt(dt)`` bounds the
    distance between curve points with parameter gap dt.
    """

    half_side: float = 1.0
    anchor: int = 0

    def __post_init__(self):
        if isinstance(self.anchor, bool) or not isinstance(self.anchor, (int, np.integer)):
            raise ValueError(f"anchor must be an integer, got {self.anchor!r}")
        object.__setattr__(self, "anchor", int(self.anchor))
        if not 0 < self.half_side < math.inf:
            raise ValueError("half_side must be positive and finite")
        if self.anchor not in (0, 1, 2, 3):
            raise ValueError("anchor must be 0..3")

    @property
    def cell_side(self) -> float:
        return 2.0 * self.half_side / (1 << DEEP_LEVEL)

    def modulus(self, dt: float) -> float:
        return MODULUS_CONSTANT * self.half_side * math.sqrt(abs(dt))

    def with_anchor(self, anchor: int) -> "HilbertCurveMap":
        return dataclasses.replace(self, anchor=anchor)


def _cell_center(curve: HilbertCurveMap, idx):
    """Center (x, y) of the cell with curve index ``idx`` (an int or a uint64 array)."""
    px, py = _anchor_fwd(curve.anchor, 1 << DEEP_LEVEL, *_d2xy(DEEP_LEVEL, idx))
    h = curve.cell_side
    return -curve.half_side + (px + 0.5) * h, -curve.half_side + (py + 0.5) * h


def _axis_cells(coord: float, R: float) -> tuple:
    """The cells on one axis of the square [-R, R]^2 whose closed cell contains
    ``coord``: one, or two (the smaller second) on a shared edge."""
    slack = 1e-12 * R
    if not -R - slack <= coord <= R + slack:
        raise ValueError(f"point with coordinate {coord} outside the square of half-side {R}")
    coord = -R if coord < -R else R if coord > R else coord  # slack clamped
    # Halving keeps coord + R finite, and scaling by 2**level (no subnormal
    # cell side) gives the same cells for every power-of-two scale of R and z.
    frac = math.ldexp((0.5 * coord + 0.5 * R) / R, DEEP_LEVEL)
    i = math.floor(frac)
    if i == 1 << DEEP_LEVEL:  # coord = R: the last cell
        i -= 1
    return (i, i - 1) if frac == i >= 1 else (i,)


def hit_index(curve: HilbertCurveMap, z: complex) -> int:
    """Curve index of the cell containing z.

    Points on shared cell edges resolve to the cell with the smaller index.
    """
    xs, ys = _axis_cells(z.real, curve.half_side), _axis_cells(z.imag, curve.half_side)
    if curve.anchor:  # undo the anchor's rotation
        inverse, side = -curve.anchor % 4, 1 << DEEP_LEVEL
        return min(_xy2d(DEEP_LEVEL, *_anchor_fwd(inverse, side, x, y)) for x in xs for y in ys)
    if len(xs) == len(ys) == 1:
        return _xy2d(DEEP_LEVEL, xs[0], ys[0])
    return min(_xy2d(DEEP_LEVEL, x, y) for x in xs for y in ys)


def curve_points_batch(curve: HilbertCurveMap, ts: np.ndarray) -> np.ndarray:
    """Centers of the cells with curve indices floor(t * 4**32), t = 1 -> the last
    cell, for an array of t."""
    ts = np.asarray(ts, dtype=float)
    if not np.all((0 <= ts) & (ts <= 1)):
        raise ValueError("t values must lie in [0, 1]")
    idx = np.ldexp(np.where(ts < 1, ts, 0.0), 2 * DEEP_LEVEL).astype(np.uint64)
    idx[ts == 1] = (1 << 2 * DEEP_LEVEL) - 1
    x, y = _cell_center(curve, idx)
    return x + 1j * y
