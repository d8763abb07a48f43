"""Space-filling curve: index maps, locality bound, anchors, hit times."""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from specnest.curve import (
    DEEP_LEVEL,
    HilbertCurveMap,
    _anchor_fwd,
    _d2xy,
    _cell_center,
    _xy2d,
    curve_points_batch,
    hit_index,
)


def _d2xy_bits(order: int, d):
    """Reference index map, one level per step (branch-free: ints or uint64 arrays)."""
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


def _xy2d_bits(order: int, x: int, y: int) -> int:
    """Reference inverse of ``_d2xy_bits``, one level per step."""
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


def _hit_bits(curve: HilbertCurveMap, z: complex) -> int:
    """Reference hit index on ``_xy2d_bits``: the candidate cells of each axis
    (two on a shared edge, coordinates clamped within 1e-12 R), smallest index."""
    R, side = curve.half_side, 1 << DEEP_LEVEL
    axes = []
    for coord in (z.real, z.imag):
        if coord < -R - 1e-12 * R or coord > R + 1e-12 * R or math.isnan(coord):
            raise ValueError("outside")
        frac = math.ldexp((0.5 * min(max(coord, -R), R) + 0.5 * R) / R, DEEP_LEVEL)
        i = min(side - 1, int(math.floor(frac)))
        edge = frac == math.floor(frac) and 1 <= frac <= side - 1
        axes.append([i, i - 1] if edge else [i])
    return min(_xy2d_bits(DEEP_LEVEL, *_anchor_fwd(-curve.anchor % 4, side, px, py))
               for px in axes[0] for py in axes[1])


def _or_error(fn, *args):
    """``fn(*args)``, or ValueError if it raises one."""
    try:
        return fn(*args)
    except ValueError:
        return ValueError


# Test points on the lines of the 2**grid grid: shared cell edges and corners
# for grid <= DEEP_LEVEL, and points between them for finer grids.
GRID_LEVELS = (1, 2, 5, 16, 32, 33, 40)
# At a power-of-two half-side, -R + k * 2R / 2**grid is exact, so those points
# sit on grid lines; the others span the double range (at 1e-305 the cell side
# is subnormal).
HIT_HALF_SIDES = (2.0**-664, 2.0**-20, 1.0, 2.0**7, 2.0**498, 1e-305, 1e-200, 0.7, 3e150)


class TestIndexMaps:
    @given(st.integers(1, 8), st.integers(0, 4**8 - 1))
    def test_d2xy_inverts_xy2d(self, order, d):
        d = d % (4**order)
        x, y = _d2xy(order, d)
        assert _xy2d(order, x, y) == d

    def test_level_one_orientation(self):
        # [TRIVIAL] the order-1 curve visits (0,0), (0,1), (1,1), (1,0).
        cells = [_d2xy(1, d) for d in range(4)]
        assert cells == [(0, 0), (0, 1), (1, 1), (1, 0)]

    @given(st.integers(1, 8), st.integers(0, 4**8 - 2))
    def test_adjacent_indices_are_neighbor_cells(self, order, d):
        d = d % (4**order - 1)
        x1, y1 = _d2xy(order, d)
        x2, y2 = _d2xy(order, d + 1)
        assert abs(x1 - x2) + abs(y1 - y2) == 1

    def test_d2xy_array_matches_scalar_and_keeps_input(self):
        idx = np.arange(4**5, dtype=np.uint64)
        x, y = _d2xy(5, idx)
        assert [(int(a), int(b)) for a, b in zip(x, y)] == [_d2xy(5, d) for d in range(4**5)]
        assert np.array_equal(idx, np.arange(4**5))

    def test_every_cell_matches_per_bit_loop_up_to_order_4(self):
        for order in range(1, 5):
            cells = [(x, y) for x in range(1 << order) for y in range(1 << order)]
            assert [_xy2d(order, x, y) for x, y in cells] == [
                _xy2d_bits(order, x, y) for x, y in cells]
            assert [_d2xy(order, d) for d in range(4**order)] == [
                _d2xy_bits(order, d) for d in range(4**order)]

    @given(st.integers(1, 44), st.data())
    def test_python_ints_match_per_bit_loop(self, order, data):
        x, y = (data.draw(st.integers(0, 2**order - 1)) for _ in range(2))
        d = data.draw(st.integers(0, 4**order - 1))
        assert _xy2d(order, x, y) == _xy2d_bits(order, x, y)
        assert _d2xy(order, d) == _d2xy_bits(order, d)

    @given(st.integers(1, DEEP_LEVEL), st.integers(0, 2**32 - 1))
    def test_uint64_arrays_match_per_bit_loop(self, order, seed):
        idx = np.concatenate([np.array([0, 4**order - 1], dtype=np.uint64),
                              np.random.default_rng(seed).integers(
                                  0, 4**order, 64, dtype=np.uint64)])
        keep = idx.copy()
        x, y = _d2xy(order, idx)
        ref_x, ref_y = _d2xy_bits(order, idx)
        assert x.dtype == y.dtype == np.uint64
        assert np.array_equal(x, ref_x) and np.array_equal(y, ref_y)
        assert np.array_equal(idx, keep)

    def test_deep_level_exact_integers(self):
        idx = _xy2d(DEEP_LEVEL, 2**DEEP_LEVEL - 1, 0)
        assert isinstance(idx, int)
        assert 0 <= idx < 4**DEEP_LEVEL


def _point(curve: HilbertCurveMap, idx: int) -> complex:
    """Center of the cell with curve index ``idx``, on Python ints (exact)."""
    return complex(*_cell_center(curve, idx))


class TestCurvePoint:
    def test_points_stay_in_square(self):
        curve = HilbertCurveMap(half_side=2.0)
        z = curve_points_batch(curve, np.linspace(0, 1, 257))
        assert np.all(np.abs(z.real) <= 2.0) and np.all(np.abs(z.imag) <= 2.0)

    def test_start_is_entry_corner_cell(self):
        curve = HilbertCurveMap(half_side=1.0)
        [z] = curve_points_batch(curve, [0.0])
        h = curve.cell_side
        assert z == pytest.approx(complex(-1 + h / 2, -1 + h / 2))

    def test_anchor_rotates_start(self):
        base = HilbertCurveMap(half_side=1.0)
        starts = {complex(curve_points_batch(base.with_anchor(a), [0.0])[0]) for a in range(4)}
        assert len(starts) == 4

    @settings(deadline=None)
    @given(st.integers(0, 10_000))
    def test_modulus_bound_on_random_pairs(self, seed):
        curve = HilbertCurveMap(half_side=1.5)
        rng = np.random.default_rng(seed)
        t1, t2 = rng.uniform(0, 1, 2)
        z1, z2 = curve_points_batch(curve, [t1, t2])
        assert abs(z1 - z2) <= curve.modulus(t1 - t2)

    def test_batch_matches_scalar(self):
        # The uint64 index arrays against the Python-int path, cell by cell.
        curve = HilbertCurveMap(half_side=0.7, anchor=3)
        ts = np.append(np.linspace(0, 1, 101), np.nextafter(1.0, 0.0))
        batch = curve_points_batch(curve, ts)
        scalar = np.array([_point(curve, min(4**DEEP_LEVEL - 1, int(t * 4**DEEP_LEVEL)))
                           for t in ts])
        assert np.array_equal(batch, scalar)


class TestHitIndex:
    def test_inverts_curve_point(self):
        rng = np.random.default_rng(32)
        for anchor in range(4):
            curve = HilbertCurveMap(half_side=1.0, anchor=anchor)
            for idx in (0, 5, 1000, 4**DEEP_LEVEL - 1,
                        *(int(i) for i in rng.integers(0, 2**64, 5, dtype=np.uint64))):
                assert hit_index(curve, _point(curve, idx)) == idx

    def test_first_hit_time_range(self):
        # The first hit time of z is its hit index over the cell count.
        curve = HilbertCurveMap(half_side=1.0)
        idx = hit_index(curve, 0.3 + 0.4j)
        assert 0.0 <= idx / 4**DEEP_LEVEL < 1.0
        assert abs(_point(curve, idx) - (0.3 + 0.4j)) <= curve.cell_side

    def test_shared_edge_resolves_to_smaller_index(self):
        curve = HilbertCurveMap(half_side=1.0)
        # x = -0.5 and y = -0.75 are cell edges, so the point is a corner of four cells.
        h = curve.cell_side
        idx = hit_index(curve, complex(-0.5, -0.75))
        assert idx == min(hit_index(curve, complex(-0.5 + dx, -0.75 + dy))
                          for dx in (-h / 2, h / 2) for dy in (-h / 2, h / 2))

    def test_outside_square_rejected(self):
        curve = HilbertCurveMap(half_side=1.0)
        with pytest.raises(ValueError):
            hit_index(curve, 2.0 + 0.0j)

    @pytest.mark.parametrize("z", [-0.5j - 1.001, complex(math.nan, 0.0),
                                   complex(0.0, math.nan), complex(math.inf, 0.0)])
    def test_nonfinite_or_outside_point_rejected_at_every_level(self, z):
        curve = HilbertCurveMap(half_side=1.0)
        with pytest.raises(ValueError):
            hit_index(curve, z)

    @settings(max_examples=300)
    @given(st.sampled_from(HIT_HALF_SIDES), st.integers(0, 3),
           st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
    def test_random_points_match_per_bit_reference(self, R, anchor, u, v):
        curve = HilbertCurveMap(half_side=R, anchor=anchor)
        z = complex(u * R, v * R)
        assert hit_index(curve, z) == _hit_bits(curve, z)

    @settings(max_examples=300)
    @given(st.sampled_from(HIT_HALF_SIDES), st.integers(0, 3),
           st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.data())
    def test_power_of_two_scaling_keeps_the_cell(self, R, anchor, u, v, data):
        # Scaling by 2**k is exact while R, z and their halves stay normal, so
        # the point must stay in the same cell of the scaled square.
        e = math.frexp(R)[1]
        k = data.draw(st.integers(-1020 - e, 1024 - e))
        z = complex(u * R, v * R)
        normal = 2.0 * np.finfo(float).tiny
        assume(all(c == 0.0 or min(abs(c), math.ldexp(abs(c), k)) >= normal
                   for c in (z.real, z.imag)))
        scaled = HilbertCurveMap(half_side=math.ldexp(R, k), anchor=anchor)
        zk = complex(math.ldexp(z.real, k), math.ldexp(z.imag, k))
        assert hit_index(scaled, zk) == hit_index(HilbertCurveMap(R, anchor), z)

    @pytest.mark.parametrize("grid", GRID_LEVELS)
    def test_edges_corners_and_slack_match_per_bit_reference(self, grid):
        rng = np.random.default_rng(grid)
        side = 1 << grid
        ks = sorted({0, 1, side // 2, side - 1, side, *(int(k) for k in rng.integers(
            0, side + 1, 6, dtype=np.uint64))})
        for R in HIT_HALF_SIDES:
            h, slack = 2.0 * R / side, 1e-12 * R
            coords = [-R + k * h for k in ks] + [
                R + 0.5 * slack, R + slack, -R - 0.5 * slack, -R - slack, 0.3 * R]
            for anchor in range(4):
                curve = HilbertCurveMap(half_side=R, anchor=anchor)
                for a in coords:
                    for b in coords[::3]:
                        for z in (complex(a, b), complex(b, a)):
                            assert _or_error(hit_index, curve, z) == \
                                _or_error(_hit_bits, curve, z)
            for coord in (R + 2 * slack, -R - 2 * slack):
                with pytest.raises(ValueError):
                    hit_index(curve, complex(coord, 0.0))


class TestValidation:
    def test_rejects_bad_anchor(self):
        with pytest.raises(ValueError):
            HilbertCurveMap(anchor=4)

    @pytest.mark.parametrize("value", [1.0, False, np.True_, None],
                             ids=["anchor-1.0", "anchor-false", "anchor-np-bool", "anchor-none"])
    def test_rejects_non_integer_parameter(self, value):
        with pytest.raises(ValueError, match="anchor must be an integer"):
            HilbertCurveMap(anchor=value)

    @pytest.mark.parametrize("to_int", [int, np.int32, np.int64, np.uint8],
                             ids=["int", "np-int32", "np-int64", "np-uint8"])
    def test_accepts_numpy_integers_as_python_ints(self, to_int):
        curve = HilbertCurveMap(anchor=to_int(2))
        assert curve == HilbertCurveMap(anchor=2)
        assert type(curve.anchor) is int

    def test_rejects_t_outside_unit_interval(self):
        curve = HilbertCurveMap()
        for t in (1.5, -0.25):
            with pytest.raises(ValueError):
                curve_points_batch(curve, [0.5, t])
