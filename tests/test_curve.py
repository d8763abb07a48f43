"""Space-filling curve: index maps, locality bound, anchors, hit times."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specnest.curve import (
    DEEP_LEVEL,
    HilbertCurveMap,
    _anchor_fwd,
    _d2xy,
    _cell_center,
    _xy2d,
    curve_points_batch,
    deep_hit_index,
    hit_index,
)


def _d2xy_bits(order: int, d):
    """Reference index map, one level per step (branch-free: ints or int64 arrays)."""
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


def _hit_bits(curve: HilbertCurveMap, z: complex, level: int) -> int:
    """Reference hit index on ``_xy2d_bits``: the candidate cells of each axis
    (two on a shared edge, coordinates clamped within 1e-12 R), smallest index."""
    R, side = curve.half_side, 1 << level
    axes = []
    for coord in (z.real, z.imag):
        if coord < -R - 1e-12 * R or coord > R + 1e-12 * R or math.isnan(coord):
            raise ValueError("outside")
        frac = (min(max(coord, -R), R) + R) / (2.0 * R / side)
        i = min(side - 1, int(math.floor(frac)))
        edge = frac == math.floor(frac) and 1 <= frac <= side - 1
        axes.append([i, i - 1] if edge else [i])
    return min(_xy2d_bits(level, *_anchor_fwd(-curve.anchor % 4, side, px, py))
               for px in axes[0] for py in axes[1])


def _or_error(fn, *args):
    """``fn(*args)``, or ValueError if it raises one."""
    try:
        return fn(*args)
    except ValueError:
        return ValueError


HIT_LEVELS = (1, 2, 5, 16, 32, 33, 40)
# At a power-of-two half-side, -R + k * cell_side is exact, so those points sit
# on shared cell edges; the others span the double range (at 1e-305 the deep
# cells are subnormal, and rounded).
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
        idx = np.arange(4**5, dtype=np.int64)
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

    @given(st.integers(1, 31), st.integers(0, 2**32 - 1))
    def test_int64_arrays_match_per_bit_loop(self, order, seed):
        idx = np.concatenate([[0, 4**order - 1], np.random.default_rng(seed).integers(
            0, 4**order, 64)]).astype(np.int64)
        keep = idx.copy()
        x, y = _d2xy(order, idx)
        ref_x, ref_y = _d2xy_bits(order, idx)
        assert x.dtype == y.dtype == np.int64
        assert np.array_equal(x, ref_x) and np.array_equal(y, ref_y)
        assert np.array_equal(idx, keep)

    def test_deep_level_exact_integers(self):
        idx = _xy2d(DEEP_LEVEL, 2**DEEP_LEVEL - 1, 0)
        assert isinstance(idx, int)
        assert 0 <= idx < 4**DEEP_LEVEL


def _point(curve: HilbertCurveMap, idx: int) -> complex:
    """Center of the cell with curve index ``idx``, on Python ints (exact at any level)."""
    return complex(*_cell_center(curve, idx))


class TestCurvePoint:
    def test_points_stay_in_square(self):
        curve = HilbertCurveMap(level=6, half_side=2.0)
        z = curve_points_batch(curve, np.linspace(0, 1, 257))
        assert np.all(np.abs(z.real) <= 2.0) and np.all(np.abs(z.imag) <= 2.0)

    def test_start_is_entry_corner_cell(self):
        curve = HilbertCurveMap(level=8, half_side=1.0)
        [z] = curve_points_batch(curve, [0.0])
        h = curve.cell_side
        assert z == pytest.approx(complex(-1 + h / 2, -1 + h / 2))

    def test_anchor_rotates_start(self):
        base = HilbertCurveMap(level=8, half_side=1.0)
        starts = {complex(curve_points_batch(base.with_anchor(a), [0.0])[0]) for a in range(4)}
        assert len(starts) == 4

    @settings(deadline=None)
    @given(st.integers(0, 10_000))
    def test_modulus_bound_on_random_pairs(self, seed):
        curve = HilbertCurveMap(level=10, half_side=1.5)
        rng = np.random.default_rng(seed)
        t1, t2 = rng.uniform(0, 1, 2)
        z1, z2 = curve_points_batch(curve, [t1, t2])
        assert abs(z1 - z2) <= curve.modulus(t1 - t2)

    def test_batch_matches_scalar(self):
        # The int64 index arrays against the Python-int path, cell by cell.
        curve = HilbertCurveMap(level=9, half_side=0.7, anchor=3)
        ts = np.linspace(0, 1, 101)
        batch = curve_points_batch(curve, ts)
        scalar = np.array([_point(curve, min(curve.num_cells - 1, int(t * curve.num_cells)))
                           for t in ts])
        assert np.array_equal(batch, scalar)


class TestHitIndex:
    def test_inverts_curve_point(self):
        for anchor in range(4):
            curve = HilbertCurveMap(level=7, half_side=1.0, anchor=anchor)
            for idx in (0, 5, 1000, curve.num_cells - 1):
                assert hit_index(curve, _point(curve, idx)) == idx

    def test_level_40_round_trip(self):
        # 4**40 cells overflow int64, so this runs the Python-int index map.
        rng = np.random.default_rng(40)
        for anchor in range(4):
            curve = HilbertCurveMap(level=40, half_side=1.0, anchor=anchor)
            for high in rng.integers(0, 2**52, 5):
                idx = int(high) << 28
                assert hit_index(curve, _point(curve, idx)) == idx

    def test_first_hit_time_range(self):
        # The first hit time of z is its hit index over the cell count.
        curve = HilbertCurveMap(level=7, half_side=1.0)
        idx = hit_index(curve, 0.3 + 0.4j)
        assert 0.0 <= idx / curve.num_cells < 1.0
        assert abs(_point(curve, idx) - (0.3 + 0.4j)) <= curve.cell_side

    def test_shared_edge_resolves_to_smaller_index(self):
        curve = HilbertCurveMap(level=2, half_side=1.0)
        # x = -0.5 is the shared edge between cell columns 0 and 1.
        idx = hit_index(curve, complex(-0.5, -0.75))
        left = hit_index(curve, complex(-0.6, -0.75))
        right = hit_index(curve, complex(-0.4, -0.75))
        assert idx == min(left, right)

    def test_outside_square_rejected(self):
        curve = HilbertCurveMap(level=4, half_side=1.0)
        with pytest.raises(ValueError):
            hit_index(curve, 2.0 + 0.0j)

    @pytest.mark.parametrize("z", [-0.5j - 1.001, complex(math.nan, 0.0),
                                   complex(0.0, math.nan), complex(math.inf, 0.0)])
    def test_nonfinite_or_outside_point_rejected_at_every_level(self, z):
        curve = HilbertCurveMap(level=4, half_side=1.0)
        with pytest.raises(ValueError):
            hit_index(curve, z)
        with pytest.raises(ValueError):
            deep_hit_index(curve, z)

    def test_level_below_one_rejected(self):
        with pytest.raises(ValueError):
            hit_index(HilbertCurveMap(level=4), 0.1j, level=0)

    @settings(max_examples=300)
    @given(st.sampled_from(HIT_HALF_SIDES), st.integers(0, 3), st.sampled_from(HIT_LEVELS),
           st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
    def test_random_points_match_per_bit_reference(self, R, anchor, level, u, v):
        curve = HilbertCurveMap(level=level, half_side=R, anchor=anchor)
        z = complex(u * R, v * R)
        assert hit_index(curve, z) == _hit_bits(curve, z, level)
        assert hit_index(curve, z, level=DEEP_LEVEL + 1) == _hit_bits(curve, z, DEEP_LEVEL + 1)
        assert deep_hit_index(curve, z) == _hit_bits(curve, z, DEEP_LEVEL)

    @pytest.mark.parametrize("level", HIT_LEVELS)
    def test_edges_corners_and_slack_match_per_bit_reference(self, level):
        rng = np.random.default_rng(level)
        side = 1 << level
        ks = sorted({0, 1, side // 2, side - 1, side, *(int(k) for k in rng.integers(
            0, side + 1, 6, dtype=np.uint64))})
        for R in HIT_HALF_SIDES:
            h, slack = 2.0 * R / side, 1e-12 * R
            coords = [-R + k * h for k in ks] + [
                R + 0.5 * slack, R + slack, -R - 0.5 * slack, -R - slack, 0.3 * R]
            for anchor in range(4):
                curve = HilbertCurveMap(level=level, half_side=R, anchor=anchor)
                for a in coords:
                    for b in coords[::3]:
                        for z in (complex(a, b), complex(b, a)):
                            assert _or_error(hit_index, curve, z) == \
                                _or_error(_hit_bits, curve, z, level)
                            assert _or_error(deep_hit_index, curve, z) == \
                                _or_error(_hit_bits, curve, z, DEEP_LEVEL)
            for coord in (R + 2 * slack, -R - 2 * slack):
                with pytest.raises(ValueError):
                    hit_index(curve, complex(coord, 0.0))

    def test_deep_index_refines_coarse(self):
        curve = HilbertCurveMap(level=5, half_side=1.0)
        rng = np.random.default_rng(11)
        for _ in range(50):
            z = complex(*rng.uniform(-0.99, 0.99, 2))
            deep = deep_hit_index(curve, z)
            coarse = hit_index(curve, z)
            assert deep >> (2 * (DEEP_LEVEL - curve.level)) == coarse

    def test_deep_index_separates_close_points(self):
        curve = HilbertCurveMap(level=4, half_side=1.0)
        z1 = 0.123456 + 0.5j
        z2 = z1 + 1e-7
        assert hit_index(curve, z1) == hit_index(curve, z2)
        assert deep_hit_index(curve, z1) != deep_hit_index(curve, z2)


class TestValidation:
    def test_rejects_bad_level(self):
        with pytest.raises(ValueError):
            HilbertCurveMap(level=0)

    def test_rejects_bad_anchor(self):
        with pytest.raises(ValueError):
            HilbertCurveMap(anchor=4)

    @pytest.mark.parametrize("field, value", [
        ("level", 2.5), ("level", 2.0), ("level", True), ("level", "3"),
        ("level", np.float64(4.0)), ("anchor", 1.0), ("anchor", False),
        ("anchor", np.True_), ("anchor", None),
    ], ids=["level-2.5", "level-2.0", "level-true", "level-str", "level-np-float",
            "anchor-1.0", "anchor-false", "anchor-np-bool", "anchor-none"])
    def test_rejects_non_integer_parameter(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            HilbertCurveMap(**{field: value})

    @pytest.mark.parametrize("to_int", [int, np.int32, np.int64, np.uint8],
                             ids=["int", "np-int32", "np-int64", "np-uint8"])
    def test_accepts_numpy_integers_as_python_ints(self, to_int):
        curve = HilbertCurveMap(level=to_int(3), anchor=to_int(2))
        assert curve == HilbertCurveMap(level=3, anchor=2)
        assert type(curve.level) is int and type(curve.anchor) is int

    def test_rejects_t_outside_unit_interval(self):
        curve = HilbertCurveMap(level=4)
        for t in (1.5, -0.25):
            with pytest.raises(ValueError):
                curve_points_batch(curve, [0.5, t])
