"""Space-filling curve: index maps, locality bound, anchors, hit times."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specnest.curve import (
    DEEP_LEVEL,
    HilbertCurveMap,
    _d2xy,
    _xy2d,
    curve_point,
    curve_points_batch,
    deep_hit_index,
    first_hit_time,
    hit_index,
)


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

    def test_deep_level_exact_integers(self):
        idx = _xy2d(DEEP_LEVEL, 2**DEEP_LEVEL - 1, 0)
        assert isinstance(idx, int)
        assert 0 <= idx < 4**DEEP_LEVEL


class TestCurvePoint:
    def test_points_stay_in_square(self):
        curve = HilbertCurveMap(level=6, half_side=2.0)
        for t in np.linspace(0, 1, 257):
            z = curve_point(curve, float(t))
            assert abs(z.real) <= 2.0 and abs(z.imag) <= 2.0

    def test_start_is_entry_corner_cell(self):
        curve = HilbertCurveMap(level=8, half_side=1.0)
        z = curve_point(curve, 0.0)
        h = curve.cell_side
        assert z == pytest.approx(complex(-1 + h / 2, -1 + h / 2))

    def test_anchor_rotates_start(self):
        base = HilbertCurveMap(level=8, half_side=1.0)
        starts = {curve_point(base.with_anchor(a), 0.0) for a in range(4)}
        assert len(starts) == 4

    @settings(deadline=None)
    @given(st.integers(0, 10_000))
    def test_modulus_bound_on_random_pairs(self, seed):
        curve = HilbertCurveMap(level=10, half_side=1.5)
        rng = np.random.default_rng(seed)
        t1, t2 = rng.uniform(0, 1, 2)
        gap = abs(curve_point(curve, t1) - curve_point(curve, t2))
        assert gap <= curve.modulus(t1 - t2)

    def test_batch_matches_scalar(self):
        curve = HilbertCurveMap(level=9, half_side=0.7, anchor=3)
        ts = np.linspace(0, 1, 101)
        batch = curve_points_batch(curve, ts)
        scalar = np.array([curve_point(curve, float(t)) for t in ts])
        assert np.array_equal(batch, scalar)


class TestHitIndex:
    def test_inverts_curve_point(self):
        for anchor in range(4):
            curve = HilbertCurveMap(level=7, half_side=1.0, anchor=anchor)
            for idx in (0, 5, 1000, curve.num_cells - 1):
                z = curve_point(curve, idx / curve.num_cells)
                assert hit_index(curve, z) == idx

    def test_level_40_round_trip(self):
        # 4**40 cells overflow int64, so this runs the Python-int index map;
        # indices with at most 52 significant bits keep idx / 4**40 exact.
        rng = np.random.default_rng(40)
        for anchor in range(4):
            curve = HilbertCurveMap(level=40, half_side=1.0, anchor=anchor)
            for high in rng.integers(0, 2**52, 5):
                idx = int(high) << 28
                z = curve_point(curve, idx / curve.num_cells)
                assert hit_index(curve, z) == idx

    def test_first_hit_time_range(self):
        curve = HilbertCurveMap(level=7, half_side=1.0)
        t = first_hit_time(curve, 0.3 + 0.4j)
        assert 0.0 <= t < 1.0
        assert abs(curve_point(curve, t) - (0.3 + 0.4j)) <= curve.cell_side

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

    def test_rejects_t_outside_unit_interval(self):
        curve = HilbertCurveMap(level=4)
        with pytest.raises(ValueError):
            curve_point(curve, 1.5)
