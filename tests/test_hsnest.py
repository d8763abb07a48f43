"""Region projections, power limits and curve-ordered nests."""
import math
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from specnest import curve as curve_module
from specnest import hsnest
from specnest.curve import DEEP_LEVEL, HilbertCurveMap, hit_index
from specnest.decompose import decompose
from specnest.ensembles import (
    EnsembleSpec,
    Ginibre,
    Jordan,
    NormalPlusNilpotent,
    UpperTriangularRandom,
    generate,
)
from specnest.hsnest import (
    Ball,
    CurveSegment,
    build_nest,
    default_curve,
    hs_projection,
    power_limit_operator,
)
from specnest.matrices import (CLUSTER_TOL, ProjectionNest, _complex_schur, as_operator,
                               operator_norm)
from test_curve import _xy2d_bits
from test_matrices import reference_clusters

SHEAR = np.array([[1, 1], [0, 2]], dtype=complex)


def _jordans(seed: int, corner: float = 0.0) -> list:
    lams = np.random.default_rng(seed).uniform(-0.7, 0.7, (40, 2)) @ np.array([1.0, 1.0j])
    mats = [generate(EnsembleSpec(Jordan(complex(lam), 16)))[0] for lam in lams]
    for J in mats:
        J[-1, 0] += corner
    return mats


# 40 inputs of each kind a batch of 16 x 16 decompositions mixes.
BATCH_KINDS = {
    "ginibre": lambda: generate(EnsembleSpec(Ginibre(16), seed=1, count=40)),
    "upper-triangular": lambda: generate(EnsembleSpec(UpperTriangularRandom(16), seed=2,
                                                      count=40)),
    "normal-plus-nilpotent": lambda: generate(EnsembleSpec(NormalPlusNilpotent(16), seed=3,
                                                           count=40)),
    "jordan": lambda: _jordans(4),
    "jordan-perturbed": lambda: _jordans(5, corner=1e-12),
}


def random_matrix(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)


def reference_nest(T, curve) -> ProjectionNest:
    """The per-cluster nest build: clusters as index arrays, each cluster's key
    set in a loop, the Schur form reordered slot by slot (``list.index`` finds
    each eigenvalue) and the jumps appended one by one."""
    T = as_operator(T)
    norm = operator_norm(T)
    R, U = _complex_schur(T)
    eigs = np.diag(R)
    clusters = [(complex(np.mean(eigs[ix]) if len(ix) > 1 else eigs[ix[0]]), ix)
                for ix in reference_clusters(eigs, CLUSTER_TOL * norm)]
    hits = [hit_index(curve, rep) for rep, _ in clusters]
    order = sorted(range(len(clusters)), key=lambda c: (
        hits[c], clusters[c][0].real, clusters[c][0].imag))
    keys = np.empty(T.shape[0], dtype=int)
    for rank, c in enumerate(order):
        keys[clusters[c][1]] = rank
    R, U = np.asfortranarray(R), np.asfortranarray(U)
    target = np.lexsort((np.arange(len(T)), eigs.imag, eigs.real, keys)).tolist()
    labels = list(range(len(T)))
    for k in range(len(T)):
        j = labels.index(target[k])
        if j != k:
            R, U, _ = scipy.linalg.lapack.ztrexc(R, U, j + 1, k + 1)
            labels.insert(k, labels.pop(j))
    jumps = [(0.0, 0)]
    for c in order:
        t = max(hits[c] / 4.0**DEEP_LEVEL, math.nextafter(jumps[-1][0], 2.0))
        jumps.append((min(t, 1.0), jumps[-1][1] + len(clusters[c][1])))
    return ProjectionNest(np.ascontiguousarray(U), tuple(jumps))


class TestRegions:
    def test_ball_membership(self):
        ball = Ball(1.0 + 0j, 0.5)
        assert ball.contains(1.2)
        assert ball.contains(1.5)  # closed ball
        assert not ball.contains(1.6)

    def test_ball_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            Ball(0.0, -1.0)

    def test_curve_segment_membership(self):
        curve = HilbertCurveMap(half_side=1.0)
        seg = CurveSegment(0.0, curve)
        # Only the entry cell is hit at t = 0.
        h = curve.cell_side
        assert seg.contains(complex(-1 + h / 2, -1 + h / 2))
        assert not seg.contains(0.5 + 0.5j)


class TestHsProjection:
    def test_shear_ball_projection(self):
        # [DERIVED] the eigenvector for eigenvalue 2 is (1, 1)/sqrt(2), so the
        # projection onto its span has every entry 1/2.
        p = hs_projection(SHEAR, Ball(2.0 + 0j, 0.5))
        assert np.allclose(p, 0.5 * np.ones((2, 2)), atol=1e-12)

    def test_empty_and_full_regions(self):
        p0 = hs_projection(SHEAR, Ball(10.0 + 0j, 0.1))
        p1 = hs_projection(SHEAR, Ball(0.0, 10.0))
        assert np.allclose(p0, 0.0)
        assert np.allclose(p1, np.eye(2))

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 2000))
    def test_contract_on_random_matrices(self, seed):
        T = random_matrix(seed, 6)
        rng = np.random.default_rng(seed + 1)
        eigs = np.linalg.eigvals(T)
        ball = Ball(complex(*rng.uniform(-1, 1, 2)), float(rng.uniform(0.3, 1.0)))
        dist = np.abs(eigs - ball.center)
        if np.any(np.abs(dist - ball.radius) < 1e-8):
            return  # boundary collision: contract undefined at this ball
        p = hs_projection(T, ball)
        normT = operator_norm(T)
        assert np.linalg.norm(p @ p - p, 2) < 1e-10
        assert np.linalg.norm(p - p.conj().T, 2) < 1e-10
        assert round(np.trace(p).real) == np.count_nonzero(dist <= ball.radius)
        assert np.linalg.norm(T @ p - p @ T @ p, 2) <= 1e-9 * normT

    def test_complement_projection_ranks_add(self):
        T = random_matrix(12, 5)
        inside = Ball(0.0, 0.8)

        class Outside:  # any object with ``contains`` is a region
            def contains(self, z):
                return not inside.contains(z)

        outside = Outside()
        k1 = round(np.trace(hs_projection(T, inside)).real)
        k2 = round(np.trace(hs_projection(T, outside)).real)
        assert k1 + k2 == 5


def test_decompose_and_hs_projection_validate_T_once(monkeypatch):
    # The 2-norm, the nest builder and the nest take the validated copy: one
    # as_operator call each, none on the nest basis.
    original = hsnest.as_operator
    calls = []

    def counting(A):
        calls.append(np.shape(A))
        return original(A)

    for name, module in list(sys.modules.items()):
        if name.startswith("specnest") and getattr(module, "as_operator", None) is original:
            monkeypatch.setattr(module, "as_operator", counting)
    T = random_matrix(3, 8)
    decompose(T)
    assert calls == [(8, 8)]
    hs_projection(T, Ball(0.0, 0.5))
    assert calls == [(8, 8), (8, 8)]


def test_decompose_and_hs_projection_share_one_schur_entry_point(monkeypatch,
                                                                   scipy_schur_calls):
    # Each takes one Schur form, through matrices._complex_schur, never
    # through scipy.linalg.schur.
    original = hsnest._complex_schur
    calls = []

    def counting(T):
        calls.append(T.shape)
        return original(T)

    monkeypatch.setattr(hsnest, "_complex_schur", counting)
    T = random_matrix(3, 8)
    decompose(T)
    assert calls == [(8, 8)]
    hs_projection(T, Ball(0.0, 0.5))
    assert calls == [(8, 8), (8, 8)]
    assert scipy_schur_calls == []


class TestPowerLimit:
    def test_shear_at_n16(self):
        # [DERIVED] closed-form 2x2 singular values of SHEAR^16 give
        # eigenvalues (0.97857253..., 2.04379332...) for the 16th root.
        A = power_limit_operator(SHEAR, 16)
        vals = np.sort(np.linalg.eigvalsh(A))
        assert vals == pytest.approx([0.9785725, 2.0437933], abs=1e-6)

    def test_converges_to_eigenvalue_moduli(self):
        A = power_limit_operator(SHEAR, 64)
        vals = np.sort(np.linalg.eigvalsh(A))
        assert vals == pytest.approx([1.0, 2.0], rel=0.05)

    def test_high_precision_path_under_dynamic_range(self):
        # sigma(T^64) spans 2^-425, beyond an SVD of T^64 formed in double.
        T = np.array([[0.01, 1.0], [0.0, 1.0]], dtype=complex)
        A = power_limit_operator(T, 64)
        vals = np.sort(np.linalg.eigvalsh(A))
        assert vals == pytest.approx([0.01, 1.0], rel=0.15)

    def test_normal_matrix_is_fixed_point(self):
        T = np.diag([3.0, 1.0]).astype(complex)
        A = power_limit_operator(T, 8)
        assert np.allclose(A, np.diag([3.0, 1.0]), atol=1e-10)

    def test_zero_matrix(self):
        assert np.allclose(power_limit_operator(np.zeros((3, 3)), 4), 0.0)

    def test_rejects_bad_power(self):
        with pytest.raises(ValueError):
            power_limit_operator(SHEAR, 0)

    @pytest.mark.parametrize("n", [64, 160, 256, 1024])
    def test_matches_2x2_closed_form_below_double_range(self, n):
        # [DERIVED] for T = [[a, b], [0, c]]: sigma_1 sigma_2 = |ac|^n and
        # sigma_1^2 + sigma_2^2 = ||T^n||_F^2, T^n's corner being
        # b (a^n - c^n) / (a - c). sigma_2 drops below 1e-308 from n = 160.
        a, b, c = 0.01, 1.0, 1.0
        fro2 = a ** (2 * n) + (b * (a ** n - c ** n) / (a - c)) ** 2 + c ** (2 * n)
        log_prod = n * math.log(abs(a * c))
        log_s1 = 0.5 * math.log(0.5 * (fro2 + math.sqrt(fro2 ** 2 - 4 * math.exp(2 * log_prod))))
        expected = np.exp(np.array([log_prod - log_s1, log_s1]) / n)
        A = power_limit_operator(np.array([[a, b], [0.0, c]], dtype=complex), n)
        assert np.sort(np.linalg.eigvalsh(A)) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n", [64, 256])
    def test_graded_triangular_has_no_zero_eigenvalue(self, n):
        # Invertible, eigenvalue moduli 1 ... 1e-7. Its eigenproblem is
        # ill-conditioned in double (cond ~ 1e24), so only the sign is pinned.
        rng = np.random.default_rng(0)
        T = np.triu(rng.standard_normal((8, 8)), 1) + np.diag(10.0 ** -np.arange(8))
        assert np.all(np.linalg.eigvalsh(power_limit_operator(T, n)) > 0.0)

    @pytest.mark.parametrize("n, expected", [
        (16, [0.402691403795073, 0.538953718051547, 0.68908437064073, 0.8570131613791,
              1.04458987275636, 1.25300782933466, 1.48291405842041, 1.73037716380296]),
        (64, [0.641693275802733, 0.714115828687285, 0.787109057757826, 0.863442543466288,
              0.944925402651094, 1.03359626874423, 1.13267509885235, 1.24945829300123]),
        (256, [0.797011623333081, 0.826898948616326, 0.856028373252464, 0.885333441251946,
               0.915328143962386, 0.946490181386832, 0.979474014104951, 1.01564539700996]),
    ])
    def test_jordan_block_matches_reference(self, n, expected):
        # [DERIVED] sigma(J^n)^(1/n) for J = Jordan(0.9, 8), from an SVD of
        # the exact power at 2000-8000 bits (agreeing with twice the bits),
        # computed once outside the tests.
        T = generate(EnsembleSpec(Jordan(0.9, 8)))[0]
        vals = np.sort(np.linalg.eigvalsh(power_limit_operator(T, n)))
        assert np.linalg.norm(vals - expected) <= 1e-6

    @pytest.mark.parametrize("n", [64, 256])
    def test_determinant_is_that_of_T(self, n):
        # [DERIVED] det A = prod sigma_i(T^n)^(1/n) = |det T|. Here one SVD
        # resolves 26-31 singular values of S^n spanning e^100 to e^157, far
        # past 1/eps; an SVD without relative accuracy inflates the smallest.
        T = random_matrix(23, 32)
        vals = np.linalg.eigvalsh(power_limit_operator(T, n))
        assert np.sum(np.log(vals)) == pytest.approx(np.linalg.slogdet(T)[1], rel=1e-12)

    def test_nilpotent_power_is_exactly_zero(self):
        T = generate(EnsembleSpec(Jordan(0.0, 4)))[0]
        assert np.array_equal(power_limit_operator(T, 8), np.zeros((4, 4)))

    def test_singular_normal_matrix(self):
        A = power_limit_operator(np.diag([1.0, 0.0]), 5)
        assert np.allclose(A, np.diag([1.0, 0.0]), rtol=0.0, atol=1e-15)
        assert np.linalg.eigvalsh(A)[0] == 0.0

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 2000), st.floats(-250.0, 250.0), st.integers(1, 64))
    def test_scales_with_T(self, seed, log10_c, n):
        T = random_matrix(seed, 5)
        c = 10.0 ** log10_c
        A = power_limit_operator(T, n)
        gap = np.linalg.norm(power_limit_operator(c * T, n) / c - A, 2)
        assert gap <= 1e-12 * np.linalg.norm(A, 2)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 2000), st.integers(1, 64))
    def test_commutes_with_unitary_conjugation(self, seed, n):
        T = random_matrix(seed, 5)
        U, _ = np.linalg.qr(random_matrix(seed + 1, 5))
        A = power_limit_operator(T, n)
        B = power_limit_operator(U @ T @ U.conj().T, n)
        assert np.linalg.norm(B - U @ A @ U.conj().T, 2) <= 1e-12 * np.linalg.norm(A, 2)


class TestBuildNest:
    def test_nest_shape_and_invariance(self):
        T = random_matrix(21, 7)
        nest = build_nest(T, default_curve(T))
        assert nest.jumps[0] == (0.0, 0)
        assert nest.jumps[-1][1] == 7
        B = nest.basis.conj().T @ T @ nest.basis
        assert np.linalg.norm(np.tril(B, -1), 2) < 1e-9 * operator_norm(T)

    def test_jump_times_strictly_increase(self):
        T = random_matrix(22, 8)
        nest = build_nest(T, default_curve(T))
        ts = [t for t, _ in nest.jumps]
        assert all(b > a for a, b in zip(ts, ts[1:]))

    @pytest.mark.parametrize("lam", [0.3 + 0.2j, 0.0, 0.25 - 0.4j, -0.5 + 0.1j])
    def test_jump_times_are_hit_times_of_flag_blocks(self, lam):
        # Ill-conditioned spectrum: 16 eigenvalues on a circle of radius
        # 1e-12**(1/16) around lam, each known only to about 1e-6.
        T = generate(EnsembleSpec(Jordan(lam, 16)))[0]
        T[-1, 0] += 1e-12
        curve = default_curve(T)
        nest = build_nest(T, curve)
        diag = np.diag(nest.basis.conj().T @ T @ nest.basis)
        for t, lo, hi in nest.increments():
            mean = complex(np.mean(diag[lo:hi]))
            assert t == hit_index(curve, mean) / float(1 << (2 * DEEP_LEVEL))

    @pytest.mark.parametrize("kind", BATCH_KINDS)
    def test_nest_matches_per_bit_index_map(self, kind, monkeypatch):
        for T in BATCH_KINDS[kind]():
            curve = default_curve(T)
            nest = build_nest(T, curve)
            with monkeypatch.context() as patch:
                patch.setattr(curve_module, "_xy2d", _xy2d_bits)
                ref = build_nest(T, curve)
            assert nest.jumps == ref.jumps
            assert np.array_equal(nest.basis, ref.basis)

    @pytest.mark.parametrize("kind, corner", [
        (Ginibre(8), 0.0), (UpperTriangularRandom(8), 0.0), (NormalPlusNilpotent(8), 0.0),
        (Jordan(0.3 - 0.4j, 8), 1e-12)],
        ids=["ginibre", "upper-triangular", "normal-plus-nilpotent", "jordan-perturbed"])
    def test_public_build_nest_matches_decompose_nest(self, kind, corner):
        # The public builder takes its own ||T||_2; decompose hands its own to
        # the same builder, so the two nests agree to the byte.
        T = generate(EnsembleSpec(kind, seed=6))[0]
        T[-1, 0] += corner
        nest = build_nest(T, default_curve(T))
        ref = decompose(T).nest
        assert nest.basis.tobytes() == ref.basis.tobytes()
        assert nest.jumps == ref.jumps

    @pytest.mark.parametrize("n", [4, 16])
    def test_nest_matches_the_per_cluster_build(self, n):
        # Bit for bit, on five ensemble kinds, a split hit-time tie, two
        # clusters in one cell (ordered by (Re, Im)) and a cluster of n equal
        # eigenvalues (a Jordan block).
        lams = np.random.default_rng(n).uniform(-0.7, 0.7, (8, 2)) @ np.array([1.0, 1.0j])
        jordans = [generate(EnsembleSpec(Jordan(complex(lam), n)))[0] for lam in lams]
        perturbed = [J.copy() for J in jordans]
        for J in perturbed:
            J[-1, 0] += 1e-12
        a = 0.5 + 0.2j
        mats = [T for kind in (Ginibre(n), UpperTriangularRandom(n), NormalPlusNilpotent(n))
                for T in generate(EnsembleSpec(kind, seed=n, count=10))]
        cell = HilbertCurveMap(1.25 * 0.9)  # default_curve of the matrix below
        x, y = curve_module._cell_center(cell, hit_index(cell, 0.2 + 0.1j))
        one_cell = [complex(x, y) + d for d in (-1.5e-10 + 1e-10j, 1.5e-10 - 1e-10j)]
        assert len({hit_index(cell, z) for z in one_cell}) == 1
        mats += jordans + perturbed + [np.diag([a, a + 5e-9, -0.3j, 0.3 - 0.3j]),
                                       np.diag([0.9, *one_cell[::-1]])]
        for T in mats:
            curve = default_curve(T)
            nest, ref = build_nest(T, curve), reference_nest(T, curve)
            assert nest.jumps == ref.jumps
            assert nest.basis.tobytes() == ref.basis.tobytes()
        assert len(build_nest(jordans[0], default_curve(jordans[0])).jumps) == 2

    def test_half_side_must_cover_norm(self):
        T = 3.0 * np.eye(2)
        with pytest.raises(ValueError):
            build_nest(T, HilbertCurveMap(half_side=1.0))

    @pytest.mark.parametrize("anchor", [0, 1, 2, 3])
    def test_nest_is_the_projections_of_curve_segments(self, anchor):
        # The paper's nest P(T, gamma([0, t])): at each inner jump, the nest
        # projection is the Haagerup-Schultz projection of the curve segment,
        # within the nest-unitarity tolerance 1e-10.
        mats = [T for kind in (Ginibre(8), UpperTriangularRandom(8), NormalPlusNilpotent(8),
                               Ginibre(32))
                for T in generate(EnsembleSpec(kind, seed=5, count=10))]
        for T in mats:
            curve = HilbertCurveMap(default_curve(T).half_side, anchor)
            nest = build_nest(T, curve)
            for t, rank in nest.jumps[1:-1]:
                P = hs_projection(T, CurveSegment(t, curve))
                assert round(float(np.trace(P).real)) == rank
                assert np.linalg.norm(nest.projection_at(t) - P) <= 1e-10

    def test_clusters_with_one_float_hit_time_split(self):
        # a and a + 5e-9 are two clusters in two cells, but their exact hit
        # indices round to one double t. They split in exact index order, the
        # second at the next double, and the segment at t holds both: its
        # projection is the nest projection at the last tied jump. The tie is
        # not the last jump: 0.3 - 0.3j comes after it.
        a = 0.5 + 0.2j
        T = np.diag([a, a + 5e-9, -0.3j, 0.3 - 0.3j])
        curve = default_curve(T)
        hits = [hit_index(curve, z) for z in np.diag(T)]
        assert hits[0] < hits[1] and hits[0] / 4.0**DEEP_LEVEL == hits[1] / 4.0**DEEP_LEVEL
        nest = build_nest(T, curve)
        t = hits[0] / 4.0**DEEP_LEVEL
        assert nest.jumps[2:4] == ((t, 2), (math.nextafter(t, 2.0), 3))
        assert abs(nest.basis[0, 1]) == pytest.approx(1.0)  # a, the smaller index, first
        for jump, (tj, _) in enumerate(nest.jumps[1:], 1):
            last_tied = 3 if jump == 2 else jump
            P = hs_projection(T, CurveSegment(tj, curve))
            assert round(float(np.trace(P).real)) == nest.jumps[last_tied][1]
            assert np.linalg.norm(nest.projection_at(nest.jumps[last_tied][0]) - P) <= 1e-10

    def test_anchor_rotation_rescues_build(self):
        T = np.diag([-0.5 - 0.5j, 0.5 + 0.5j])
        curve = HilbertCurveMap(half_side=1.0)
        nest = build_nest(T, curve)
        assert nest.jumps[-1][1] == 2

    def test_default_curve_scales_with_norm(self):
        T = 2.0 * np.eye(3)
        curve = default_curve(T)
        assert curve.half_side == pytest.approx(2.5)
