"""Acceptance battery: every criterion at its stated tolerance.

The battery behind ``specnest verify`` runs once per module; each test asserts
one criterion's result and prints a single pass/fail line (visible under
``pytest -s`` or on failure).
"""
import pytest

from specnest import acceptance

SEED = 7


@pytest.fixture(scope="module")
def battery():
    return acceptance.run_all(seed=SEED)


def _assert_criterion(result):
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] {result.name} ({result.seconds:.1f}s)")
    assert result.passed, result.details


def test_criterion_1_decomposition_soundness(battery):
    """200 Ginibre 16x16 (seed 42): reconstruction <= 1e-12 ||T||, normality
    defect <= 1e-10 ||N||^2, spectrum gap <= 1e-8, strict-upper and Q-diagonal
    defects <= 1e-8 ||T||, |tr(N*Q)| <= (3e-10 + 8 n^2 u) ||T||_F^2, under 30 s."""
    _assert_criterion(battery[0])
    assert 0.0 < battery[0].details["worst_tolerance_ratios"]["orthogonality"] <= 1.0


def test_criterion_2_weyl_inequality(battery):
    """Those 200 plus 200 upper-triangular 16x16: gauge traces of |N| below
    those of |T| (slack 1e-10) and N log-submajorized by T; zero failures."""
    _assert_criterion(battery[1])


def test_criterion_3_projection_contract(battery):
    """200 (matrix, ball) pairs 8x8: exact trace fraction, invariance leak
    <= 1e-9 ||T||, compression spectra split with 1e-8 boundary slack, and
    together they are T's spectrum within 1e-8 ||T||_2 (spectrum-split);
    monotonicity under ball inclusion on 100 nested pairs (<= 1e-8)."""
    _assert_criterion(battery[2])


def test_criterion_4_power_limit(battery):
    """50 Ginibre 8x8 with >10% eigenvalue modulus gaps: eigenvalues of
    ((T*)^64 T^64)^(1/128) within 10% relative of sorted eigenvalue moduli;
    spectral ranks at gap midpoints match the ball projections."""
    _assert_criterion(battery[3])


def test_criterion_5_curve_and_nest_bounds(battery):
    """50 Ginibre 8x8, n = 2..10: dyadic expectation gap and remainder radius
    both below 6R sqrt(2^-n); at every inner jump t the nest projection is
    hs_projection(T, CurveSegment(t, curve)) (same rank, Frobenius gap
    <= 1e-10); curve modulus verified on 1e5 sampled pairs."""
    _assert_criterion(battery[4])


def test_criterion_5_takes_one_two_norm_per_matrix(monkeypatch, singular_value_calls):
    """decompose's ||T||_2 also sizes the criterion's curve: one values-only SVD
    per matrix, besides the one each hs_projection call takes."""
    original = acceptance.hs_projection
    projections = []

    def counting(T, region):
        projections.append(region.t)
        return original(T, region)

    monkeypatch.setattr(acceptance, "hs_projection", counting)
    assert acceptance.criterion_curve_nest_bounds(SEED).passed
    assert len(projections) == 350  # the inner jumps at this seed
    assert len(singular_value_calls) == 50 + len(projections)


def test_criterion_6_determinant_convergence(battery):
    """20 Ginibre 8x8, eps = 0.1, lambda in {0, 1+i}: regularized
    log-determinant within 1e-3 of the exact-measure integral at n = 12."""
    _assert_criterion(battery[5])


def test_criterion_7_determinant_monotonicity(battery):
    """Pinching determinants weakly decreasing in n (slack 1e-10) for
    m in {1, 10, 100}; Delta of the full pinch matches Delta(T) within 1e-8
    of the smaller side (0 when both vanish, a failure when one does);
    500 pinch inequality trials with zero failures."""
    _assert_criterion(battery[6])


def test_criterion_8_brown_grid(battery):
    """diag(1, -1, i, -i) on a 301^2 grid (eps 1e-8): total mass 1 +- 0.02,
    each 0.3-disk captures 0.25 +- 0.02; nilpotent J4: >= 0.95 of the mass
    within 0.2 of the origin. Under 60 s per grid."""
    _assert_criterion(battery[7])


def test_criterion_9_majorization_suite(battery):
    """200 classical-Weyl oracle pairs, 1000 log-plus equivalence pairs,
    500 hypothesis-filtered PSD shift pairs, scaling invariance at
    c in {0.01, 100}; zero failures."""
    _assert_criterion(battery[8])


def test_criterion_10_determinism_and_wall_clock(battery, capsys):
    """Two consecutive runs of the decompose + density + report pipeline are
    byte-identical; the whole battery stays under the 5 minute budget. Prints
    the summary of the full verify entry point."""
    with capsys.disabled():
        print()
        for r in battery:
            print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name} ({r.seconds:.1f}s)")
    seconds = sum(r.seconds for r in battery[:-1])
    assert seconds < 300.0, f"battery took {seconds:.1f}s"
    assert all(r.passed for r in battery), [r.name for r in battery if not r.passed]
