"""Acceptance battery: every criterion at its stated tolerance.

The battery behind ``specnest verify`` runs once per module and writes its
acceptance.json. Each criterion keeps one check row per check (the first
failing instance, or else the one nearest its bound), whose params name
the input; each test asserts one criterion's rows and prints a single pass/fail
line with the failing rows (visible under ``pytest -s`` or on failure).
"""
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specnest import acceptance, cli
from specnest.decompose import CheckRow
from specnest.matrices import operator_norm

SEED = 7


def reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


@pytest.fixture(scope="module")
def battery_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def battery(battery_dir):
    return acceptance.run_all(seed=SEED, out_dir=str(battery_dir))


def _assert_criterion(result):
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] {result.name} ({result.seconds:.1f}s) {result.failures()}")
    assert result.passed, result.failures()


def test_criterion_1_decomposition_soundness(battery):
    """200 Ginibre 16x16 (seed 42): reconstruction <= 1e-12 ||T||, normality
    defect <= 1e-10 ||N||^2, spectrum gap <= 1e-8, strict-upper and Q-diagonal
    defects <= 1e-8 ||T||, |tr(N*Q)| <= (3e-10 + 8 n^2 u) ||T||_F^2, under 30 s."""
    _assert_criterion(battery[0])
    [row] = [r for r in battery[0].rows if r.check == "orthogonality"]
    assert 0.0 < row.value / row.bound <= 1.0


def test_criterion_2_weyl_inequality(battery):
    """Those 200 plus 200 upper-triangular 16x16: gauge traces of |N| below
    those of |T| (slack 1e-10) and N log-submajorized by T; every row passes."""
    _assert_criterion(battery[1])


def test_criterion_3_projection_contract(battery):
    """200 (matrix, ball) pairs 8x8: exact trace fraction, invariance leak
    <= 1e-9 ||T||, compression spectra split with 1e-8 boundary slack, and
    together they are T's spectrum within 1e-8 ||T||_2 (spectrum_split);
    monotonicity under ball inclusion on 100 nested pairs (<= 1e-8)."""
    _assert_criterion(battery[2])


def test_criterion_4_power_limit(battery):
    """50 Ginibre 8x8 with >10% eigenvalue modulus gaps: eigenvalues of
    ((T*)^64 T^64)^(1/128) within 10% relative of sorted eigenvalue moduli;
    spectral ranks at gap midpoints match the ball projections."""
    _assert_criterion(battery[3])


def test_criterion_5_curve_and_nest_bounds(battery):
    """50 Ginibre 8x8, n = 2..10: dyadic expectation gap and remainder radius
    both below 6R sqrt(2^-n) (the level rows of the convergence report); at
    every inner jump t the nest projection is hs_projection(T, CurveSegment(t,
    curve)) (same rank, Frobenius gap <= 1e-10); curve modulus verified on 1e5
    sampled pairs, the one with the least margin kept."""
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
    log-determinant within 1e-3 of the exact-measure integral at n = 12
    (the report's det_gap rows)."""
    _assert_criterion(battery[5])


def test_criterion_7_determinant_monotonicity(battery):
    """Pinching determinants weakly decreasing in n (slack 1e-10) for
    m in {1, 10, 100} (the report's pinch rows); |Delta(T) - Delta(full pinch)|
    <= 1e-8 times the smaller of the two (a pass when both vanish, a failure
    when one does); 500 pinch inequality trials, every row passing."""
    _assert_criterion(battery[6])


def test_criterion_8_brown_grid(battery):
    """diag(1, -1, i, -i) on a 301^2 grid (eps 1e-8): total mass 1 +- 0.02,
    each 0.3-disk captures 0.25 +- 0.02; nilpotent J4: >= 0.95 of the mass
    within 0.2 of the origin. Under 60 s per grid."""
    _assert_criterion(battery[7])


def test_criterion_9_majorization_suite(battery):
    """200 classical-Weyl oracle pairs, 1000 log-plus equivalence pairs,
    500 hypothesis-filtered PSD shift pairs, scaling invariance at
    c in {0.01, 100}; every row passes."""
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
    assert all(r.passed for r in battery), [r.failures() for r in battery]


def test_acceptance_json_holds_the_kept_rows(battery, battery_dir):
    """acceptance.json is strict JSON with each criterion's verdict, seconds
    and rows, the same as the results run_all returned."""
    payload = json.loads((battery_dir / "acceptance.json").read_text(),
                         parse_constant=reject_constant)
    assert [(e["name"], e["passed"], e["seconds"]) for e in payload] == [
        (r.name, r.passed, r.seconds) for r in battery]
    for entry, result in zip(payload, battery):
        assert [(e["check"], e["params"], float(e["value"]), float(e["bound"]),
                 float(e["margin"]), e["pass"]) for e in entry["rows"]] == [
            (r.check, r.params, r.value, r.bound, r.margin, r.ok) for r in result.rows]


def test_patched_tolerance_names_check_instance_and_bound(monkeypatch, capsys):
    """Q_DIAGONAL_TOL patched below every Q-diagonal defect fails criterion 1
    on exactly one row: q_diag at its first input, against the patched bound.
    acceptance.json and ``specnest verify``'s output name that row."""
    monkeypatch.setattr(acceptance, "Q_DIAGONAL_TOL", 1e-17)
    result = acceptance.criterion_decomposition(42)
    assert not result.passed
    [row] = result.failures()
    assert (row.check, row.params) == ("q_diag", "ginibre16;seed=42;index=0")
    assert row.bound == 1e-17 * operator_norm(acceptance._ginibre(16, 42, 1)[0])
    [entry] = json.loads(acceptance._acceptance_json([result]), parse_constant=reject_constant)
    assert entry["passed"] is False
    assert [e for e in entry["rows"] if not e["pass"]] == [
        {"check": "q_diag", "params": row.params, "value": row.value, "bound": row.bound,
         "margin": row.margin, "pass": False}]
    monkeypatch.setattr(acceptance, "run_all", lambda seed, out_dir: [result])
    assert cli.main(["verify"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("[FAIL] 1 decomposition soundness")
    assert lines[1:] == [f"  q_diag ginibre16;seed=42;index=0 value={row.value:.6g} "
                         f"bound={row.bound:.6g}", "0/1 criteria passed"]


def test_selection_ranks_passing_rows_by_value_over_bound():
    # Bounds that scale with ||T||: the small input has the smaller margin,
    # the large one is nearer its bound, and it is the one kept.
    small = CheckRow("reconstruction", "small", 1e-13, 1e-12)  # margin 9e-13, 0.1 of bound
    large = CheckRow("reconstruction", "large", 8e-11, 1e-10)  # margin 2e-11, 0.8 of bound
    assert acceptance._worst_rows([small, large]) == (large,)
    assert acceptance._worst_rows([large, small]) == (large,)
    # A count's bound is 0: the margin ranks its rows.
    counts = [CheckRow("trace", "a", -1.0, 0.0), CheckRow("trace", "b", 0.0, 0.0)]
    assert acceptance._worst_rows(counts) == (counts[1],)


def test_acceptance_json_writes_non_finite_floats_as_strings():
    # Python's json writes inf and nan as the bare tokens Infinity and NaN,
    # which RFC 8259 parsers reject; the writer spells them as repr does.
    rows = (CheckRow("full_pinch", "one determinant vanishes", math.inf, 0.0),
            CheckRow("det_gap", "n=3", 0.5, math.inf),
            CheckRow("nan_value", "", math.nan, 1.0))
    result = acceptance.CriterionResult(rows, "non-finite rows", 0.0)
    [entry] = json.loads(acceptance._acceptance_json([result]), parse_constant=reject_constant)
    assert [(e["value"], e["bound"], e["margin"], e["pass"]) for e in entry["rows"]] == [
        ("inf", 0.0, "-inf", False), (0.5, "inf", "inf", True), ("nan", 1.0, "nan", False)]


any_float = st.one_of(st.just(math.nan), st.floats())
rows_strategy = st.lists(
    st.tuples(st.sampled_from("abc"), any_float,
              st.one_of(st.sampled_from([math.inf, -math.inf]), st.floats(allow_nan=False))),
    max_size=12)


def slack(row) -> float:
    value, bound = float(row.value), float(row.bound)
    return 1.0 - value / bound if bound > 0 else bound - value


@settings(deadline=None, max_examples=300)
@given(rows_strategy)
def test_selection_keeps_one_row_per_check_and_every_failure(cells):
    rows = [CheckRow(check, str(i), value, bound)
            for i, (check, value, bound) in enumerate(cells)]
    kept = acceptance._worst_rows(iter(rows))
    assert all(r.ok for r in kept) == all(r.ok for r in rows)
    assert [r.check for r in kept] == list(dict.fromkeys(r.check for r in rows))
    for row in kept:
        group = [r for r in rows if r.check == row.check]
        failing = [r for r in group if not r.ok]
        if failing:
            # NaN compares false, so a NaN value fails and cannot hide behind
            # an undefined margin.
            assert row is failing[0]
        else:
            # The nearest call: value/bound ranks rows with positive bounds.
            assert row in group and not any(slack(r) < slack(row) for r in group)
        if any(math.isnan(r.value) for r in group):
            assert not row.ok
