"""Acceptance battery: ten desk-scale property checks with stated tolerances.

Each criterion yields check rows (pass iff value <= bound, the tolerance inside
the bound) whose params name the input; it keeps per check the first failing
row, or else the one nearest its bound (the least margin, relative to the
bound where it is positive), and passes when every kept row does. ``run_all``
executes the whole battery (this is what ``specnest verify`` runs). Seeds are
fixed so that reruns are bit-identical.
"""
from __future__ import annotations

import dataclasses
import io
import json
import math
import os
import time

import numpy as np

from . import ensembles, serialize
from .curve import MODULUS_CONSTANT, HilbertCurveMap, curve_points_batch
from .decompose import (Q_DIAGONAL_TOL, CheckRow, Report, _det_gap_rows, _level_rows,
                        _pinch_rows, decompose, pinch_commutant)
from .detbrown import brown_density_grid, fk_determinant
from .ensembles import EnsembleSpec, Ginibre, UpperTriangularRandom, generate
from .hsnest import Ball, CurveSegment, hs_projection, power_limit_operator
from .majorize import (
    DEFAULT_GAUGES,
    log_plus_equivalence_check,
    log_submajorizes,
    pinch_log_check,
    shift_lemma_check,
    submajorizes,
    weyl_check,
)
from .matrices import (NEST_UNITARY_TOL, default_half_side, frobenius, operator_norm,
                       spectrum_distance)


@dataclasses.dataclass(frozen=True)
class CriterionResult(Report):
    """A criterion's kept rows, one per check; it passes when every row does."""

    name: str
    seconds: float

    @property
    def passed(self) -> bool:
        return self.all_ok


def _worst_rows(rows) -> tuple:
    """Per check, in order of first appearance: the first failing row (a NaN
    value fails), or else the one with the least slack: 1 - value/bound where
    bound > 0, so that inputs whose bounds scale with them compare, else the
    margin, in Python floats (no warning on inf or NaN). ``rows`` may be a
    generator; it is reduced as it runs."""
    kept = {}  # check -> (slack, row)
    for row in rows:
        value, bound = float(row.value), float(row.bound)
        slack = 1.0 - value / bound if bound > 0 else bound - value
        old = kept.get(row.check)
        if old is None or old[1].ok and (not row.ok or slack < old[0]):
            kept[row.check] = slack, row
    return tuple(row for _, row in kept.values())


def _timed(name: str, rows) -> CriterionResult:
    t0 = time.perf_counter()
    kept = _worst_rows(rows())
    return CriterionResult(kept, name, time.perf_counter() - t0)


def _at(where: str, rows):
    """The rows with the input ``where`` in front of their params."""
    for row in rows:
        yield dataclasses.replace(row, params=f"{where};{row.params}" if row.params else where)


def _ginibre(n: int, seed: int, count: int):
    return generate(EnsembleSpec(Ginibre(n), seed=seed, count=count))


# -- 1: decomposition soundness ---------------------------------------------

def criterion_decomposition(seed: int = 42) -> CriterionResult:
    def rows():
        t0 = time.perf_counter()
        n = 16
        # N is the trace-preserving expectation of T, so tr(N*Q) = 0 exactly.
        # With U the nest basis, W = U*U, B^ the computed flag form U*TU and
        # C = diag(c) the block means of its diagonal:
        # tr(N*Q) = sum_k conj(c_k) (B - B^)_kk + tr(C*C) - tr(C*WCW).
        # eta = ||W - I||_F <= NEST_UNITARY_TOL and ||C||_F <= (1 + eta)||T||_F
        # bound the last two terms by 3 eta ||T||_F^2. Rounding (unit roundoff
        # u) in B^, in N = UCU* and Q = T - N and in the trace sum adds at
        # most (2 n^1.5 + 3 n^2 + 2 n^2 + 2) u ||T||_F^2 <= 8 n^2 u ||T||_F^2.
        ortho_tol = 3 * NEST_UNITARY_TOL + 8 * n**2 * np.finfo(float).eps / 2
        for i, T in enumerate(_ginibre(n, seed, 200)):
            where = f"ginibre{n};seed={seed};index={i}"
            res = decompose(T)
            d = res.diagnostics
            normT = d["operator_norm"]
            # N is normal with the block means as its spectrum, so ||N||_2 is
            # their largest modulus; eigvals(T) is the independent solver.
            means = np.repeat([z for _, _, z in res.ordering],
                              [m for _, m, _ in res.ordering])
            normN = float(np.max(np.abs(means)))
            yield CheckRow("reconstruction", where, d["reconstruction_error"], 1e-12 * normT)
            yield CheckRow("normality", where, d["normality_defect"],
                           1e-10 * (normN / normT) ** 2)
            yield CheckRow("spectrum", where,
                           spectrum_distance(np.linalg.eigvals(T), means), 1e-8)
            yield CheckRow("strict_upper", where, d["strict_upper_defect"], 1e-8 * normT)
            yield CheckRow("q_diag", where, d["q_spectral_radius"], Q_DIAGONAL_TOL * normT)
            yield CheckRow("orthogonality", where, float(abs(np.vdot(res.N, res.Q))),
                           ortho_tol * frobenius(T) ** 2)
        yield CheckRow("seconds", f"ginibre{n};seed={seed}", time.perf_counter() - t0, 30.0)

    return _timed("1 decomposition soundness (200 Ginibre 16x16)", rows)


# -- 2: Weyl inequality ------------------------------------------------------

def criterion_weyl(seed: int = 42) -> CriterionResult:
    def rows():
        for label, kind in (("ginibre16", Ginibre(16)),
                            ("upper-triangular16", UpperTriangularRandom(16))):
            for i, T in enumerate(generate(EnsembleSpec(kind, seed=seed, count=200))):
                yield from _at(f"{label};seed={seed};index={i}",
                               weyl_check(T, DEFAULT_GAUGES).rows)

    return _timed("2 Weyl inequality (400 matrices, default gauges)", rows)


# -- 3: projection contract --------------------------------------------------

def _random_ball(rng, eigs, norm):
    for _ in range(100):
        center = complex(*(rng.uniform(-1.3, 1.3, 2))) * max(norm, 0.5)
        radius = rng.uniform(0.2, 1.2) * max(norm, 0.5)
        if np.all(np.abs(np.abs(eigs - center) - radius) > 1e-6):
            return Ball(center, radius)
    raise RuntimeError("could not place a ball away from the spectrum")


def criterion_hs_contract(seed: int) -> CriterionResult:
    def rows():
        rng = np.random.default_rng(seed)
        mats = _ginibre(8, seed, 200)
        spectra = [(np.linalg.eigvals(T), operator_norm(T)) for T in mats]
        for i, (T, (eigs, normT)) in enumerate(zip(mats, spectra)):
            where = f"ginibre8;seed={seed};index={i}"
            ball = _random_ball(rng, eigs, normT)
            p = hs_projection(T, ball)
            inside = np.abs(eigs - ball.center) <= ball.radius
            yield CheckRow("trace", where,
                           float(abs(round(np.trace(p).real) - np.count_nonzero(inside))), 0.0)
            yield CheckRow("invariance", where, frobenius(T @ p - p @ T @ p), 1e-9 * normT)
            vals, vecs = np.linalg.eigh(p)
            # Spectra of the compression pTp and the co-compression p'Tp', inside
            # and outside the ball with 1e-8 slack (the latter a lower bound).
            comp, cocomp = (np.linalg.eigvals(X.conj().T @ T @ X)
                            for X in (vecs[:, vals > 0.5], vecs[:, vals <= 0.5]))
            yield CheckRow("inside_spectrum", where,
                           float(np.max(np.abs(comp - ball.center), initial=0.0)),
                           ball.radius + 1e-8)
            yield CheckRow("outside_spectrum", where, ball.radius - 1e-8,
                           float(np.min(np.abs(cocomp - ball.center), initial=math.inf)))
            # The Brown measure splits: mu_T = tau(p) mu_pTp + tau(p') mu_p'Tp'.
            yield CheckRow("spectrum_split", where,
                           spectrum_distance(eigs, np.concatenate([comp, cocomp])),
                           1e-8 * normT)
        for i, (T, (eigs, normT)) in enumerate(zip(mats[:100], spectra)):
            ball = _random_ball(rng, eigs, normT)
            r2 = ball.radius + rng.uniform(0.1, 0.5) * max(normT, 0.5)
            while np.any(np.abs(np.abs(eigs - ball.center) - r2) < 1e-6):
                r2 += 1e-3
            p1 = hs_projection(T, ball)
            p2 = hs_projection(T, Ball(ball.center, r2))
            yield CheckRow("monotonicity", f"ginibre8;seed={seed};index={i}",
                           frobenius(p2 @ p1 - p1), 1e-8)

    return _timed("3 projection contract (200 pairs + 100 nested)", rows)


# -- 4: power-limit convergence ---------------------------------------------

def _modulus_gap_filtered(seed: int, count: int, n: int = 8):
    """``count`` (input label, Ginibre matrix, sorted eigenvalue moduli) triples.
    Each seed's 50 matrices are the ones ``generate`` gives, drawn as one stack."""
    mats = []
    for rng_seed in range(seed, seed + 4 * count):  # at most 200 * count attempts
        batch = ensembles._ginibre(np.random.default_rng(rng_seed), n, 50)
        moduli = np.sort(np.abs(np.linalg.eigvals(batch)), axis=1)
        rel_gaps = (moduli[:, 1:] - moduli[:, :-1]) / moduli[:, 1:]
        keep = (moduli[:, 0] > 1e-3) & (np.min(rel_gaps, axis=1) > 0.1)
        mats += [(f"ginibre{n};seed={rng_seed};index={i}", batch[i], moduli[i])
                 for i in np.flatnonzero(keep)[:count - len(mats)]]
        if len(mats) == count:
            return mats
    raise RuntimeError("could not find enough modulus-gap-filtered matrices")


def criterion_power_limit(seed: int) -> CriterionResult:
    def rows():
        for where, T, moduli in _modulus_gap_filtered(seed, 50):
            A = power_limit_operator(T, 64)
            approx = np.sort(np.linalg.eigvalsh(A))
            yield CheckRow("power_limit_rel", where,
                           float(np.max(np.abs(approx - moduli) / moduli)), 0.10)
            for i in range(len(moduli) - 1):
                r = 0.5 * (moduli[i] + moduli[i + 1])
                rank_spec = int(np.count_nonzero(approx <= r))
                p = hs_projection(T, Ball(0.0, r))
                yield CheckRow("rank", f"{where};gap={i}",
                               float(abs(rank_spec - round(np.trace(p).real))), 0.0)

    return _timed("4 power-limit convergence (50 filtered Ginibre 8x8)", rows)


# -- 5: curve and nest bounds ------------------------------------------------

def criterion_curve_nest_bounds(seed: int) -> CriterionResult:
    def rows():
        for i, T in enumerate(_ginibre(8, seed, 50)):
            where = f"ginibre8;seed={seed};index={i}"
            result = decompose(T)
            yield from _at(where, _level_rows(result, range(2, 11)))
            # The paper's nest: P(T, gamma([0, t])) at every inner jump t.
            nest = result.nest
            curve = HilbertCurveMap(half_side=default_half_side(
                result.diagnostics["operator_norm"]))
            for t, rank in nest.jumps[1:-1]:
                P = hs_projection(T, CurveSegment(t, curve))
                yield CheckRow("segment_rank", f"{where};t={t!r}",
                               float(abs(round(float(np.trace(P).real)) - rank)), 0.0)
                yield CheckRow("segment_gap", f"{where};t={t!r}",
                               frobenius(nest.projection_at(t) - P), 1e-10)
        # Curve modulus on sampled pairs: the pair with the least margin.
        curve = HilbertCurveMap(half_side=1.0)
        rng = np.random.default_rng(seed)
        t1 = rng.uniform(0.0, 1.0, 100_000)
        t2 = rng.uniform(0.0, 1.0, 100_000)
        d = np.abs(curve_points_batch(curve, t1) - curve_points_batch(curve, t2))
        bound = MODULUS_CONSTANT * curve.half_side * np.sqrt(np.abs(t1 - t2))
        j = int(np.argmin(bound - d))
        yield CheckRow("curve_modulus", f"pairs=100000;seed={seed};index={j}",
                       float(d[j]), float(bound[j]))

    return _timed("5 curve and nest bounds (50 Ginibre 8x8, 1e5 pairs)", rows)


# -- 6: determinant convergence ---------------------------------------------

def criterion_det_convergence(seed: int) -> CriterionResult:
    def rows():
        for i, T in enumerate(_ginibre(8, seed, 20)):
            yield from _at(f"ginibre8;seed={seed};index={i}",
                           _det_gap_rows(decompose(T), range(12, 13), (0.1,), (0.0, 1.0 + 1.0j)))

    return _timed("6 determinant convergence (20 Ginibre 8x8, n=12)", rows)


# -- 7: determinant monotonicity and pinching --------------------------------

def criterion_det_monotonicity(seed: int) -> CriterionResult:
    def rows():
        for i, T in enumerate(_ginibre(8, seed, 20)):
            where = f"ginibre8;seed={seed};index={i}"
            result = decompose(T)
            yield from _at(where, _pinch_rows(T, result, range(0, 11)))
            dT = fk_determinant(T)
            dP = fk_determinant(pinch_commutant(T, result.nest, None))
            # Delta(T) = prod_k Delta(B_k)^tau(p_k) over the pinch's blocks B_k,
            # within 1e-8 of the smaller side: a pass when both vanish, a
            # failure when one does.
            yield CheckRow("full_pinch", where, abs(dT - dP), 1e-8 * min(dT, dP))
        rng = np.random.default_rng(seed)
        for i in range(500):
            n = 8
            G = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            T = np.triu(G) / np.sqrt(2 * n)
            k = int(rng.integers(1, n))
            p = np.zeros((n, n), dtype=complex)
            p[np.arange(k), np.arange(k)] = 1.0
            yield from _at(f"triu8;seed={seed};trial={i};rank={k}", pinch_log_check(T, p).rows)

    return _timed("7 determinant monotonicity and pinching", rows)


# -- 8: Brown grid estimator -------------------------------------------------

def criterion_brown_grid() -> CriterionResult:
    def rows():
        t0 = time.perf_counter()
        T = np.diag([1.0, -1.0, 1.0j, -1.0j]).astype(complex)
        grid = brown_density_grid(T, bounds=(-2, 2, -2, 2), resolution=301, eps=1e-8)
        yield CheckRow("total_mass", "four_atoms", abs(grid.total_mass - 1.0), 0.02)
        for z in (1.0, -1.0, 1.0j, -1.0j):
            yield CheckRow("atom_mass", f"four_atoms;z={complex(z)}",
                           abs(grid.mass_within(complex(z), 0.3) - 0.25), 0.02)
        yield CheckRow("seconds", "four_atoms", time.perf_counter() - t0, 60.0)

        t0 = time.perf_counter()
        J4 = np.diag(np.ones(3), 1).astype(complex)
        grid = brown_density_grid(J4, bounds=(-1.5, 1.5, -1.5, 1.5),
                                  resolution=301, eps=1e-8)
        # At least 0.95 of the mass within 0.2 of the origin (a lower bound).
        yield CheckRow("origin_mass", "nilpotent", 0.95, grid.mass_within(0.0, 0.2))
        yield CheckRow("seconds", "nilpotent", time.perf_counter() - t0, 60.0)

    return _timed("8 Brown grid estimator", rows)


# -- 9: majorization suite ---------------------------------------------------

def criterion_majorization(seed: int) -> CriterionResult:
    def rows():
        rng = np.random.default_rng(seed)
        n = 6

        def rand_mat():
            return (rng.standard_normal((n, n))
                    + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)

        for i in range(200):
            T = rand_mat()
            B = np.diag(np.sort(np.abs(np.linalg.eigvals(T)))[::-1]).astype(complex)
            row = log_submajorizes(T, B)
            yield dataclasses.replace(row, check="weyl_oracle",
                                      params=f"seed={seed};trial={i};{row.params}")

        for i in range(1000):
            yield from _at(f"seed={seed};trial={i}",
                           log_plus_equivalence_check(rand_mat(), rand_mat()).rows)

        found = 0
        attempts = 0
        while found < 500 and attempts < 50_000:
            attempts += 1
            G = rand_mat()
            A = G @ G.conj().T
            H = rand_mat()
            B = float(rng.uniform(0.2, 1.0)) * (H @ H.conj().T)
            if not log_submajorizes(A, B):
                continue
            found += 1
            where = f"seed={seed};attempt={attempts}"
            report = shift_lemma_check(A, B)
            yield CheckRow("shift_skipped", where, float(len(report.skipped)), 0.0)
            yield from _at(where, report.rows)
        # 500 pairs that meet the hypothesis (a lower bound).
        yield CheckRow("shift_pairs", f"seed={seed};attempts={attempts}", 500.0, float(found))

        for i in range(100):
            A, B = rand_mat(), rand_mat()
            for compare in (submajorizes, log_submajorizes):
                base = bool(compare(A, B))
                for c in (0.01, 100.0):
                    yield CheckRow("scaling", f"seed={seed};trial={i};{compare.__name__};c={c}",
                                   float(bool(compare(c * A, c * B)) != base), 0.0)

    return _timed("9 majorization suite", rows)


# -- 10: determinism and wall clock -----------------------------------------

def _pipeline_bytes(seed: int) -> bytes:
    """Deterministic end-to-end artifact: decompose + density + weyl report."""
    T = _ginibre(8, seed, 1)[0]
    res = decompose(T)
    buf = io.StringIO()
    buf.write(json.dumps(serialize.decomposition_to_dict(res)))
    grid = brown_density_grid(T, resolution=64, eps=1e-6)
    buf.write(serialize.density_grid_csv(grid))
    buf.write(serialize.report_rows_csv(weyl_check(T).rows))
    return buf.getvalue().encode()


def criterion_determinism(seed: int, battery_seconds: float) -> CriterionResult:
    def rows():
        differs = _pipeline_bytes(seed) != _pipeline_bytes(seed)
        yield CheckRow("rerun_differs", f"ginibre8;seed={seed};index=0", float(differs), 0.0)
        yield CheckRow("seconds", "battery", battery_seconds, 300.0)

    return _timed("10 determinism and wall clock", rows)


def run_all(seed: int = 7, out_dir: str | None = None) -> list:
    """Run the full battery; optionally write acceptance.json to out_dir."""
    results = [
        criterion_decomposition(42),
        criterion_weyl(42),
        criterion_hs_contract(seed),
        criterion_power_limit(seed),
        criterion_curve_nest_bounds(seed),
        criterion_det_convergence(seed),
        criterion_det_monotonicity(seed),
        criterion_brown_grid(),
        criterion_majorization(seed),
    ]
    battery_seconds = sum(r.seconds for r in results)
    results.append(criterion_determinism(seed, battery_seconds))
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        serialize.write_text(os.path.join(out_dir, "acceptance.json"),
                             _acceptance_json(results))
    return results


def _json_float(x) -> float | str:
    """x, or its repr ("inf", "-inf", "nan"), for which strict JSON has no token."""
    x = float(x)
    return x if math.isfinite(x) else repr(x)


def _acceptance_json(results) -> str:
    """Per criterion: name, verdict, seconds, and each kept row's check, params,
    value, bound, margin and pass."""
    payload = [
        {"name": r.name, "passed": r.passed, "seconds": r.seconds,
         "rows": [{"check": row.check, "params": row.params,
                   "value": _json_float(row.value), "bound": _json_float(row.bound),
                   "margin": _json_float(row.margin), "pass": row.ok}
                  for row in r.rows]}
        for r in results
    ]
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"
