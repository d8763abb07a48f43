"""Acceptance battery: ten desk-scale property checks with stated tolerances.

Each criterion is a function returning a CriterionResult; ``run_all`` executes
the whole battery (this is what ``specnest verify --suite full`` runs). Seeds
are fixed so that reruns are bit-identical.
"""
from __future__ import annotations

import dataclasses
import io
import json
import time

import numpy as np

from . import serialize
from .curve import MODULUS_CONSTANT, HilbertCurveMap, curve_points_batch
from .decompose import convergence_report, decompose, pinch_commutant
from .detbrown import brown_density_grid, fk_determinant
from .ensembles import EnsembleSpec, Ginibre, UpperTriangularRandom, generate
from .hsnest import Ball, hs_projection, power_limit_operator
from .majorize import (
    DEFAULT_GAUGES,
    log_plus_equivalence_check,
    log_submajorizes,
    pinch_log_check,
    shift_lemma_check,
    submajorizes,
    weyl_check,
)
from .matrices import frobenius, operator_norm


@dataclasses.dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    details: dict
    seconds: float


def _timed(name: str, fn) -> CriterionResult:
    t0 = time.perf_counter()
    passed, details = fn()
    return CriterionResult(name, passed, details, time.perf_counter() - t0)


def _ginibre(n: int, seed: int, count: int):
    return generate(EnsembleSpec(Ginibre(n), seed=seed, count=count))


# -- 1: decomposition soundness ---------------------------------------------

def criterion_decomposition(seed: int = 42) -> CriterionResult:
    def run():
        worst = {"reconstruction": 0.0, "normality": 0.0, "spectrum": 0.0,
                 "strict_upper": 0.0, "q_diag": 0.0}
        ok = True
        t0 = time.perf_counter()
        for T in _ginibre(16, seed, 200):
            res = decompose(T)
            d = res.diagnostics
            normT = d["operator_norm"]
            normN = max(operator_norm(res.N), 1e-300)
            checks = {
                "reconstruction": d["reconstruction_error"] / (1e-12 * normT),
                "normality": d["normality_defect"] / (1e-10 * (normN / normT) ** 2),
                "spectrum": d["spectrum_gap"] / 1e-8,
                "strict_upper": d["strict_upper_defect"] / (1e-8 * normT),
                "q_diag": d["q_spectral_radius"] / (1e-8 * normT),
            }
            for key, ratio in checks.items():
                worst[key] = max(worst[key], ratio)
                ok = ok and ratio <= 1.0
        elapsed = time.perf_counter() - t0
        ok = ok and elapsed < 30.0
        return ok, {"worst_tolerance_ratios": worst, "elapsed": elapsed}

    return _timed("1 decomposition soundness (200 Ginibre 16x16)", run)


# -- 2: Weyl inequality ------------------------------------------------------

def criterion_weyl(seed: int = 42) -> CriterionResult:
    def run():
        mats = _ginibre(16, seed, 200)
        mats += generate(EnsembleSpec(UpperTriangularRandom(16), seed=seed, count=200))
        failures = 0
        for T in mats:
            report = weyl_check(T, DEFAULT_GAUGES)
            failures += len(report.failures())
        return failures == 0, {"matrices": len(mats), "failed_rows": failures}

    return _timed("2 Weyl inequality (400 matrices, default gauges)", run)


# -- 3: projection contract --------------------------------------------------

def _random_ball(rng, eigs, norm):
    for _ in range(100):
        center = complex(*(rng.uniform(-1.3, 1.3, 2))) * max(norm, 0.5)
        radius = rng.uniform(0.2, 1.2) * max(norm, 0.5)
        if np.all(np.abs(np.abs(eigs - center) - radius) > 1e-6):
            return Ball(center, radius)
    raise RuntimeError("could not place a ball away from the spectrum")


def criterion_hs_contract(seed: int) -> CriterionResult:
    def run():
        rng = np.random.default_rng(seed)
        mats = _ginibre(8, seed, 200)
        spectra = [(np.linalg.eigvals(T), operator_norm(T)) for T in mats]
        bad = []
        for idx, (T, (eigs, normT)) in enumerate(zip(mats, spectra)):
            ball = _random_ball(rng, eigs, normT)
            p = hs_projection(T, ball)
            k = int(round(np.trace(p).real))
            inside = np.abs(eigs - ball.center) <= ball.radius
            if k != int(np.count_nonzero(inside)):
                bad.append((idx, "trace"))
            if frobenius(T @ p - p @ T @ p) > 1e-9 * normT:
                bad.append((idx, "invariance"))
            vals, vecs = np.linalg.eigh(p)
            V = vecs[:, vals > 0.5]
            W = vecs[:, vals <= 0.5]
            if V.shape[1]:
                comp = np.linalg.eigvals(V.conj().T @ T @ V)
                if np.any(np.abs(comp - ball.center) > ball.radius + 1e-8):
                    bad.append((idx, "inside-spectrum"))
            if W.shape[1]:
                comp = np.linalg.eigvals(W.conj().T @ T @ W)
                if np.any(np.abs(comp - ball.center) < ball.radius - 1e-8):
                    bad.append((idx, "outside-spectrum"))
        mono_bad = 0
        for T, (eigs, normT) in zip(mats[:100], spectra):
            ball = _random_ball(rng, eigs, normT)
            r2 = ball.radius + rng.uniform(0.1, 0.5) * max(normT, 0.5)
            while np.any(np.abs(np.abs(eigs - ball.center) - r2) < 1e-6):
                r2 += 1e-3
            p1 = hs_projection(T, ball)
            p2 = hs_projection(T, Ball(ball.center, r2))
            if frobenius(p2 @ p1 - p1) > 1e-8:
                mono_bad += 1
        ok = not bad and mono_bad == 0
        return ok, {"contract_failures": bad[:10], "monotonicity_failures": mono_bad}

    return _timed("3 projection contract (200 pairs + 100 nested)", run)


# -- 4: power-limit convergence ---------------------------------------------

def _modulus_gap_filtered(seed: int, count: int, n: int = 8):
    mats = []
    for rng_seed in range(seed, seed + 4 * count):  # at most 200 * count attempts
        batch = _ginibre(n, rng_seed, 50)
        moduli = np.sort(np.abs(np.linalg.eigvals(np.stack(batch))), axis=1)
        rel_gaps = (moduli[:, 1:] - moduli[:, :-1]) / moduli[:, 1:]
        keep = (moduli[:, 0] > 1e-3) & (np.min(rel_gaps, axis=1) > 0.1)
        mats += [(batch[i], moduli[i]) for i in np.flatnonzero(keep)[:count - len(mats)]]
        if len(mats) == count:
            return mats
    raise RuntimeError("could not find enough modulus-gap-filtered matrices")


def criterion_power_limit(seed: int) -> CriterionResult:
    def run():
        mats = _modulus_gap_filtered(seed, 50)
        worst_rel = 0.0
        rank_mismatches = 0
        for T, moduli in mats:
            A = power_limit_operator(T, 64)
            approx = np.sort(np.linalg.eigvalsh(A))
            rel = np.max(np.abs(approx - moduli) / moduli)
            worst_rel = max(worst_rel, float(rel))
            for i in range(len(moduli) - 1):
                r = 0.5 * (moduli[i] + moduli[i + 1])
                rank_spec = int(np.count_nonzero(approx <= r))
                p = hs_projection(T, Ball(0.0, r))
                if rank_spec != int(round(np.trace(p).real)):
                    rank_mismatches += 1
        ok = worst_rel <= 0.10 and rank_mismatches == 0
        return ok, {"worst_relative_gap": worst_rel,
                    "rank_mismatches": rank_mismatches}

    return _timed("4 power-limit convergence (50 filtered Ginibre 8x8)", run)


# -- 5: curve and nest bounds ------------------------------------------------

def criterion_curve_nest_bounds(seed: int) -> CriterionResult:
    def run():
        bound_fails = 0
        worst_ratio = 0.0
        for T in _ginibre(8, seed, 50):
            report = convergence_report(T, n_range=range(2, 11), lam_list=(), m_list=())
            worst_ratio = max([worst_ratio] + [r.value / r.bound for r in report.rows])
            bound_fails += len({r.n for r in report.failures()})
        # Curve modulus on sampled pairs.
        curve = HilbertCurveMap(level=16, half_side=1.0)
        rng = np.random.default_rng(seed)
        t1 = rng.uniform(0.0, 1.0, 100_000)
        t2 = rng.uniform(0.0, 1.0, 100_000)
        d = np.abs(curve_points_batch(curve, t1) - curve_points_batch(curve, t2))
        bound = MODULUS_CONSTANT * curve.half_side * np.sqrt(np.abs(t1 - t2))
        modulus_fails = int(np.count_nonzero(d > bound))
        ok = bound_fails == 0 and modulus_fails == 0
        return ok, {"bound_failures": bound_fails, "worst_bound_ratio": worst_ratio,
                    "modulus_failures": modulus_fails}

    return _timed("5 curve and nest bounds (50 Ginibre 8x8, 1e5 pairs)", run)


# -- 6: determinant convergence ---------------------------------------------

def criterion_det_convergence(seed: int) -> CriterionResult:
    def run():
        worst = 0.0
        for T in _ginibre(8, seed, 20):
            report = convergence_report(T, n_range=range(12, 13), eps_list=(0.1,),
                                        lam_list=(0.0, 1.0 + 1.0j), m_list=())
            worst = max([worst] + [r.value for r in report.rows if r.check == "det_gap"])
        return worst <= 1e-3, {"worst_gap_at_n12": worst}

    return _timed("6 determinant convergence (20 Ginibre 8x8, n=12)", run)


# -- 7: determinant monotonicity and pinching --------------------------------

def criterion_det_monotonicity(seed: int) -> CriterionResult:
    def run():
        mono_fails = 0
        full_pinch_worst = 0.0
        for T in _ginibre(8, seed, 20):
            report = convergence_report(T, n_range=range(0, 11), lam_list=(),
                                        m_list=(1, 10, 100))
            mono_fails += sum(not r.ok for r in report.rows
                              if r.check == "pinch_det_monotone")
            dT = fk_determinant(T)
            dP = fk_determinant(pinch_commutant(T, report.decomposition.nest, None))
            full_pinch_worst = max(full_pinch_worst,
                                   abs(dT - dP) / max(1.0, dT))
        rng = np.random.default_rng(seed)
        pinch_fails = 0
        for _ in range(500):
            n = 8
            G = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            T = np.triu(G) / np.sqrt(2 * n)
            k = int(rng.integers(1, n))
            p = np.zeros((n, n), dtype=complex)
            p[np.arange(k), np.arange(k)] = 1.0
            if not pinch_log_check(T, p).all_ok:
                pinch_fails += 1
        ok = mono_fails == 0 and full_pinch_worst <= 1e-8 and pinch_fails == 0
        return ok, {"monotonicity_failures": mono_fails,
                    "full_pinch_worst_rel": full_pinch_worst,
                    "pinch_log_failures": pinch_fails}

    return _timed("7 determinant monotonicity and pinching", run)


# -- 8: Brown grid estimator -------------------------------------------------

def criterion_brown_grid() -> CriterionResult:
    def run():
        details = {}
        ok = True
        t0 = time.perf_counter()
        T = np.diag([1.0, -1.0, 1.0j, -1.0j]).astype(complex)
        grid = brown_density_grid(T, bounds=(-2, 2, -2, 2), resolution=301, eps=1e-8)
        details["four_atoms_total"] = grid.total_mass
        ok &= abs(grid.total_mass - 1.0) <= 0.02
        for z in (1.0, -1.0, 1.0j, -1.0j):
            m = grid.mass_within(complex(z), 0.3)
            details[f"mass_at_{z}"] = m
            ok &= abs(m - 0.25) <= 0.02
        details["four_atoms_seconds"] = time.perf_counter() - t0
        ok &= details["four_atoms_seconds"] < 60.0

        t0 = time.perf_counter()
        J4 = np.diag(np.ones(3), 1).astype(complex)
        grid = brown_density_grid(J4, bounds=(-1.5, 1.5, -1.5, 1.5),
                                  resolution=301, eps=1e-8)
        details["nilpotent_origin_mass"] = grid.mass_within(0.0, 0.2)
        ok &= details["nilpotent_origin_mass"] >= 0.95
        details["nilpotent_seconds"] = time.perf_counter() - t0
        ok &= details["nilpotent_seconds"] < 60.0
        return bool(ok), details

    return _timed("8 Brown grid estimator", run)


# -- 9: majorization suite ---------------------------------------------------

def criterion_majorization(seed: int) -> CriterionResult:
    def run():
        rng = np.random.default_rng(seed)
        n = 6

        def rand_mat():
            return (rng.standard_normal((n, n))
                    + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)

        weyl_fails = 0
        for _ in range(200):
            T = rand_mat()
            B = np.diag(np.sort(np.abs(np.linalg.eigvals(T)))[::-1]).astype(complex)
            if not log_submajorizes(T, B).ok:
                weyl_fails += 1

        equiv_fails = 0
        for _ in range(1000):
            if not log_plus_equivalence_check(rand_mat(), rand_mat()).all_ok:
                equiv_fails += 1

        shift_fails = 0
        found = 0
        attempts = 0
        while found < 500 and attempts < 50_000:
            attempts += 1
            G = rand_mat()
            A = G @ G.conj().T
            H = rand_mat()
            B = float(rng.uniform(0.2, 1.0)) * (H @ H.conj().T)
            if not log_submajorizes(A, B).ok:
                continue
            found += 1
            report = shift_lemma_check(A, B)
            if report.skipped or not report.all_ok:
                shift_fails += 1
        enough = found == 500

        scale_fails = 0
        for _ in range(100):
            A, B = rand_mat(), rand_mat()
            base_sub = submajorizes(A, B).ok
            base_log = log_submajorizes(A, B).ok
            for c in (0.01, 100.0):
                if submajorizes(c * A, c * B).ok != base_sub:
                    scale_fails += 1
                if log_submajorizes(c * A, c * B).ok != base_log:
                    scale_fails += 1

        ok = (weyl_fails == 0 and equiv_fails == 0 and shift_fails == 0
              and enough and scale_fails == 0)
        return ok, {"weyl_oracle_failures": weyl_fails,
                    "equivalence_failures": equiv_fails,
                    "shift_failures": shift_fails,
                    "shift_pairs_found": found,
                    "scaling_failures": scale_fails}

    return _timed("9 majorization suite", run)


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
    def run():
        first = _pipeline_bytes(seed)
        second = _pipeline_bytes(seed)
        identical = first == second
        under_budget = battery_seconds < 300.0
        return identical and under_budget, {
            "bit_identical": identical,
            "battery_seconds": battery_seconds,
        }

    return _timed("10 determinism and wall clock", run)


def run_all(seed: int = 7, out_dir: str | None = None) -> list:
    """Run the full battery; optionally write a summary JSON to out_dir."""
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
        import os

        os.makedirs(out_dir, exist_ok=True)
        payload = [
            {"name": r.name, "passed": r.passed, "seconds": r.seconds,
             "details": _jsonable(r.details)}
            for r in results
        ]
        serialize.write_text(os.path.join(out_dir, "acceptance.json"),
                             json.dumps(payload, indent=2) + "\n")
    return results


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj
