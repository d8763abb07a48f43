"""Ensembles, serialization round trips, the command-line interface and demos."""
import dataclasses
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specnest
from specnest import acceptance, cli, ensembles, serialize
from specnest.decompose import CheckRow, convergence_report, decompose
from specnest.detbrown import brown_density_grid
from specnest.hsnest import build_nest, default_curve
from specnest.majorize import (DEFAULT_GAUGES, log_plus_equivalence_check, pinch_log_check,
                               shift_lemma_check, weyl_check)

ROOT = Path(__file__).resolve().parents[1]

PUBLIC_NAMES = [
    "Ball", "CurveSegment", "DEFAULT_GAUGES",
    "DecompositionResult", "DensityGrid", "EnsembleSpec", "Ginibre",
    "HilbertCurveMap", "Jordan", "LogShift", "NormalPlusNilpotent", "Power",
    "ProjectionNest", "SpectralMeasure", "UpperTriangularRandom",
    "brown_density_grid", "brown_measure_exact", "build_nest",
    "convergence_report", "decompose", "default_curve", "expectation_full",
    "fk_determinant", "generate", "hs_projection", "log_plus_equivalence_check",
    "log_submajorizes", "operator_norm", "pinch_commutant",
    "pinch_log_check", "power_limit_operator", "regularized_log_det", "serialize",
    "shift_lemma_check", "singular_values", "submajorizes", "weyl_check",
]

# The fields of each exported dataclass and the parameters of each exported
# function (serialize's included): a new option shows up here as a test edit.
PUBLIC_PARAMETERS = {
    "Ball": ("center", "radius"),
    "CurveSegment": ("t", "curve"),
    "DecompositionResult": ("N", "Q", "nest", "ordering", "diagnostics", "flag_form",
                            "curve"),
    "DensityGrid": ("bounds", "resolution", "epsilon", "kernel", "rho"),
    "EnsembleSpec": ("kind", "seed", "count"),
    "Ginibre": ("n",),
    "HilbertCurveMap": ("half_side", "anchor"),
    "Jordan": ("lam", "n"),
    "LogShift": ("s",),
    "NormalPlusNilpotent": ("n",),
    "Power": ("p",),
    "ProjectionNest": ("basis", "jumps"),
    "SpectralMeasure": ("atoms",),
    "UpperTriangularRandom": ("n",),
    "brown_density_grid": ("T", "bounds", "resolution", "eps"),
    "brown_measure_exact": ("T",),
    "build_nest": ("T", "curve"),
    "convergence_report": ("result", "n_range"),
    "decompose": ("T",),
    "default_curve": ("T",),
    "expectation_full": ("T", "nest"),
    "fk_determinant": ("T",),
    "generate": ("spec",),
    "hs_projection": ("T", "region"),
    "log_plus_equivalence_check": ("A", "B"),
    "log_submajorizes": ("A", "B"),
    "operator_norm": ("T",),
    "pinch_commutant": ("T", "nest", "n"),
    "pinch_log_check": ("T", "p"),
    "power_limit_operator": ("T", "n"),
    "regularized_log_det": ("T", "lam", "eps"),
    "shift_lemma_check": ("A", "B"),
    "singular_values": ("T",),
    "submajorizes": ("A", "B"),
    "weyl_check": ("T", "gauges"),
    "serialize.decomposition_to_dict": ("result",),
    "serialize.density_grid_csv": ("grid",),
    "serialize.matrix_from_dict": ("data",),
    "serialize.matrix_to_dict": ("T",),
    "serialize.nest_to_dict": ("nest",),
    "serialize.read_matrix": ("path",),
    "serialize.report_rows_csv": ("rows",),
    "serialize.write_matrix": ("path", "T"),
    "serialize.write_text": ("path", "text"),
}


def test_package_exports_exactly_the_pinned_names():
    # Importing a submodule binds its name on the package; serialize alone is
    # exported as a module.
    names = sorted(name for name, value in vars(specnest).items()
                   if not name.startswith("_")
                   and (name == "serialize" or not inspect.ismodule(value)))
    assert names == PUBLIC_NAMES
    public = {name: getattr(specnest, name) for name in PUBLIC_NAMES}
    public.update((f"serialize.{name}", value) for name, value in vars(serialize).items()
                  if inspect.isfunction(value) and value.__module__ == serialize.__name__
                  and not name.startswith("_"))
    parameters = {}
    for name, value in public.items():
        if dataclasses.is_dataclass(value):
            parameters[name] = tuple(f.name for f in dataclasses.fields(value))
        elif inspect.isfunction(value):
            parameters[name] = tuple(inspect.signature(value).parameters)
    assert parameters == PUBLIC_PARAMETERS


class TestEnsembles:
    def test_seed_determinism(self):
        spec = ensembles.EnsembleSpec(ensembles.Ginibre(6), seed=3, count=4)
        a = ensembles.generate(spec)
        b = ensembles.generate(spec)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_distinct_members(self):
        spec = ensembles.EnsembleSpec(ensembles.Ginibre(6), seed=3, count=2)
        a, b = ensembles.generate(spec)
        assert not np.array_equal(a, b)

    def test_jordan_block_structure(self):
        [J] = ensembles.generate(ensembles.EnsembleSpec(ensembles.Jordan(2.0 + 1.0j, 4)))
        assert np.allclose(np.diag(J), 2.0 + 1.0j)
        assert np.allclose(np.diag(J, 1), 1.0)
        assert np.linalg.norm(np.tril(J, -1)) == 0.0

    def test_upper_triangular_structure(self):
        spec = ensembles.EnsembleSpec(ensembles.UpperTriangularRandom(5), seed=1)
        [T] = ensembles.generate(spec)
        assert np.linalg.norm(np.tril(T, -1)) == 0.0
        assert np.all(np.abs(np.diag(T)) <= 1.0 + 1e-12)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            ensembles.EnsembleSpec(ensembles.Ginibre(4), count=0)

    @pytest.mark.parametrize("n", [8, 16])
    def test_ginibre_stack_is_what_generate_gives(self, n):
        # Criterion 4 draws each seed's 50 matrices as one stack.
        for seed in range(7, 60):
            stack = ensembles._ginibre(np.random.default_rng(seed), n, 50)
            spec = ensembles.EnsembleSpec(ensembles.Ginibre(n), seed=seed, count=50)
            assert stack.tobytes() == np.stack(ensembles.generate(spec)).tobytes()

    @pytest.mark.parametrize("n", [0, -3])
    @pytest.mark.parametrize("make", [
        ensembles.Ginibre,
        lambda n: ensembles.Jordan(1.0, n),
        ensembles.UpperTriangularRandom,
        ensembles.NormalPlusNilpotent,
    ], ids=["ginibre", "jordan", "upper-triangular", "normal-plus-nilpotent"])
    def test_size_validation(self, make, n):
        with pytest.raises(ValueError, match="n must be >= 1"):
            make(n)


class TestSerialize:
    def test_matrix_roundtrip(self):
        T = np.array([[1 + 2j, -0.5], [0.25j, 3]], dtype=complex)
        back = serialize.matrix_from_dict(serialize.matrix_to_dict(T))
        assert np.array_equal(back, T)

    def test_write_read_matrix_roundtrip_is_bit_exact(self, tmp_path):
        T = np.array([[1, 2j], [0, 3]], dtype=complex)
        path = tmp_path / "m.json"
        serialize.write_matrix(str(path), T)
        assert np.array_equal(serialize.read_matrix(str(path)), T)

    def test_matrix_dict_shape(self):
        d = serialize.matrix_to_dict(np.eye(2))
        assert d["dim"] == 2
        assert len(d["entries"]) == 4
        assert d["entries"][0] == [1.0, 0.0]

    def test_entry_count_validated(self):
        with pytest.raises(ValueError):
            serialize.matrix_from_dict({"dim": 2, "entries": [[1.0, 0.0]]})

    def test_nest_roundtrip(self):
        rng = np.random.default_rng(2)
        T = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) / 3
        nest = build_nest(T, default_curve(T))
        data = json.loads(json.dumps(serialize.nest_to_dict(nest)))
        assert np.array_equal(serialize.matrix_from_dict(data["basis"]), nest.basis)
        assert tuple((j["t"], j["rank"]) for j in data["jumps"]) == nest.jumps

    def test_density_grid_csv_header_and_size(self):
        grid = brown_density_grid(np.diag([0.5, -0.5]), bounds=(-1, 1, -1, 1),
                                  resolution=32, eps=1e-4)
        text = serialize.density_grid_csv(grid)
        lines = text.strip().split("\n")
        assert lines[0].startswith("# bounds=")
        assert "resolution=32x32" in lines[0]
        assert f" kernel=cholesky rho={grid.rho!r}" in lines[0]
        assert lines[1] == "x,y,mass"
        assert len(lines) == 2 + 32 * 32
        rows = np.array([[float(x) for x in line.split(",")] for line in lines[2:]])
        assert np.array_equal(rows[:, 0], np.repeat(grid.x_centers, 32))
        assert np.array_equal(rows[:, 2], grid.cell_mass.ravel())

    def test_decomposition_dict_schema(self):
        rng = np.random.default_rng(4)
        T = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) / 3
        data = serialize.decomposition_to_dict(decompose(T))
        assert data["schemaVersion"] == 1
        assert set(data) == {"schemaVersion", "N", "Q", "nest", "ordering", "diagnostics"}

    def test_report_csv_covers_both_row_kinds(self):
        rng = np.random.default_rng(5)
        T = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) / 3
        failing = CheckRow("norm_gap", "n=3", 2.0, 1.5)
        conv_rows = convergence_report(decompose(T)).rows + (failing,)
        text = serialize.report_rows_csv(weyl_check(T).rows + conv_rows)
        lines = text.strip().split("\n")
        assert lines[0] == "# schemaVersion=3"
        assert lines[1] == "check,params,value,bound,margin,pass"
        cells = [line.split(",") for line in lines[2:]]
        assert all(len(row) == 6 for row in cells)
        assert len(cells) == 1 + 2 * len(DEFAULT_GAUGES) + len(conv_rows)
        for row, conv in zip(cells[-len(conv_rows):], conv_rows):
            assert float(row[4]) == conv.bound - conv.value
        # Margin >= 0 means pass, on both row kinds.
        assert cells[-1] == ["norm_gap", "n=3", "2.0", "1.5", "-0.5", "0"]
        assert all(row[5] == "1" for row in cells if float(row[4]) >= 0)

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 2000), st.integers(2, 8), st.booleans(),
           st.sampled_from([1e-6, 1.0, 1e6]))
    def test_row_passes_iff_margin_is_nonnegative(self, seed, n, triangular, scale):
        kind = ensembles.UpperTriangularRandom(n) if triangular else ensembles.Ginibre(n)
        T, G, H = scale * np.stack(ensembles.generate(ensembles.EnsembleSpec(kind, seed, 3)))
        result = decompose(T)
        rows = list(convergence_report(result).rows) + list(weyl_check(T).rows)
        nest = result.nest
        for t, _ in nest.jumps[1:-1]:
            rows += pinch_log_check(T, nest.projection_at(t)).rows
        A = G @ G.conj().T
        for B in (H @ H.conj().T, 0.5 * A):
            rows += shift_lemma_check(A, B).rows
        rows += log_plus_equivalence_check(G, H).rows
        assert all(r.ok == (r.margin >= 0) for r in rows)
        cells = [line.split(",") for line in
                 serialize.report_rows_csv(rows).strip().split("\n")[2:]]
        assert [c[5] for c in cells] == [str(int(float(c[4]) >= 0)) for c in cells]

    def test_atomic_write_replaces(self, tmp_path):
        path = tmp_path / "out.txt"
        serialize.write_text(str(path), "one\n")
        serialize.write_text(str(path), "two\n")
        assert path.read_text() == "two\n"
        assert not (tmp_path / "out.txt.tmp").exists()

    def test_failed_encode_leaves_no_file(self, tmp_path):
        path = tmp_path / "out.csv"
        with pytest.raises(UnicodeEncodeError):
            serialize.write_text(str(path), "abc\ud800")  # a lone surrogate
        assert not path.exists()
        assert not (tmp_path / "out.csv.tmp").exists()

    def test_failed_rename_leaves_no_file(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("rename refused")

        path = tmp_path / "out.csv"
        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            serialize.write_text(str(path), "abc\n")
        assert not path.exists()
        assert not (tmp_path / "out.csv.tmp").exists()


class TestCli:
    def run(self, *argv):
        return cli.main(list(argv))

    def test_gen_and_decompose_pipeline(self, tmp_path):
        assert self.run("gen", "--kind", "ginibre", "--n", "6", "--seed", "5",
                        "--out", str(tmp_path)) == 0
        matrix_path = tmp_path / "ginibre_6_5_0000.json"
        assert matrix_path.exists()
        out = tmp_path / "dec.json"
        report = tmp_path / "dec_report.csv"
        assert self.run("decompose", "--in", str(matrix_path), "--out", str(out),
                        "--report", str(report)) == 0
        data = json.loads(out.read_text())
        assert data["schemaVersion"] == 1
        assert report.read_text().startswith("# schemaVersion=3")

    def test_brown_command(self, tmp_path, capsys):
        matrix_path = tmp_path / "m.json"
        serialize.write_matrix(str(matrix_path), np.diag([0.5, -0.5]).astype(complex))
        out = tmp_path / "grid.csv"
        assert self.run("brown", "--in", str(matrix_path), "--grid", "48",
                        "--eps", "1e-6", "--out", str(out)) == 0
        assert out.read_text().startswith("# bounds=")
        assert "cholesky kernel, rho " in capsys.readouterr().out

    def test_brown_solves_one_eigvals(self, tmp_path, eigvals_calls):
        # The grid's default bounds cover the norm disk; the atom count needs one.
        matrix_path = tmp_path / "m.json"
        serialize.write_matrix(str(matrix_path), ensembles.generate(
            ensembles.EnsembleSpec(ensembles.Ginibre(8), seed=4))[0])
        assert self.run("brown", "--in", str(matrix_path), "--grid", "32",
                        "--out", str(tmp_path / "grid.csv")) == 0
        assert eigvals_calls == [(8, 8)]

    def test_hs_command(self, tmp_path):
        matrix_path = tmp_path / "m.json"
        serialize.write_matrix(str(matrix_path), np.array([[1, 1], [0, 2]], dtype=complex))
        out = tmp_path / "p.json"
        assert self.run("hs", "--in", str(matrix_path), "--ball", "2", "0", "0.5",
                        "--out", str(out)) == 0
        p = serialize.matrix_from_dict(json.loads(out.read_text()))
        assert np.allclose(p, 0.5 * np.ones((2, 2)), atol=1e-10)

    def test_check_weyl_command(self, tmp_path):
        matrix_path = tmp_path / "m.json"
        serialize.write_matrix(str(matrix_path), np.array([[1, 1], [0, 2]], dtype=complex))
        out = tmp_path / "weyl.csv"
        assert self.run("check", "weyl", "--in", str(matrix_path),
                        "--gauges", "pow:1,logshift:2", "--out", str(out)) == 0
        assert out.exists()

    def test_check_lemmas_command(self, tmp_path):
        matrix_path = tmp_path / "m.json"
        rng = np.random.default_rng(6)
        T = (rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))) / 4
        serialize.write_matrix(str(matrix_path), T)
        assert self.run("check", "lemmas", "--in", str(matrix_path), "--n-max", "6") == 0

    def test_check_lemmas_labels_each_pinch_row_with_its_jump(self, tmp_path):
        matrix_path = tmp_path / "m.json"
        T = ensembles.generate(ensembles.EnsembleSpec(ensembles.Ginibre(8), seed=1))[0]
        serialize.write_matrix(str(matrix_path), T)
        out = tmp_path / "lemmas.csv"
        assert self.run("check", "lemmas", "--in", str(matrix_path), "--out", str(out)) == 0
        params = {}
        for line in out.read_text().splitlines()[2:]:
            check, param = line.split(",")[:2]
            if check in ("pinch_logmaj", "pinch_det"):
                params.setdefault(param, []).append(check)
        inner = decompose(T).nest.jumps[1:-1]
        assert sorted(params) == sorted(f"t={t!r};rank={r}" for t, r in inner)
        assert all(sorted(checks) == ["pinch_det", "pinch_logmaj"]
                   for checks in params.values())

    def test_check_lemmas_rejects_empty_level_range(self, tmp_path, capsys):
        matrix_path = tmp_path / "m.json"
        serialize.write_matrix(str(matrix_path), np.array([[1, 1], [0, 2]], dtype=complex))
        out = tmp_path / "lemmas.csv"
        assert self.run("check", "lemmas", "--in", str(matrix_path), "--n-max", "-1",
                        "--out", str(out)) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ValueError"
        assert not out.exists()

    @pytest.mark.parametrize("n", ["0", "-3"])
    @pytest.mark.parametrize("kind", ["ginibre", "jordan", "upper-triangular",
                                      "normal-plus-nilpotent"])
    def test_gen_rejects_nonpositive_size(self, tmp_path, capsys, kind, n):
        # Runs with every RuntimeWarning an error: no numpy warning precedes the record.
        out = tmp_path / "out"
        assert self.run("gen", "--kind", kind, "--n", n, "--out", str(out)) == 2
        lines = capsys.readouterr().err.splitlines()
        assert [json.loads(line) for line in lines] == [
            {"error": "ValueError", "message": "n must be >= 1"}]
        assert not out.exists()

    def test_check_lemmas_decomposes_once(self, tmp_path, monkeypatch):
        module = importlib.import_module("specnest.decompose")
        original = module.decompose
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, "decompose", counting)
        monkeypatch.setattr(cli, "decompose", counting)
        matrix_path = tmp_path / "m.json"
        serialize.write_matrix(str(matrix_path), ensembles.generate(
            ensembles.EnsembleSpec(ensembles.Ginibre(8), seed=4))[0])
        assert self.run("check", "lemmas", "--in", str(matrix_path)) == 0
        assert len(calls) == 1

    def test_check_lemmas_takes_one_two_norm(self, tmp_path, singular_value_calls):
        # The ||T||_2 in decompose, reused for the printed norm, one SVD per
        # pinch level, and two per inner jump (7 here) in pinch_log_check,
        # which takes ||T||_2 from the singular values of its verdict.
        matrix_path = tmp_path / "m.json"
        serialize.write_matrix(str(matrix_path), ensembles.generate(
            ensembles.EnsembleSpec(ensembles.Ginibre(8), seed=4))[0])
        assert self.run("check", "lemmas", "--in", str(matrix_path)) == 0
        assert singular_value_calls == [(8, 8)] * (1 + 11 + 2 * 7)

    def test_decompose_report_decomposes_once(self, tmp_path, monkeypatch):
        module = importlib.import_module("specnest.decompose")
        original = module.decompose
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, "decompose", counting)
        monkeypatch.setattr(cli, "decompose", counting)
        matrix_path = tmp_path / "m.json"
        serialize.write_matrix(str(matrix_path), ensembles.generate(
            ensembles.EnsembleSpec(ensembles.Ginibre(8), seed=4))[0])
        plain, with_report = tmp_path / "plain.json", tmp_path / "dec.json"
        assert self.run("decompose", "--in", str(matrix_path), "--out", str(plain)) == 0
        calls.clear()
        self.run("decompose", "--in", str(matrix_path), "--out", str(with_report),
                 "--report", str(tmp_path / "report.csv"))
        assert len(calls) == 1
        assert with_report.read_bytes() == plain.read_bytes()

    def test_decompose_takes_one_two_norm(self, tmp_path, singular_value_calls):
        # One ||T||_2 in decompose for the curve, the nest builder and the checks.
        matrix_path = tmp_path / "m.json"
        serialize.write_matrix(str(matrix_path), ensembles.generate(
            ensembles.EnsembleSpec(ensembles.Ginibre(8), seed=3))[0])
        assert self.run("decompose", "--in", str(matrix_path),
                        "--out", str(tmp_path / "dec.json")) == 0
        assert singular_value_calls == [(8, 8)]

    def test_curve_level_is_not_an_option(self, tmp_path, capsys):
        matrix_path = tmp_path / "m.json"
        serialize.write_matrix(str(matrix_path), np.eye(2))
        with pytest.raises(SystemExit) as exit_info:
            self.run("decompose", "--in", str(matrix_path), "--out",
                     str(tmp_path / "dec.json"), "--curve-level", "16")
        assert exit_info.value.code == 2
        assert "--curve-level" in capsys.readouterr().err

    def test_verify_takes_no_suite(self, monkeypatch, capsys):
        calls = []

        def run_all(seed, out_dir):
            calls.append((seed, out_dir))
            return []

        monkeypatch.setattr(acceptance, "run_all", run_all)
        assert self.run("verify") == 0
        assert calls == [(7, None)]
        with pytest.raises(SystemExit) as exit_info:
            self.run("verify", "--suite", "full")
        assert exit_info.value.code == 2
        assert "--suite" in capsys.readouterr().err

    def test_huge_matrix_decomposes_to_strict_json(self, tmp_path):
        matrix_path = tmp_path / "m.json"
        T = ensembles.generate(ensembles.EnsembleSpec(ensembles.Ginibre(16), seed=5))[0]
        serialize.write_matrix(str(matrix_path), 1e200 * T)
        out = tmp_path / "dec.json"
        assert self.run("decompose", "--in", str(matrix_path), "--out", str(out)) == 0

        def reject(name):
            raise ValueError(f"non-finite JSON constant {name}")

        json.loads(out.read_text(), parse_constant=reject)

    def test_default_square_overflow_is_numerical_error(self, tmp_path, capsys):
        # 1.25 * ||T||_2 is not a double at ||T||_2 = 1.44e308.
        matrix_path = tmp_path / "m.json"
        T = ensembles.generate(ensembles.EnsembleSpec(ensembles.Ginibre(8), seed=3))[0]
        serialize.write_matrix(str(matrix_path), 1.44e308 / specnest.operator_norm(T) * T)
        out = tmp_path / "dec.json"
        assert self.run("decompose", "--in", str(matrix_path), "--out", str(out)) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "OverflowError"
        assert "1.25 * ||T||_2 overflows (||T||_2 = 1.44e+308)" in record["message"]
        assert not out.exists()

    def test_nonzero_flag_diagonal_is_numerical_error(self, tmp_path, capsys):
        # A chained cluster too wide for Q's flag diagonal to vanish.
        matrix_path = tmp_path / "m.json"
        serialize.write_matrix(str(matrix_path), np.diag(1.0 + 9e-11 * np.arange(256)))
        out = tmp_path / "dec.json"
        assert self.run("decompose", "--in", str(matrix_path), "--out", str(out)) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ArithmeticError"
        assert not out.exists()

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        code = self.run("decompose", "--in", str(tmp_path / "nope.json"),
                        "--out", str(tmp_path / "o.json"))
        assert code == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "FileNotFoundError"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_is_numerical_error(self, tmp_path, capsys):
        matrix_path = tmp_path / "m.json"
        T = ensembles.generate(ensembles.EnsembleSpec(ensembles.Ginibre(8), seed=3))[0]
        serialize.write_matrix(str(matrix_path), 1e306 * T)
        out = tmp_path / "grid.csv"
        assert self.run("brown", "--in", str(matrix_path), "--grid", "32",
                        "--out", str(out)) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "OverflowError"
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_squared_norm_overflow_is_numerical_error(self, tmp_path, capsys):
        # At 1e154 the grid spacing still squares, but the singular values do
        # not; the error record is the only report (no numpy overflow warning).
        matrix_path = tmp_path / "m.json"
        T = ensembles.generate(ensembles.EnsembleSpec(ensembles.Ginibre(8), seed=3))[0]
        serialize.write_matrix(str(matrix_path), 1e154 * T)
        out = tmp_path / "grid.csv"
        assert self.run("brown", "--in", str(matrix_path), "--grid", "32",
                        "--out", str(out)) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "OverflowError"
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_report_overflow_is_numerical_error(self, tmp_path, capsys):
        # The report's squared singular values overflow at 1e154: exit 2 with
        # the error record, not exit 1 with NaN rows, and no file written.
        matrix_path = tmp_path / "m.json"
        T = ensembles.generate(ensembles.EnsembleSpec(ensembles.Ginibre(8), seed=3))[0]
        serialize.write_matrix(str(matrix_path), 1e154 * T)
        out, report = tmp_path / "dec.json", tmp_path / "report.csv"
        assert self.run("decompose", "--in", str(matrix_path), "--out", str(out),
                        "--report", str(report)) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "OverflowError"
        assert not out.exists() and not report.exists()

    @pytest.mark.parametrize("payload", [
        [1, 2],
        {"dim": 1, "entries": [[None, 0]]},
        {"dim": 1, "entries": [["a", 0]]},
        {"dim": 2.5, "entries": [[1, 0], [0, 0], [0, 0], [1, 0]]},
        {"dim": True, "entries": [[1, 0]]},
        {"dim": 1, "entries": [[False, 0]]},
    ], ids=["list", "null-entry", "string-entry", "fractional-dim", "boolean-dim",
            "boolean-entry"])
    def test_malformed_matrix_file_is_usage_error(self, tmp_path, capsys, payload):
        # Runs with every RuntimeWarning an error.
        matrix_path = tmp_path / "m.json"
        matrix_path.write_text(json.dumps(payload))
        out = tmp_path / "dec.json"
        assert self.run("decompose", "--in", str(matrix_path), "--out", str(out)) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert json.loads(line)["error"] == "ValueError"
        assert not out.exists()

    @pytest.mark.parametrize("argv, name", [
        (["check", "weyl", "--gauges", "pow:nan"], "p"),
        (["check", "weyl", "--gauges", "logshift:inf"], "s"),
        (["hs", "--ball", "nan", "0", "1"], "center"),
        (["hs", "--ball", "0", "inf", "1"], "center"),
        (["hs", "--ball", "0", "0", "nan"], "radius"),
        (["hs", "--ball", "0", "0", "inf"], "radius"),
        (["brown", "--grid", "32", "--eps", "nan"], "eps"),
        (["brown", "--grid", "32", "--eps", "inf"], "eps"),
    ], ids=["pow-nan", "logshift-inf", "ball-center-nan", "ball-center-inf",
            "ball-radius-nan", "ball-radius-inf", "eps-nan", "eps-inf"])
    def test_nonfinite_argument_is_usage_error(self, tmp_path, capsys, argv, name):
        # Runs with every RuntimeWarning an error.
        matrix_path = tmp_path / "m.json"
        serialize.write_matrix(str(matrix_path), np.array([[1, 1], [0, 2]], dtype=complex))
        out = tmp_path / "out"
        assert self.run(*argv, "--in", str(matrix_path), "--out", str(out)) == 2
        [line] = capsys.readouterr().err.splitlines()
        record = json.loads(line)
        assert record["error"] == "ValueError"
        assert name in record["message"].split()
        assert not out.exists()

    def test_bad_gauge_spec_is_usage_error(self, tmp_path):
        matrix_path = tmp_path / "m.json"
        serialize.write_matrix(str(matrix_path), np.eye(2))
        assert self.run("check", "weyl", "--in", str(matrix_path),
                        "--gauges", "bogus:1") == 2

    def test_out_dir_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SPECNEST_OUT_DIR", str(tmp_path))
        assert self.run("gen", "--kind", "jordan", "--n", "3",
                        "--lam-re", "1.0") == 0
        assert (tmp_path / "jordan_3_0_0000.json").exists()


class TestScripts:
    def run_script(self, name, *argv):
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *argv],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path})

    def test_demo_decompose(self):
        proc = self.run_script("demo_decompose.py", "--n", "4")
        assert proc.returncode == 0, proc.stderr
        assert "diagnostics:" in proc.stdout

    def test_brown_grid_demo(self, tmp_path):
        out = tmp_path / "grid.csv"
        proc = self.run_script("brown_grid_demo.py", "--n", "4", "--grid", "48",
                               "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert out.read_text().startswith("# bounds=")
