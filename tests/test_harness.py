"""Ensembles, serialization round trips, the command-line interface and demos."""
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from specnest import cli, ensembles, serialize
from specnest.decompose import decompose
from specnest.detbrown import brown_density_grid, brown_measure_exact
from specnest.hsnest import build_nest, default_curve
from specnest.majorize import weyl_check
from specnest.matrices import singular_value_function

ROOT = Path(__file__).resolve().parents[1]


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

    def test_gaussian_diagonal_law(self):
        spec = ensembles.EnsembleSpec(
            ensembles.UpperTriangularRandom(5, diagonal_law="gaussian"), seed=1
        )
        [T] = ensembles.generate(spec)
        assert np.linalg.norm(np.tril(T, -1)) == 0.0

    def test_from_file_roundtrip(self, tmp_path):
        T = np.array([[1, 2j], [0, 3]], dtype=complex)
        path = tmp_path / "m.json"
        serialize.write_matrix(str(path), T)
        spec = ensembles.EnsembleSpec(ensembles.FromFile(str(path)))
        [back] = ensembles.generate(spec)
        assert np.array_equal(back, T)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            ensembles.EnsembleSpec(ensembles.Ginibre(4), count=0)


class TestSerialize:
    def test_matrix_roundtrip(self):
        T = np.array([[1 + 2j, -0.5], [0.25j, 3]], dtype=complex)
        back = serialize.matrix_from_dict(serialize.matrix_to_dict(T))
        assert np.array_equal(back, T)

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
        back = serialize.nest_from_dict(serialize.nest_to_dict(nest))
        assert np.array_equal(back.basis, nest.basis)
        assert back.jumps == nest.jumps

    def test_step_function_csv(self):
        sf = singular_value_function(np.diag([2.0, 1.0]))
        text = serialize.step_function_csv(sf)
        lines = text.strip().split("\n")
        assert lines[0] == "t,value"
        assert len(lines) == 3
        assert [[float(x) for x in line.split(",")] for line in lines[1:]] == [
            [0.0, 2.0], [0.5, 1.0]]

    def test_measure_json(self):
        m = brown_measure_exact(np.diag([1.0, 2.0]))
        rows = json.loads(serialize.measure_to_json(m))
        assert rows == [{"re": 1.0, "im": 0.0, "w": 0.5}, {"re": 2.0, "im": 0.0, "w": 0.5}]

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
        text = serialize.report_rows_csv(weyl_check(T).rows)
        lines = text.strip().split("\n")
        assert lines[0] == "# schemaVersion=1"
        assert all(line.count(",") == 5 for line in lines[1:])

    def test_atomic_write_replaces(self, tmp_path):
        path = tmp_path / "out.txt"
        serialize.write_text(str(path), "one\n")
        serialize.write_text(str(path), "two\n")
        assert path.read_text() == "two\n"
        assert not (tmp_path / "out.txt.tmp").exists()


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
        assert report.read_text().startswith("# schemaVersion=1")

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

    def test_check_lemmas_takes_nine_two_norms(self, tmp_path, two_norm_calls):
        # Two in decompose, reused for the printed norm, and one per
        # pinch_log_check cut at the 7 inner jumps.
        matrix_path = tmp_path / "m.json"
        serialize.write_matrix(str(matrix_path), ensembles.generate(
            ensembles.EnsembleSpec(ensembles.Ginibre(8), seed=4))[0])
        assert self.run("check", "lemmas", "--in", str(matrix_path)) == 0
        assert two_norm_calls == [(8, 8)] * 9

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

    def test_decompose_takes_two_two_norms(self, tmp_path, two_norm_calls):
        # One ||T||_2 in decompose for the curve and the checks, one in build_nest.
        matrix_path = tmp_path / "m.json"
        serialize.write_matrix(str(matrix_path), ensembles.generate(
            ensembles.EnsembleSpec(ensembles.Ginibre(8), seed=3))[0])
        assert self.run("decompose", "--in", str(matrix_path),
                        "--out", str(tmp_path / "dec.json")) == 0
        assert two_norm_calls == [(8, 8), (8, 8)]

    def test_curve_level_is_not_an_option(self, tmp_path, capsys):
        matrix_path = tmp_path / "m.json"
        serialize.write_matrix(str(matrix_path), np.eye(2))
        with pytest.raises(SystemExit) as exit_info:
            self.run("decompose", "--in", str(matrix_path), "--out",
                     str(tmp_path / "dec.json"), "--curve-level", "16")
        assert exit_info.value.code == 2
        assert "--curve-level" in capsys.readouterr().err

    def test_huge_matrix_decomposes_to_strict_json(self, tmp_path):
        matrix_path = tmp_path / "m.json"
        T = ensembles.generate(ensembles.EnsembleSpec(ensembles.Ginibre(16), seed=5))[0]
        serialize.write_matrix(str(matrix_path), 1e200 * T)
        out = tmp_path / "dec.json"
        assert self.run("decompose", "--in", str(matrix_path), "--out", str(out)) == 0

        def reject(name):
            raise ValueError(f"non-finite JSON constant {name}")

        json.loads(out.read_text(), parse_constant=reject)

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
