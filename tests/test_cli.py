"""Command-line interface: CSV output, config handling, exit codes."""

import csv
import io
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import mtfade
from mtfade import cli
from mtfade.cli import main
from mtfade.toeplitz import SymToeplitz

FLOAT_RE = re.compile(r"^-?\d\.\d{5}E[+-]\d{2,3}$")


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestConvergence:
    def test_table_shape_and_formats(self, capsys):
        code, out = run_cli(["convergence", "--example", "1",
                             "--alpha", "0.5,0.2", "--sizes", "8,16,32"],
                            capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["M", "N", "h", "tau", "l2_error", "rate_h",
                          "rate_paper"]
        assert [r[0] for r in rows] == ["8", "16", "32"]
        assert rows[0][5] == ""  # no rate on the first row
        for r in rows:
            assert FLOAT_RE.match(r[4])
        errs = [float(r[4]) for r in rows]
        assert errs[0] > errs[1] > errs[2]

    def test_deterministic(self, capsys):
        argv = ["convergence", "--sizes", "8,16"]
        _, first = run_cli(argv, capsys)
        _, second = run_cli(argv, capsys)
        assert first == second

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "table.csv"
        code, out = run_cli(["convergence", "--sizes", "8,16",
                             "--out", str(path)], capsys)
        assert code == 0 and out == ""
        raw = path.read_bytes()
        assert raw.startswith(b"M,N,h,tau")
        assert b"\r\n" in raw  # RFC-4180 line endings


class TestCondest:
    def test_single_size_has_empty_ratio(self, capsys):
        code, out = run_cli(["condest", "--sizes", "32"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["M", "lambda_min", "lambda_max", "kappa", "ratio"]
        assert len(rows) == 1 and rows[0][4] == ""

    def test_kappa_positive_and_ordered(self, capsys):
        code, out = run_cli(["condest", "--sizes", "16,32"], capsys)
        _, rows = parse_csv(out)
        for r in rows:
            assert 0.0 < float(r[1]) < float(r[2])
            assert float(r[3]) > 1.0

    def test_indefinite_matrix_is_a_solver_failure(self, capsys,
                                                   monkeypatch):
        # a step matrix with lambda_min < 0, from the dense eigensolve
        indefinite = SimpleNamespace(
            a_full=SymToeplitz(np.r_[1.0, 2.0, np.zeros(10)]))
        monkeypatch.setattr(mtfade.analysis, "step_matrix",
                            lambda spec, mesh, n: indefinite)
        code = main(["condest", "--sizes", "13"])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith("error: matrix is not positive definite")
        assert err.count("\n") == 1


class TestBench:
    def test_small_sizes_all_solvers(self, capsys):
        code, out = run_cli(["bench", "--sizes", "8"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["M", "solver", "branch", "iterations", "converged",
                          "final_relres", "setup_seconds", "solve_seconds"]
        assert {r[1] for r in rows} == {"cg", "camg-dense-oracle", "icamg"}
        assert all(r[4] == "yes" for r in rows)
        assert all(int(r[3]) >= 1 for r in rows)

    def test_forced_solver_only(self, capsys):
        code, out = run_cli(["bench", "--sizes", "16", "--solver", "cg"],
                            capsys)
        _, rows = parse_csv(out)
        assert [r[1] for r in rows] == ["cg"]

    def test_nonconvergence_is_data_not_failure(self, capsys):
        code, out = run_cli(["bench", "--sizes", "64", "--solver", "cg",
                             "--tol", "1e-300"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0][4] == "non-converged"
        assert rows[0][3] == "1000"

    def test_dense_oracle_skipped_above_its_cap(self, capsys):
        # M = 8192 has 8191 unknowns, more than the oracle's cap of 4096
        code, out = run_cli(["bench", "--sizes", "8192", "--solver",
                             "camg-dense-oracle"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header[0] == "M" and rows == []

    def test_out_file_closed_when_a_solve_raises(self, tmp_path,
                                                  monkeypatch):
        opened = []

        def recording_open(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]

        def failing_cell(*args):
            raise RuntimeError("solve failed")

        monkeypatch.setattr(cli, "open", recording_open, raising=False)
        monkeypatch.setattr(cli, "_bench_cell", failing_cell)
        out = tmp_path / "bench.csv"
        with pytest.raises(RuntimeError, match="solve failed"):
            main(["bench", "--sizes", "16", "--out", str(out)])
        assert len(opened) == 1 and opened[0].closed
        assert out.read_text().startswith("M,solver,")


class TestSolve:
    def test_final_state_table(self, capsys):
        code, out = run_cli(["solve", "--sizes", "16"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["x", "u_h", "u_exact", "abs_err"]
        assert len(rows) == 15
        assert max(float(r[3]) for r in rows) < 0.2

    def test_requires_single_size(self, capsys):
        code, _ = run_cli(["solve", "--sizes", "16,32"], capsys)
        assert code == 2


class TestConfigAndErrors:
    def test_config_file_fills_unset_flags(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sizes = 8,16   # small smoke run\nbeta = 0.3\n")
        code, out = run_cli(["--config", str(cfg), "convergence"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert [r[0] for r in rows] == ["8", "16"]

    def test_config_file_sets_what_the_flags_set(self, tmp_path, capsys):
        # Every flag, also those with a built-in default, can come from
        # the file; the run then prints the same table as with flags.
        values = {"example": "2", "alpha": "0.7,0.5", "beta": "0.15",
                  "gamma": "0.95", "k1": "5", "k2": "30",
                  "policy": "tau-eq-h2", "tol": "1e-10", "sizes": "8,16"}
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        code, from_file = run_cli(["--config", str(cfg), "convergence"],
                                  capsys)
        assert code == 0
        flags = [a for k, v in values.items() for a in (f"--{k}", v)]
        code, from_flags = run_cli(["convergence"] + flags, capsys)
        assert code == 0
        assert from_file == from_flags
        _, defaults = run_cli(["convergence", "--sizes", "8,16"], capsys)
        assert from_file != defaults

    @pytest.mark.parametrize("line", [
        "example = 3", "example = 1.5", "policy = tau-eq-h3",
        "solver = lu", "gamma = high", "command = solve",
    ])
    def test_bad_config_value_exit_2(self, line, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        code, _ = run_cli(["--config", str(cfg), "convergence",
                           "--sizes", "8"], capsys)
        assert code == 2

    def test_missing_config_file_exit_2(self, tmp_path, capsys):
        code, _ = run_cli(["--config", str(tmp_path / "none.cfg"),
                           "convergence", "--sizes", "8"], capsys)
        assert code == 2

    def test_flag_beats_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tol = 0\n")  # would be rejected if used
        code, _ = run_cli(["--config", str(cfg), "convergence",
                           "--sizes", "8", "--tol", "1e-10"], capsys)
        assert code == 0

    @pytest.mark.parametrize("argv", [
        ["convergence", "--sizes", ""],
        ["convergence", "--sizes", "8.5,16"],
        ["convergence", "--alpha", "0.4,0.9"],  # not decreasing
        ["convergence", "--beta", "0.5"],
        ["convergence", "--tol", "-1"],
        ["condest", "--example", "2", "--sizes", "8"],  # needs k1/k2
        ["solve", "--sizes", "16", "--tol", "nan"],
        ["solve", "--sizes", "16", "--tol", "inf"],
        ["solve", "--sizes", "inf"],
        ["solve", "--sizes", "16", "--policy", "tau-const"],
        ["solve", "--sizes", "16", "--tau-const", "0.01"],
        ["solve", "--sizes", "16", "--policy", "tau-const",
         "--tau-const", "-0.01"],
        ["solve", "--sizes", "16", "--k1", "50"],
        ["solve", "--sizes", "16", "--solver", "camg-dense-oracle"],
        ["convergence", "--sizes", "8", "--solver", "camg-dense-oracle"],
        ["condest", "--sizes", "8", "--solver", "cg"],
        ["condest", "--sizes", "8", "--tol", "1e-8"],
        ["solve", "--siz", "16"],  # abbreviated flag
        ["convergence", "--sizes", "32,16"],  # not ascending
        ["solve", "--sizes", "16", "--policy", "tau-const",
         "--tau-const", "1e-300"],  # 2e299 steps: no array that long
        *(["solve", "--sizes", "16", "--policy", "tau-const",
           "--tau-const", tau] for tau in ("0", "nan", "inf")),
    ])
    def test_config_errors_exit_2(self, argv, capsys):
        code = main(argv)
        lines = capsys.readouterr().err.splitlines()
        assert code == 2
        # one line, or argparse's usage and then its one line
        assert len(lines) == 1 or lines[0].startswith("usage: ")
        assert re.match(rf"mtfade {argv[0]}: error: ", lines[-1])

    @pytest.mark.parametrize("command",
                             ["convergence", "condest", "bench", "solve"])
    def test_unopenable_out_exits_2_before_any_solve(self, command,
                                                     tmp_path, monkeypatch,
                                                     capsys):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve ran")

        for name in ("convergence_table", "kappa_ratio_table",
                     "_bench_cell", "march"):
            monkeypatch.setattr(cli, name, no_solve)
        missing = tmp_path / "missing"
        code = main([command, "--sizes", "16",
                     "--out", str(missing / "x.csv")])
        err = capsys.readouterr().err
        assert code == 2 and not missing.exists()
        assert err.startswith(f"mtfade {command}: error: ")
        assert err.count("\n") == 1

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        # No seed is read, and a key is a full flag name.
        for line in ("frobnicate = 7\n", "seed = 7\n", "ex = 2\n"):
            cfg.write_text(line)
            code, _ = run_cli(["--config", str(cfg), "convergence"], capsys)
            assert code == 2


def test_entry_point_exits_2_without_traceback():
    # Runs the module as a program, so main() reads sys.argv.
    src = str(Path(mtfade.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "mtfade.cli", "solve", "--sizes", "16",
         "--solver", "camg-dense-oracle"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "invalid choice: 'camg-dense-oracle'" in proc.stderr
