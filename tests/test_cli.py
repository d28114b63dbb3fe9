"""CLI contract: commands, exit codes, artifact formats and round-trips."""

import hashlib
import json
import math
import os
import re
import signal
import subprocess
import sys
import threading
import warnings
from contextlib import contextmanager, suppress
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cwglauber
import cwglauber.cli as cli
import cwglauber.spectral as spectral
from conftest import failing_dstemr_rows, patch_dstemr
from cwglauber.cli import build_parser, main
from cwglauber.mcmc import EstimationError, simulate_reduced
from cwglauber.ising import ModelParams
from cwglauber.perturbation import MONOTONE_TOL, sweep_monotonicity
from cwglauber.reports import (sweep_from_csv, sweep_from_json, sweep_to_csv,
                               sweep_to_json, trajectory_from_csv,
                               trajectory_to_csv)


def run_cli(args):
    """Invoke main() capturing argparse exits as exit codes."""
    try:
        return main(args)
    except SystemExit as exc:
        return exc.code


class TestGapCommand:
    def test_free_chain_gap(self, capsys):
        assert run_cli(["gap", "--n", "8", "--J", "0", "--H", "0",
                        "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["gap"] == pytest.approx(0.125, abs=1e-10)
        assert doc["structure"]["increasing"] is True

    def test_single_spin(self, capsys):
        assert run_cli(["gap", "--n", "1", "--J", "5", "--H", "0",
                        "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["gap"] == pytest.approx(1.0, abs=1e-12)
        assert doc["t_rel"] == pytest.approx(1.0, abs=1e-12)

    def test_invalid_n_exits_2(self, capsys):
        assert run_cli(["gap", "--n", "0", "--J", "1"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_text_output(self, capsys):
        assert run_cli(["gap", "--n", "4", "--J", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "lambda2" in out and "t_rel" in out

    def test_structure_flags_at_large_n(self, capsys):
        assert run_cli(["gap", "--n", "300", "--J", "0.001",
                        "--format", "json"]) == 0
        flags = json.loads(capsys.readouterr().out)["structure"]
        assert all(flags[name] is True for name in (
            "increasing", "strictly", "antisymmetric_at_h0", "sign_split",
            "reliable"))

    def test_non_finite_vector_prints_unreliable(self, capsys):
        assert run_cli(["gap", "--n", "1000", "--J", "0.00186",
                        "--H", "-0.5"]) == 0
        captured = capsys.readouterr()
        assert "increasing=False" in captured.out
        assert "reliable=False" in captured.out and captured.err == ""

    def test_solver_failure_exits_3(self, dstemr_fails, capsys):
        assert run_cli(["gap", "--n", "6", "--J", "0.1"]) == 3
        assert "solver failure" in capsys.readouterr().err

    def test_memory_error_exits_3_on_one_line(self, dstemr_out_of_memory,
                                              capsys):
        assert run_cli(["gap", "--n", "6", "--J", "0"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("solver failure: Unable to allocate")
        assert err.count("\n") == 1

    def test_large_n_runs_in_linear_memory(self):
        """gap at n = 10^5 solves with an n x 2 eigenvector block: exit 0
        and a peak far below the 74.5 GiB an n x n block would take."""
        src = str(Path(cwglauber.__file__).resolve().parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-m", "cwglauber.cli", "gap", "--n", "100000",
             "--J", "0"], stdout=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": src})
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        assert proc.returncode == 0, out
        assert usage.ru_maxrss < 256 * 1024  # KiB
        gap = float(re.search(r"^gap += (\S+)$", out, re.M).group(1))
        assert gap == pytest.approx(1e-5, rel=1e-9)

    def test_underflowed_chain_exits_3(self, capsys):
        # up[0..3] underflow to 0 at n = 12, J = 100: f is undefined there
        assert run_cli(["gap", "--n", "12", "--J", "100"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "solver failure" in captured.err and "underflow" in captured.err


@pytest.mark.parametrize("argv", [
    ["simulate", "--n", "1", "--J", "1e12", "--steps", "10000"],
    ["verify", "--n", "1", "--J", "3e5"],
    ["verify", "--n", "1", "--J", "1e300"],
    ["gap", "--n", "1", "--J", "1e300"]], ids=lambda argv: " ".join(argv))
def test_single_spin_at_any_coupling(argv, tmp_path, capsys):
    """One spin has no pair, so J is not in its law; a law that carried it
    lost eps * J of precision: the start draw refused it, verify's lumping
    and eigenvector checks failed and gap printed a flag False."""
    if argv[0] == "simulate":
        argv = argv + ["--output", str(tmp_path / "t.csv")]
    assert run_cli(argv) == 0
    captured = capsys.readouterr()
    assert "False" not in captured.out and captured.err == ""


class TestSweepCommand:
    def test_h0_sweep_monotone_and_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = run_cli(["sweep", "--n", "8", "--H", "0", "--J-min", "0",
                        "--J-max", "0.6", "--J-steps", "31",
                        "--output", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "monotone: true" in stdout
        report = sweep_from_csv(out.read_text())
        assert report.monotone_in_J and len(report.points) == 31
        # reference computation matches what the file says
        ref = sweep_monotonicity(8, 0.0, np.linspace(0.0, 0.6, 31).tolist())
        assert report == ref

    def test_temperature_view_column(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = run_cli(["sweep", "--n", "6", "--H", "0", "--J-min", "0",
                        "--J-max", "0.4", "--J-steps", "9",
                        "--temperature-view", "--c", "1",
                        "--output", str(out)])
        assert code == 0
        assert "t_rel nonincreasing in T: true" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        header = next(ln for ln in lines if ln.startswith("n,"))
        assert header.endswith(",T")
        # header line still parses (extra column ignored)
        assert sweep_from_csv(out.read_text()).monotone_in_J

    def test_tied_temperatures_keep_the_view_monotone(self, tmp_path, capsys):
        """Both couplings round to one T = c/J; the view still reverses the
        J order, so a monotone sweep reads nonincreasing in T."""
        code = run_cli(["sweep", "--n", "4", "--J-min", "0.20365417389843476",
                        "--J-max", "0.2036541738984348", "--J-steps", "2",
                        "--temperature-view", "--output", str(tmp_path / "s.csv")])
        assert code == 0
        out = capsys.readouterr().out
        assert "monotone: true" in out
        assert "t_rel nonincreasing in T: true" in out

    def test_temperature_verdict_forgives_what_the_J_verdict_does(
            self, tmp_path, capsys):
        """lambda_2 drops by an ulp (1.1e-16) between two of these
        couplings: within MONOTONE_TOL, so both verdicts read monotone."""
        code = run_cli(["sweep", "--n", "8", "--J-min", "0.23",
                        "--J-max", "0.2300000000000001", "--J-steps", "4",
                        "--temperature-view", "--output", str(tmp_path / "s.csv")])
        assert code == 0
        out = capsys.readouterr().out
        violation = float(out.split("max_violation: ")[1].split()[0])
        assert 0 < violation <= MONOTONE_TOL
        assert "monotone: true" in out
        assert "t_rel nonincreasing in T: true" in out

    @pytest.mark.parametrize("argv", [
        ["--n", "4", "--J-min", "0.20365417389843476",
         "--J-max", "0.2036541738984348", "--J-steps", "2", "--temperature-view"],
        ["--n", "1000", "--J-min", "0", "--J-max", "0.002287524967373984",
         "--J-steps", "16"],
        ["--n", "6", "--H", "-0.123456789", "--J-min", "1e-7", "--J-max", "0.3",
         "--J-steps", "5", "--temperature-view", "--c", "0.7071067811865476"],
        ["--n", "8", "--J-min", "0", "--J-max", "0.6", "--J-steps", "31"],
    ], ids=["tied", "n1000", "field", "plain"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_recorded_command_rebuilds_the_grid(self, argv, fmt, tmp_path,
                                                capsys):
        """The command a sweep records parses back to its arguments and
        rebuilds the report's J column bit for bit."""
        out = tmp_path / f"s.{fmt}"
        assert run_cli(["sweep", *argv, "--format", fmt,
                        "--output", str(out)]) == 0
        text = out.read_text()
        if fmt == "csv":
            command = next(line[len("# command: "):] for line in text.splitlines()
                           if line.startswith("# command: "))
            report = sweep_from_csv(text)
        else:
            command = json.loads(text)["command"]
            report = sweep_from_json(text)
        prog, *words = command.split()
        args = build_parser().parse_args(words)
        given = build_parser().parse_args(["sweep", *argv])
        assert prog == "cwglauber"
        assert vars(args) == {**vars(given), "format": "csv", "output": None}
        grid = np.linspace(args.J_min, args.J_max, args.J_steps)
        J = sorted([p.J for p in report.points]
                   + [f["J"] for f in report.failures])
        assert grid.tobytes() == np.array(J).tobytes()

    def test_recorded_command_keeps_its_g_text(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run_cli(["sweep", "--n", "8", "--H", "0.25", "--J-min", "0",
                        "--J-max", "0.6", "--J-steps", "31",
                        "--output", str(out)]) == 0
        assert ("# command: cwglauber sweep --n 8 --H 0.25 --J-min 0 "
                "--J-max 0.6 --J-steps 31\n") in out.read_text()

    @pytest.mark.parametrize("H,code", [("0", 1), ("0.2", 0)])
    def test_non_monotone_sweep_exit_code(self, H, code, tmp_path, monkeypatch,
                                          capsys):
        """A sweep that is not monotone fails the property only at H = 0."""
        real = cli.sweep_monotonicity

        def not_monotone(n, H, grid):
            return replace(real(n, H, grid), monotone_in_J=False,
                           max_violation=0.5)

        monkeypatch.setattr(cli, "sweep_monotonicity", not_monotone)
        assert run_cli(["sweep", "--n", "4", "--H", H, "--J-min", "0",
                        "--J-max", "0.4", "--J-steps", "3",
                        "--output", str(tmp_path / "s.csv")]) == code
        out = capsys.readouterr().out
        assert "monotone: false" in out and "max_violation: 0.5" in out

    def test_descending_range_exits_2(self):
        assert run_cli(["sweep", "--n", "4", "--J-min", "0.4",
                        "--J-max", "0.1", "--J-steps", "5"]) == 2

    @pytest.mark.parametrize("bounds", [("0", "inf"), ("0", "nan"),
                                        ("nan", "0.4"), ("inf", "inf")])
    def test_non_finite_range_exits_2(self, bounds, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = run_cli(["sweep", "--n", "4", "--J-min", bounds[0], "--J-max",
                        bounds[1], "--J-steps", "3", "--output", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "--J-min and --J-max must be finite" in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("c", ["nan", "inf", "-inf", "0"])
    def test_non_finite_or_nonpositive_c_exits_2(self, c, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = run_cli(["sweep", "--n", "4", "--J-min", "0", "--J-max", "0.4",
                        "--J-steps", "3", "--temperature-view", f"--c={c}",
                        "--output", str(out)])
        assert code == 2
        assert "--c must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    def test_coinciding_grid_points_exit_2(self, tmp_path, capsys):
        # linspace over [0, 5e-324] repeats couplings: no ascending grid
        code = run_cli(["sweep", "--n", "3", "--J-min", "0", "--J-max",
                        "5e-324", "--J-steps", "3",
                        "--output", str(tmp_path / "s.csv")])
        assert code == 2
        assert "grid couplings coincide" in capsys.readouterr().err

    def test_overflowing_stencil_warns_nothing(self, tmp_path, capsys):
        """The finite-difference stencil's chains at J ~ 1e308 overflow
        like the points' own; both are failures, not warnings."""
        out = tmp_path / "huge_j.csv"
        code = run_cli(["sweep", "--n", "3", "--J-min", "0", "--J-max",
                        "1e308", "--J-steps", "3", "--output", str(out)])
        assert code == 4
        assert [p.J for p in sweep_from_csv(out.read_text()).points] == [0.0]
        assert "Warning" not in capsys.readouterr().err

    def test_json_format(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = run_cli(["sweep", "--n", "5", "--H", "0.1", "--J-min", "0.05",
                        "--J-max", "0.3", "--J-steps", "6",
                        "--format", "json", "--output", str(out)])
        assert code == 0
        report = sweep_from_json(out.read_text())
        assert len(report.points) == 6
        assert all(p.sign_terms_ok is None for p in report.points)

    def test_env_var_output_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CWGLAUBER_OUTPUT_DIR", str(tmp_path))
        code = run_cli(["sweep", "--n", "3", "--H", "0", "--J-min", "0",
                        "--J-max", "0.2", "--J-steps", "3"])
        assert code == 0
        assert (tmp_path / "sweep_n3.csv").exists()

    def test_per_point_failure_gives_partial_output_and_exit_4(
            self, tmp_path, monkeypatch, capsys):
        from cwglauber.magchain import build_reduced_chain
        chain = build_reduced_chain(ModelParams(n=4, J=0.2, H=0.0))
        at_point = 1.0 - (chain.up + chain.down)  # the increment diagonal
        failing_dstemr_rows(monkeypatch, {tuple(at_point): 7})
        out = tmp_path / "partial.csv"
        code = run_cli(["sweep", "--n", "4", "--H", "0", "--J-min", "0",
                        "--J-max", "0.4", "--J-steps", "5",
                        "--output", str(out)])
        assert code == 4
        report = sweep_from_csv(out.read_text())
        assert len(report.points) == 4
        assert report.failures and report.failures[0]["J"] == 0.2
        assert "dstemr failed with info=7" in report.failures[0]["error"]

    def test_csv_does_not_depend_on_the_worker_count(self, tmp_path,
                                                     monkeypatch, capsys):
        # n = 200 solves blocks of 20 rows, split between the workers
        csvs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(spectral, "WORKERS", workers)
            out = tmp_path / f"sweep{workers}.csv"
            assert run_cli(["sweep", "--n", "200", "--H", "0.2", "--J-min", "0",
                            "--J-max", "0.015", "--J-steps", "40",
                            "--output", str(out)]) == 0
            csvs.append([line for line in out.read_text().split("\n")
                         if not line.startswith("# timestamp:")])
        assert csvs[0] == csvs[1] == csvs[2]

    @pytest.mark.parametrize("where", ["every call", "worker threads"])
    def test_worker_memory_error_exits_3_on_one_line(self, where, monkeypatch,
                                                     capsys):
        """A MemoryError in a solver thread reaches the caller, and every
        thread has ended when the command returns."""
        def stand_in(call):
            if where == "every call" or (threading.current_thread()
                                         is not threading.main_thread()):
                raise MemoryError("Unable to allocate 14.9 GiB for an array "
                                  "with shape (2000000000,) and data type "
                                  "float64")
            call.real()

        patch_dstemr(monkeypatch, stand_in)
        monkeypatch.setattr(spectral, "WORKERS", 2)
        threads = threading.active_count()
        assert run_cli(["sweep", "--n", "100", "--H", "0", "--J-min", "0",
                        "--J-max", "0.02", "--J-steps", "16"]) == 3
        assert threading.active_count() == threads
        err = capsys.readouterr().err
        assert err.startswith("solver failure: Unable to allocate")
        assert err.count("\n") == 1

    def test_underflowed_point_is_a_failure(self, tmp_path, capsys):
        out = tmp_path / "big_j.csv"
        code = run_cli(["sweep", "--n", "8", "--J-min", "0", "--J-max", "100",
                        "--J-steps", "3", "--output", str(out)])
        assert code == 4
        report = sweep_from_csv(out.read_text())
        assert [p.J for p in report.points] == [0.0, 50.0]
        assert [f["J"] for f in report.failures] == [100.0]
        assert "EigensolverError" in report.failures[0]["error"]
        assert not any(np.isnan(p.hf_derivative) for p in report.points)

    def test_non_finite_vector_is_a_failure(self, tmp_path, capsys):
        """Past J = 0.0018 at n = 1000, H = -0.5 the increments underflow
        where pi has its mass; those points are failures, not nan rows."""
        out = tmp_path / "underflowed_f.csv"
        code = run_cli(["sweep", "--n", "1000", "--H", "-0.5",
                        "--J-min", "0.0018", "--J-max", "0.00186",
                        "--J-steps", "2", "--output", str(out)])
        assert code == 4
        report = sweep_from_csv(out.read_text())
        assert [p.J for p in report.points] == [0.0018]
        assert np.isfinite(report.points[0].hf_derivative)
        assert [f["J"] for f in report.failures] == [0.00186]
        assert "EigensolverError" in report.failures[0]["error"]
        assert "not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,failures", [
        (["--n", "8", "--J-min", "0", "--J-max", "100", "--J-steps", "3"],
         {100.0: "EigensolverError: reduced chain has transition entries "
                 "that underflow to 0 at n=8, J=100, H=0"}),
        (["--n", "1000", "--H", "-0.5", "--J-min", "0.00185",
          "--J-max", "0.00187", "--J-steps", "3"],
         dict.fromkeys(np.linspace(0.00185, 0.00187, 3).tolist(),
                       "EigensolverError: second eigenvector is not finite: "
                       "its increments underflowed where pi has its mass")),
        # the point keeps its rates, its J + delta stencil chain does not:
        # refused, not read as lambda2 = 1 with a derivative of 0
        (["--n", "4", "--J-min", "0", "--J-max", "124.18886860032352",
          "--J-steps", "2"],
         {124.18886860032352: "EigensolverError: reduced chain has transition "
                              "entries that underflow to 0 at n=4, "
                              "J=124.189, H=0"}),
    ])
    def test_failing_rows_warn_nothing(self, argv, failures, tmp_path, capsys):
        """The grid core runs failed rows through its vectorized passes too;
        they must raise no RuntimeWarning and fail exactly as before."""
        out = tmp_path / "failing.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(["sweep", *argv, "--output", str(out)])
        assert code == 4
        report = sweep_from_csv(out.read_text())
        assert {f["J"]: f["error"] for f in report.failures} == failures


class TestVerifyCommand:
    def test_passes_at_desk_point(self, capsys):
        assert run_cli(["verify", "--n", "8", "--J", "0.2", "--H", "0"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out.replace("0 failed", "")

    def test_h_nonzero_skips_sign_checks(self, capsys):
        assert run_cli(["verify", "--n", "6", "--J", "0.3", "--H", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "SKIP" in out and "sign_structure_terms" in out

    def test_oversized_n_exits_2(self):
        assert run_cli(["verify", "--n", "14", "--J", "0.1"]) == 2

    def test_solver_failure_exits_3(self, dstemr_fails, capsys):
        assert run_cli(["verify", "--n", "4", "--J", "0.1"]) == 3
        assert capsys.readouterr().err.startswith("solver failure: dstemr")

    def test_underflowed_chain_exits_3_before_full_chain_checks(self, capsys):
        # the full-chain checks would overflow here; the refusal comes first
        assert run_cli(["verify", "--n", "8", "--J", "100"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("solver failure: reduced chain")
        assert captured.err.count("\n") == 1

    def test_underflowed_full_chain_exits_3(self, capsys):
        # the reduced entries are subnormal, not 0, so the reduced solve
        # runs; the full chain's flip ratios would overflow
        assert run_cli(["verify", "--n", "8", "--J", "52"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("solver failure: full chain")
        assert captured.err.count("\n") == 1

    def test_reduced_spectrum_failure_exits_3(self, monkeypatch, capsys):
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        assert run_cli(["verify", "--n", "4", "--J", "0.1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("solver failure: reduced-chain eigensolver "
                                "failed: Eigenvalues did not converge\n")

    @pytest.mark.parametrize("n", [62, 63, 64, 300])
    def test_unaddressable_full_chain_exits_3(self, n, capsys):
        """A 2^n chain past numpy's index range is refused before any
        allocation, not left to fail inside numpy with a traceback."""
        assert run_cli(["verify", "--n", str(n), "--J", "0.01",
                        "--n-max-full", str(n)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"solver failure: full chain for n={n}")
        assert captured.err.count("\n") == 1


_SWEEP = ["sweep", "--n", "4", "--J-min", "0", "--J-max", "0.5", "--J-steps", "3"]


@pytest.mark.parametrize("argv,output_dir", [
    (_SWEEP + ["--output", "{tmp}/missing/x.csv"], None),
    (_SWEEP + ["--output", "{tmp}"], None),
    (_SWEEP, "{tmp}/missing"),
    (["simulate", "--n", "4", "--J", "0.1", "--steps", "10000",
      "--output", "{tmp}/missing/t.csv"], None),
], ids=["missing-directory", "directory", "output-dir-variable", "simulate"])
def test_unwritable_output_exits_2(argv, output_dir, tmp_path, monkeypatch,
                                   capsys):
    """An output path that cannot be written is a usage error, reported on
    one stderr line."""
    if output_dir:
        monkeypatch.setenv("CWGLAUBER_OUTPUT_DIR", output_dir.format(tmp=tmp_path))
    assert run_cli([arg.format(tmp=tmp_path) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"cannot write {tmp_path}")
    assert captured.err.count("\n") == 1


def no_work(monkeypatch):
    """Make the simulators and the sweep raise if a command calls them."""
    import cwglauber.cli as cli

    def refused(*args, **kwargs):
        raise AssertionError("the work ran")

    for name in ("simulate_reduced", "simulate_full", "sweep_monotonicity"):
        monkeypatch.setattr(cli, name, refused)


@pytest.mark.parametrize("argv,output_dir", [
    (_SWEEP + ["--output", "{tmp}/missing/x.csv"], None),
    (_SWEEP + ["--output", "{tmp}"], None),
    (_SWEEP, "{tmp}/missing"),
    (["simulate", "--n", "10", "--J", "0.08", "--steps", "1000000",
      "--output", "{tmp}/missing/t.csv"], None),
    (["simulate", "--n", "10", "--J", "0.08", "--steps", "10000", "--full",
      "--output", "{tmp}/file/t.csv"], None),
], ids=["missing-directory", "directory", "output-dir-variable", "simulate",
        "simulate-full-under-a-file"])
def test_unwritable_output_is_refused_before_the_work(
        argv, output_dir, tmp_path, monkeypatch, capsys):
    """The output path is checked before the sweep or the simulation runs,
    with the line and exit code a failed write gives, and nothing is made
    on disk."""
    (tmp_path / "file").write_text("kept\n")
    no_work(monkeypatch)
    if output_dir:
        monkeypatch.setenv("CWGLAUBER_OUTPUT_DIR", output_dir.format(tmp=tmp_path))
    assert run_cli([arg.format(tmp=tmp_path) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    reason = ("Is a directory" if argv[-1] == "{tmp}" else "Not a directory"
              if "file" in argv[-1] else "No such file or directory")
    assert captured.err.startswith(f"cannot write {tmp_path}")
    assert captured.err.endswith(f": {reason}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


_TO_PATH = [
    _SWEEP + ["--output", "{path}"],
    ["simulate", "--n", "4", "--J", "0.1", "--steps", "10000", "--output",
     "{path}"],
]


class Blocked(Exception):
    """A command blocked on its output."""


@contextmanager
def within(seconds):
    """Raise Blocked in the test if the block takes longer than seconds, so
    a command stuck in a system call fails rather than hangs."""
    def blocked(signum, frame):
        raise Blocked

    previous = signal.signal(signal.SIGALRM, blocked)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("argv", _TO_PATH, ids=["sweep", "simulate"])
@pytest.mark.parametrize("kind", ["file", "fifo"])
def test_output_check_leaves_a_writable_file_untouched(argv, kind, tmp_path,
                                                       monkeypatch):
    """Checking an existing writable output neither truncates nor rewrites
    it: a command that fails after the check leaves it as it was.  A FIFO
    is not opened, as that would block with no reader attached."""
    path = tmp_path / "out"
    if kind == "fifo":
        os.mkfifo(path)
    else:
        path.write_text("kept\n")
    no_work(monkeypatch)
    with within(20), pytest.raises(AssertionError, match="the work ran"):
        run_cli([arg.format(path=path) for arg in argv])
    if kind == "file":
        assert path.read_text() == "kept\n"


@pytest.mark.parametrize("argv", _TO_PATH, ids=["sweep", "simulate"])
def test_fifo_output_reaches_its_reader(argv, tmp_path):
    """A reader attached to a FIFO output before the command gets the whole
    artifact, as a regular file would hold it (timestamp aside)."""
    fifo, plain = tmp_path / "fifo", tmp_path / "plain"
    os.mkfifo(fifo)
    reader = subprocess.Popen([sys.executable, "-c", "import shutil, sys; "
                               "shutil.copyfileobj(open(sys.argv[1], 'rb'), "
                               "sys.stdout.buffer)", str(fifo)],
                              stdout=subprocess.PIPE)
    try:
        with within(20):
            assert run_cli([arg.format(path=fifo) for arg in argv]) == 0
    finally:  # end the reader's wait if no writer came; ENXIO: it is done
        with suppress(OSError):
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
    got = reader.communicate(timeout=20)[0]
    assert run_cli([arg.format(path=plain) for arg in argv]) == 0

    def artifact(data):
        return [line for line in data.splitlines()
                if not line.startswith(b"# timestamp:")]

    assert artifact(got) == artifact(plain.read_bytes()) != []


@pytest.mark.parametrize("argv", [
    ["gap", "--n", "8", "--J", "0.1"],
    ["sweep", "--n", "4", "--J-min", "0", "--J-max", "0.2", "--J-steps", "3"],
    ["verify", "--n", "4", "--J", "0.1"],
    ["simulate", "--n", "4", "--J", "0.1", "--steps", "10000"],
], ids=lambda argv: argv[0])
def test_negative_exponent_as_separate_argument(argv, tmp_path, capsys):
    """argparse reads only -1 and -.5 as negative numbers by itself."""
    if argv[0] in ("sweep", "simulate"):
        argv = argv + ["--output", str(tmp_path / "out")]
    assert run_cli(argv + ["--H=-1e-3"]) == 0
    joined = capsys.readouterr().out
    assert run_cli(argv + ["--H", "-1e-3"]) == 0
    assert capsys.readouterr().out == joined


class TestSimulateCommand:
    def test_too_few_steps_exits_2(self):
        assert run_cli(["simulate", "--n", "8", "--J", "0.05",
                        "--steps", "100"]) == 2

    def test_run_and_reproducible_bytes(self, tmp_path, capsys):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["simulate", "--n", "8", "--J", "0.05", "--H", "0",
                "--steps", "20000", "--seed", "7"]
        assert run_cli(args + ["--output", str(out1)]) == 0
        assert run_cli(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        stdout = capsys.readouterr().out
        assert "t_rel_hat" in stdout and "spectral" in stdout

    def test_solver_failure_exits_3(self, dstemr_fails, tmp_path, capsys):
        """The spectral reference is solved before the simulation: a solver
        failure prints nothing to stdout and leaves no trajectory."""
        out = tmp_path / "t.csv"
        code = run_cli(["simulate", "--n", "6", "--J", "0.1", "--steps",
                        "10000", "--seed", "3", "--output", str(out)])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("solver failure: dstemr")
        assert captured.out == "" and not out.exists()

    def test_estimation_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        """An estimate the trajectory cannot support exits 3 on one stderr
        line, after the trajectory is written."""
        def fails(traj, method):
            raise EstimationError("log-autocovariance fit found no decay")

        monkeypatch.setattr(cli, "estimate_relaxation", fails)
        out = tmp_path / "t.csv"
        assert run_cli(["simulate", "--n", "6", "--J", "0.1", "--steps",
                        "10000", "--output", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == f"wrote {out}\n"
        assert captured.err == ("estimation failed: log-autocovariance fit "
                                "found no decay\n")
        assert trajectory_from_csv(out.read_text()).sweeps == 10000

    @pytest.mark.parametrize("extra,method,digest", [
        ([], "exponential_fit",
         "29324f8b9d5d5fa70355c15021fd186d70c69420adaefdc75cbc2ad2def5b192"),
        ([], "integrated_autocorrelation",
         "fab42c81af1e062d041b2cdb79845f0c89def32defab0faac72b6b6a623b0939"),
        (["--full"], "exponential_fit",
         "77e820d009607b53d9e32f55a78f62a2f0da6307ee4f0dc2998dd2caeede8db0"),
        (["--full"], "integrated_autocorrelation",
         "81406398b2bd5e2ab6e1d1b53481c3885120d11c2bbe05451b707179bab70131"),
    ], ids=["reduced-exp", "reduced-iac", "full-exp", "full-iac"])
    def test_printed_estimate_is_pinned(self, extra, method, digest, tmp_path,
                                        capsys):
        """sha256 of the estimate, spectral and relative-deviation lines
        (joined by newlines, no trailing one) at n = 10, J = 0.08."""
        code = run_cli(["simulate", "--n", "10", "--J", "0.08", "--steps",
                        "20000", "--seed", "5", "--method", method,
                        "--output", str(tmp_path / "t.csv")] + extra)
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("wrote ") and len(lines) == 4
        text = "\n".join(lines[1:])
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_deviation_line_where_the_gap_rounds_to_0(self, tmp_path, capsys):
        """At n = 100, J*n = 3 lambda_2 rounds to 1 and t_rel prints inf;
        the deviation line says it is not computed, and the run exits 0."""
        code = run_cli(["simulate", "--n", "100", "--J", "0.03", "--steps",
                        "10000", "--seed", "1", "--output", str(tmp_path / "t.csv")])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[2] == "spectral: t_rel = inf sweeps (inf single-site steps)"
        assert lines[3:] == ["relative deviation from spectral value: "
                             "not computed (lambda_2 rounds to 1)"]

    @pytest.mark.parametrize("extra", [[], ["--full"]])
    def test_underflowed_chain_exits_3(self, extra, tmp_path, capsys):
        # pi reads [1, 0, ..., 0, 1] here; the chain is refused before a draw
        out = tmp_path / "t.csv"
        code = run_cli(["simulate", "--n", "8", "--J", "1e20", "--steps",
                        "10000", "--output", str(out)] + extra)
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == ("solver failure: reduced chain has transition "
                                "entries that underflow to 0 at n=8, J=1e+20, "
                                "H=0\n")

    @pytest.mark.parametrize("extra,message", [
        (["--full", "--n", "30"], "--full needs n <= 24, got 30"),
        (["--n", "6", "--seed", "-1"], "--burn-in and --seed must be >= 0"),
    ])
    def test_invalid_simulate_arguments_exit_2(self, extra, message, tmp_path,
                                               capsys):
        out = tmp_path / "t.csv"
        code = run_cli(["simulate", "--J", "0.01", "--steps", "10000",
                        "--output", str(out)] + extra)
        assert code == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    def test_full_at_the_cap_runs(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run_cli(["simulate", "--full", "--n", "24", "--J", "0.01",
                        "--steps", "10000", "--seed", "0",
                        "--output", str(out)]) == 0
        assert trajectory_from_csv(out.read_text()).params.n == 24

    def test_full_chain_flag(self, tmp_path):
        out = tmp_path / "full.csv"
        code = run_cli(["simulate", "--n", "6", "--J", "0.1", "--steps",
                        "10000", "--seed", "3", "--full",
                        "--output", str(out)])
        assert code == 0
        traj = trajectory_from_csv(out.read_text())
        assert traj.sweeps == 10000


def test_cli_import_leaves_scipy_sparse_unloaded():
    """scipy.sparse costs tens of milliseconds of import, and only the
    full-chain oracle needs it."""
    src = str(Path(cwglauber.__file__).resolve().parents[1])
    code = "import sys, cwglauber.cli; print('scipy.sparse' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.strip() == "False"


def test_missing_dstemr_exits_3_on_one_line():
    """A scipy that exports no dstemr still lets the CLI import: gap then
    exits 3 with one solver-failure line and no traceback."""
    src = str(Path(cwglauber.__file__).resolve().parents[1])
    code = ("import sys, scipy.linalg.cython_lapack as lapack; "
            "del lapack.__pyx_capi__['dstemr']; "
            "from cwglauber.cli import main; "
            "sys.exit(main(['gap', '--n', '6', '--J', '0.1']))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 3, done.stderr
    assert done.stdout == ""
    assert done.stderr == ("solver failure: scipy.linalg.cython_lapack "
                           "lacks dstemr\n")


# sha256 of sweep_to_csv, its timestamp line dropped, and of sweep_to_json,
# for sweep_monotonicity(n, H, linspace(0, J_max, steps)), with the command
# line and temperature constant given (None: left out).  Recorded while the
# stationary law was still normalized by scipy's logsumexp and solved twice
# per point; the inline log-sum-exp and the one law per point leave every
# byte as it was.  The n = 8 case was recorded before the column table.
PINNED_SWEEPS = [
    (12, 0.0, 0.6, 241,
     "d9612d9ef913f98db4d681fa239c58101c8b642abbc4c1d7e4532bc5b4111f27",
     "7717d62f686b9725fb0ca6f26a723499c3821d2dba144d23b305c065d91f4660",
     None, None),
    (12, 0.2, 0.6, 241,
     "28286de390aa1873e5ff517dcb70be7c54ea78ce2eb3297eca3ab30cab85c9c5",
     "53ca22f84545530f21204525d06c900e8b3dbe953a918cb7661f29a727c7882d",
     None, None),
    (1000, 0.0, 0.0015, 16,
     "057323348f3fd4b79e51e1cbec8cc8552852dbd29da68a998f65c8c70656edf2",
     "d6753694e5efea02d1d69245ee2f3de1f324a927d012e5386ff81bc86ea318f4",
     None, None),
    (8, 1.0, 0.3125, 26,
     "faec27cad1449fa08dc102243a52771b27a133804c561498ba0907d1af86d6b9",
     "ded809ba7c34bcb9efe4d538999abd4c0e875c953bfacbfc63236c660fcd1234",
     "cwglauber sweep --n 8 --H 1 --J-min 0 --J-max 0.3125 --J-steps 26",
     0.5),
]


@pytest.mark.parametrize("n,H,J_max,steps,csv_digest,json_digest,command,c",
                         PINNED_SWEEPS,
                         ids=[f"n{c[0]}-H{c[1]}" for c in PINNED_SWEEPS])
def test_sweep_output_is_pinned(n, H, J_max, steps, csv_digest, json_digest,
                                command, c):
    report = sweep_monotonicity(n, H, np.linspace(0.0, J_max, steps).tolist())
    csv = "\n".join(line for line in sweep_to_csv(
        report, command=command, temperature_constant=c).split("\n")
                    if not line.startswith("# timestamp:"))
    assert hashlib.sha256(csv.encode()).hexdigest() == csv_digest
    text = sweep_to_json(report, command=command)
    assert hashlib.sha256(text.encode()).hexdigest() == json_digest


# sha256 of `gap` text and JSON output at (n, J, H), recorded before the
# column table generated them.
PINNED_GAPS = [
    ("1", "5", "0",
     "69a5fce3fe55454617b06a570fe12dda29717c89b8c19f91270c27328c887e1e",
     "81c69da04772b2dae14bea2d9aa1f4c7a910afb62e07b21733ee0784c7372606"),
    ("2", "0.3", "0.1",
     "ccd70b8a0ab60dbe24ff4cd402813b314c294871c071b7b8b8b75a989b4074b3",
     "e85218aa04a238ddb743bdf2b03e94ffe802c7739fb0b6027fedbd31d61d81c1"),
    ("4", "0.2", "0",
     "afb1ce0dd20c5e1754bd36f3ba3cda66363962a513be0a44c44e0c8598f7361c",
     "a1ce6b7946f94174d0a714c5ed8252e823fd8315ff3871c9e55148b18fb7672f"),
    ("8", "0", "0",
     "4ef8985051ec66d9b51eeee4f8fdd1823c731505d1a1d1dba09f4c6d75d25066",
     "ff186d78a16e7ecaa549aeee52275bfab3104b776cd7002f5d7c716b4748aedf"),
    ("12", "0.1", "0.2",
     "334b82ac9c94aaaf184717d4be65c2155a5a40a3bdd26bbab9a4eff0407bf471",
     "49f42ce382966534b26509b2f652c39a3acbf977358b0b8f8c73af5104152c28"),
    ("12", "0.6", "-0.3",
     "9d2d657e901b748ff5acd4693a41bc6838ff9c7385804d2f2790250349be6649",
     "1e38e90a4d3505018078e387adf10584f73aad83edfbace767c6f1e1a74a6886"),
    ("40", "0.03", "0",
     "528064bb75cf301e38e4f31cf469bb70ea8246c0a3adfdf9193dcd89fb3593f0",
     "2097c3e70c04ff3600aad5daaa6e3f4909d908a01d8f0ef8b0450966f00bd82c"),
    ("100", "0.016", "0.05",
     "3a7b8e5b256f39eced7af89bd67fe9e118faa80196a6ff0e860b44764a768b10",
     "bc1e65a7eb0642f14edd5fea0166c1ad03918aa5f39717acb2e8fcac1c33641f"),
    ("300", "0.001", "0",
     "0f072fa50de2d012e1908508791159f61a3c7ce22960a02a8979a67621a70008",
     "d1a81c66ba4fe7f5a10066681fbd163063fee5b6bd4f15c2d901cd0a05e82de0"),
    ("1000", "0.00186", "-0.5",
     "c0c914f01435fbc13f23513cdfbde2aca06fc11e5be3d265485277b2b9917844",
     "5944b172098afdfa80abb360403b862092875322db75137c7d153e7935807c76"),
]


@pytest.mark.parametrize("n,J,H,text_digest,json_digest", PINNED_GAPS,
                         ids=[f"n{c[0]}-J{c[1]}-H{c[2]}" for c in PINNED_GAPS])
def test_gap_output_is_pinned(n, J, H, text_digest, json_digest, capsys):
    for fmt, digest in (("text", text_digest), ("json", json_digest)):
        assert run_cli(["gap", "--n", n, "--J", J, "--H", H,
                        "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of `verify` stdout and the exit code at (n, J, H), every printed
# check value included; (6, 0.05, 0) and (8, 0, 1.3) are points where ARPACK
# restarts its Lanczos basis.
PINNED_VERIFIES = [
    ("1", "0.3", "0", 0,
     "da9b63de5254c0f5f5335fc09b9ffcd7b437ee6a1f5d11db4f74c65d5cfc0a56"),
    ("3", "0.4", "-0.3", 0,
     "16963e1043c6f84b6aa04a6e5c7d55e17f49d075e69c3852a8f3f9b41ad6a550"),
    ("5", "1", "0", 0,
     "24976b8aa1695b2701def08fa7e92279f95d70dafd44348d029c30ed2a02c915"),
    ("6", "0.05", "0", 0,
     "5c78687defec2d9b3f1503daa1f1ab4bf5db26c751ed91036a53a53adf4c8304"),
    ("8", "0", "1.3", 0,
     "387ee1c32963c4a84dfb01db765de680001f8baa98b755e1b2a514c562660454"),
    ("8", "0.2", "0", 0,
     "bcf42a66db0fa2d4d9c756fa38add742c1efd35ab66e88b7a0ddf6d60a8ec2e6"),
    ("10", "0.55", "0.1", 0,
     "08a2c9cd8810c1456e6741717707249efdba290244abc9b05e5761ba1f1a247f"),
    ("12", "0.1", "0", 0,
     "6db93b1feb4c31dc9e01e41fdb5ac748fd6ef69887f7b7a4cfbe02554a4be1cf"),
    ("12", "0.05", "0.2", 0,
     "8cf0fca756b611f34872ff63b322eeee4cd1cd8d01a3ee101780b71ca3d7d503"),
    ("12", "2", "0", 1,
     "8a2631015aaa4e7d3989d81e5e77b064834aac1cdf87641ffec49c5d06e09879"),
]


@pytest.mark.parametrize("n,J,H,code,digest", PINNED_VERIFIES,
                         ids=[f"n{c[0]}-J{c[1]}-H{c[2]}" for c in PINNED_VERIFIES])
def test_verify_output_is_pinned(n, J, H, code, digest, capsys):
    assert run_cli(["verify", "--n", n, "--J", J, "--H", H]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestSerializationRoundTrips:
    def test_sweep_csv_exact(self):
        report = sweep_monotonicity(7, 0.0, [0.0, 0.1, 0.25, 0.5])
        assert sweep_from_csv(sweep_to_csv(report)) == report

    def test_sweep_csv_exact_with_field(self):
        report = sweep_monotonicity(5, 0.2, [0.05, 0.3, 0.55])
        assert sweep_from_csv(sweep_to_csv(report)) == report

    def test_sweep_json_exact(self):
        report = sweep_monotonicity(6, 0.1, [0.0, 0.2, 0.4])
        assert sweep_from_json(sweep_to_json(report)) == report

    def test_sweep_csv_17_digit_floats(self):
        report = sweep_monotonicity(4, 0.0, [1 / 3, 2 / 3])
        text = sweep_to_csv(report)
        parsed = sweep_from_csv(text)
        assert parsed.points[0].J == 1 / 3  # bit-exact through text

    def test_trajectory_roundtrip(self):
        p = ModelParams(n=5, J=0.15, H=-0.1)
        traj = simulate_reduced(p, seed=11, steps=500)
        back = trajectory_from_csv(trajectory_to_csv(traj))
        assert back.params == p
        assert back.seed == 11 and back.burn_in == 0
        np.testing.assert_array_equal(back.samples, traj.samples)

    def test_reads_trajectory_v1(self):
        """v1 files (per-site reduced stream) share v2's layout and still
        parse; this one was written by the v1 writer."""
        text = ("# cwglauber trajectory v1 n=4 J=0.20000000000000001 "
                "H=0.10000000000000001 seed=5 sweeps=6 burn_in=2\n"
                "m\n-2\n-4\n-2\n2\n0\n4\n")
        traj = trajectory_from_csv(text)
        assert traj.params == ModelParams(n=4, J=0.2, H=0.1)
        assert (traj.seed, traj.burn_in, traj.sweeps) == (5, 2, 6)
        np.testing.assert_array_equal(traj.samples, [-2, -4, -2, 2, 0, 4])

    def test_trajectory_values_parse_as_one_array(self):
        """Blank lines are skipped; a value line that is not a number is
        refused, wherever it sits."""
        head = "# cwglauber trajectory v2 n=4 J=0.2 H=0 seed=5 sweeps=3 burn_in=2\nm\n"
        traj = trajectory_from_csv(head + "2\n\n -4 \n0\n\n")
        np.testing.assert_array_equal(traj.samples, [2, -4, 0])
        assert traj.samples.dtype == np.float64
        for body in ("2\nx\n0\n", "2\n-4\n0 0\n", "m\n2\n"):
            with pytest.raises(ValueError):
                trajectory_from_csv(head + body)
        assert trajectory_from_csv(head + "\n \n").samples.size == 0

    def test_values_numpy_1_truncates_are_refused(self, monkeypatch):
        """NumPy 1.x (the declared floor is 1.26.4) reads the values up to
        the first it cannot parse and warns; the reader refuses them."""
        def fromstring(text, sep):
            warnings.warn("string or file could not be read to its end due "
                          "to unmatched data", DeprecationWarning)
            return np.array([2.0])

        monkeypatch.setattr(np, "fromstring", fromstring)
        head = "# cwglauber trajectory v2 n=4 J=0.2 H=0 seed=5 sweeps=3 burn_in=2\nm\n"
        with pytest.raises(ValueError, match="could not be read"):
            trajectory_from_csv(head + "2\nx\n0\n")

    def test_rejects_foreign_files(self):
        csv = sweep_to_csv(sweep_monotonicity(3, 0.0, [0.0, 0.1]))
        header = next(ln for ln in csv.splitlines() if ln.startswith("n,"))
        row = csv.splitlines()[-1]
        for text in ("x,y\n1,2\n", "n,x\n1\n", csv.replace(header, "n,J"),
                     csv.replace(row, row + ",1"),
                     csv.replace(row, row.replace("true", "yes")),
                     csv.replace("# monotone_in_J", "# monotone"),
                     csv.replace("# monotone_in_J: true", "# monotone_in_J: x"),
                     "\n".join(ln for ln in csv.splitlines()
                               if not ln.startswith("n,") and "," not in ln)):
            with pytest.raises(ValueError):
                sweep_from_csv(text)
        for text in ("[]", '{"format":"cwglauber-sweep"}',
                     '{"format":"cwglauber-sweep","points":[{"J":0}],'
                     '"monotone_in_J":true,"max_violation":0}'):
            with pytest.raises(ValueError):
                sweep_from_json(text)
        header = "# cwglauber trajectory v2 n=4 J=0.2 H=0 seed=5 burn_in=2"
        for text in ("not a trajectory\n", header + "\n",
                     header.replace(" J=0.2", "") + "\nm\n2\n"):
            with pytest.raises(ValueError):
                trajectory_from_csv(text)



# Flag values as text.  A flag's valid values keep every command small
# (n <= 40, --full n <= 24, --J-steps <= 50, --steps 10^4, the 2^n oracle at
# n <= 8); its wild values add infinite, NaN, subnormal, huge, negative and
# malformed numbers without lifting those bounds.
FUZZ = settings(derandomize=True, database=None, deadline=None)
NOT_INT = st.sampled_from(["inf", "nan", "1e-310", "1e300", "2.5", ""])


def _double(lo, hi):
    return st.floats(lo, hi).map(repr), st.floats().map(repr)


def _integer(lo, hi):
    return (st.integers(lo, hi).map(str),
            st.one_of(st.integers(-3, hi).map(str), NOT_INT))


def _int(text):
    try:
        return int(text)
    except ValueError:
        return None


def _point_ok(n, J, H):
    n, J, H = _int(n), float(J), float(H)
    return (n is not None and n >= 1 and math.isfinite(J) and J >= 0
            and math.isfinite(H))


def _exits(data, command, flags, valid, *extra):
    """Run `command` with each of `flags` ({flag: (valid, wild)}) drawn from
    its valid values, except up to two drawn from their wild ones; assert a
    documented exit code that is 2 exactly when not valid(values)."""
    wild = data.draw(st.lists(st.sampled_from(list(flags)), max_size=2))
    v = {flag: data.draw(pair[flag in wild]) for flag, pair in flags.items()}
    code = run_cli([command, *(f"--{flag}={text}" for flag, text in v.items()),
                    *extra])
    assert code in {0, 1, 2, 3, 4}
    assert (code == 2) != valid(v), (v, code)


class TestExitCodeContract:
    """Every argument vector exits with a documented code, never with an
    exception, and exits 2 exactly when it is invalid."""

    @settings(FUZZ, max_examples=40)
    @given(data=st.data(), fmt=st.sampled_from(["text", "json"]))
    def test_gap(self, data, fmt):
        _exits(data, "gap", {"n": _integer(1, 40), "J": _double(0, 2),
                             "H": _double(-2, 2)},
               lambda v: _point_ok(v["n"], v["J"], v["H"]), f"--format={fmt}")

    @settings(FUZZ, max_examples=40)
    @given(data=st.data(), view=st.booleans())
    def test_sweep(self, data, view, tmp_path_factory):
        def valid(v):
            lo, hi, k = float(v["J-min"]), float(v["J-max"]), _int(v["J-steps"])
            return (_point_ok(v["n"], lo, v["H"]) and math.isfinite(hi)
                    and hi > lo and k is not None and k >= 2
                    and math.isfinite(float(v["c"])) and float(v["c"]) > 0
                    and len(set(np.linspace(lo, hi, k).tolist())) == k)

        out = tmp_path_factory.mktemp("sweep") / "s.csv"
        _exits(data, "sweep", {"n": _integer(1, 40), "H": _double(-2, 2),
                               "J-min": _double(0, 0.5),
                               "J-max": _double(0.5, 2),
                               "J-steps": _integer(2, 50), "c": _double(0.1, 10)},
               valid, f"--output={out}", *["--temperature-view"] * view)

    @settings(FUZZ, max_examples=25)
    @given(data=st.data())
    def test_verify(self, data):
        def valid(v):
            cap = _int(v["n-max-full"])
            return (_point_ok(v["n"], v["J"], v["H"]) and cap is not None
                    and int(v["n"]) <= cap)

        _exits(data, "verify", {"n": _integer(1, 8), "J": _double(0, 2),
                                "H": _double(-2, 2), "n-max-full": _integer(1, 8)},
               valid)

    @settings(FUZZ, max_examples=20)
    @given(data=st.data(), full=st.booleans(),
           method=st.sampled_from(["exponential_fit",
                                   "integrated_autocorrelation"]))
    def test_simulate(self, data, full, method, tmp_path_factory):
        def valid(v):
            ints = [_int(v[flag]) for flag in ("steps", "seed", "burn-in")]
            return (_point_ok(v["n"], v["J"], v["H"]) and None not in ints
                    and ints[0] >= 10_000 and min(ints[1:]) >= 0
                    and not (full and int(v["n"]) > 24))

        out = tmp_path_factory.mktemp("simulate") / "t.csv"
        _exits(data, "simulate",
               {"n": _integer(1, 40), "J": _double(0, 0.2), "H": _double(-1, 1),
                "steps": _integer(10_000, 10_000), "seed": _integer(0, 2 ** 40),
                "burn-in": _integer(0, 100)},
               valid, f"--method={method}", f"--output={out}",
               *["--full"] * full)
