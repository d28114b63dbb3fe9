"""CLI contract: commands, exit codes, artifact formats and round-trips."""

import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import cwglauber
from cwglauber.cli import main
from cwglauber.mcmc import simulate_reduced
from cwglauber.ising import ModelParams
from cwglauber.perturbation import sweep_monotonicity
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

    @pytest.mark.filterwarnings("error")
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
        assert run_cli(["gap", "--n", "100000", "--J", "0"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("solver failure: Unable to allocate")
        assert err.count("\n") == 1

    @pytest.mark.filterwarnings("error")
    def test_underflowed_chain_exits_3(self, capsys):
        # up[0..3] underflow to 0 at n = 12, J = 100: f is undefined there
        assert run_cli(["gap", "--n", "12", "--J", "100"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "solver failure" in captured.err and "underflow" in captured.err


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
        import scipy.linalg
        from cwglauber.magchain import build_reduced_chain
        chain = build_reduced_chain(ModelParams(n=4, J=0.2, H=0.0))
        at_point = 1.0 - (chain.up + chain.down)  # the increment diagonal
        real = scipy.linalg.lapack.dstemr

        def flaky(d, *args, **kwargs):
            if np.array_equal(d, at_point):
                return 0, np.zeros(len(d)), np.zeros((len(d), len(d))), 7
            return real(d, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg.lapack, "dstemr", flaky)
        out = tmp_path / "partial.csv"
        code = run_cli(["sweep", "--n", "4", "--H", "0", "--J-min", "0",
                        "--J-max", "0.4", "--J-steps", "5",
                        "--output", str(out)])
        assert code == 4
        report = sweep_from_csv(out.read_text())
        assert len(report.points) == 4
        assert report.failures and report.failures[0]["J"] == 0.2
        assert "dstemr failed with info=7" in report.failures[0]["error"]

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

    @pytest.mark.filterwarnings("error")
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

    @pytest.mark.filterwarnings("error")
    def test_underflowed_chain_exits_3_before_full_chain_checks(self, capsys):
        # the full-chain checks would overflow here; the refusal comes first
        assert run_cli(["verify", "--n", "8", "--J", "100"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("solver failure: reduced chain")
        assert captured.err.count("\n") == 1

    @pytest.mark.filterwarnings("error")
    def test_underflowed_full_chain_exits_3(self, capsys):
        # the reduced entries are subnormal, not 0, so the reduced solve
        # runs; the full chain's flip ratios would overflow
        assert run_cli(["verify", "--n", "8", "--J", "52"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("solver failure: full chain")
        assert captured.err.count("\n") == 1


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
        code = run_cli(["simulate", "--n", "6", "--J", "0.1", "--steps",
                        "10000", "--seed", "3", "--output",
                        str(tmp_path / "t.csv")])
        assert code == 3
        assert capsys.readouterr().err.startswith("solver failure: dstemr")

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


# sha256 of sweep_to_csv, its timestamp line dropped, and of sweep_to_json,
# both without a command line, for sweep_monotonicity(n, H, linspace(0,
# J_max, steps)).  Recorded while the stationary law was still normalized by
# scipy's logsumexp and solved twice per point; the inline log-sum-exp and the
# one law per point leave every byte as it was.
PINNED_SWEEPS = [
    (12, 0.0, 0.6, 241,
     "d9612d9ef913f98db4d681fa239c58101c8b642abbc4c1d7e4532bc5b4111f27",
     "7717d62f686b9725fb0ca6f26a723499c3821d2dba144d23b305c065d91f4660"),
    (12, 0.2, 0.6, 241,
     "28286de390aa1873e5ff517dcb70be7c54ea78ce2eb3297eca3ab30cab85c9c5",
     "53ca22f84545530f21204525d06c900e8b3dbe953a918cb7661f29a727c7882d"),
    (1000, 0.0, 0.0015, 16,
     "057323348f3fd4b79e51e1cbec8cc8552852dbd29da68a998f65c8c70656edf2",
     "d6753694e5efea02d1d69245ee2f3de1f324a927d012e5386ff81bc86ea318f4"),
]


@pytest.mark.parametrize("n,H,J_max,steps,csv_digest,json_digest",
                         PINNED_SWEEPS,
                         ids=[f"n{c[0]}-H{c[1]}" for c in PINNED_SWEEPS])
def test_sweep_output_is_pinned(n, H, J_max, steps, csv_digest, json_digest):
    report = sweep_monotonicity(n, H, np.linspace(0.0, J_max, steps).tolist())
    csv = "\n".join(line for line in sweep_to_csv(report).split("\n")
                    if not line.startswith("# timestamp:"))
    assert hashlib.sha256(csv.encode()).hexdigest() == csv_digest
    text = sweep_to_json(report)
    assert hashlib.sha256(text.encode()).hexdigest() == json_digest


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

    def test_rejects_foreign_files(self):
        with pytest.raises(ValueError):
            sweep_from_csv("x,y\n1,2\n")
        with pytest.raises(ValueError):
            trajectory_from_csv("not a trajectory\n")
