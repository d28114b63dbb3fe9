"""Command-line front door.

Subcommands:
  gap       lambda_2, spectral gap, relaxation time and eigenvector structure
            at one (n, J, H)
  sweep     monotonicity sweep over a J grid, CSV/JSON artifact + verdict
  verify    the full property suite at one parameter point, pass/fail table
  simulate  heat-bath trajectory + relaxation-time estimate vs the spectral
            value

Exit codes (stable contract): 0 success, 1 property failure, 2 usage error,
3 solver failure (an eigensolver error or an exhausted memory, reported on
one stderr line by ``main``), 4 partial sweep.  All commands are
deterministic given their arguments (simulate includes its seed; trajectory
CSVs are byte-identical across runs).  The environment variable
CWGLAUBER_OUTPUT_DIR sets the directory for default output filenames.
"""

import argparse
import errno
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from .ising import ModelParams, N_MAX_FULL
from .mcmc import (EstimationError, MIN_SAMPLES, N_MAX_SIMULATE_FULL,
                   estimate_relaxation, simulate_full, simulate_reduced)
from .perturbation import monotone_verdict, sweep_monotonicity
from .reports import COLUMNS, sweep_to_csv, sweep_to_json, trajectory_to_csv
from .spectral import (EigensolverError, eigenvector_structure_report,
                       second_eigenpair)
from .verification import run_verification

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_USAGE = 2
EXIT_SOLVER = 3
EXIT_PARTIAL = 4


def _output_path(arg_value: str | None, default_name: str) -> Path:
    if arg_value:
        return Path(arg_value)
    return Path(os.environ.get("CWGLAUBER_OUTPUT_DIR", ".")) / default_name


def _unwritable(path: Path) -> bool:
    """Report on one stderr line, as ``_write`` would, why path cannot be
    written, found before any work and without opening it: no file is
    created or truncated, and a FIFO or device, whose open could block or
    whose close would end a reader's stream, is left to ``_write``."""
    parent = path.parent
    if path.is_dir():
        code = errno.EISDIR
    elif path.is_file():
        code = 0 if os.access(path, os.W_OK) else errno.EACCES
    elif path.exists():
        code = 0  # a FIFO or a device
    elif not parent.is_dir():
        code = errno.ENOTDIR if parent.exists() else errno.ENOENT
    elif not os.access(parent, os.W_OK | os.X_OK):
        code = errno.EACCES
    else:
        code = 0
    if code:
        print(f"cannot write {path}: {os.strerror(code)}", file=sys.stderr)
    return bool(code)


def _write(path: Path, text: str) -> bool:
    """Write an artifact and say so, or report on one stderr line why not."""
    try:
        path.write_text(text)
    except OSError as exc:
        print(f"cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return False
    print(f"wrote {path}")
    return True


def _params_or_exit(parser, n, J, H) -> ModelParams:
    try:
        return ModelParams(n=n, J=J, H=H)
    except ValueError as exc:
        parser.error(str(exc))  # exits 2


def cmd_gap(parser, args) -> int:
    params = _params_or_exit(parser, args.n, args.J, args.H)
    res = second_eigenpair(params)
    structure = vars(eigenvector_structure_report(
        res.second_vector, h=params.H, eigen_separation=res.separation))
    # the sweep columns this point has, under their SweepPoint names
    known = {**vars(params), **vars(res)}
    point = {field: known[field] for _, field, *_ in COLUMNS if field in known}
    if args.format == "json":
        print(json.dumps({**point, "structure": structure}, indent=2))
    else:
        print(f"n={params.n} J={params.J:g} H={params.H:g}")
        for field, value in point.items():
            if field not in vars(params):
                unit = "  (single-site steps)" if field == "t_rel" else ""
                print(f"{field:<7} = {value:.17g}{unit}")
        print("second eigenvector: "
              + " ".join(f"{flag}={value}" for flag, value in structure.items()))
    return EXIT_OK


def _float_text(x: float) -> str:
    """x as :g text where that reads back as x, else as its shortest
    round-trip repr, so a recorded command reruns with the same floats."""
    text = f"{x:g}"
    return text if float(text) == x else repr(x)


def cmd_sweep(parser, args) -> int:
    if not (math.isfinite(args.J_min) and math.isfinite(args.J_max)):
        parser.error("--J-min and --J-max must be finite")
    if args.J_min < 0:
        parser.error("--J-min must be >= 0")
    if args.J_max <= args.J_min:
        parser.error("--J-max must exceed --J-min (descending ranges rejected)")
    if args.J_steps < 2:
        parser.error("--J-steps must be >= 2")
    if not (math.isfinite(args.c) and args.c > 0):
        parser.error("--c must be finite and positive")
    _params_or_exit(parser, args.n, args.J_min, args.H)
    grid = np.linspace(args.J_min, args.J_max, args.J_steps).tolist()
    if len(set(grid)) < args.J_steps:
        parser.error("--J-steps too large: grid couplings coincide")
    path = _output_path(args.output, f"sweep_n{args.n}.{args.format}")
    if _unwritable(path):
        return EXIT_USAGE
    report = sweep_monotonicity(args.n, args.H, grid)
    command = (f"cwglauber sweep --n {args.n} --H {_float_text(args.H)} "
               f"--J-min {_float_text(args.J_min)} "
               f"--J-max {_float_text(args.J_max)} --J-steps {args.J_steps}")
    if args.temperature_view:
        command += f" --temperature-view --c {_float_text(args.c)}"
    c = args.c if args.temperature_view else None
    text = (sweep_to_json(report, command=command) if args.format == "json"
            else sweep_to_csv(report, command=command, temperature_constant=c))
    if not _write(path, text):
        return EXIT_USAGE
    print(f"points: {len(report.points)} computed, {len(report.failures)} failed")
    print(f"monotone: {'true' if report.monotone_in_J else 'false'}")
    print(f"max_violation: {report.max_violation:.17g}")
    positive = [p for p in report.points if p.J > 0]
    if args.temperature_view and positive:
        print(f"temperature view (c={args.c:g}): t_rel nonincreasing in T: "
              f"{json.dumps(monotone_verdict(positive)[0])}")
    if report.failures:
        for fail in report.failures:
            print(f"  failed at J={fail['J']:g}: {fail['error']}", file=sys.stderr)
        return EXIT_PARTIAL
    if args.H == 0.0 and not report.monotone_in_J:
        return EXIT_PROPERTY_FAILURE
    return EXIT_OK


def cmd_verify(parser, args) -> int:
    if args.n > args.n_max_full:
        parser.error(f"verify needs the full 2^n chain: n={args.n} exceeds "
                     f"n_max_full={args.n_max_full}")
    params = _params_or_exit(parser, args.n, args.J, args.H)
    results = run_verification(params, n_max_full=args.n_max_full)
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        if r.status == "skip":
            line = f"{r.name:<{width}}  SKIP    ({r.note})"
        else:
            value = f"{r.value:.3e}" if r.value is not None else "-"
            tol = f"{r.tol:.0e}" if r.tol else "0"
            line = f"{r.name:<{width}}  {r.status.upper():<4}  value={value} tol={tol}"
            if r.status == "fail":
                failed += 1
                if r.note:
                    line += f"  ({r.note})"
        print(line)
    print(f"{'result':<{width}}  {'FAIL' if failed else 'PASS'}  "
          f"({failed} failed, {len(results)} checks)")
    return EXIT_PROPERTY_FAILURE if failed else EXIT_OK


def cmd_simulate(parser, args) -> int:
    if args.steps < MIN_SAMPLES:
        parser.error(f"--steps must be >= {MIN_SAMPLES} for relaxation estimation")
    if args.burn_in < 0 or args.seed < 0:
        parser.error("--burn-in and --seed must be >= 0")
    if args.full and args.n > N_MAX_SIMULATE_FULL:
        parser.error(f"--full needs n <= {N_MAX_SIMULATE_FULL}, got {args.n}")
    params = _params_or_exit(parser, args.n, args.J, args.H)
    path = _output_path(args.output, f"trajectory_n{args.n}_seed{args.seed}.csv")
    if _unwritable(path):
        return EXIT_USAGE
    res = second_eigenpair(params)
    simulate = simulate_full if args.full else simulate_reduced
    traj = simulate(params, seed=args.seed, steps=args.steps, burn_in=args.burn_in)
    if not _write(path, trajectory_to_csv(traj)):
        return EXIT_USAGE
    try:
        est = estimate_relaxation(traj, method=args.method)
    except EstimationError as exc:
        print(f"estimation failed: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    spectral_sweeps = res.t_rel / params.n
    print(f"estimate ({est.method}): t_rel_hat = {est.t_rel_hat:.6g} sweeps, "
          f"stderr = {est.stderr:.3g}"
          + (" [floor-limited: no resolvable dynamics]" if est.floor_limited else ""))
    print(f"spectral: t_rel = {spectral_sweeps:.6g} sweeps "
          f"({res.t_rel:.6g} single-site steps)")
    rel = (f"{abs(est.t_rel_hat - spectral_sweeps) / spectral_sweeps:.2%}"
           if math.isfinite(spectral_sweeps) else "not computed (lambda_2 rounds to 1)")
    print(f"relative deviation from spectral value: {rel}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cwglauber",
        description="Spectral-gap laboratory for mean-field Glauber dynamics")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gap = sub.add_parser("gap", help="gap/relaxation time at one point")
    p_gap.add_argument("--n", type=int, required=True)
    p_gap.add_argument("--J", type=float, required=True)
    p_gap.add_argument("--H", type=float, default=0.0)
    p_gap.add_argument("--format", choices=("text", "json"), default="text")

    p_sweep = sub.add_parser("sweep", help="monotonicity sweep over a J grid")
    p_sweep.add_argument("--n", type=int, required=True)
    p_sweep.add_argument("--H", type=float, default=0.0)
    p_sweep.add_argument("--J-min", type=float, required=True, dest="J_min")
    p_sweep.add_argument("--J-max", type=float, required=True, dest="J_max")
    p_sweep.add_argument("--J-steps", type=int, required=True, dest="J_steps")
    p_sweep.add_argument("--output", default=None)
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.add_argument("--temperature-view", action="store_true")
    p_sweep.add_argument("--c", type=float, default=1.0,
                         help="temperature convention constant, T = c/J")

    p_verify = sub.add_parser("verify", help="run the property suite")
    p_verify.add_argument("--n", type=int, required=True)
    p_verify.add_argument("--J", type=float, required=True)
    p_verify.add_argument("--H", type=float, default=0.0)
    p_verify.add_argument("--n-max-full", type=int, default=N_MAX_FULL,
                          dest="n_max_full")

    p_sim = sub.add_parser("simulate", help="heat-bath run + relaxation estimate")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--J", type=float, required=True)
    p_sim.add_argument("--H", type=float, default=0.0)
    p_sim.add_argument("--steps", type=int, required=True,
                       help="recorded sweeps (n single-site updates each)")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--burn-in", type=int, default=0, dest="burn_in")
    p_sim.add_argument("--full", action="store_true",
                       help="simulate the full configuration chain instead of "
                            "the magnetization chain")
    p_sim.add_argument("--method",
                       choices=("exponential_fit", "integrated_autocorrelation"),
                       default="exponential_fit")
    p_sim.add_argument("--output", default=None)
    # argparse takes only -1 and -.5 forms for negative numbers and reads the
    # -1e-3 of --H -1e-3 as an option; here every number is a value
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan).*", re.I)
    return parser


_COMMANDS = {"gap": cmd_gap, "sweep": cmd_sweep,
             "verify": cmd_verify, "simulate": cmd_simulate}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](parser, args)
    except (EigensolverError, MemoryError) as exc:
        print(f"solver failure: {str(exc) or type(exc).__name__}",
              file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
