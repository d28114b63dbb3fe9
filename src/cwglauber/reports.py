"""CSV/JSON serialization of sweep reports and trajectories.

Sweep CSV layout: `#`-prefixed metadata lines (format version, the command
line when known, a timestamp, the monotonicity verdict and worst violation,
recorded per-point failures), then the header

    n,J,H,lambda2,gap,t_rel,hf_derivative,fd_derivative,sign_ok

and one row per grid point.  Floats are printed with 17 significant digits so
that re-parsing reproduces the in-memory report exactly; sign_ok is
true/false, or skipped for H != 0 points.  With a temperature constant a
trailing T = c/J column is appended (a derived view; parsers ignore it).

Trajectory CSV is a single magnetization column under one metadata comment
carrying (n, J, H, seed, sweeps, burn_in).  It contains no timestamp, so
identical runs produce byte-identical files.  Version 2 marks the reduced
simulator's one-uniform-per-sweep stream for n <= N_MAX_SWEEP_KERNEL; the
layout is unchanged, so the reader takes v1 and v2 alike.

The JSON form mirrors the SweepReport field names verbatim.
"""

import json
import math
from datetime import datetime, timezone

import numpy as np

from .ising import ModelParams
from .mcmc import Trajectory
from .perturbation import SweepPoint, SweepReport

SWEEP_HEADER = "n,J,H,lambda2,gap,t_rel,hf_derivative,fd_derivative,sign_ok"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_sign(ok) -> str:
    if ok is None:
        return "skipped"
    return "true" if ok else "false"


def _parse_sign(s: str):
    return {"true": True, "false": False, "skipped": None}[s]


def sweep_to_csv(report: SweepReport, command: str | None = None,
                 temperature_constant: float | None = None) -> str:
    lines = ["# cwglauber sweep v1"]
    if command:
        lines.append(f"# command: {command}")
    lines.append("# timestamp: "
                 + datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"))
    lines.append(f"# monotone_in_J: {'true' if report.monotone_in_J else 'false'}")
    lines.append(f"# max_violation: {_fmt(report.max_violation)}")
    lines.append(f"# failures: {json.dumps(report.failures)}")
    header = SWEEP_HEADER + (",T" if temperature_constant is not None else "")
    lines.append(header)
    for p in report.points:
        row = [str(p.n), _fmt(p.J), _fmt(p.H), _fmt(p.lambda2), _fmt(p.gap),
               _fmt(p.t_rel), _fmt(p.hf_derivative), _fmt(p.fd_derivative),
               _fmt_sign(p.sign_terms_ok)]
        if temperature_constant is not None:
            T = temperature_constant / p.J if p.J > 0 else math.inf
            row.append(_fmt(T))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def sweep_from_csv(text: str) -> SweepReport:
    monotone = None
    max_violation = None
    failures = []
    points = []
    saw_header = False
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("monotone_in_J:"):
                monotone = body.split(":", 1)[1].strip() == "true"
            elif body.startswith("max_violation:"):
                max_violation = float(body.split(":", 1)[1])
            elif body.startswith("failures:"):
                failures = json.loads(body.split(":", 1)[1])
            continue
        if not saw_header:
            if not line.startswith("n,"):
                raise ValueError(f"expected sweep CSV header, got {line!r}")
            saw_header = True
            continue
        cells = line.split(",")
        points.append(SweepPoint(
            n=int(cells[0]), J=float(cells[1]), H=float(cells[2]),
            lambda2=float(cells[3]), gap=float(cells[4]), t_rel=float(cells[5]),
            hf_derivative=float(cells[6]), fd_derivative=float(cells[7]),
            sign_terms_ok=_parse_sign(cells[8])))
    if monotone is None or max_violation is None or not saw_header:
        raise ValueError("not a cwglauber sweep CSV")
    return SweepReport(points=points, monotone_in_J=monotone,
                       max_violation=max_violation, failures=failures)


def sweep_to_json(report: SweepReport, command: str | None = None) -> str:
    doc = {
        "format": "cwglauber-sweep",
        "version": 1,
        "points": [{
            "J": p.J, "H": p.H, "n": p.n, "lambda2": p.lambda2, "gap": p.gap,
            "t_rel": p.t_rel, "hf_derivative": p.hf_derivative,
            "fd_derivative": p.fd_derivative, "sign_terms_ok": p.sign_terms_ok,
        } for p in report.points],
        "monotone_in_J": report.monotone_in_J,
        "max_violation": report.max_violation,
        "failures": report.failures,
    }
    if command:
        doc["command"] = command
    return json.dumps(doc, indent=2)


def sweep_from_json(text: str) -> SweepReport:
    doc = json.loads(text)
    if doc.get("format") != "cwglauber-sweep":
        raise ValueError("not a cwglauber sweep JSON document")
    points = [SweepPoint(**{k: d[k] for k in
                            ("J", "H", "n", "lambda2", "gap", "t_rel",
                             "hf_derivative", "fd_derivative", "sign_terms_ok")})
              for d in doc["points"]]
    return SweepReport(points=points, monotone_in_J=doc["monotone_in_J"],
                       max_violation=doc["max_violation"],
                       failures=doc.get("failures", []))


def trajectory_to_csv(traj: Trajectory) -> str:
    p = traj.params
    header = (f"# cwglauber trajectory v2 n={p.n} J={_fmt(p.J)} H={_fmt(p.H)} "
              f"seed={traj.seed} sweeps={traj.sweeps} burn_in={traj.burn_in}")
    # m = 2k - n takes at most n + 1 values: format each once, look them up
    m = traj.samples.astype(np.int64)
    lo = int(m.min(initial=0))
    m -= lo
    table = [f"{v}\n" for v in range(lo, lo + int(m.max(initial=0)) + 1)]
    return header + "\nm\n" + "".join([table[i] for i in m.tolist()])


def trajectory_from_csv(text: str) -> Trajectory:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("# cwglauber trajectory"):
        raise ValueError("not a cwglauber trajectory CSV")
    meta = dict(tok.split("=", 1) for tok in lines[0].split() if "=" in tok)
    params = ModelParams(n=int(meta["n"]), J=float(meta["J"]), H=float(meta["H"]))
    if lines[1] != "m":
        raise ValueError("expected magnetization column header 'm'")
    samples = np.array([float(v) for v in lines[2:]])
    return Trajectory(params=params, seed=int(meta["seed"]),
                      burn_in=int(meta["burn_in"]), samples=samples)
