"""Correctness checks and quality counters read from command outputs.

Every command gets a verdict: ``failed`` when it breaks any check, and
``wrong`` when what it printed or wrote contradicts the independent
reference (a lambda_2 or t_rel off the oracle, a trajectory that does not
repeat byte for byte, a success without its artifact).  A command that
reports a property failure through its documented exit code fails without
being wrong: the program said so itself.  Known defects therefore show in
the failed count and never in a re-drawn or filtered workload.
"""

import json
import math
import re

# Tolerances the benchmark holds the program to.
LAMBDA2_ABS_TOL = 1e-10
T_REL_REL_TOL = 1e-9
DOCUMENTED_EXIT_CODES = (0, 1, 2, 3, 4)
# verify accepts |hf - fd| <= max(1e-8, 1e-6 |fd|); dividing by
# max(|fd|, 1e-2) puts that whole test on one relative scale (limit 1e-6).
HF_FD_SCALE_FLOOR = 1e-2

QUALITY_COUNTERS = (
    "perturbation.sign_false_points",
    "perturbation.failed_points",
    "spectral.gap_zero_points",
    "verification.failed_checks",
    "mcmc.estimation_errors",
)


class Verdict:
    """Outcome of the checks on one command, plus its quality counts."""

    def __init__(self):
        self.reasons = []
        self.wrong = False
        self.counts = dict.fromkeys(QUALITY_COUNTERS, 0)
        self.hf_fd_rel_diff = 0.0

    @property
    def failed(self) -> bool:
        return bool(self.reasons)

    def fail(self, reason, wrong=False):
        self.reasons.append(reason)
        self.wrong = self.wrong or wrong


def _exit_code(verdict, rc):
    if rc is None:
        verdict.fail("uncaught exception")
    elif rc not in DOCUMENTED_EXIT_CODES:
        verdict.fail(f"undocumented exit code {rc}")
    elif rc != 0:
        verdict.fail(f"exit code {rc}, expected 0")


def parse_sweep_csv(text):
    """(failures, rows) of a sweep CSV; rows are dicts keyed by the header."""
    failures, rows, header = None, [], None
    for line in text.splitlines():
        if line.startswith("# failures:"):
            failures = json.loads(line.split(":", 1)[1])
        elif line.startswith("#") or not line.strip():
            continue
        elif header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, line.split(","))))
    if failures is None or header is None:
        raise ValueError("not a sweep CSV")
    return failures, rows


def check_sweep(record, grid, ref_lambda2):
    """Exit code, recorded point failures, and every lambda2 vs the oracle
    at each point of the J grid."""
    v = Verdict()
    _exit_code(v, record["rc"])
    text = record["output"]
    if text is None:
        v.fail("no sweep CSV written", wrong=record["rc"] == 0)
        return v
    try:
        failures, rows = parse_sweep_csv(text)
    except ValueError as exc:
        v.fail(str(exc), wrong=True)
        return v
    if failures:
        v.counts["perturbation.failed_points"] = len(failures)
        v.fail(f"{len(failures)} failed points")
    done = {float(r["J"]): r for r in rows}
    for J, ref in zip(grid, ref_lambda2):
        row = done.get(J)
        if row is None:
            if not failures:
                v.fail(f"no row for J={J!r}", wrong=True)
            continue
        lam = float(row["lambda2"])
        if not abs(lam - ref) <= LAMBDA2_ABS_TOL:
            v.fail(f"lambda2 {lam!r} vs reference {ref!r} at J={J!r}", wrong=True)
        if row["sign_ok"] == "false":
            v.counts["perturbation.sign_false_points"] += 1
        if float(row["gap"]) <= 0.0:
            v.counts["spectral.gap_zero_points"] += 1
        hf, fd = float(row["hf_derivative"]), float(row["fd_derivative"])
        rel = abs(hf - fd) / max(abs(fd), HF_FD_SCALE_FLOOR)
        v.hf_fd_rel_diff = max(v.hf_fd_rel_diff, rel)
    if len(rows) + len(failures) != len(grid):
        v.fail(f"{len(rows)} rows for a {len(grid)}-point grid", wrong=True)
    return v


def check_verify(record):
    """Exit code and a final PASS line; counts the individual FAIL checks."""
    v = Verdict()
    _exit_code(v, record["rc"])
    lines = record["stdout"].strip().splitlines()
    v.counts["verification.failed_checks"] = sum(
        1 for ln in lines[:-1] if ln.split()[1:2] == ["FAIL"])
    last = lines[-1].split() if lines else []
    if last[:2] != ["result", "PASS"]:
        v.fail("verify did not end in PASS")
    return v


_SPECTRAL = re.compile(r"^spectral: t_rel = (\S+) sweeps", re.M)


def t_rel_tolerance(ref):
    """The CLI prints t_rel with 6 significant digits: allow that rounding
    on top of the relative tolerance."""
    if not math.isfinite(ref) or ref == 0:
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(ref))) - 5) + T_REL_REL_TOL * abs(ref)


def check_simulate(record, ref_t_rel, first_digest):
    """Exit code, the printed spectral t_rel, and trajectory repeatability.

    first_digest is the trajectory digest of this command's first run in the
    process, or None if this is the first.
    """
    v = Verdict()
    _exit_code(v, record["rc"])
    if "estimation failed" in record["stderr"]:
        v.counts["mcmc.estimation_errors"] = 1
    out = record["output"]
    if out is None:
        v.fail("no trajectory written", wrong=True)
    elif first_digest is not None and out["sha256"] != first_digest:
        v.fail("repeated seed gave a different trajectory", wrong=True)
    m = _SPECTRAL.search(record["stdout"])
    if m is None:
        if record["rc"] == 0:
            v.fail("no spectral t_rel printed", wrong=True)
    else:
        t_rel = float(m.group(1))
        if not abs(t_rel - ref_t_rel) <= t_rel_tolerance(ref_t_rel):
            v.fail(f"t_rel {t_rel!r} vs reference {ref_t_rel!r}", wrong=True)
    return v
