"""Self-test of the benchmark.

Usage: python3 perfbench/selftest.py   (from the root of a checkout)

1. Runs every workload at reduced size (--smoke), untraced and traced, and
   checks that each metric BENCHMARK.json names for that mode is printed
   with its unit, along with failed_ratio on every run and
   site_updates_per_s on the untraced simulate run.
2. Feeds corrupted outputs of real commands to the checks (a perturbed
   lambda2, a missing PASS, a changed trajectory, a wrong t_rel) and checks
   that each is counted as failed.
3. Runs the benchmark in a directory holding only BENCHMARK.json and the
   benchmark's files, where it must exit non-zero without a result.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import checks
from oracle import reference_lambda2, reference_t_rel_sweeps
from workloads import WORKLOADS, command_pool

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
FAILURES = []


def expect(cond, what):
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        FAILURES.append(what)


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
         "--smoke"], cwd=cwd, capture_output=True, text=True, timeout=170)


def smoke_pass():
    printed_line = re.compile(r"^metric (\S+) = \S+ (\S+)$", re.M)
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = run_bench(workload, trace)
            tag = f"{workload} trace {trace}"
            expect(res.returncode == 0, f"{tag}: exit 0 ({res.stderr[-300:]})")
            if res.returncode:
                continue
            summary = json.loads(res.stdout.strip().splitlines()[-1])
            printed = dict(printed_line.findall(res.stdout))
            expect(summary["correct"] and summary["attempted"] >= 1,
                   f"{tag}: correct with at least one command")
            for metric in SPEC[key]:
                got = summary["metrics"].get(metric["name"], {})
                expect(got.get("unit") == metric["unit"]
                       and printed.get(metric["name"]) == metric["unit"],
                       f"{tag}: {metric['name']} printed in {metric['unit']}")
            wanted = ["failed_ratio"]
            if workload.startswith("simulate") and not trace:
                wanted.append("site_updates_per_s")
            for name in wanted:
                expect(name in printed, f"{tag}: {name} printed")


def corrupted_outputs(workdir):
    sys.path.insert(0, str(ROOT / "src"))
    from cwglauber import cli
    from worker import read_output, run_command

    def record(entry, path):
        argv = list(entry.argv)
        if entry.kind != "verify":
            argv += ["--output", str(path)]
        rc, seconds, out, err = run_command(cli, argv)
        return {"rc": rc, "seconds": seconds, "stdout": out, "stderr": err,
                "output": read_output(entry.kind, path)}

    sweep = command_pool("sweep-n12", 1, smoke=True)[1]
    refs = [reference_lambda2(sweep.n, J, sweep.H) for J in sweep.J]
    rec = record(sweep, workdir / "sweep.csv")
    expect(not checks.check_sweep(rec, sweep.J, refs).failed, "sweep passes as run")
    lines = rec["output"].splitlines()
    row = next(i for i, ln in enumerate(lines) if ln.startswith("12,"))
    cells = lines[row].split(",")
    cells[3] = repr(float(cells[3]) + 1e-9)
    bad = dict(rec, output="\n".join(lines[:row] + [",".join(cells)] + lines[row + 1:]))
    v = checks.check_sweep(bad, sweep.J, refs)
    expect(v.failed and v.wrong, "perturbed lambda2 counted as failed")

    verify = command_pool("verify-n12", 1, smoke=True)[0]
    rec = record(verify, workdir / "unused")
    expect(not checks.check_verify(rec).failed, "verify passes as run")
    bad = dict(rec, stdout="\n".join(rec["stdout"].splitlines()[:-1]))
    expect(checks.check_verify(bad).failed, "verify without PASS counted as failed")

    sim = command_pool("simulate-n10", 1, smoke=True)[0]
    ref = reference_t_rel_sweeps(sim.n, sim.J[0], sim.H)
    rec = record(sim, workdir / "traj.csv")
    digest = rec["output"]["sha256"]
    expect(not checks.check_simulate(rec, ref, digest).failed,
           "simulate passes as run")
    bad = dict(rec, output=dict(rec["output"], sha256="0" * 64))
    expect(checks.check_simulate(bad, ref, digest).failed,
           "changed trajectory counted as failed")
    expect(checks.check_simulate(rec, ref * (1 + 1e-4), digest).failed,
           "wrong spectral t_rel counted as failed")


def bare_directory(bare):
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    res = run_bench("sweep-n12", 0, cwd=bare)
    expect(res.returncode != 0 and "correct" not in res.stdout,
           "without the package source: non-zero exit, no result")


def main():
    scratch = ROOT / ".perfbench_out" / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        smoke_pass()
        corrupted_outputs(scratch)
        bare_directory(scratch / "bare")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
