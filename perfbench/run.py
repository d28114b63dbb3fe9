"""Benchmark of the cwglauber command-line tool.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One run:

1. draws the workload's command pool from the seed (workloads.py) and
   computes every reference value with the independent oracle (oracle.py);
2. measures set-up: the median of several cold imports of cwglauber.cli,
   each in a fresh interpreter;
3. starts one fresh measuring process (worker.py) that calls
   cwglauber.cli.main(argv) in-process, one client, one command at a time,
   a fixed number of whole pool cycles sized to about S seconds at the
   seed commit's speed, with BLAS threads pinned to the processors
   available;
4. checks every command's output (checks.py) and prints every metric by
   name with its unit, then one JSON line with correct, attempted, failed
   and metrics.

--trace 0 reports the end-to-end metrics.  --trace 1 runs each command
untraced and then traced (spans.py) and reports the per-layer metrics,
with the tracing overhead and coverage.  Each run leaves its full record
in .perfbench_out/.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from checks import (QUALITY_COUNTERS, check_simulate, check_sweep,
                    check_verify)
from oracle import reference_lambda2, reference_t_rel_sweeps
from spans import LAYERS
from workloads import WORKLOADS, command_pool, pool_cycles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Cold imports per run; the median is setup_s.  One import alone spreads
# by a third from run to run.
COLD_IMPORTS = 7
# The whole run must end within 180 s.
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "cmd_s.p50": "s",
    "points_per_s": "points/s",
    "peak_rss_mb": "MiB",
}


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env["PYTHONPATH"] = str(SRC)
    env.pop("CWGLAUBER_OUTPUT_DIR", None)
    return env


def setup_seconds(env) -> float:
    """Median wall time of `import cwglauber.cli` in fresh interpreters.

    One untimed import first writes the bytecode cache, which an installed
    package already has.
    """
    code = ("import time; t = time.perf_counter(); import cwglauber.cli; "
            "print(time.perf_counter() - t)")
    samples = []
    for i in range(COLD_IMPORTS + 1):
        res = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=60,
                             check=True)
        if i:
            samples.append(float(res.stdout))
    return statistics.median(samples)


def references(pool) -> list:
    refs = []
    for e in pool:
        if e.kind == "sweep":
            refs.append([reference_lambda2(e.n, J, e.H) for J in e.J])
        elif e.kind == "simulate":
            refs.append(reference_t_rel_sweeps(e.n, e.J[0], e.H))
        else:
            refs.append(None)
    return refs


def check_all(records, pool, refs) -> list:
    verdicts = []
    first_digest = {}
    for rec in records:
        i = rec["entry"]
        e = pool[i]
        if e.kind == "sweep":
            v = check_sweep(rec, e.J, refs[i])
        elif e.kind == "verify":
            v = check_verify(rec)
        else:
            v = check_simulate(rec, refs[i], first_digest.get(i))
            if rec["output"] is not None:
                first_digest.setdefault(i, rec["output"]["sha256"])
        verdicts.append(v)
    return verdicts


def percentile_info(times) -> str:
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(times)
    if n < 20:
        return f"n={n}: no percentile above p50 has 10 samples beyond it"
    p = int(100 * (1 - 10 / n))
    value = statistics.quantiles(times, n=100, method="inclusive")[p - 1]
    return f"n={n}: p{p} = {value:.6g} s"


def end_to_end_metrics(untraced, pool, setup_s, peak_rss_kib) -> dict:
    by_entry = defaultdict(list)
    for rec in untraced:
        by_entry[rec["entry"]].append(rec["seconds"])
    points = sum(pool[rec["entry"]].points for rec in untraced)
    seconds = sum(rec["seconds"] for rec in untraced)
    # Mean over pool entries of each entry's median: pools mix command
    # shapes of different cost, and a plain median would jump between them.
    p50 = statistics.fmean(statistics.median(t) for t in by_entry.values())
    values = {
        "setup_s": setup_s,
        "cmd_s.p50": p50,
        "points_per_s": points / seconds,
        "peak_rss_mb": peak_rss_kib / 1024.0,
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}


def by_command(spans) -> dict:
    """Spans grouped by command id, each group in start order."""
    groups = defaultdict(list)
    for span in sorted(spans, key=lambda sp: sp[4]):
        groups[span[2]].append(span)
    return groups


def layer_metrics(spans, records, pool) -> dict:
    """Per-layer metrics of the traced commands, normalized per command."""
    traced = [i for i, r in enumerate(records) if r["traced"]]
    ncmd = len(traced)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    dur = defaultdict(float)
    work = defaultdict(float)
    for _, _, _, qual, start, end, s, w in spans:
        self_s[qual] += s
        calls[qual] += 1
        dur[qual] += end - start
        work[qual] += w

    def layer(name, table):
        return sum(v for q, v in table.items() if q.startswith(name + "."))

    def rate(qual):
        return work[qual] / dur[qual] if dur[qual] else 0.0

    m = {}
    for name in LAYERS:
        m[f"{name}.self_s"] = (layer(name, self_s) / ncmd, "s/cmd")
    m["magchain.calls"] = (layer("magchain", calls) / ncmd, "count/cmd")
    for qual in ("spectral.second_eigenpair",
                 "spectral.eigen_symmetric_tridiagonal",
                 "spectral.full_chain_spectrum",
                 "ising.full_transition_matrix", "ising.stationary_full",
                 "verification.run_verification",
                 "perturbation.hellmann_feynman",
                 "perturbation.finite_difference_gap",
                 "perturbation.sign_structure_terms",
                 "perturbation.sweep_monotonicity",
                 "mcmc.estimate_relaxation"):
        m[f"{qual}.self_s"] = (self_s[qual] / ncmd, "s/cmd")
    m["spectral.second_eigenpair.calls"] = (
        calls["spectral.second_eigenpair"] / ncmd, "count/cmd")
    # The tridiagonal solve is its own span, a child of second_eigenpair.
    m["spectral.second_eigenpair.total_s"] = (
        dur["spectral.second_eigenpair"] / ncmd, "s/cmd")
    m["ising.full_chain.bytes"] = (
        work["ising.full_transition_matrix"] / ncmd, "B/cmd")
    m["mcmc.simulate_reduced.site_updates_per_s"] = (
        rate("mcmc.simulate_reduced"), "1/s")
    m["mcmc.simulate_full.site_updates_per_s"] = (
        rate("mcmc.simulate_full"), "1/s")
    m["mcmc.autocovariance.calls"] = (
        calls["mcmc.autocovariance"] / ncmd, "count/cmd")
    m["reports.bytes_out"] = (layer("reports", work) / ncmd, "B/cmd")

    # Eigensolves per sweep point: a point starts at each second_eigenpair
    # called directly by sweep_monotonicity, and owns the solves up to the
    # next one.  The median point is reported; the J = 0 point takes one
    # more solve for its one-sided difference stencil.
    sweeps = {sid for sid, _, _, qual, *_ in spans
              if qual == "perturbation.sweep_monotonicity"}
    per_point = {"h0": [], "h_nonzero": []}
    for cmd, cmd_spans in by_command(spans).items():
        H = pool[records[cmd]["entry"]].H
        counts = per_point["h0" if H == 0.0 else "h_nonzero"]
        in_point = False
        for _, parent, _, qual, *_ in cmd_spans:
            if qual == "spectral.second_eigenpair" and parent in sweeps:
                counts.append(0)
                in_point = True
            elif qual == "spectral.eigen_symmetric_tridiagonal" and in_point:
                counts[-1] += 1
    both = per_point["h0"] + per_point["h_nonzero"]
    m["spectral.eigensolves_per_point"] = (
        statistics.median(both) if both else 0.0, "count/point")
    for key, counts in per_point.items():
        m[f"spectral.eigensolves_per_point.{key}"] = (
            statistics.median(counts) if counts else 0.0, "count/point")

    traced_s = sum(records[i]["seconds"] for i in traced)
    untraced_s = sum(r["seconds"] for r in records if not r["traced"])
    m["trace_overhead"] = (traced_s / untraced_s - 1.0, "ratio")
    m["trace_coverage"] = (sum(self_s.values()) / traced_s, "ratio")
    return m


def quality_metrics(verdicts) -> dict:
    n = len(verdicts)
    m = {name: (sum(v.counts[name] for v in verdicts) / n, "count/cmd")
         for name in QUALITY_COUNTERS}
    m["perturbation.hf_fd_rel_diff.max"] = (
        max(v.hf_fd_rel_diff for v in verdicts), "ratio")
    return m


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "cwglauber").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def package_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="shrink every size (self-test only)")
    args = ap.parse_args(argv)
    if not (SRC / "cwglauber" / "cli.py").is_file():
        print(f"error: no package source at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    env = child_env(nproc)
    pool = command_pool(args.workload, args.seed, smoke=args.smoke)
    refs = references(pool)
    setup_s = None if args.trace else setup_seconds(env)

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    spans_path = OUT / f"{args.workload}-spans.jsonl"
    cycles = pool_cycles(args.workload, len(pool), args.seconds,
                         2 if args.trace else 1)
    job = {"src": str(SRC), "workdir": str(workdir), "trace": args.trace,
           "cycles": cycles, "spans": str(spans_path),
           "pool": [{"kind": e.kind, "argv": list(e.argv)} for e in pool]}
    try:
        (workdir / "job.json").write_text(json.dumps(job))
        start = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "worker.py"),
                        str(workdir / "job.json"), str(workdir / "result.json")],
                       env=env, cwd=workdir, timeout=WORKER_TIMEOUT_S,
                       check=True)
        run_wall = time.perf_counter() - start
        result = json.loads((workdir / "result.json").read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = result["records"]
    verdicts = check_all(records, pool, refs)
    attempted = len(records)
    failed = sum(v.failed for v in verdicts)
    correct = not any(v.wrong for v in verdicts)

    untraced = [r for r in records if not r["traced"]]
    quality = quality_metrics(verdicts)
    if args.trace:
        spans = [json.loads(ln) for ln in spans_path.read_text().splitlines()]
        reported = {**layer_metrics(spans, records, pool), **quality}
        printed = dict(reported)
    else:
        reported = end_to_end_metrics(untraced, pool, setup_s,
                                      result["peak_rss_kib"])
        printed = {**reported, **quality}
        updates = sum(pool[r["entry"]].site_updates for r in untraced)
        if updates:
            printed["site_updates_per_s"] = (
                updates / sum(r["seconds"] for r in untraced), "1/s")
    printed["failed_ratio"] = (failed / attempted, "ratio")

    provenance = dict(result["provenance"], package_commit=package_commit(),
                      source_sha256=source_digest(), nproc=nproc,
                      workload=args.workload, workload_seed=args.seed)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} commands in {cycles} pool cycles of "
          f"{len(pool)}, one client, closed loop, worker wall {run_wall:.3f} s")
    for name, (value, unit) in printed.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print("info cmd_s " + percentile_info([r["seconds"] for r in untraced]))
    for rec, v in zip(records, verdicts):
        if v.failed:
            print(f"failed {' '.join(pool[rec['entry']].argv)}: "
                  f"{'; '.join(v.reasons)}")
    print("provenance " + json.dumps(provenance))

    summary = {"correct": correct, "attempted": attempted, "failed": failed,
               "metrics": {k: {"value": v, "unit": u}
                           for k, (v, u) in reported.items()}}
    record_name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / record_name).write_text(json.dumps(
        {"provenance": provenance, "summary": summary,
         "commands": [{"argv": pool[r["entry"]].argv, "traced": r["traced"],
                       "rc": r["rc"], "seconds": r["seconds"],
                       "failed": v.reasons}
                      for r, v in zip(records, verdicts)]}, indent=1))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
