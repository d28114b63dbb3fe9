"""One benchmark run's measuring process: a fresh interpreter per run.

Usage: python3 worker.py JOB.json RESULT.json

Runs the job's command pool through ``cwglauber.cli.main(argv)``
in-process, one command after another, for the job's fixed number of
whole pool cycles.  Only the call to ``main`` is timed; reading the
command's output back happens after it.  With tracing on, every command runs
twice in a row, untraced and then traced, so the overhead compares the same
work; spans are written out when the run ends.
"""

import contextlib
import ctypes
import hashlib
import io
import json
import platform
import resource
import sys
import time
from pathlib import Path


def blas_info() -> list:
    """Name, version and thread count of every OpenBLAS loaded here.

    numpy and scipy may each carry their own build; both are reported.
    The libraries are found through the process's own memory map.
    """
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return []
    libs = sorted({ln.split()[-1] for ln in maps.splitlines()
                   if "openblas" in ln.rsplit("/", 1)[-1].lower()})
    out = []
    for path in libs:
        lib = ctypes.CDLL(path)
        info = {"library": path.rsplit("/", 1)[-1]}
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    config.restype = ctypes.c_char_p
                    info["config"] = config().decode()
                    info["threads"] = int(threads())
                    break
            if "threads" in info:
                break
        out.append(info)
    return out


def run_command(cli, argv):
    """(exit code, seconds, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # recorded as a failed command
            rc = None
            err.write(f"uncaught {type(exc).__name__}: {exc}\n")
        seconds = time.perf_counter() - start
    return rc, seconds, out.getvalue(), err.getvalue()


def read_output(kind, path: Path):
    """Sweep CSV text, or the digest and size of a trajectory CSV."""
    if not path.is_file():
        return None
    if kind == "sweep":
        return path.read_text()
    data = path.read_bytes()
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def main(job_path, result_path):
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, job["src"])
    import numpy
    import scipy
    import cwglauber
    from cwglauber import cli

    tracer = None
    if job["trace"]:
        from spans import Tracer
        tracer = Tracer(cwglauber)

    workdir = Path(job["workdir"])
    pool = job["pool"]
    passes = (False, True) if tracer else (False,)
    records = []
    for _ in range(job["cycles"]):
        for i, entry in enumerate(pool):
            argv = list(entry["argv"])
            out_path = workdir / f"entry{i}.csv"
            if entry["kind"] != "verify":
                argv += ["--output", str(out_path)]
            for traced in passes:
                out_path.unlink(missing_ok=True)
                if traced:
                    tracer.command = len(records)
                    tracer.install()
                try:
                    rc, seconds, out, err = run_command(cli, argv)
                finally:
                    if traced:
                        tracer.uninstall()
                records.append({"entry": i, "traced": traced, "rc": rc,
                                "seconds": seconds, "stdout": out,
                                "stderr": err,
                                "output": read_output(entry["kind"], out_path)})

    result = {
        "records": records,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "provenance": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "cwglauber": cwglauber.__version__,
            "blas": blas_info(),
        },
    }
    if tracer:
        spans_path = Path(job["spans"])
        with spans_path.open("w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
