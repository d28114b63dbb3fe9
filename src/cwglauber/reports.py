"""CSV/JSON serialization of sweep reports and trajectories.

``COLUMNS`` is the one definition of a sweep point's fields on disk.  A sweep
CSV holds `#`-prefixed metadata lines (format version, the command line when
known, a timestamp, then the ``_VERDICT`` fields of the report), a header of
the column names and one row per grid point.  Floats are printed with 17
significant digits so that re-parsing reproduces the in-memory report
exactly.  With a temperature constant a trailing T = c/J column is appended
(a derived view; parsers ignore it).  The JSON form holds the fields of the
report and of its points, keyed and ordered as the dataclasses declare them.

Trajectory CSV is a single magnetization column under one metadata comment
carrying (n, J, H, seed, sweeps, burn_in).  It contains no timestamp, so
identical runs produce byte-identical files.  Version 2 marks the reduced
simulator's one-uniform-per-sweep stream for n <= N_MAX_SWEEP_KERNEL; the
layout is unchanged, so the reader takes v1 and v2 alike.
"""

import json
import math
import re
import warnings
from dataclasses import fields
from datetime import datetime, timezone

import numpy as np

from .ising import ModelParams
from .mcmc import Trajectory
from .perturbation import SweepPoint, SweepReport


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


_SIGN = {True: "true", False: "false", None: "skipped"}

# A sweep point's fields in CSV column order: (CSV name, SweepPoint field,
# str.format spec or a value -> text table, parser).
COLUMNS = (
    ("n", "n", "", int),
    ("J", "J", ".17g", float),
    ("H", "H", ".17g", float),
    ("lambda2", "lambda2", ".17g", float),
    ("gap", "gap", ".17g", float),
    ("t_rel", "t_rel", ".17g", float),
    ("hf_derivative", "hf_derivative", ".17g", float),
    ("fd_derivative", "fd_derivative", ".17g", float),
    ("sign_ok", "sign_terms_ok", _SIGN,
     {text: ok for ok, text in _SIGN.items()}.__getitem__),
)

# A sweep's verdict, one "# field: value" metadata line each:
# (SweepReport field, formatter, parser).
_VERDICT = (
    ("monotone_in_J", json.dumps, json.loads),
    ("max_violation", _fmt, float),
    ("failures", json.dumps, json.loads),
)

_HEADER = ",".join(name for name, *_ in COLUMNS)
# One str.format template per row, so a row costs one call, not one per cell.
_ROW = ",".join(f"{{{field}:{spec}}}" if isinstance(spec, str)
                else f"{{{field}}}" for _, field, spec, _ in COLUMNS)
_TEXTS = [(field, texts) for _, field, texts, _ in COLUMNS
          if not isinstance(texts, str)]


def sweep_to_csv(report: SweepReport, command: str | None = None,
                 temperature_constant: float | None = None) -> str:
    lines = ["# cwglauber sweep v1"]
    if command:
        lines.append(f"# command: {command}")
    lines.append("# timestamp: "
                 + datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"))
    lines += [f"# {field}: {fmt(getattr(report, field))}"
              for field, fmt, _ in _VERDICT]
    header, row = _HEADER, _ROW
    if temperature_constant is not None:
        header, row = header + ",T", row + ",{T:.17g}"
    lines.append(header)
    for p in report.points:
        cells = vars(p).copy()
        for field, texts in _TEXTS:
            cells[field] = texts[cells[field]]
        if temperature_constant is not None:
            cells["T"] = temperature_constant / p.J if p.J > 0 else math.inf
        lines.append(row.format_map(cells))
    return "\n".join(lines) + "\n"


def sweep_from_csv(text: str) -> SweepReport:
    """Parse ``sweep_to_csv``'s output; ValueError on anything else."""
    parse_verdict = {field: parse for field, _, parse in _VERDICT}
    verdict, points, width = {}, [], None
    for line in filter(None, map(str.strip, text.splitlines())):
        if line.startswith("#"):
            key, _, value = map(str.strip, line[1:].partition(":"))
            if key in parse_verdict:
                verdict[key] = parse_verdict[key](value)
        elif width is None:
            if line not in (_HEADER, _HEADER + ",T"):
                raise ValueError(f"expected sweep CSV header, got {line!r}")
            width = line.count(",")
        elif line.count(",") != width:
            raise ValueError(f"expected {width + 1} cells, got {line!r}")
        else:
            try:
                points.append(SweepPoint(**{
                    field: parse(cell) for (_, field, _, parse), cell
                    in zip(COLUMNS, line.split(","))}))
            except KeyError as exc:  # text outside a column's table
                raise ValueError(f"unknown value {exc} in {line!r}") from None
    if width is None or verdict.keys() != parse_verdict.keys():
        raise ValueError("not a cwglauber sweep CSV")
    return SweepReport(points=points, **verdict)


def sweep_to_json(report: SweepReport, command: str | None = None) -> str:
    doc = {"format": "cwglauber-sweep", "version": 1, **vars(report),
           "points": [vars(p) for p in report.points]}
    if command:
        doc["command"] = command
    return json.dumps(doc, indent=2)


def sweep_from_json(text: str) -> SweepReport:
    """Parse ``sweep_to_json``'s output; ValueError on anything else."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("format") != "cwglauber-sweep":
        raise ValueError("not a cwglauber sweep JSON document")
    report = {f.name: doc[f.name] for f in fields(SweepReport) if f.name in doc}
    try:
        points = [SweepPoint(**d) for d in report.pop("points")]
        return SweepReport(points=points, **report)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed cwglauber sweep JSON: {exc!r}") from None


# Samples trajectory_to_csv looks up at a time: its temporaries beside the
# text it returns are an index array and a list of strings of this length.
CSV_CHUNK = 65536


def trajectory_to_csv(traj: Trajectory) -> str:
    p = traj.params
    header = (f"# cwglauber trajectory v2 n={p.n} J={_fmt(p.J)} H={_fmt(p.H)} "
              f"seed={traj.seed} sweeps={traj.sweeps} burn_in={traj.burn_in}")
    # m = 2k - n takes at most n + 1 values: format each once, look them up,
    # CSV_CHUNK samples at a time
    m = traj.samples
    lo = int(m.min(initial=0))
    table = np.array([f"{v}\n" for v in range(lo, int(m.max(initial=0)) + 1)],
                     dtype=object)
    parts = [header, "\nm\n"]
    for a in range(0, len(m), CSV_CHUNK):
        index = m[a:a + CSV_CHUNK].astype(np.intp)
        index -= lo
        parts.append("".join(table[index].tolist()))
    return "".join(parts)


# The header comment and the column name, each after any blank lines.
_HEAD = re.compile(r"\s*^(# cwglauber trajectory.*)$\s*^m\r?$", re.M)
_TWO_VALUES = re.compile(r"\S[^\S\n]+\S")


def trajectory_from_csv(text: str) -> Trajectory:
    """Parse ``trajectory_to_csv``'s output; ValueError on anything else.
    The values are parsed as one array, with no string per line."""
    head = _HEAD.match(text)
    if not head or _TWO_VALUES.search(text, head.end()):
        raise ValueError("not a cwglauber trajectory CSV of one value per line")
    meta = dict(tok.split("=", 1) for tok in head[1].split() if "=" in tok)
    body = text[head.end():]
    try:
        with warnings.catch_warnings():  # NumPy 1.x warns and truncates
            warnings.simplefilter("error", DeprecationWarning)
            # np.fromstring reads a blank text as [-1.]
            samples = np.empty(0) if body.isspace() else np.fromstring(body, sep="\n")
        params = ModelParams(n=int(meta["n"]), J=float(meta["J"]),
                             H=float(meta["H"]))
        return Trajectory(params=params, seed=int(meta["seed"]),
                          burn_in=int(meta["burn_in"]), samples=samples)
    except KeyError as exc:
        raise ValueError(f"trajectory header lacks {exc}") from None
    except DeprecationWarning as exc:
        raise ValueError(str(exc)) from None
