"""The four CLI workloads and the command pools they draw from a seed.

A run cycles through a small pool of commands, one at a time, in a closed
loop with a single client.  The workload seed draws only the parameter
values each workload names; n, grid lengths and step counts are fixed.
Pool entries repeat within a run: that is what lets the byte-identical
trajectory check run, and every reference value is computed once per
parameter point, before the timed loop.

``smoke`` shrinks every size so the self-test can run all four workloads in
seconds; the benchmark proper always runs at full size.
"""

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Entry:
    """One command shape of a pool and what a correct run of it yields."""

    kind: str            # "sweep", "verify" or "simulate"
    argv: tuple
    n: int
    H: float
    J: tuple = ()        # the J grid of a sweep, the single J otherwise
    points: int = 1      # parameter points the command analyses
    site_updates: int = 0


def _fmt(x: float) -> str:
    return repr(float(x))


def _sweep(n, H, j_max, steps):
    # The CLI builds its grid with numpy.linspace from the parsed floats;
    # repr round-trips exactly, so this grid is the one it evaluates.
    import numpy as np
    grid = tuple(float(j) for j in np.linspace(0.0, j_max, steps))
    argv = ("sweep", "--n", str(n), "--H", _fmt(H), "--J-min", "0",
            "--J-max", _fmt(j_max), "--J-steps", str(steps))
    return Entry(kind="sweep", argv=argv, n=n, H=H, J=grid, points=steps)


def sweep_n1000(rng, smoke):
    n = 60 if smoke else 1000
    return [_sweep(n, 0.0, rng.uniform(1.5, 2.5) / n, 16) for _ in range(2)]


def sweep_n12(rng, smoke):
    steps = 21 if smoke else 241
    pool = []
    for i in range(8):
        H = 0.0 if i % 2 == 0 else rng.uniform(0.05, 0.3)
        pool.append(_sweep(12, H, rng.uniform(0.5, 0.7), steps))
    return pool


def verify_n12(rng, smoke):
    n = 6 if smoke else 12
    pool = []
    for H in (0.0, rng.uniform(0.05, 0.3)):
        J = rng.uniform(0.0, 0.6)
        argv = ("verify", "--n", str(n), "--J", _fmt(J), "--H", _fmt(H))
        pool.append(Entry(kind="verify", argv=argv, n=n, H=H, J=(J,)))
    return pool


def simulate_n10(rng, smoke):
    n, J, steps = 10, 0.08, (20_000 if smoke else 1_000_000)
    seed = rng.randrange(2 ** 31)
    pool = []
    for full in (False, True):
        argv = ("simulate", "--n", str(n), "--J", _fmt(J), "--H", "0",
                "--steps", str(steps), "--seed", str(seed))
        if full:
            argv += ("--full",)
        pool.append(Entry(kind="simulate", argv=argv, n=n, H=0.0, J=(J,),
                          site_updates=n * steps))
    return pool


# Seconds one command of each workload took at the seed commit (2-vCPU
# host, 2 BLAS threads).  They fix how many pool cycles a run makes for a
# given --seconds, so that the commands run, and with them the attempted
# and failed counts, depend on the seed alone and not on the host's speed.
NOMINAL_COMMAND_S = {
    "sweep-n1000": 5.2,
    "sweep-n12": 0.40,
    "verify-n12": 5.1,
    "simulate-n10": 2.9,
}

WORKLOADS = {
    "sweep-n1000": sweep_n1000,
    "sweep-n12": sweep_n12,
    "verify-n12": verify_n12,
    "simulate-n10": simulate_n10,
}


def pool_cycles(workload: str, pool_size: int, seconds: float,
                passes: int) -> int:
    """Pool cycles of a run: about `seconds` of command time at the nominal
    cost, and at least two runs of every entry, so a repeated simulate
    seed is always checked for a byte-identical trajectory."""
    nominal = passes * pool_size * NOMINAL_COMMAND_S[workload]
    return max(-(-2 // passes), round(seconds / nominal))


def command_pool(workload: str, seed: int, smoke: bool = False) -> list:
    """The commands one run of `workload` cycles through, drawn from `seed`."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), smoke)
