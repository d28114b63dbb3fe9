"""Eigenvalue perturbation in the coupling and monotonicity sweeps.

For a reversible chain M(J) with stationary law pi and a pi-normalized
eigenpair (lambda, f), the derivative of the eigenvalue is the expectation of
the derivative of the chain in the eigenvector:

    d lambda / dJ = <f, (dM/dJ) f>_pi.

Applied to the magnetization chain this gives the coupling derivative of
lambda_2 from purely local data, and at H = 0 the summand decomposes into the
per-level terms

    f_0 s_n (f_1 - f_0),
    f_k [ -s_k (f_k - f_{k-1}) + s_{n-k} (f_{k+1} - f_k) ],   1 <= k <= n-1,
    f_n [ -s_n (f_n - f_{n-1}) ],

each individually nonnegative for the increasing eigenvector, which is the
mechanism behind the monotonicity of the spectral gap in the coupling.

A central finite difference of lambda_2 serves as the independent oracle for
the identity; sweeps over a J grid assemble everything into a report that
also carries the temperature view t_rel(T) with T = c/J.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .ising import ModelParams
from .magchain import derivative_matrix
from .spectral import (relaxation, second_eigenpairs, shape_measures,
                       usability_errors)

# lambda_2 varies with J on the scale 1/n, so a default step of
# FD_DELTA_DEFAULT / n balances central-difference truncation against
# eigensolver rounding at double precision at every n.
FD_DELTA_DEFAULT = 1e-5

# Decrements of lambda_2 along a sweep below this are rounding, not
# violations (eigensolver residual sits well under it).
MONOTONE_TOL = 1e-10

SIGN_TERM_TOL = 1e-12

# A sweep solves BLOCK_ELEMENTS // (n + 1) points at a time, three rows each
# (the point and its fd_stencil couplings), split between spectral.WORKERS
# threads: O(3 x block x n + workers x n) memory.
BLOCK_ELEMENTS = 1 << 12


def fd_stencil(J, delta: float):
    """The couplings ``difference_quotient`` reads besides J."""
    return J + delta, np.where(J >= delta, J - delta, J + 2 * delta)


def difference_quotient(J, delta: float, at_J, at_plus, at_other):
    """d/dJ from values at J and at ``fd_stencil(J, delta)``: central, or
    second-order forward at J < delta, so O(delta^2) on both sides."""
    return np.where(J >= delta, (at_plus - at_other) / (2.0 * delta),
                    (-3.0 * at_J + 4.0 * at_plus - at_other) / (2.0 * delta))


def analyse(grid: ModelParams):
    """The analysis of each coupling of the column grid.J, one row per
    coupling, as (w, f, pi, hf, terms, fd, errors): ``second_eigenpairs``'
    (w, f, pi); the Hellmann-Feynman derivative hf = <f, (dP/dJ) f>_pi and
    its per-level terms f_k ((dP/dJ) f)_k; the finite-difference derivative
    fd at the step FD_DELTA_DEFAULT / n, from lambda_2 at the ``fd_stencil``
    couplings, solved in the grid's batch; and per row its (solve, usability,
    stencil) errors, each an exception or None.  Failed rows hold NaN."""
    k, delta = len(grid.J), FD_DELTA_DEFAULT / grid.n
    w, f, pi, errors = second_eigenpairs(grid, *fd_stencil(grid.J, delta))
    lam, w = w[:, 0], w[:k]
    with np.errstate(all="ignore"):  # failed rows are NaN
        dmf = derivative_matrix(grid).apply(f)
        hf, terms = np.sum(pi * f * dmf, axis=-1), f * dmf
        fd = difference_quotient(grid.J[:, 0], delta, *lam.reshape(3, k))
    stencil_errors = [a or b for a, b in zip(errors[k:2 * k], errors[2 * k:])]
    return (w, f, pi, hf, terms, fd,
            list(zip(errors, usability_errors(w[:, 0] - w[:, 1], f),
                     stencil_errors)))


@dataclass(frozen=True)
class SweepPoint:
    """One grid point of a monotonicity sweep; its field order is the JSON
    key order, ``reports.COLUMNS`` its CSV columns."""

    J: float
    H: float
    n: int
    lambda2: float
    gap: float
    t_rel: float
    hf_derivative: float
    fd_derivative: float
    sign_terms_ok: bool | None  # None when skipped (H != 0)


@dataclass(frozen=True)
class SweepReport:
    """Sweep of lambda_2 and its derivatives along an ascending J grid.

    monotone_in_J holds when lambda_2 never decreases by more than the
    monotonicity tolerance between consecutive grid points; max_violation is
    the worst observed decrement (0.0 when none).
    """

    points: list
    monotone_in_J: bool
    max_violation: float
    failures: list = field(default_factory=list)


def sweep_monotonicity(n: int, H: float, J_grid) -> SweepReport:
    """Evaluate the second eigenpair and both derivative routes on a J grid.

    The grid must be nonnegative and strictly ascending.  Per-point failures
    are recorded in the report rather than raised, a point's own error before
    its stencil's; the monotonicity verdict is over the points that succeeded.
    """
    J_grid = [float(j) for j in J_grid]
    if any(j < 0 for j in J_grid):
        raise ValueError("J grid must be nonnegative")
    if any(b <= a for a, b in zip(J_grid, J_grid[1:])):
        raise ValueError("J grid must be strictly ascending")
    for J in J_grid[:1] + [j for j in J_grid if not math.isfinite(j)]:
        ModelParams(n=n, J=J, H=H)  # raises for an invalid point
    points, failures = [], []
    rows = max(1, BLOCK_ELEMENTS // (n + 1))
    for block in (J_grid[i:i + rows] for i in range(0, len(J_grid), rows)):
        w, f, _, hf, terms, fd, errors = analyse(
            ModelParams(n=n, J=np.array(block)[:, None], H=H))
        sign_ok = ((shape_measures(f, terms)["terms"] <= SIGN_TERM_TOL).tolist()
                   if H == 0.0 else [None] * len(block))
        for J, errs, lambda2, hf_i, fd_i, sign_i in zip(
                block, errors, w[:, 0].tolist(), hf.tolist(), fd.tolist(), sign_ok):
            error = next(filter(None, errs), None)  # the point's own first
            if error is not None:
                failures.append({"J": J, "error": f"{type(error).__name__}: {error}"})
                continue
            points.append(SweepPoint(J, float(H), n, lambda2, *relaxation(lambda2),
                                     hf_i, fd_i, sign_i))
    return SweepReport(points, *monotone_verdict(points), failures=failures)


def monotone_verdict(points):
    """(monotone, max_violation): the worst decrement of lambda_2 between
    neighbours of points in ascending J (0.0 when none), and whether it is
    within MONOTONE_TOL; t_rel in T = c/J is judged by it too."""
    lam = [p.lambda2 for p in points]
    worst = max([a - b for a, b in zip(lam, lam[1:]) if a > b], default=0.0)
    return worst <= MONOTONE_TOL, worst


def temperature_view(report: SweepReport, c: float = 1.0):
    """Map a sweep to temperature coordinates: (T, t_rel) with T = c/J.

    Ordered by J descending, so T ascending, and the exact reversal of the
    ascending-J order also where adjacent couplings round to one T.  J = 0
    points are rejected: infinite temperature is excluded from this view.
    Where lambda_2 never decreases in J, the returned t_rel sequence is
    nonincreasing in T; a decrement within MONOTONE_TOL, which
    ``monotone_verdict`` forgives, still shows in t_rel.
    """
    if c <= 0:
        raise ValueError(f"temperature constant c must be positive, got {c!r}")
    if any(p.J == 0.0 for p in report.points):
        raise ValueError("temperature view rejects J = 0 points "
                         "(infinite temperature); filter them out first")
    points = sorted(report.points, key=lambda p: p.J, reverse=True)
    return [(c / p.J, p.t_rel) for p in points]

