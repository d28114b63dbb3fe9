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
from dataclasses import dataclass, field, replace

import numpy as np

from .ising import ModelParams
from .magchain import build_reduced_chain, derivative_matrix
from .spectral import (DEGENERATE_GAP, EigensolverError, increment_rows,
                       relaxation, second_eigenpair, second_eigenpairs)

# lambda_2 varies with J on the scale 1/n, so a default step of
# FD_DELTA_DEFAULT / n balances central-difference truncation against
# eigensolver rounding at double precision at every n.
FD_DELTA_DEFAULT = 1e-5

# Decrements of lambda_2 along a sweep below this are rounding, not
# violations (eigensolver residual sits well under it).
MONOTONE_TOL = 1e-10

SIGN_TERM_TOL = 1e-12

# A sweep solves BLOCK_ELEMENTS // (n + 1) points at a time: O(block x n) memory.
BLOCK_ELEMENTS = 1 << 12


class DegenerateGapError(RuntimeError):
    """lambda_2 is numerically degenerate with lambda_3; the perturbation
    formula assumes a simple eigenvalue."""


def coupling_derivative(params: ModelParams, pi, f):
    """(<f, (dP/dJ) f>_pi, terms f_k ((dP/dJ) f)_k) from pi-normalized f and
    its pi, one row per coupling if params.J is a column; no solve."""
    dmf = derivative_matrix(params).apply(f)
    return np.sum(pi * f * dmf, axis=-1), f * dmf


def _unusable(separation, f) -> list:
    """Per row, the error that bars the perturbation formula, or None."""
    return [DegenerateGapError(f"lambda2 - lambda3 = {sep:.3e} < {DEGENERATE_GAP}: "
                               f"eigenvalue not numerically simple")
            if sep < DEGENERATE_GAP else None if finite else EigensolverError(
                "second eigenvector is not finite: its increments underflowed "
                "where pi has its mass")
            for sep, finite in zip(np.asarray(separation).tolist(),
                                   np.isfinite(f).all(axis=-1).tolist())]


def hellmann_feynman(params: ModelParams) -> float:
    """d lambda_2 / dJ via <f, (dP/dJ) f>_pi on the reduced chain; refuses
    when lambda_2 - lambda_3 < 1e-12, where the simple-eigenvalue assumption
    breaks down, and when f is not finite."""
    res = second_eigenpair(params)
    sep = math.nan if res.separation is None else res.separation
    for error in filter(None, _unusable([sep], res.second_vector[None])):
        raise error
    return float(coupling_derivative(params, res.pi, res.second_vector)[0])


def fd_stencil(J, delta: float):
    """The couplings ``difference_quotient`` reads besides J."""
    return J + delta, np.where(J >= delta, J - delta, J + 2 * delta)


def difference_quotient(J, delta: float, at_J, at_plus, at_other):
    """d/dJ from values at J and at ``fd_stencil(J, delta)``: central, or
    second-order forward at J < delta, so O(delta^2) on both sides."""
    return np.where(J >= delta, (at_plus - at_other) / (2.0 * delta),
                    (-3.0 * at_J + 4.0 * at_plus - at_other) / (2.0 * delta))


def finite_differences(grid: ModelParams, delta: float, at_J=None):
    """(d lambda_2/dJ, first stencil error or None) at each coupling of the
    column grid.J, given lambda_2 at J (at_J; solved here when None)."""
    J, k = grid.J[:, 0], len(grid.J)
    rows = np.concatenate(([] if at_J is not None else [J]) + [*fd_stencil(J, delta)])
    errors = [None] * len(rows)
    with np.errstate(all="ignore"):
        chain = build_reduced_chain(replace(grid, J=rows[:, None]))
        lam = increment_rows(chain.up, chain.down, errors)[0][:, 0]
    m = len(rows) - 2 * k
    return (difference_quotient(J, delta, lam[:m] if m else at_J,
                                lam[m:m + k], lam[m + k:]),
            [next(filter(None, errors[i::k]), None) for i in range(k)])


def finite_difference_gap(params: ModelParams, delta: float | None = None) -> float:
    """Finite-difference oracle for d lambda_2 / dJ: ``finite_differences``
    at one point, delta FD_DELTA_DEFAULT / n or given in [1e-8, 1e-3]."""
    if delta is None:
        delta = FD_DELTA_DEFAULT / params.n
    elif not 1e-8 <= delta <= 1e-3:
        raise ValueError(f"delta must lie in [1e-8, 1e-3], got {delta!r}")
    fd, errors = finite_differences(replace(params, J=np.array([[params.J]])),
                                    delta, None if params.J < delta else math.nan)
    if errors[0] is not None:
        raise errors[0]
    return float(fd[0])


def sign_structure_terms(params: ModelParams) -> np.ndarray:
    """Per-level terms f_k (P'f)_k of the derivative quadratic form at H = 0.

    Each term is nonnegative (within rounding) for the increasing
    eigenvector; their pi-weighted sum is hellmann_feynman's output.  The
    sign argument lives at H = 0, so other fields are rejected.
    """
    if params.H != 0.0:
        raise ValueError(
            "sign_structure_terms applies at H = 0 only (the s-based sign "
            "argument does not cover H != 0); use sweep_monotonicity to "
            "report H != 0 behavior numerically")
    res = second_eigenpair(params)
    return coupling_derivative(params, res.pi, res.second_vector)[1]


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
        grid = ModelParams(n=n, J=np.array(block)[:, None], H=H)
        w, f, pi, errors = second_eigenpairs(grid)
        with np.errstate(all="ignore"):  # failed rows are NaN
            hf, terms = coupling_derivative(grid, pi, f)
            sign_ok = (terms >= -SIGN_TERM_TOL).all(axis=1).tolist()
        fd, fd_errors = finite_differences(grid, FD_DELTA_DEFAULT / n, w[:, 0])
        for J, *errs, lambda2, hf_i, fd_i, sign_i in zip(
                block, errors, _unusable(w[:, 0] - w[:, 1], f), fd_errors,
                w[:, 0].tolist(), hf.tolist(), fd.tolist(), sign_ok):
            error = next(filter(None, errs), None)  # the point's own first
            if error is not None:
                failures.append({"J": J, "error": f"{type(error).__name__}: {error}"})
                continue
            points.append(SweepPoint(J, float(H), n, lambda2, *relaxation(lambda2),
                                     hf_i, fd_i, sign_i if H == 0.0 else None))
    lam = [p.lambda2 for p in points]
    decs = [a - b for a, b in zip(lam, lam[1:]) if a > b]
    max_violation = max(decs) if decs else 0.0
    monotone = max_violation <= MONOTONE_TOL
    return SweepReport(points=points, monotone_in_J=monotone,
                       max_violation=max_violation, failures=failures)


def temperature_view(report: SweepReport, c: float = 1.0):
    """Map a sweep to temperature coordinates: (T, t_rel) with T = c/J.

    Sorted by T ascending (which exactly reverses the ascending-J order).
    J = 0 points are rejected: infinite temperature is excluded from this
    view.  Whenever the report was monotone in J, the returned t_rel sequence
    is nonincreasing in T.
    """
    if c <= 0:
        raise ValueError(f"temperature constant c must be positive, got {c!r}")
    if any(p.J == 0.0 for p in report.points):
        raise ValueError("temperature view rejects J = 0 points "
                         "(infinite temperature); filter them out first")
    pairs = [(c / p.J, p.t_rel) for p in report.points]
    pairs.sort(key=lambda tp: tp[0])
    return pairs

