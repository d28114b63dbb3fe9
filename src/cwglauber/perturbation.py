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

from dataclasses import dataclass, field

import numpy as np

from .ising import ModelParams
from .magchain import build_reduced_chain, derivative_matrix, reduced_stationary
from .spectral import (DEGENERATE_GAP, SpectralResult, eigen_top_tridiagonal,
                       increment_chain, second_eigenpair)

# lambda_2 varies with J on the scale 1/n, so a default step of
# FD_DELTA_DEFAULT / n balances central-difference truncation against
# eigensolver rounding at double precision at every n.
FD_DELTA_DEFAULT = 1e-5

# Decrements of lambda_2 along a sweep below this are rounding, not
# violations (eigensolver residual sits well under it).
MONOTONE_TOL = 1e-10

SIGN_TERM_TOL = 1e-12


class DegenerateGapError(RuntimeError):
    """lambda_2 is numerically degenerate with lambda_3; the perturbation
    formula assumes a simple eigenvalue."""


def coupling_derivative(params: ModelParams,
                        res: SpectralResult) -> tuple[float, np.ndarray]:
    """(d lambda_2/dJ, per-level terms) from the point's own eigenpair.

    The derivative is <f, (dP/dJ) f>_pi with the analytic derivative matrix
    (valid for all H) and the pi-normalized increasing eigenvector of res;
    the terms are f_k ((dP/dJ) f)_k, whose pi-weighted sum is the derivative.
    No solve happens here and degeneracy is not checked.
    """
    dm = derivative_matrix(params)
    pi = reduced_stationary(params).probabilities
    f = res.second_vector
    dmf = dm.apply(f)
    return float(np.sum(pi * f * dmf)), f * dmf


def _require_simple(res: SpectralResult) -> None:
    sep = res.separation
    if sep is not None and sep < DEGENERATE_GAP:
        raise DegenerateGapError(
            f"lambda2 - lambda3 = {sep:.3e} < {DEGENERATE_GAP}: "
            f"eigenvalue not numerically simple")


def hellmann_feynman(params: ModelParams) -> float:
    """d lambda_2 / dJ via <f, (dP/dJ) f>_pi on the reduced chain.

    Refuses when lambda_2 - lambda_3 < 1e-12, where the simple-eigenvalue
    assumption breaks down.
    """
    res = second_eigenpair(params)
    _require_simple(res)
    return coupling_derivative(params, res)[0]


def finite_difference_gap(params: ModelParams, delta: float | None = None) -> float:
    """Finite-difference oracle for d lambda_2 / dJ.

    Central difference (lambda_2(J+d) - lambda_2(J-d)) / 2d away from the
    J = 0 boundary; there, a second-order one-sided forward stencil keeps the
    truncation error at O(d^2) as well.  The step d defaults to
    FD_DELTA_DEFAULT / n; an explicit delta must lie in [1e-8, 1e-3].  Each
    lambda_2 is the increment chain's top eigenvalue, the quantity
    second_eigenpair reports; no increments are formed.
    """
    n, J, H = params.n, params.J, params.H
    if delta is None:
        delta = FD_DELTA_DEFAULT / n
    elif not 1e-8 <= delta <= 1e-3:
        raise ValueError(f"delta must lie in [1e-8, 1e-3], got {delta!r}")

    def lam2(j):
        chain = build_reduced_chain(ModelParams(n=n, J=j, H=H))
        return float(eigen_top_tridiagonal(*increment_chain(chain))[0][0])

    return difference_quotient(lam2, J, delta)


def difference_quotient(fn, J: float, delta: float):
    """d fn/dJ: central difference, or a second-order forward one at J < delta."""
    if J >= delta:
        return (fn(J + delta) - fn(J - delta)) / (2.0 * delta)
    return (-3.0 * fn(J) + 4.0 * fn(J + delta) - fn(J + 2 * delta)) / (2.0 * delta)


def sign_structure_terms(params: ModelParams) -> np.ndarray:
    """Per-level terms f_k (P'f)_k of the derivative quadratic form at H = 0.

    Each term is nonnegative (within rounding) for the increasing
    eigenvector; their pi-weighted sum is exactly the output of
    hellmann_feynman.  The decomposition's sign argument lives at H = 0, so
    other fields are rejected.
    """
    if params.H != 0.0:
        raise ValueError(
            "sign_structure_terms applies at H = 0 only (the s-based sign "
            "argument does not cover H != 0); use sweep_monotonicity to "
            "report H != 0 behavior numerically")
    return coupling_derivative(params, second_eigenpair(params))[1]


@dataclass(frozen=True)
class SweepPoint:
    """One grid point of a monotonicity sweep."""

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

    The grid must be nonnegative and strictly ascending.  Per-point solver
    failures are recorded in the report rather than raised; the monotonicity
    verdict is computed over the points that succeeded.
    """
    J_grid = [float(j) for j in J_grid]
    if any(j < 0 for j in J_grid):
        raise ValueError("J grid must be nonnegative")
    if any(b <= a for a, b in zip(J_grid, J_grid[1:])):
        raise ValueError("J grid must be strictly ascending")
    points = []
    failures = []
    for J in J_grid:
        params = ModelParams(n=n, J=J, H=H)
        try:
            res = second_eigenpair(params)
            _require_simple(res)
            hf, terms = coupling_derivative(params, res)
            fd = finite_difference_gap(params)
            sign_ok = bool(np.all(terms >= -SIGN_TERM_TOL)) if H == 0.0 else None
            points.append(SweepPoint(J=J, H=float(H), n=n,
                                     lambda2=res.lambda2, gap=res.gap,
                                     t_rel=res.t_rel, hf_derivative=hf,
                                     fd_derivative=fd, sign_terms_ok=sign_ok))
        except Exception as exc:  # recorded, not fatal
            failures.append({"J": J, "error": f"{type(exc).__name__}: {exc}"})
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

