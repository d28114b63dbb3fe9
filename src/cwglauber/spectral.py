"""Eigenvalue machinery for the reduced and full chains.

A reversible chain is similar to a symmetric matrix through conjugation by
diag(sqrt(pi)); for the tridiagonal magnetization chain the symmetrized
off-diagonal collapses to sqrt(up_k * down_k).  A parameter point is solved
on the increment chain below; the reduced chain's full spectrum and the full
2^n chain, symmetrized the same way, are the oracles for the lumping
equivalence, and an independent cyclic-Jacobi rotation solver
cross-validates the LAPACK paths at desk scale.

Conventions for the second eigenpair (lambda_2, f): eigenvalues are sorted
descending, f is reported in chain coordinates with <f, f>_pi = 1 and the
increasing representative chosen (f_n > f_0).  lambda_2, lambda_3 and f
come from the increment chain, whose eigenvectors are the increments
f_{k+1} - f_k.  That chain lacks the eigenvalue 1, so lambda_2 is its top
eigenvalue and cannot mix with lambda_1 even deep in the supercritical
regime, where lambda_1 - lambda_2 underflows; and no step divides by
sqrt(pi), whose tiny tail entries would amplify the solver's rounding error.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .ising import (Distribution, ModelParams, full_transition_matrix,
                    stationary_full)
from .magchain import ReducedChain, build_reduced_chain, reduced_stationary

# Below this separation of lambda_2 from lambda_3 the eigenvector analysis is
# flagged unreliable and perturbation formulas refuse to evaluate.
DEGENERATE_GAP = 1e-12

# Coordinatewise tolerance for eigenvector-structure predicates.
STRUCTURE_TOL = 1e-9


class EigensolverError(RuntimeError):
    """An eigensolver failed to converge or was fed an invalid matrix."""


@dataclass(frozen=True)
class SpectralResult:
    """Spectrum summary of the reduced chain at one parameter point.

    lambda3 is None when the chain has two levels (n = 1); gap = 1 - lambda2
    and t_rel = 1/gap count single-site steps.  The second eigenvector is the
    cumulative sum of the increment chain's top eigenvector, centred to
    <f,1>_pi = 0 and pi-normalized, <f,f>_pi = 1, with f_n > f_0 whenever
    those increments are positive; ``increasing`` records whether its
    coordinates are nondecreasing at the default structure tolerance.
    """

    lambda2: float
    lambda3: float | None
    gap: float
    t_rel: float
    second_vector: np.ndarray
    increasing: bool

    @property
    def separation(self) -> float | None:
        """lambda_2 - lambda_3, or None when the chain has two levels (n = 1)."""
        if self.lambda3 is None:
            return None
        return self.lambda2 - self.lambda3


@dataclass(frozen=True)
class StructureReport:
    """Predicates of the second eigenvector's shape.

    antisymmetric_at_h0 and sign_split are only meaningful at H = 0 and are
    None otherwise.  ``reliable`` is False when lambda_2 - lambda_3 fell below
    the degeneracy threshold, in which case the other flags should not be
    trusted rather than read as refuting the theory.
    """

    increasing: bool
    strictly: bool
    antisymmetric_at_h0: bool | None
    sign_split: bool | None
    reliable: bool


def symmetrize(chain: ReducedChain, pi: Distribution | None = None):
    """Symmetric tridiagonal (diag, offdiag) similar to the reduced chain.

    offdiag[k] = sqrt(up_k * down_k); a negative product signals an invalid
    chain and is rejected.  When pi is supplied, reversibility of the chain
    with respect to it is sanity-checked first.
    """
    if pi is not None:
        p = pi.probabilities
        viol = np.abs(p[:-1] * chain.up - p[1:] * chain.down).max()
        if viol > 1e-8:
            raise ValueError(
                f"chain is not reversible w.r.t. the given distribution "
                f"(flux mismatch {viol:.3e})")
    prod = chain.up * chain.down
    if np.any(prod < 0):
        raise ValueError("up[k]*down[k] < 0: not a valid birth-death chain")
    return chain.diag.copy(), np.sqrt(prod)


def eigen_symmetric_tridiagonal(diag, offdiag):
    """Full spectrum of a real symmetric tridiagonal matrix.

    Returns (eigenvalues, eigenvectors) with eigenvalues sorted descending
    and eigenvectors as orthonormal columns.  LAPACK's divide-and-conquer
    driver (dstevd) is called directly, which pins the driver and skips the
    per-call overhead of scipy's eigh_tridiagonal.  Nonzero LAPACK info
    (non-convergence, or non-finite input) is surfaced as EigensolverError,
    never silently.
    """
    diag = np.asarray(diag, dtype=float)
    if len(diag) == 1:
        return diag.copy(), np.ones((1, 1))
    offdiag = np.asarray(offdiag, dtype=float)
    w, v, info = scipy.linalg.lapack.dstevd(diag, offdiag)
    if info != 0:
        raise EigensolverError(
            f"tridiagonal eigensolver failed to converge (dstevd info={info})")
    return w[::-1], v[:, ::-1]  # dstevd sorts ascending


def eigen_dense_symmetric(matrix, tol: float = 1e-12, max_sweeps: int = 60):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps of plane rotations annihilate off-diagonal entries until the
    off-diagonal Frobenius norm drops below tol * ||A||_F.  Returns
    (eigenvalues descending, eigenvector columns).  Quadratic convergence
    makes a few sweeps enough at desk scale; this is the oracle route, kept
    independent of the LAPACK-backed solvers it cross-checks.
    """
    A = np.array(matrix, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got shape {A.shape}")
    norm = np.linalg.norm(A)
    asym = np.abs(A - A.T).max()
    if asym > 1e-12 * max(norm, 1.0):
        raise ValueError(f"matrix is not symmetric (max asymmetry {asym:.3e})")
    A = 0.5 * (A + A.T)
    m = A.shape[0]
    V = np.eye(m)
    if m == 1:
        return np.array([A[0, 0]]), V
    for _ in range(max_sweeps):
        # off-diagonal Frobenius norm, formed directly: the difference
        # sum(A^2) - sum(diag^2) cancels catastrophically near convergence
        offmat = A - np.diag(np.diag(A))
        off = np.linalg.norm(offmat)
        if off <= tol * max(norm, np.finfo(float).tiny):
            w = np.diag(A).copy()
            order = np.argsort(w)[::-1]
            return w[order], V[:, order]
        # rotations below this threshold cannot move the off-norm meaningfully
        skip = off / (m * m)
        for p in range(m - 1):
            for q in range(p + 1, m):
                apq = A[p, q]
                if abs(apq) <= skip * 1e-3:
                    continue
                # stable rotation angle (Golub & Van Loan)
                tau = (A[q, q] - A[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                rot = np.array([[c, s], [-s, c]])
                A[:, [p, q]] = A[:, [p, q]] @ rot
                A[[p, q], :] = rot.T @ A[[p, q], :]
                A[p, q] = A[q, p] = 0.0
                V[:, [p, q]] = V[:, [p, q]] @ rot
    raise EigensolverError(
        f"Jacobi iteration did not reach tol={tol} in {max_sweeps} sweeps")


def full_chain_spectrum(params: ModelParams, n_max_full: int | None = None) -> np.ndarray:
    """All 2^n eigenvalues of the full Glauber chain, sorted descending.

    The chain is symmetrized by diag(sqrt(pi)) (reversibility makes the
    result symmetric up to rounding, which is folded away) and handed to the
    dense LAPACK solver; the Jacobi oracle above validates this path at small
    n in the test suite.  A LAPACK failure (non-convergence, or a non-finite
    matrix once pi underflows) is raised as EigensolverError.
    """
    kwargs = {} if n_max_full is None else {"n_max_full": n_max_full}
    P = full_transition_matrix(params, **kwargs)
    pi = stationary_full(params, **kwargs)
    s = np.sqrt(pi.probabilities)
    S = (s[:, None] * P) / s[None, :]
    S = 0.5 * (S + S.T)
    try:
        w = np.linalg.eigvalsh(S)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"dense eigensolver failed: {exc}") from exc
    return w[::-1]


def eigen_top_tridiagonal(diag, offdiag):
    """Two largest eigenvalues w (descending; one for a 1x1 matrix) and the
    top eigenvector v of a real symmetric tridiagonal matrix.

    Only these are computed, with LAPACK's MRRR driver (dstemr): its
    eigenvectors keep tiny components to high relative accuracy, where
    inverse iteration leaves them at the absolute level eps * ||v||.  The
    sign of v is whatever the solver returns.  Nonzero LAPACK info is
    surfaced as EigensolverError, never silently.
    """
    m = len(diag)
    e = np.append(offdiag, 0.0)  # dstemr takes m off-diagonal slots
    k, w, z, info = scipy.linalg.lapack.dstemr(diag, e, 3, 0.0, 0.0,
                                               max(m - 1, 1), m)
    if info != 0:
        raise EigensolverError(f"dstemr failed with info={info}")
    # w[:k] ascending; the slots after it are not eigenvalues
    return w[:k][::-1], z[:, k - 1]


def increment_chain(chain: ReducedChain):
    """(diag, offdiag) of S = D Q D^-1, the symmetrized increment chain.

    The increments of any eigenvector of the chain solve lambda g = Q g, Q
    tridiagonal on {0..n-1} with diagonal 1 - up[k] - down[k], superdiagonal
    up[k+1] and subdiagonal down[k]; log D_{k+1} - log D_k =
    log(up[k+1]/down[k]) / 2.  Q carries the spectrum of the chain without
    the eigenvalue 1, so lambda_2 is its top eigenvalue, well separated from
    anything it could mix with.
    """
    up, down = chain.up, chain.down
    return 1.0 - (up + down), np.sqrt(up[1:] * down[:-1])


def increment_eigenpair(chain: ReducedChain):
    """(lambda_2 and lambda_3, increments g_k = f_{k+1} - f_k up to scale).

    One top-pair solve of ``increment_chain``: its top eigenvector u gives
    g = D^-1 u > 0, formed in log space (D overflows at large n) and scaled
    so that max |g| = 1 up to rounding.  One global sign makes sum(u) > 0,
    so a g that is not positive stays visible in the result.
    """
    w, u = eigen_top_tridiagonal(*increment_chain(chain))
    if u.sum() < 0:
        u = -u
    log_d = np.zeros(chain.n)
    np.cumsum(0.5 * np.log(chain.up[1:] / chain.down[:-1]), out=log_d[1:])
    with np.errstate(divide="ignore"):
        log_g = np.log(np.abs(u)) - log_d
    return w, np.copysign(np.exp(log_g - log_g.max()), u)


def second_eigenpair(params: ModelParams) -> SpectralResult:
    """(lambda_2, f) of the magnetization chain, increasing representative.

    lambda_2, lambda_3 and the increments of f come from one solve of the
    increment chain (``increment_eigenpair``); f is the cumulative sum of
    those increments, centred so that <f,1>_pi = 0 and normalized to
    <f,f>_pi = 1.  f is increasing exactly when the computed increments are
    positive.  gap = 1 - lambda_2; t_rel = 1/gap, +inf if the gap rounds to
    zero or below.  A chain with an up or down entry that underflowed to 0
    leaves f undefined (pi underflows with it) and raises EigensolverError.
    """
    chain = build_reduced_chain(params)
    if not (chain.up.all() and chain.down.all()):
        raise EigensolverError(
            f"reduced chain has transition entries that underflow to 0 at "
            f"n={params.n}, J={params.J:g}, H={params.H:g}")
    pi = reduced_stationary(params).probabilities
    w, g = increment_eigenpair(chain)
    lambda2 = float(w[0])
    lambda3 = float(w[1]) if len(w) > 1 else None
    gap = 1.0 - lambda2
    t_rel = 1.0 / gap if gap > 0 else math.inf
    f = np.zeros(params.n + 1)
    np.cumsum(g, out=f[1:])
    f -= pi @ f
    f /= math.sqrt(pi @ (f * f))
    increasing = bool(np.all(np.diff(f) >= -STRUCTURE_TOL))
    return SpectralResult(lambda2=lambda2, lambda3=lambda3, gap=gap,
                          t_rel=t_rel, second_vector=f, increasing=increasing)


def eigenvector_structure_report(f, tol: float = STRUCTURE_TOL, *,
                                 h: float = 0.0,
                                 eigen_separation: float | None = None) -> StructureReport:
    """Evaluate the structural predicates of a second eigenvector.

    increasing: f_{k+1} >= f_k for all k (within tol);
    strictly:   every increment is strictly positive;
    antisymmetric_at_h0: max_k |f_k + f_{n-k}| < tol, H = 0 only;
    sign_split: f_k <= 0 for k <= n/2 and f_k >= 0 for k >= n/2 (within tol),
                H = 0 only.

    Pass eigen_separation = lambda_2 - lambda_3 to have near-degenerate
    points flagged unreliable instead of asserted on.
    """
    f = np.asarray(f, dtype=float)
    n = len(f) - 1
    d = np.diff(f)
    increasing = bool(np.all(d >= -tol))
    strictly = bool(d.min() > 0) if len(d) else False
    at_h0 = (h == 0.0)
    antisymmetric = bool(np.abs(f + f[::-1]).max() < tol) if at_h0 else None
    if at_h0:
        k = np.arange(n + 1)
        sign_split = bool(np.all(f[k <= n / 2] <= tol)
                          and np.all(f[k >= n / 2] >= -tol))
    else:
        sign_split = None
    reliable = not (eigen_separation is not None
                    and eigen_separation < DEGENERATE_GAP)
    return StructureReport(increasing=increasing, strictly=strictly,
                           antisymmetric_at_h0=antisymmetric,
                           sign_split=sign_split, reliable=reliable)
