"""Eigenvalue machinery for the reduced and full chains.

A reversible chain is similar to a symmetric matrix through conjugation by
diag(sqrt(pi)); for the tridiagonal magnetization chain the symmetrized
off-diagonal collapses to sqrt(up_k * down_k).  A parameter point is solved
on the increment chain below; the reduced chain's full spectrum and the top
of the sparse 2^n chain's spectrum, from Lanczos, are the oracles for the
lumping equivalence.

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

from .ising import ModelParams, all_plus_counts
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


def symmetrize(chain: ReducedChain):
    """Symmetric tridiagonal (diag, offdiag) similar to the reduced chain.

    offdiag[k] = sqrt(up_k * down_k); a negative product signals an invalid
    chain and is rejected.
    """
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


def symmetrized_full_chain(P):
    """S = sqrt(P_ij P_ji) entrywise, bitwise scipy's (P * P.T).sqrt(): by
    reversibility, diag(sqrt(pi)) P diag(sqrt(pi))^-1 without pi.  When P's
    pattern is symmetric, as ``full_transition_matrix`` builds it, P^T in CSR
    order holds P_ji at P_ij's slot and becomes S in place."""
    S = P.T.tocsr()
    if not (np.array_equal(S.indptr, P.indptr)
            and np.array_equal(S.indices, P.indices)):
        return (P * S).sqrt()
    np.sqrt(np.multiply(S.data, P.data, out=S.data), out=S.data)
    S.eliminate_zeros()  # as the elementwise product does
    return S


def full_chain_top_eigenvalues(S) -> np.ndarray:
    """The 3 largest eigenvalues of the full Glauber chain, descending, by
    Lanczos (ARPACK eigsh) on its symmetric form S (symmetrized_full_chain),
    from a seeded Gaussian start: results repeat exactly, and the start has
    weight in every symmetry sector, not only in the lumped chain this oracle
    checks.  n = 1 (two states, below ARPACK's limit) takes a dense 2 x 2
    solve.  Failures are raised as EigensolverError."""
    import scipy.sparse.linalg  # deferred: ~30 ms of import only the oracle needs
    try:
        if S.shape[0] == 2:
            return np.linalg.eigvalsh(S.toarray())[::-1]
        v0 = np.random.default_rng(0).standard_normal(S.shape[0])
        w = scipy.sparse.linalg.eigsh(S, k=3, which="LA", v0=v0,
                                      return_eigenvectors=False)
    except (scipy.sparse.linalg.ArpackError, np.linalg.LinAlgError) as exc:
        raise EigensolverError(f"full-chain eigensolver failed: {exc}") from exc
    return np.sort(w)[::-1]


def lifted_residual(S, w, v) -> float:
    """max_j ||S u_j - w_j u_j||_2 over the reduced eigenpairs (w_j, v[:, j])
    lifted to unit u_j = v_j[level]/sqrt(C(n, level)); S is symmetric
    (symmetrized_full_chain), so (Bauer-Fike) a full-chain eigenvalue is that
    near w_j.  One u_j at a time, so memory stays O(2^n) beside S."""
    levels = all_plus_counts(len(v) - 1)
    root_counts = np.sqrt(np.bincount(levels))[levels]
    residuals = []
    for j in range(len(w)):
        u = v[levels, j] / root_counts
        residuals.append(np.linalg.norm(S @ u - u * w[j]))
    return float(np.max(residuals))


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
