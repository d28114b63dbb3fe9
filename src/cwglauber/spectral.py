"""Eigenvalue machinery for the reduced and full chains.

A reversible chain is similar to a symmetric matrix through conjugation by
diag(sqrt(pi)), S = sqrt(P_ij P_ji) entrywise.  The top of the sparse 2^n
chain's spectrum, from Lanczos, and the residual of reduced eigenpairs
lifted to it are the oracles for the lumping equivalence.

The second eigenpair (lambda_2, f), eigenvalues descending and f in chain
coordinates with <f, f>_pi = 1 and f_n > f_0, is solved on the increment
chain, whose eigenvectors are the increments f_{k+1} - f_k, for a whole J
grid in one pass (``second_eigenpairs``), the library's one solver of the
reduced chain; a finite-difference stencil's couplings are rows of the same
batch, read for their eigenvalues only, as the increments and f are formed
for the grid's rows alone.  That chain lacks the eigenvalue 1, so lambda_2
is its top eigenvalue and cannot mix with lambda_1 even where
lambda_1 - lambda_2 underflows; and no step divides by sqrt(pi), whose tiny
tail entries would amplify the solver's rounding error.

Each row is one call of LAPACK's MRRR routine dstemr (``top_eigenpairs``),
made through the function pointer scipy.linalg.cython_lapack exports: scipy's
f2py wrapper would allocate and zero an n x n eigenvector array per call,
where this call writes an n x 2 block in a workspace each worker reuses for
its rows, so memory stays O(n) per worker at every n.  From order
MIN_THREADED_ORDER a batch's rows are split between WORKERS threads, one per
CPU the process may run on; the calls release the GIL, and a row's bytes do
not depend on the thread that solves it.
"""

import ctypes
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg.cython_lapack

from .ising import ModelParams, all_plus_counts
from .magchain import build_reduced_chain, positive_rates, reduced_stationary

# Below this separation of lambda_2 from lambda_3 the eigenvector analysis is
# flagged unreliable and perturbation formulas refuse to evaluate.
DEGENERATE_GAP = 1e-12

# Coordinatewise tolerance for eigenvector-structure predicates.
STRUCTURE_TOL = 1e-9


class EigensolverError(RuntimeError):
    """An eigensolver failed to converge or was fed an invalid matrix."""


class DegenerateGapError(RuntimeError):
    """lambda_2 is numerically degenerate with lambda_3; the perturbation
    formula assumes a simple eigenvalue."""


def usability_errors(separation, f) -> list:
    """Per row of f, the error that bars reading it (lambda_2 - lambda_3 =
    separation below DEGENERATE_GAP, or a non-finite entry), or None."""
    return [DegenerateGapError(f"lambda2 - lambda3 = {sep:.3e} < {DEGENERATE_GAP}: "
                               f"eigenvalue not numerically simple")
            if sep < DEGENERATE_GAP else None if finite else EigensolverError(
                "second eigenvector is not finite: its increments underflowed "
                "where pi has its mass")
            for sep, finite in zip(np.asarray(separation).tolist(),
                                   np.isfinite(f).all(axis=-1).tolist())]


@dataclass(frozen=True)
class SpectralResult:
    """Spectrum summary of the reduced chain at one parameter point.

    lambda3, and with it separation, is NaN when the chain has two levels
    (n = 1); gap = 1 - lambda2 and t_rel = 1/gap count single-site steps.
    second_vector is f, as ``second_eigenpair`` forms it in the chain's
    stationary law pi.
    """

    lambda2: float
    lambda3: float
    gap: float
    t_rel: float
    second_vector: np.ndarray
    pi: np.ndarray

    @property
    def separation(self) -> float:
        """lambda_2 - lambda_3."""
        return self.lambda2 - self.lambda3


@dataclass(frozen=True)
class StructureReport:
    """Predicates of the second eigenvector's shape.

    antisymmetric_at_h0 and sign_split are only meaningful at H = 0 and are
    None otherwise.  ``reliable`` is False when lambda_2 - lambda_3 fell below
    the degeneracy threshold or the eigenvector has a non-finite entry, in
    which case the other flags should not be trusted rather than read as
    refuting the theory.
    """

    increasing: bool
    strictly: bool
    antisymmetric_at_h0: bool | None
    sign_split: bool | None
    reliable: bool


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
    from a seeded Gaussian start: the start has weight in every symmetry
    sector, not only in the lumped chain this oracle checks, and the same
    generator draws any restart vector ARPACK asks for once its basis is
    invariant, so results repeat exactly.  n = 1 (two states, below ARPACK's
    limit) takes a dense 2 x 2 solve.  Failures are raised as
    EigensolverError."""
    import scipy.sparse.linalg  # deferred: ~30 ms of import only the oracle needs
    try:
        if S.shape[0] == 2:
            return np.linalg.eigvalsh(S.toarray())[::-1]
        rng = np.random.default_rng(0)
        w = scipy.sparse.linalg.eigsh(S, k=3, which="LA",
                                      v0=rng.standard_normal(S.shape[0]),
                                      rng=rng, return_eigenvectors=False)
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


def _lapack_function(name: str, arguments: int):
    """LAPACK routine ``name`` as a ctypes function of ``arguments`` pointers,
    through the function pointer scipy.linalg.cython_lapack exports."""
    capsule = scipy.linalg.cython_lapack.__pyx_capi__[name]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object,
                                    ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * arguments)(
        get_pointer(capsule, get_name(capsule)))


try:  # LAPACK's MRRR, called once per row; None where scipy lacks it
    dstemr = _lapack_function("dstemr", 21)
except (LookupError, AttributeError):
    dstemr = None

# top_eigenpairs splits a batch into one contiguous share of rows per CPU the
# process may run on; ctypes releases the GIL during each dstemr call.
try:
    WORKERS = len(os.sched_getaffinity(0))
except AttributeError:  # no affinity on this platform
    WORKERS = os.cpu_count() or 1

# Below this order a batch is solved serially: the Python work around each
# call holds the GIL, and a second thread slowed the rows down.  Time per
# row in us, 1 vs 2 workers, on increment chains of order m = n in batches
# of a sweep block's 4096 // (m + 1) rows (median of three series of 101;
# 2-core host, scipy 1.17.1 with OpenBLAS; 2 workers won all three series
# from m = 24 and two of three at m = 20):
#   m          12     16     20     24     32     48    100   1000
#   1 worker   17.5   16.0   20.1   26.6   34.5   49.4   97.9   1111
#   2 workers  25.4   20.2   20.4   22.7   26.7   36.7   71.7    777
MIN_THREADED_ORDER = 24


def _solve_rows(diag, offdiag, errors, w, v, rows):
    """``top_eigenpairs`` on the rows in ``rows``, with its own workspace,
    writing into w, v and errors."""
    m = diag.shape[1]
    d, e, lam = np.empty(m), np.zeros(m), np.empty(m)  # e[m-1] is scratch
    z = np.empty((m, 2), order="F")
    isuppz = np.empty(4, np.intc)
    work, iwork = np.empty(18 * m), np.empty(10 * m, np.intc)
    # n, il, iu, M, ldz, nzc, tryrac, lwork, liwork, info
    ints = np.array([m, max(m - 1, 1), m, 0, m, 2, 1, 18 * m, 10 * m, 0],
                    np.intc)
    at = [ints.ctypes.data + k * ints.itemsize for k in range(len(ints))]
    chars, bounds = ctypes.create_string_buffer(b"VI"), np.zeros(2)
    args = (ctypes.addressof(chars), ctypes.addressof(chars) + 1, at[0],
            d.ctypes.data, e.ctypes.data, bounds.ctypes.data,
            bounds.ctypes.data + bounds.itemsize, at[1], at[2], at[3],
            lam.ctypes.data, z.ctypes.data, at[4], at[5], isuppz.ctypes.data,
            at[6], work.ctypes.data, at[7], iwork.ctypes.data, at[8], at[9])
    for i in rows:
        if errors[i] is None:
            d[:], e[:-1] = diag[i], offdiag[i]  # dstemr overwrites both
            dstemr(*args)
            found, info = ints[3], ints[9]
            if info:
                errors[i] = EigensolverError(f"dstemr failed with info={info}")
                continue
            w[i, :found] = lam[found - 1::-1]  # lam[:found] ascending
            v[i] = z[:, found - 1]


def top_eigenpairs(diag, offdiag, errors):
    """(w, v) per row of the (rows, m) symmetric tridiagonals (diag, offdiag):
    the two largest eigenvalues w, descending (NaN where absent or unsolved),
    and the top eigenvector v with the solver's sign.

    Only these are computed, with LAPACK's MRRR routine (dstemr: jobz V,
    range I, il = max(m - 1, 1), iu = m, tryrac 1, as scipy's wrapper calls
    it): its eigenvectors keep tiny components to high relative accuracy,
    where inverse iteration leaves them at the absolute level eps * ||v||.
    From order MIN_THREADED_ORDER the rows are split into contiguous shares,
    up to WORKERS, each solved in its own thread; below it, or with one
    row, they are solved serially.  One workspace per worker, with an m x 2
    eigenvector block, serves its share; each row's arithmetic is the same
    in any thread, so the bytes do not depend on the split.  Rows with an
    ``errors`` entry are skipped; a nonzero LAPACK info is stored there as an
    EigensolverError.  An exception in a worker is raised once every worker
    has ended; an EigensolverError, before any row, if dstemr is missing."""
    rows, m = diag.shape
    if m < 1 or offdiag.shape != (rows, m - 1) or len(errors) != rows:
        raise ValueError(f"diagonals {diag.shape}, off-diagonals "
                         f"{offdiag.shape} and {len(errors)} error slots "
                         f"do not describe the same rows of order m >= 1")
    if dstemr is None:
        raise EigensolverError("scipy.linalg.cython_lapack lacks dstemr")
    w = np.full((rows, 2), np.nan)
    v = np.full((rows, m), np.nan)
    workers = min(WORKERS, rows) if m >= MIN_THREADED_ORDER else 1
    if workers <= 1:
        _solve_rows(diag, offdiag, errors, w, v, range(rows))
        return w, v
    shares = [range(rows * k // workers, rows * (k + 1) // workers)
              for k in range(workers)]
    # the caller solves the first share: starting a thread for it as well
    # left a 16-point sweep at n = 1000 as slow as the serial loop (59.7 vs
    # 60.7 ms in the median; 46.1 ms this way)
    with ThreadPoolExecutor(workers - 1) as pool:
        others = [pool.submit(_solve_rows, diag, offdiag, errors, w, v, share)
                  for share in shares[1:]]
        _solve_rows(diag, offdiag, errors, w, v, shares[0])
        for share in others:
            share.result()  # raises the worker's exception
    return w, v


def underflow_error(n: int, J: float, H: float) -> EigensolverError:
    """The refusal of a chain that ``positive_rates`` finds underflowed."""
    return EigensolverError(
        f"reduced chain has transition entries that underflow to 0 at "
        f"n={n}, J={J:g}, H={H:g}")


def second_eigenpairs(grid: ModelParams, *stencil):
    """The grid core: ``second_eigenpair`` at each coupling of the column
    grid.J as (w, f, pi, errors), w = (lambda_2, lambda_3 or NaN) per row,
    with each row's exception or None.  The couplings of each column in
    ``stencil`` are solved in the same batch; their rows follow the grid's in
    w and errors, with no f or pi.  Only the LAPACK call runs per row in
    Python; a failed row is meaningless and emits no warning.  Each row's
    increment chain Q (diagonal 1 - up - down, superdiagonal up[1:],
    subdiagonal down[:-1]) is solved as S = D Q D^-1 for u, with
    log D_{k+1} - log D_k = log(up[k+1]/down[k]) / 2; the grid's increments
    g = D^-1 u of f (max |g| = 1) are formed in log space, one sign per row
    making sum(u) > 0 so a g that is not positive stays visible."""
    k, J = len(grid.J), np.concatenate([grid.J, *stencil])
    with np.errstate(all="ignore"):
        chain = build_reduced_chain(replace(grid, J=J))
        up, down = chain.up, chain.down
        errors = [None if ok else underflow_error(grid.n, j, grid.H)
                  for ok, j in zip(positive_rates(chain).tolist(),
                                   J[:, 0].tolist())]
        w, u = top_eigenpairs(1.0 - (up + down),
                              np.sqrt(up[:, 1:] * down[:, :-1]), errors)
        u = u[:k] * np.where(u[:k].sum(axis=1, keepdims=True) < 0, -1.0, 1.0)
        log_g = np.log(np.abs(u))  # log D_0 = 0
        log_g[:, 1:] -= np.cumsum(0.5 * np.log(up[:k, 1:] / down[:k, :-1]),
                                  axis=1)
        g = np.copysign(np.exp(log_g - log_g.max(axis=1, keepdims=True)), u)
        f = np.zeros((k, grid.n + 1))
        np.cumsum(g, axis=1, out=f[:, 1:])
        pi = reduced_stationary(grid).probabilities
        # a (1 x m) @ (m x 1) matmul per row is BLAS ddot, as pi @ f is
        f -= (pi[:, None] @ f[..., None])[:, 0]
        # <f,f>_pi is 0 if the increments underflowed where pi has its mass
        f /= np.sqrt(pi[:, None] @ (f * f)[..., None])[:, 0]
    return w, f, pi, errors


def relaxation(lambda2: float):
    """(gap, t_rel) = (1 - lambda_2, 1/gap), t_rel = +inf if gap <= 0."""
    gap = 1.0 - lambda2
    return gap, (1.0 / gap if gap > 0 else math.inf)


def second_eigenpair(params: ModelParams) -> SpectralResult:
    """(lambda_2, f) of the magnetization chain: ``second_eigenpairs`` at one
    point, raising its error.  f is the cumulative sum of the increments,
    centred to <f,1>_pi = 0 and normalized to <f,f>_pi = 1, so increasing
    exactly when they are positive; an underflowed chain raises."""
    w, f, pi, errors = second_eigenpairs(
        ModelParams(params.n, np.array([[params.J]]), params.H))
    if errors[0] is not None:
        raise errors[0]
    lambda2 = float(w[0, 0])
    return SpectralResult(lambda2, float(w[0, 1]), *relaxation(lambda2),
                          second_vector=f[0], pi=pi[0])


@np.errstate(all="ignore")  # a failed row is NaN or inf
def shape_measures(f, terms=None, *, h: float = 0.0) -> dict:
    """The one measurement of the second eigenvector's shape, per row of f
    (levels on the last axis): "increment", the least f_{k+1} - f_k, and at
    H = 0 the breaches "antisymmetry" max_k |f_k + f_{n-k}|, "sign_split"
    (the largest f_k at 2k <= n or -f_k at 2k >= n), "middle" |f_{n/2}|
    (even n) and, given per-level terms, "terms" (the least, negated); a
    breach is at least 0 and passes where it is <= its tolerance."""
    f = np.asarray(f, dtype=float)
    n = f.shape[-1] - 1
    shape = {"increment": np.diff(f).min(axis=-1)}
    if h == 0.0:
        lower = 2 * np.arange(n + 1) <= n
        shape["antisymmetry"] = np.abs(f + f[..., ::-1]).max(axis=-1)
        shape["sign_split"] = np.maximum(np.maximum(
            f[..., lower].max(axis=-1), -f[..., lower[::-1]].min(axis=-1)), 0.0)
        if n % 2 == 0:
            shape["middle"] = np.abs(f[..., n // 2])
        if terms is not None:
            shape["terms"] = np.maximum(-np.min(terms, axis=-1), 0.0)
    return shape


def eigenvector_structure_report(f, *, h: float = 0.0,
                                 eigen_separation: float = math.nan) -> StructureReport:
    """``shape_measures`` of f read against STRUCTURE_TOL, ``strictly`` as a
    least increment > 0; ``reliable`` is ``usability_errors``' rule on f and
    eigen_separation = lambda_2 - lambda_3 (NaN, as at n = 1, passes)."""
    f = np.asarray(f, dtype=float)
    shape, at_h0 = shape_measures(f, h=h), h == 0.0
    return StructureReport(
        increasing=bool(-shape["increment"] <= STRUCTURE_TOL),
        strictly=bool(shape["increment"] > 0),
        antisymmetric_at_h0=bool(shape["antisymmetry"] <= STRUCTURE_TOL)
        if at_h0 else None,
        sign_split=bool(shape["sign_split"] <= STRUCTURE_TOL) if at_h0 else None,
        reliable=usability_errors([eigen_separation], f[None])[0] is None)
