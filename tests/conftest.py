"""Shared fixtures and helpers."""

import ctypes
import threading
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

import cwglauber.spectral as spectral


def analyse_point(params, raising=3):
    """``perturbation.analyse`` at the one point params: its row by name,
    after raising the first of the row's first ``raising`` errors (solve,
    usability, stencil).  raising=1 reads what the solve alone refuses,
    2 what the Hellmann-Feynman route refuses, 3 what a sweep point does."""
    from cwglauber.ising import ModelParams
    from cwglauber.perturbation import analyse
    w, f, pi, hf, terms, fd, errors = (row[0] for row in analyse(
        ModelParams(params.n, np.array([[params.J]]), params.H)))
    error = next(filter(None, errors[:raising]), None)
    if error is not None:
        raise error
    return SimpleNamespace(lambda2=float(w[0]), f=f, pi=pi, hf=float(hf),
                           terms=terms, fd=float(fd))


def dense_reduced_chain(chain):
    """The reduced chain as a dense (n+1) x (n+1) matrix from up/down/diag."""
    return (np.diag(chain.diag) + np.diag(chain.up, k=1)
            + np.diag(chain.down, k=-1))


def tridiagonal_eigh(diag, offdiag):
    """Every eigenpair, eigenvalues descending, of the real symmetric
    tridiagonal matrix (diag, offdiag), from numpy's dense eigh."""
    w, v = np.linalg.eigh(np.diag(diag) + np.diag(offdiag, 1)
                          + np.diag(offdiag, -1))
    return w[::-1], v[:, ::-1]


def reduced_eigh(chain):
    """``tridiagonal_eigh`` of the reduced chain symmetrized by
    diag(sqrt(pi)), whose off-diagonal is sqrt(up_k * down_k)."""
    return tridiagonal_eigh(chain.diag, np.sqrt(chain.up * chain.down))


def detailed_balance_violation(P, pi):
    """max_ij |pi_i P_ij - pi_j P_ji| of a dense matrix P."""
    flux = P * pi[:, None]
    return np.abs(flux - flux.T).max()


# the solver's LAPACK routine, kept before any test replaces it
REAL_DSTEMR = spectral.dstemr


class DstemrCall:
    """One call of ``spectral.dstemr``, its pointer arguments read as arrays:
    d, e and w of length n, the ldz x nzc eigenvector block z, and the int
    outputs M and info (ctypes ints; set ``.value``)."""

    def __init__(self, args):
        self.args = args
        n, ldz, nzc = (ctypes.c_int.from_address(args[k]).value
                       for k in (2, 12, 13))
        self.d, self.e, self.w, z = (
            np.ctypeslib.as_array((ctypes.c_double * size).from_address(args[k]))
            for k, size in ((3, n), (4, n), (10, n), (11, ldz * nzc)))
        self.z = z.reshape(nzc, ldz).T
        self.M, self.info = (ctypes.c_int.from_address(args[k]) for k in (9, 20))

    def real(self):
        """Run this call on LAPACK's dstemr."""
        REAL_DSTEMR(*self.args)


def patch_dstemr(monkeypatch, stand_in):
    """Route the solver's one LAPACK call per row through stand_in(call), a
    function of a DstemrCall, which may run ``call.real()``."""
    monkeypatch.setattr(spectral, "dstemr", lambda *args: stand_in(DstemrCall(args)))


def failing_dstemr_rows(monkeypatch, codes):
    """Make dstemr report info=code on the rows whose diagonal is a key of
    codes; every other row is solved by the real routine."""
    def stand_in(call):
        for diag, code in codes.items():
            if np.array_equal(call.d, diag):
                call.M.value, call.info.value = 0, code
                return
        call.real()

    patch_dstemr(monkeypatch, stand_in)


@pytest.fixture
def dstemr_fails(monkeypatch):
    """Make LAPACK dstemr report a nonzero info (7) on every call."""
    def stand_in(call):
        call.M.value, call.info.value = 0, 7

    patch_dstemr(monkeypatch, stand_in)


@pytest.fixture
def dstemr_out_of_memory(monkeypatch):
    """Make the solve raise MemoryError, as numpy does where a workspace does
    not fit, without allocating anything."""
    def stand_in(call):
        raise MemoryError("Unable to allocate 14.9 GiB for an array with "
                          "shape (2000000000,) and data type float64")

    patch_dstemr(monkeypatch, stand_in)


@pytest.fixture
def lapack_calls(monkeypatch):
    """Count calls to LAPACK dstevd (scipy's wrapper) and dstemr (the
    solver's), keyed by routine name; dstemr's count is safe under the
    solver's worker threads."""
    counts = {"dstevd": 0, "dstemr": 0}
    lock = threading.Lock()
    real_dstevd = scipy.linalg.lapack.dstevd

    def dstevd(*args, **kwargs):
        counts["dstevd"] += 1
        return real_dstevd(*args, **kwargs)

    def dstemr(call):
        with lock:
            counts["dstemr"] += 1
        call.real()

    monkeypatch.setattr(scipy.linalg.lapack, "dstevd", dstevd)
    patch_dstemr(monkeypatch, dstemr)
    return counts


def reference_simulate_full(params, seed, steps, burn_in=0):
    """The full simulator's samples from its plain per-site loop, kept as
    the oracle for its lanes: the same draws, chunk by chunk, and one
    Python update per site."""
    from cwglauber.ising import logistic
    from cwglauber.magchain import reduced_stationary
    n = params.n
    rng = np.random.default_rng(seed)
    k = int(rng.choice(n + 1, p=reduced_stationary(params)))
    spins = np.bincount(rng.permutation(n)[:k], minlength=n).tolist()
    p_plus = [logistic(2.0 * (params.J * (2 * m - n + 1) + params.H))
              for m in range(n)]
    levels = []
    chunk = max(1, 131072 // n)
    for t in range(-burn_in, steps, chunk):
        b = min(chunk, steps - t) * n
        us = rng.random(b).tolist()
        xs = rng.integers(0, n, size=b).tolist()
        for i, (x, u) in enumerate(zip(xs, us), 1):
            s = spins[x]
            if u < p_plus[k - s]:
                if not s:
                    spins[x] = 1
                    k += 1
            elif s:
                spins[x] = 0
                k -= 1
            if i % n == 0:
                levels.append(k)
    return 2.0 * np.array(levels[burn_in:], dtype=float) - n


def reference_simulate_reduced(params, seed, steps, burn_in=0):
    """The reduced simulator's samples from the plain sweep-kernel walk, kept
    as the oracle for its lanes: 131072 uniforms at a time, and one bisect
    of the kernel's cumulative row per sweep."""
    from bisect import bisect
    from cwglauber.magchain import build_reduced_chain, reduced_stationary
    from cwglauber.mcmc import sweep_kernel_rows
    n = params.n
    rows = sweep_kernel_rows(build_reduced_chain(params)).tolist()
    rng = np.random.default_rng(seed)
    k = int(rng.choice(n + 1, p=reduced_stationary(params)))
    levels = []
    for t in range(-burn_in, steps, 131072):
        for u in rng.random(min(131072, steps - t)).tolist():
            k = bisect(rows[k], u)
            levels.append(k)
    return 2.0 * np.array(levels[burn_in:], dtype=float) - n


def reference_simulate_lumped(params, seed, steps, burn_in=0):
    """The reduced simulator's samples above N_MAX_SWEEP_KERNEL from the
    plain lumped per-site rule: 131072 // n sweeps of uniforms at a time,
    one uniform per step, k + 1 if u < up[k], k - 1 if not but u < up[k] +
    down[k], else k."""
    from cwglauber.magchain import build_reduced_chain, reduced_stationary
    n = params.n
    chain = build_reduced_chain(params)
    up = np.append(chain.up, 0.0).tolist()
    down = np.insert(chain.down, 0, 0.0).tolist()
    rng = np.random.default_rng(seed)
    k = int(rng.choice(n + 1, p=reduced_stationary(params)))
    levels = []
    chunk = max(1, 131072 // n)
    for t in range(-burn_in, steps, chunk):
        us = rng.random(min(chunk, steps - t) * n).tolist()
        for i, u in enumerate(us, 1):
            if u < up[k]:
                k += 1
            elif u < up[k] + down[k]:
                k -= 1
            if i % n == 0:
                levels.append(k)
    return 2.0 * np.array(levels[burn_in:], dtype=float) - n
