"""Shared fixtures and helpers."""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg


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
    flux = P * pi.probabilities[:, None]
    return np.abs(flux - flux.T).max()


@pytest.fixture
def dstemr_fails(monkeypatch):
    """Make LAPACK dstemr report a nonzero info (7) on every call."""
    def failing(d, e, *args, **kwargs):
        return 0, np.zeros(len(d)), np.zeros((len(d), len(d))), 7

    monkeypatch.setattr(scipy.linalg.lapack, "dstemr", failing)


@pytest.fixture
def dstemr_out_of_memory(monkeypatch):
    """Make LAPACK dstemr raise MemoryError, as its n x n eigenvector array
    does at n = 10^5, without allocating anything."""
    def failing(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB for the eigenvectors")

    monkeypatch.setattr(scipy.linalg.lapack, "dstemr", failing)


@pytest.fixture
def lapack_calls(monkeypatch):
    """Count calls to LAPACK dstevd and dstemr, keyed by routine name."""
    counts = {"dstevd": 0, "dstemr": 0}
    for name in counts:
        real = getattr(scipy.linalg.lapack, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg.lapack, name, counting)
    return counts


def reference_simulate_full(params, seed, steps, burn_in=0):
    """The full simulator's samples from its plain per-site loop, kept as
    the oracle for the coupled lanes: the same draws, chunk by chunk, and
    one Python update per site."""
    from cwglauber.ising import logistic
    from cwglauber.magchain import reduced_stationary
    n = params.n
    rng = np.random.default_rng(seed)
    k = int(rng.choice(n + 1, p=reduced_stationary(params).probabilities))
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
    k = int(rng.choice(n + 1, p=reduced_stationary(params).probabilities))
    levels = []
    for t in range(-burn_in, steps, 131072):
        for u in rng.random(min(131072, steps - t)).tolist():
            k = bisect(rows[k], u)
            levels.append(k)
    return 2.0 * np.array(levels[burn_in:], dtype=float) - n
