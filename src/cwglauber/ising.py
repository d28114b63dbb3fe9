"""Full-state Glauber dynamics for the mean-field Ising model.

The model lives on the complete graph with n vertices, uniform coupling J >= 0
and uniform external field H.  A configuration assigns +-1 to every vertex;
the Gibbs measure is

    pi(sigma) ~ exp( J * sum_{x<y} sigma_x sigma_y + H * sum_x sigma_x ),

with the pair sum over unordered pairs, each counted once.  That convention is
what makes the Gibbs measure reversible for the heat-bath transition rule used
here (an ordered-pair reading would rescale J by 2 and break detailed
balance); the flip-ratio identity pinning it down is exercised in the tests.

Everything in this module enumerates the full 2^n state space and therefore
serves as the brute-force oracle for the lumped magnetization chain.  Builds
are refused above ``N_MAX_FULL`` vertices rather than silently degraded.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

# Full-chain builds store the 2^n-state chain sparsely, n + 1 entries per
# row; 12 (4096 states) is the default cap, raised by `verify --n-max-full`.
N_MAX_FULL = 12


def logistic(a):
    """Numerically stable logistic 1/(1 + e^-a), elementwise.

    Evaluated as e^a/(1 + e^a) for negative arguments so that no exp ever
    overflows, whatever n*J the caller feeds in.
    """
    a = np.asarray(a, dtype=float)
    e = np.exp(-np.abs(a))
    out = np.where(a >= 0, 1.0, e) / (1.0 + e)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class ModelParams:
    """Parameters of the mean-field model: vertex count n, coupling J, field H.

    J = 0 is admitted as a degenerate reference point (the chain becomes the
    lazy Ehrenfest urn with known spectrum).  J may be a column: a grid.
    """

    n: int
    J: float
    H: float = 0.0

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        if not (np.isfinite(self.J) & (np.asarray(self.J) >= 0)).all():
            raise ValueError(f"J must be finite and >= 0, got {self.J!r}")
        if not np.isfinite(self.H):
            raise ValueError(f"H must be finite, got {self.H!r}")


def all_plus_counts(n: int) -> np.ndarray:
    """Number of +1 spins for every configuration index 0..2^n-1."""
    idx = np.arange(1 << n)
    counts = np.zeros_like(idx)
    for b in range(n):
        counts += (idx >> b) & 1
    return counts


def law_from_log_weights(log_weights) -> np.ndarray:
    """Probabilities exp(log_weights) normalized by scipy's logsumexp along
    the last axis (one law per row).  Where eps * |max log-weight| outgrows
    the log of the count of tied maxima it cannot normalize (n = 8, J = 1e20
    reads [1, 0, ..., 0, 1]); callers refuse such chains first."""
    lw = np.asarray(log_weights, dtype=float)
    return np.exp(lw - logsumexp(lw, axis=-1, keepdims=True))


def log_weights_full(params: ModelParams) -> np.ndarray:
    """Unnormalized log Gibbs weight J*sum_{x<y} s_x s_y + H*sum_x s_x for
    every index 0..2^n-1 (bit i set exactly when spin i is +1).

    With k spins up the pair sum collapses to ((2k-n)^2 - n)/2, which is exact
    integer arithmetic before the float multiplies; the global flip symmetry
    at H=0 therefore holds exactly in the log-weights.
    """
    n = params.n
    m = 2 * all_plus_counts(n) - n
    return params.J * ((m * m - n) / 2.0) + params.H * m


def full_transition_matrix(params: ModelParams, n_max_full: int = N_MAX_FULL):
    """Sparse 2^n x 2^n heat-bath transition matrix, as a scipy csr_array.

    A step picks a vertex x uniformly and resets its spin from the conditional
    Gibbs law given the others:

        P(sigma -> sigma^x) = (1/n) * logistic(2 s'_x (J * S_x + H)),

    with S_x the sum of the other spins and s'_x the flipped value; the
    diagonal absorbs the remaining mass.  A row stores only its diagonal and
    its n flips, and sums to 1 by construction.
    """
    import scipy.sparse  # deferred: ~30 ms of import only the oracle needs
    n = params.n
    if n > n_max_full:
        raise ValueError(
            f"full chain for n={n} refused: exceeds n_max_full={n_max_full} "
            f"(2^n state space)")
    if 8 * (n + 1) << n > np.iinfo(np.intp).max:
        # numpy fails on byte counts past intp with ValueError or TypeError
        raise MemoryError(f"full chain for n={n} refused: 2^{n} x {n + 1} "
                          f"entries exceed the address space")
    # A flip depends only on the site's spin s and the up-count k, since the
    # other spins sum to 2k - n - s: table[b, k] holds it for s = 2b - 1.
    s = np.array([[-1], [1]])
    others = 2 * np.arange(n + 1) - n - s
    table = logistic(2.0 * (-s) * (params.J * others + params.H)) / n
    m = 1 << n
    nnz = m * (n + 1)
    itype = np.int32 if nnz < 2**31 else np.int64
    idx = np.arange(m, dtype=itype)
    k = all_plus_counts(n)
    data = np.empty((m, n + 1))
    cols = np.empty((m, n + 1), dtype=itype)
    cols[:, 0] = idx
    for x in range(n):
        data[:, x + 1] = table[(idx >> x) & 1, k]
        cols[:, x + 1] = idx ^ (1 << x)
    data[:, 0] = 1.0 - data[:, 1:].sum(axis=1)
    P = scipy.sparse.csr_array(
        (data.ravel(), cols.ravel(), np.arange(0, nnz + 1, n + 1, dtype=itype)),
        shape=(m, m))
    P.sort_indices()  # canonical CSR: columns ascending within each row
    return P


def stationary_full(params: ModelParams, n_max_full: int = N_MAX_FULL) -> np.ndarray:
    """Gibbs measure on the full 2^n state space."""
    if params.n > n_max_full:
        raise ValueError(
            f"stationary distribution for n={params.n} refused: exceeds "
            f"n_max_full={n_max_full}")
    return law_from_log_weights(log_weights_full(params))
