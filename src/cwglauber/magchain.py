"""The lumped magnetization chain and its coupling derivative.

Permutation symmetry of the mean-field model lets the 2^n Glauber chain be
lumped onto the number k of +1 spins.  The lumped chain is tridiagonal on
{0..n}:

    up_k   = P(k -> k+1) = ((n-k)/n) * 1/(1 + e^{(n-2k-1)2J - 2H})
    down_k = P(k -> k-1) = (k/n)     * 1/(1 + e^{-(n-2k+1)2J + 2H})

with the boundary convention P(0 -> -1) = P(n -> n+1) = 0.  It shares its
second-largest eigenvalue with the full chain, which is what makes it the
workhorse of every spectral computation here.

The derivative of the chain in J is also tridiagonal, with d_down[k] =
s_{k+1} = ((k+1)(n-2k-1)/n) / (1 + cosh[(n-2k-1)2J - 2H]).  The s-based
upper diagonal d_up[k] = s_{n-k} holds only at H = 0 (under k -> n-k the
cosh argument flips its J part, not its -2H part), so ``derivative_matrix``
differentiates the entries in closed form: right for all H, and bitwise the
s-based form at H = 0.  Chain, law and derivative also take a column of J.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .ising import Distribution, ModelParams, all_plus_counts, logistic


def inv_one_plus_cosh(x):
    """Stable 1/(1 + cosh x) = 2 e^{-|x|} / (1 + e^{-|x|})^2, elementwise."""
    e = np.exp(-np.abs(np.asarray(x, dtype=float)))
    return 2.0 * e / (1.0 + e) ** 2


@dataclass(frozen=True)
class ReducedChain:
    """Tridiagonal transition data on magnetization levels 0..n (per row for
    a grid): up[k] = P(k -> k+1) for k = 0..n-1; down[k] = P(k+1 -> k) at
    slot k; diag has length n+1.  Up/down entries are positive for finite
    parameters unless they underflow to 0 (``positive_rates``).
    """

    n: int
    up: np.ndarray
    down: np.ndarray
    diag: np.ndarray


@dataclass(frozen=True)
class DerivativeMatrix:
    """Entrywise d/dJ of the reduced chain (per row for a grid); rows sum to 0."""

    n: int
    d_up: np.ndarray
    d_down: np.ndarray
    d_diag: np.ndarray

    def apply(self, f: np.ndarray) -> np.ndarray:
        f = np.asarray(f, dtype=float)
        out = self.d_diag * f
        out[..., :-1] += self.d_up * f[..., 1:]
        out[..., 1:] += self.d_down * f[..., :-1]
        return out


def add_shifted(a, b):
    """(a, 0) + (0, b) along the last axis: a tridiagonal row sum."""
    zero = np.zeros(a.shape[:-1] + (1,))
    return np.concatenate([a, zero], axis=-1) + np.concatenate([zero, b], axis=-1)


def build_reduced_chain(params: ModelParams) -> ReducedChain:
    """Magnetization chain entries from the closed-form heat-bath rates."""
    n, J, H = params.n, params.J, params.H
    k = np.arange(n, dtype=float)
    x = (n - 2 * k - 1) * 2 * J - 2 * H  # up from k and down from k+1 share x
    rates = logistic(np.concatenate([-x, x], axis=-1))
    up, down = ((n - k) / n) * rates[..., :n], ((k + 1) / n) * rates[..., n:]
    # 1 - (a + b) rather than 1 - a - b: IEEE addition commutes, so the
    # H -> -H mirror symmetry of the diagonal is exact to the last bit.
    return ReducedChain(n=n, up=up, down=down, diag=1.0 - add_shifted(up, down))


def positive_rates(chain: ReducedChain) -> np.ndarray:
    """True (per row) where no up or down rate underflowed to 0, so that the
    chain is irreducible and its eigenvector and stationary law defined."""
    return chain.up.all(axis=-1) & chain.down.all(axis=-1)


def reduced_stationary(params: ModelParams) -> Distribution:
    """Stationary law pi_k ~ C(n,k) exp(J (2k-n)^2 / 2 + H (2k-n)) of the
    chain, in log space; C(n,k) counts the configurations lumped into k."""
    n, H = params.n, params.H
    J = params.J * (n > 1)  # no spin pair at n = 1, so J drops out
    k = np.arange(n + 1, dtype=float)
    m = 2 * k - n
    lw = (gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
          + J * m * m / 2.0 + H * m)
    return Distribution.from_log_weights(lw)


def s_values(params: ModelParams) -> np.ndarray:
    """The quantities s_k = (k(n-2k+1)/n) / (1 + cosh[(n-2k+1)2J - 2H]).

    s_0 = 0 for all parameters, and the sign of s_k equals the sign of
    n-2k+1: nonnegative for k <= (n+1)/2 and nonpositive for k >= (n+1)/2.
    """
    return np.append(0.0, derivative_matrix(params).d_down)


def derivative_matrix(params: ModelParams) -> DerivativeMatrix:
    """Tridiagonal d/dJ of the reduced chain in closed form: d_down[k] =
    s_{k+1}, d_up[k] = ((n-k)(2k-n+1)/n) / (1 + cosh[(n-2k-1)2J - 2H]), and
    a diagonal that makes every row sum to zero to rounding."""
    n, J, H = params.n, params.J, params.H
    k = np.arange(n, dtype=float)
    c = inv_one_plus_cosh((n - 2 * k - 1) * 2 * J - 2 * H)
    d_up = ((n - k) * (2 * k - n + 1) / n) * c
    d_down = ((k + 1) * (n - 2 * k - 1) / n) * c
    return DerivativeMatrix(n=n, d_up=d_up, d_down=d_down,
                            d_diag=-add_shifted(d_up, d_down))


def lump_vector(f_levels, n: int) -> np.ndarray:
    """Lift a level function (f_0..f_n) to the 2^n configuration space.

    Every configuration with k spins up receives f_levels[k]; this transports
    reduced-chain eigenvectors into the full space, where they remain
    eigenvectors of the full transition matrix.
    """
    f_levels = np.asarray(f_levels, dtype=float)
    if len(f_levels) != n + 1:
        raise ValueError(f"expected {n + 1} level values, got {len(f_levels)}")
    return f_levels[all_plus_counts(n)]
