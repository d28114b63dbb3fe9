"""The lumped magnetization chain and its coupling derivative.

Permutation symmetry of the mean-field model lets the 2^n Glauber chain be
lumped onto the number k of +1 spins.  The lumped chain is tridiagonal on
{0..n}:

    up_k   = P(k -> k+1) = ((n-k)/n) * 1/(1 + e^{(n-2k-1)2J - 2H})
    down_k = P(k -> k-1) = (k/n)     * 1/(1 + e^{-(n-2k+1)2J + 2H})

with the boundary convention P(0 -> -1) = P(n -> n+1) = 0.  It shares its
second-largest eigenvalue with the full chain, which is what makes it the
workhorse of every spectral computation here.

The derivative of the chain with respect to J is also tridiagonal and is
expressible through

    s_k = (k(n-2k+1)/n) * 1/(1 + cosh[(n-2k+1)2J - 2H]),

but the s-based form of the upper diagonal (d_up[k] = s_{n-k}) is valid only
at H = 0: under the reflection k -> n-k the cosh argument flips the sign of
its J part and not of its -2H part.  ``derivative_matrix`` therefore
differentiates the chain entries in closed form, which is correct for all H
and coincides bitwise with the s-based form at H = 0.
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
    """Tridiagonal transition data on magnetization levels 0..n.

    up[k] = P(k -> k+1) for k = 0..n-1; down[k] = P(k+1 -> k) stored at slot
    k; diag has length n+1.  All up/down entries are strictly positive for
    finite parameters.
    """

    n: int
    up: np.ndarray
    down: np.ndarray
    diag: np.ndarray


@dataclass(frozen=True)
class DerivativeMatrix:
    """Entrywise d/dJ of the reduced chain; rows sum to zero."""

    n: int
    d_up: np.ndarray
    d_down: np.ndarray
    d_diag: np.ndarray

    def apply(self, f: np.ndarray) -> np.ndarray:
        f = np.asarray(f, dtype=float)
        out = self.d_diag * f
        out[:-1] += self.d_up * f[1:]
        out[1:] += self.d_down * f[:-1]
        return out


def build_reduced_chain(params: ModelParams) -> ReducedChain:
    """Magnetization chain entries from the closed-form heat-bath rates."""
    n, J, H = params.n, params.J, params.H
    k = np.arange(n, dtype=float)
    x = (n - 2 * k - 1) * 2 * J - 2 * H  # up from k and down from k+1 share x
    rates = logistic(np.concatenate([-x, x]))
    up = ((n - k) / n) * rates[:n]
    down = ((k + 1) / n) * rates[n:]
    # 1 - (a + b) rather than 1 - a - b: IEEE addition commutes, so the
    # H -> -H mirror symmetry of the diagonal is exact to the last bit.
    diag = 1.0 - (np.append(up, 0.0) + np.append(0.0, down))
    return ReducedChain(n=n, up=up, down=down, diag=diag)


def reduced_stationary(params: ModelParams) -> Distribution:
    """Stationary law of the magnetization chain.

    pi_k ~ C(n,k) * exp(J (2k-n)^2 / 2 + H (2k-n)); the binomial factor counts
    the configurations lumped into level k.  Computed in log space.
    """
    n, J, H = params.n, params.J, params.H
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
    n, J, H = params.n, params.J, params.H
    k = np.arange(n + 1, dtype=float)
    return (k * (n - 2 * k + 1) / n) * inv_one_plus_cosh((n - 2 * k + 1) * 2 * J - 2 * H)


def derivative_matrix(params: ModelParams) -> DerivativeMatrix:
    """Tridiagonal d/dJ of the reduced chain, by direct closed-form
    differentiation of the chain entries: d_down[k] = s_{k+1}, and d_up at
    row k = ((n-k)(2k-n+1)/n) / (1 + cosh[(n-2k-1)2J - 2H]).

    The diagonal is assembled so every row sums to zero to rounding.
    """
    n, J, H = params.n, params.J, params.H
    d_down = s_values(params)[1:]
    k = np.arange(n, dtype=float)
    d_up = (((n - k) * (2 * k - n + 1) / n)
            * inv_one_plus_cosh((n - 2 * k - 1) * 2 * J - 2 * H))
    d_diag = -(np.append(d_up, 0.0) + np.append(0.0, d_down))
    return DerivativeMatrix(n=n, d_up=d_up, d_down=d_down, d_diag=d_diag)


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
