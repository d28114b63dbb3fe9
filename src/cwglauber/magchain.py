"""The lumped magnetization chain and its coupling derivative.

Permutation symmetry of the mean-field model lets the 2^n Glauber chain be
lumped onto the number k of +1 spins.  The lumped chain is tridiagonal on
{0..n}:

    up_k   = P(k -> k+1) = ((n-k)/n) * 1/(1 + e^{(n-2k-1)2J - 2H})
    down_k = P(k -> k-1) = (k/n)     * 1/(1 + e^{-(n-2k+1)2J + 2H})

with the boundary convention P(0 -> -1) = P(n -> n+1) = 0.  It shares its
second-largest eigenvalue with the full chain, which is what makes it the
workhorse of every spectral computation here.

The derivative of the chain in J is the same kind of tridiagonal, with
down[k] = s_{k+1} = ((k+1)(n-2k-1)/n) / (1 + cosh[(n-2k-1)2J - 2H]).  The
s-based upper diagonal up[k] = s_{n-k} holds only at H = 0 (under k -> n-k
the cosh argument flips its J part, not its -2H part), so
``derivative_matrix`` differentiates the entries in closed form: right for
all H, and bitwise the s-based form at H = 0.  Chain, law and derivative
also take a column of J.
"""

import math
from dataclasses import dataclass

import numpy as np

from .ising import ModelParams, all_plus_counts, law_from_log_weights, logistic


def inv_one_plus_cosh(x):
    """Stable 1/(1 + cosh x) = 2 e^{-|x|} / (1 + e^{-|x|})^2, elementwise."""
    e = np.exp(-np.abs(np.asarray(x, dtype=float)))
    return 2.0 * e / (1.0 + e) ** 2


@dataclass(frozen=True)
class Tridiagonal:
    """A matrix on magnetization levels 0..n (per row for a grid): up[k] is
    entry (k, k+1) and down[k] entry (k+1, k) for k = 0..n-1; diag has
    length n+1.  For the chain, up[k] = P(k -> k+1) and down[k] =
    P(k+1 -> k), positive unless they underflow to 0 (``positive_rates``);
    for its J-derivative, the entries' d/dJ, with rows summing to 0.
    """

    n: int
    up: np.ndarray
    down: np.ndarray
    diag: np.ndarray

    def apply(self, f: np.ndarray) -> np.ndarray:
        f = np.asarray(f, dtype=float)
        out = self.diag * f
        out[..., :-1] += self.up * f[..., 1:]
        out[..., 1:] += self.down * f[..., :-1]
        return out


def add_shifted(a, b):
    """(a, 0) + (0, b) along the last axis: a tridiagonal row sum."""
    zero = np.zeros(a.shape[:-1] + (1,))
    return np.concatenate([a, zero], axis=-1) + np.concatenate([zero, b], axis=-1)


def build_reduced_chain(params: ModelParams) -> Tridiagonal:
    """Magnetization chain entries from the closed-form heat-bath rates."""
    n, J, H = params.n, params.J, params.H
    k = np.arange(n, dtype=float)
    x = (n - 2 * k - 1) * 2 * J - 2 * H  # up from k and down from k+1 share x
    rates = logistic(np.concatenate([-x, x], axis=-1))
    up, down = ((n - k) / n) * rates[..., :n], ((k + 1) / n) * rates[..., n:]
    # 1 - (a + b) rather than 1 - a - b: IEEE addition commutes, so the
    # H -> -H mirror symmetry of the diagonal is exact to the last bit.
    return Tridiagonal(n=n, up=up, down=down, diag=1.0 - add_shifted(up, down))


def positive_rates(chain: Tridiagonal) -> np.ndarray:
    """True (per row) where no up or down rate underflowed to 0, so that the
    chain is irreducible and its eigenvector and stationary law defined."""
    return chain.up.all(axis=-1) & chain.down.all(axis=-1)


# cephes lgam's Stirling series for x >= 13, as scipy's gammaln runs it:
# ln Gamma(x) = (x - 1/2) ln x - x + ln sqrt(2 pi) + A(1/x^2)/x below 1000,
# a shorter series up to 1e8 and none above.
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
           7.93650340457716943945e-4, -2.77777777730099687205e-3,
           8.33333333333331927722e-2)
_LS2PI = 0.91893853320467274178


def _stirling(x: np.ndarray, log_x: np.ndarray) -> np.ndarray:
    """cephes lgam at ascending x >= 13 from libm's log x, in its order of
    operations."""
    q = (x - 0.5) * log_x
    q -= x
    q += _LS2PI
    mid, end = np.searchsorted(x, 1000.0), np.searchsorted(x, 1e8, "right")
    p = 1.0 / (x[:end] * x[:end])
    series = np.full(mid, _LGAM_A[0])
    for a in _LGAM_A[1:]:
        series = series * p[:mid] + a
    q[:mid] += series / x[:mid]
    p = p[mid:]
    q[mid:end] += ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3)
                   * p + 0.0833333333333333333333) / x[mid:end]
    return q


def log_factorials(n: int) -> np.ndarray:
    """log k! for k = 0..n, bit for bit scipy's gammaln(k + 1), which is
    cephes lgam at x = k + 1, without importing scipy.special.  Below x = 13
    it is the log of the exact factorial; from 13 on, the Stirling series.
    Every log is math.log, the libm routine the compiled gammaln calls:
    numpy's SIMD np.log differs from it in the last bit at some integers."""
    small = [math.log(math.factorial(k)) for k in range(min(n, 11) + 1)]
    log_x = np.fromiter(map(math.log, range(13, n + 2)), float, max(n - 11, 0))
    return np.concatenate([small, _stirling(np.arange(13.0, n + 2), log_x)])


def reduced_stationary(params: ModelParams) -> np.ndarray:
    """Stationary law pi_k ~ C(n,k) exp(J (2k-n)^2 / 2 + H (2k-n)) of the
    chain, in log space; C(n,k) counts the configurations lumped into k."""
    n, H = params.n, params.H
    J = params.J * (n > 1)  # no spin pair at n = 1, so J drops out
    k = np.arange(n + 1, dtype=float)
    m = 2 * k - n
    log_fact = log_factorials(n)
    lw = (log_fact[n] - log_fact - log_fact[::-1]
          + J * m * m / 2.0 + H * m)
    return law_from_log_weights(lw)


def s_values(params: ModelParams) -> np.ndarray:
    """The quantities s_k = (k(n-2k+1)/n) / (1 + cosh[(n-2k+1)2J - 2H]).

    s_0 = 0 for all parameters, and the sign of s_k equals the sign of
    n-2k+1: nonnegative for k <= (n+1)/2 and nonpositive for k >= (n+1)/2.
    """
    return np.append(0.0, derivative_matrix(params).down)


def derivative_matrix(params: ModelParams) -> Tridiagonal:
    """Tridiagonal d/dJ of the reduced chain in closed form: down[k] =
    s_{k+1}, up[k] = ((n-k)(2k-n+1)/n) / (1 + cosh[(n-2k-1)2J - 2H]), and a
    diagonal that makes every row sum to zero to rounding."""
    n, J, H = params.n, params.J, params.H
    k = np.arange(n, dtype=float)
    c = inv_one_plus_cosh((n - 2 * k - 1) * 2 * J - 2 * H)
    up = ((n - k) * (2 * k - n + 1) / n) * c
    down = ((k + 1) * (n - 2 * k - 1) / n) * c
    return Tridiagonal(n=n, up=up, down=down, diag=-add_shifted(up, down))


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
