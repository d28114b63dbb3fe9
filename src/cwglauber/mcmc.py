"""Heat-bath simulation and relaxation-time estimation from trajectories.

Both simulators record the total magnetization m = 2k - n once per sweep (n
elementary single-site steps).  The full simulator keeps the configuration as
a list of n spins and resets one uniformly chosen spin per step from its
conditional law.  The reduced simulator walks the magnetization levels: up to
n = N_MAX_SWEEP_KERNEL it draws each recorded level from the row of the sweep
kernel P^n at the previous level, one uniform per sweep; above that it applies
the lumped up/down rule once per step.  Both start from an exact stationary
sample, so stationarity tests need no burn-in (the argument is still honored
for runs that want it).

The relaxation time targeted by the estimators is 1/(1 - lambda_2) in
single-site steps, i.e. (1/(1 - lambda_2))/n in the sweep units of the
recorded series.  Two estimators are provided: a least-squares fit to the
log-autocovariance over lags with signal above the noise floor, and the
integrated autocorrelation time with the self-consistent window rule
W >= 6 tau(W).  Standard errors come from recomputing the estimate on 16
contiguous batches.
"""

import math
from bisect import bisect
from dataclasses import dataclass

import numpy as np

from .ising import ModelParams, logistic
from .magchain import ReducedChain, build_reduced_chain, reduced_stationary

# The state (n spins) needs no cap; the full simulator only cross-checks the
# reduced one, which samples the same law at any n, at the sizes tests pin.
N_MAX_SIMULATE_FULL = 24

# Largest n at which the reduced simulator builds the sweep kernel P^n: at
# n = 512 its nine squarings take under 1/10 of a per-site run of MIN_SAMPLES
# sweeps (2-core host, two BLAS threads); the share grows with n from there.
N_MAX_SWEEP_KERNEL = 512

MIN_SAMPLES = 10_000
BATCH_COUNT = 16

# tau_int of a sequence i.i.d. at the sweep scale; estimates cannot resolve
# dynamics below this.
T_REL_FLOOR = 0.5


class EstimationError(RuntimeError):
    """The trajectory cannot support the requested estimate."""


@dataclass(frozen=True)
class Trajectory:
    """Magnetization samples m_t = 2 k_t - n, one per sweep."""

    params: ModelParams
    seed: int
    burn_in: int
    samples: np.ndarray

    @property
    def sweeps(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class RelaxationEstimate:
    """Estimated relaxation time in sweep units.

    floor_limited marks estimates indistinguishable from white noise (no
    detectable dynamics at the sweep scale); t_rel_hat never goes below the
    documented floor of 0.5 sweeps.
    """

    t_rel_hat: float
    stderr: float
    method: str
    floor_limited: bool = False


def _record(samples: np.ndarray, ks: list, n: int, t: int,
            stride: int) -> None:
    """Store m = 2k - n for every stride-th level of ks, the last of each
    sweep; t < 0 indexes burn-in sweeps."""
    levels = ks[stride - 1 + max(-t, 0) * stride::stride]
    m = samples[max(t, 0):max(t, 0) + len(levels)]
    m[:] = levels
    m *= 2
    m -= n


def sweep_kernel_rows(chain: ReducedChain) -> list:
    """Cumulative rows of P^n without their last entry, so that bisect(row,
    u) is a level in 0..n.

    P^n comes from binary powering (matmul only, no eigensolver), so Monte
    Carlo stays independent of the spectral core.  Zero levels pad P to a
    multiple of 64: OpenBLAS then gives the same bytes at any thread count,
    where sizes such as 101 or 513 differ in the last bits between one
    thread and two."""
    n = chain.n
    P = (np.diag(chain.diag) + np.diag(chain.up, k=1)
         + np.diag(chain.down, k=-1))
    K = np.linalg.matrix_power(np.pad(P, (0, -(n + 1) % 64)), n)
    return np.cumsum(K[:n + 1, :n + 1], axis=1)[:, :-1].tolist()


def simulate_reduced(params: ModelParams, seed: int, steps: int,
                     burn_in: int = 0) -> Trajectory:
    """Run the magnetization chain for `steps` recorded sweeps.

    The initial level is drawn from the exact stationary law.  For n <=
    N_MAX_SWEEP_KERNEL each sweep, burn-in included, is one draw from the row
    of P^n at the current level, by one uniform; above it each sweep is n
    single applications of the lumped transition rule, by one uniform each.
    Identical arguments give bitwise-identical trajectories.
    """
    if steps < 0 or burn_in < 0:
        raise ValueError("steps and burn_in must be nonnegative")
    n = params.n
    rng = np.random.default_rng(seed)
    chain = build_reduced_chain(params)
    k = int(rng.choice(n + 1, p=reduced_stationary(params).probabilities))
    samples = np.empty(steps)
    if n <= N_MAX_SWEEP_KERNEL:
        rows = sweep_kernel_rows(chain)
        for t in range(-burn_in, steps, 131072):
            ks = []
            append = ks.append
            for u in rng.random(min(131072, steps - t)).tolist():
                k = bisect(rows[k], u)
                append(k)
            _record(samples, ks, n, t, 1)
        return Trajectory(params=params, seed=seed, burn_in=burn_in,
                          samples=samples)
    up = np.append(chain.up, 0.0)
    up_t, updown_t = up.tolist(), (up + np.insert(chain.down, 0, 0.0)).tolist()
    chunk = max(1, 131072 // n)
    for t in range(-burn_in, steps, chunk):
        ks = []
        append = ks.append
        for u in rng.random(min(chunk, steps - t) * n).tolist():
            if u < up_t[k]:
                k += 1
            elif u < updown_t[k]:
                k -= 1
            append(k)
        _record(samples, ks, n, t, n)
    return Trajectory(params=params, seed=seed, burn_in=burn_in, samples=samples)


def simulate_full(params: ModelParams, seed: int, steps: int,
                  burn_in: int = 0) -> Trajectory:
    """Single-site heat-bath simulation of the full configuration chain.

    Each step picks a site uniformly and sets its spin to +1 with probability
    logistic(2 (J * (sum of other spins) + H)); n <= N_MAX_SIMULATE_FULL.
    Each chunk of 131072 // n sweeps draws its uniforms, then its sites, so
    the chunk size is part of the stream.
    """
    if steps < 0 or burn_in < 0:
        raise ValueError("steps and burn_in must be nonnegative")
    n = params.n
    if n > N_MAX_SIMULATE_FULL:
        raise ValueError(f"simulate_full supports n <= {N_MAX_SIMULATE_FULL}, got {n}")
    rng = np.random.default_rng(seed)
    k = int(rng.choice(n + 1, p=reduced_stationary(params).probabilities))
    spins = np.bincount(rng.permutation(n)[:k], minlength=n).tolist()
    # p(set +1) depends only on m = k - spins[x], the number of up spins
    # among the other n - 1 sites, whose sum is 2m - n + 1.
    p_plus = [logistic(2.0 * (params.J * (2 * m - n + 1) + params.H))
              for m in range(n)]
    samples = np.empty(steps)
    chunk = max(1, 131072 // n)
    for t in range(-burn_in, steps, chunk):
        b = min(chunk, steps - t) * n
        us = rng.random(b).tolist()
        xs = rng.integers(0, n, size=b).tolist()
        ks = []
        append = ks.append
        for x, u in zip(xs, us):
            s = spins[x]
            if u < p_plus[k - s]:
                if not s:
                    spins[x] = 1
                    k += 1
            elif s:
                spins[x] = 0
                k -= 1
            append(k)
        _record(samples, ks, n, t, n)
    return Trajectory(params=params, seed=seed, burn_in=burn_in, samples=samples)


def autocovariance(x: np.ndarray, lags: int) -> np.ndarray:
    """Autocovariance gamma(l) = (1/N) sum_t (x_t - xbar)(x_{t+l} - xbar)
    for l = 0..lags-1, lags <= N, by one FFT zero-padded past N+lags-1."""
    x = np.asarray(x, dtype=float)
    x = x - x.mean()
    N = len(x)
    m = 1 << (N + lags - 1).bit_length()
    f = np.fft.rfft(x, m)
    return np.fft.irfft(f * np.conj(f), m)[:lags] / N


def _acov_with_floor(x: np.ndarray):
    """Autocovariance plus its Bartlett noise floor, with sanity guards.

    The lags start at every one the smallest FFT holding 64 lags gives, and
    grow until they hold the first nonpositive one, L0, and the first
    W >= 6 tau(W), or else are all N (L0 = N // 2 if no lag is nonpositive):
    every lag either estimator reads.
    A lag-1 autocovariance significantly below zero (beyond -3 floors) means
    genuinely anticorrelated data that no relaxation-time reading fits; a
    lag-1 value merely within noise of zero is the white-noise regime and is
    left for the estimators to flag as floor-limited.
    """
    N = len(x)
    lags = min((1 << (N + 63).bit_length()) - N, N)
    while True:
        acov = autocovariance(x, lags)
        if acov[0] <= 0:
            raise EstimationError("zero-variance series")
        neg = np.nonzero(acov[1:] <= 0)[0]
        taus = 0.5 + np.cumsum(acov[1:] / acov[0])  # tau(W) for W = 1, 2, ...
        W = np.arange(1, len(acov))
        if lags == N or (len(neg) and np.any(W >= 6 * taus)):
            break
        # at least double, by all the lags the next FFT's padding holds
        lags = min((1 << (N + 2 * lags - 1).bit_length()) - N, N)
    L0 = int(neg[0]) + 1 if len(neg) else N // 2
    noise_floor = math.sqrt((acov[0] ** 2 + 2 * np.sum(acov[1:L0] ** 2)) / N)
    if acov[1] <= -3 * noise_floor:
        raise EstimationError(
            "autocovariance nonpositive at lag 1: run too short or no dynamics")
    return acov, L0, noise_floor


def _exp_fit(x: np.ndarray):
    """(t_rel_hat, floor_limited) from the log-autocovariance slope.

    Lags enter the fit while the autocovariance stays above three times its
    Bartlett noise floor: the window is the initial contiguous run above the
    threshold (tail lags that pop back over it are noise bumps, and their
    leverage would tilt the slope).  The fit is weighted by inverse variance
    of the log values, i.e. by signal-to-floor ratio.  When no lag qualifies
    the series is statistically white at the sweep scale and the floor value
    is returned.
    """
    acov, L0, noise_floor = _acov_with_floor(x)
    above = acov[1:L0] > 3 * noise_floor
    end = int(np.argmin(above)) if not above.all() else len(above)
    lags = np.arange(1, end + 1)
    if len(lags) < 2:
        return T_REL_FLOOR, True
    y = np.log(acov[lags])
    w = acov[lags] / noise_floor  # 1/sigma of log gamma(l)
    A = np.vstack([np.ones(len(lags)), -lags.astype(float)]).T
    (_, inv_tau), *_ = np.linalg.lstsq(A * w[:, None], y * w, rcond=None)
    if inv_tau <= 0:
        raise EstimationError("log-autocovariance fit found no decay")
    return float(1.0 / inv_tau), False


def _integrated(x: np.ndarray):
    """(tau_int, floor_limited) with the self-consistent window W >= 6 tau(W)."""
    acov, _, _ = _acov_with_floor(x)
    rho = acov / acov[0]
    csum = np.cumsum(rho[1:])
    taus = 0.5 + csum  # tau(W) for W = 1, 2, ...
    W_grid = np.arange(1, len(taus) + 1)
    ok = np.nonzero(W_grid >= 6 * taus)[0]
    if not len(ok):
        raise EstimationError("no self-consistent window: run too short")
    tau = float(taus[ok[0]])
    if tau < T_REL_FLOOR:
        return T_REL_FLOOR, True
    return tau, False


_METHODS = {
    "exponential_fit": _exp_fit,
    "integrated_autocorrelation": _integrated,
}


def estimate_relaxation(traj: Trajectory,
                        method: str = "exponential_fit") -> RelaxationEstimate:
    """Estimate the relaxation time (in sweeps) from a magnetization series.

    Requires at least 10^4 samples.  The standard error is the batch-means
    one: the estimator is recomputed on 16 contiguous batches and the SEM of
    the batch values reported.  An estimate within noise of the white-noise
    floor (0.5 sweeps) is flagged floor_limited.
    """
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}; "
                         f"choose from {sorted(_METHODS)}")
    x = traj.samples
    if len(x) < MIN_SAMPLES:
        raise EstimationError(
            f"need >= {MIN_SAMPLES} samples for estimation, got {len(x)}")
    fit = _METHODS[method]
    t_rel_hat, floor_limited = fit(x)
    L = len(x) // BATCH_COUNT
    batch_vals = []
    for b in range(BATCH_COUNT):
        try:
            v, fl = fit(x[b * L:(b + 1) * L])
            if not fl:
                batch_vals.append(v)
        except EstimationError:
            continue
    if len(batch_vals) >= 2:
        stderr = float(np.std(batch_vals, ddof=1) / math.sqrt(len(batch_vals)))
    else:
        stderr = 0.0 if floor_limited else math.nan
    if not floor_limited and (t_rel_hat - T_REL_FLOOR) <= 3 * stderr:
        floor_limited = True
    return RelaxationEstimate(t_rel_hat=max(t_rel_hat, T_REL_FLOOR),
                              stderr=stderr, method=method,
                              floor_limited=floor_limited)
