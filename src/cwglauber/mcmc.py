"""Heat-bath simulation and relaxation-time estimation from trajectories.

Both simulators record the total magnetization m = 2k - n once per sweep (n
elementary single-site steps).  The full simulator resets one uniformly
chosen spin per step from its conditional law.  For J >= 0 that update is
monotone, so it runs a trajectory's time windows side by side (lanes) with
numpy, each lane fixed by the all-up and all-down chains fed the same draws
once they meet, and falls back to a per-site loop where they do not: the
same bytes either way.  The reduced simulator walks the magnetization
levels: up to n = N_MAX_SWEEP_KERNEL it draws each recorded level from the
row of the sweep kernel P^n at the previous level, one uniform per sweep;
above that it applies the lumped up/down rule once per step.  The kernel
walk runs in lanes too, speculatively: each lane from a guessed level
first, then from its true start until it meets that guess.  A step depends
only on (level, uniform), so walks that meet stay together; meeting is
checked on the walks themselves and needs no monotonicity, which the
rounded cumulative rows of P^n do not have.  Lanes started wrong are rerun
with bisect, and the bisect loop takes over where lanes do not meet: the
same bytes either way.  Both start
from an exact stationary sample, so stationarity tests need no burn-in (the
argument is still honored for runs that want it), and both refuse a chain
whose rates underflowed to 0, as the spectral core does.

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
from .magchain import (ReducedChain, build_reduced_chain, positive_rates,
                       reduced_stationary)
from .spectral import underflow_error

# The state (n spins) needs no cap; the full simulator only cross-checks the
# reduced one, which samples the same law at any n, at the sizes tests pin.
N_MAX_SIMULATE_FULL = 24

# Largest n at which the reduced simulator builds the sweep kernel P^n: at
# n = 512 its nine squarings take 0.04 s, under 1/10 of a per-site run of
# MIN_SAMPLES sweeps (0.44 s at n = 513; 2-core host, two BLAS threads), and
# the share grows with n from there.  The cap is part of the trajectory
# format: it decides which of the two streams a run draws.
N_MAX_SWEEP_KERNEL = 512

# The full simulator runs about SUPERBLOCK_UPDATES site updates (8 draw
# chunks) at a time as lanes of LANE_SWEEPS sweeps, one numpy step per site
# update for all lanes at once (2-core host): 819 lanes at n = 10, 341 at
# n = 24, spread each step's ~1 us per ufunc call over enough updates, and
# the draw buffers (10 MiB, the sites held as bytes) left `simulate --full
# --n 10 --steps 1000000` at a peak RSS below the per-site loop's.  Lanes of
# 64 and 128 sweeps ran equally fast; 128 is ~5x the sweeps by which all
# lanes have met at n = 10, J = 0.08 (23) and twice those at n = 24, J*n = 1
# (56).  Below about 90 lanes (n = 3 to 24) the per-site loop runs the same
# updates faster.  The kernel walk takes SUPERBLOCK_UPDATES uniforms, one
# per sweep, as 8192 lanes of the same length (1024 to a 131072-sweep draw
# chunk), under the same give-up rule.  Its lanes cost 1-4 ms however few
# they are, so on a tail the bisect loop is faster below 96 lanes at n = 3,
# about 130 at n = 10 to 24 and 150 at n = 512: with the same MIN_LANES a
# run loses at most 1.3 ms, once, on a tail between those counts.
LANE_SWEEPS = 128
SUPERBLOCK_UPDATES = 1 << 20
MIN_LANES = 96

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


def sweep_kernel_rows(chain: ReducedChain) -> np.ndarray:
    """Cumulative rows of P^n without their last entry, so that the count of
    a row's entries <= u, bisect(row, u), is a level in 0..n.

    P^n comes from binary powering (matmul only, no eigensolver), so Monte
    Carlo stays independent of the spectral core.  Zero levels pad P to a
    multiple of 64: OpenBLAS then gives the same bytes at any thread count,
    where sizes such as 101 or 513 differ in the last bits between one
    thread and two."""
    n = chain.n
    P = (np.diag(chain.diag) + np.diag(chain.up, k=1)
         + np.diag(chain.down, k=-1))
    K = np.linalg.matrix_power(np.pad(P, (0, -(n + 1) % 64)), n)
    return np.cumsum(K[:n + 1, :n + 1], axis=1)[:, :-1]


def _kernel_loop(rows: list, k: int, us: list) -> list:
    """The sweep-kernel walk, one bisect per sweep: from level k, the level
    after each uniform of us."""
    ks = []
    append = ks.append
    for u in us:
        k = bisect(rows[k], u)
        append(k)
    return ks


def _kernel_steps(k: np.ndarray, us: np.ndarray, table: np.ndarray):
    """Advance the levels k in place: lane (column) b takes the uniforms
    us[b] in order, all lanes one sweep per numpy step; yield after each.
    table holds the cumulative rows padded by 2.0 to 2^w > n entries.  A
    step counts the entries <= u of row k by a branchless binary search:
    bisect's level, as the rows are nondecreasing."""
    flat, w = table.ravel(), table.shape[1].bit_length() - 1
    views = [flat[(1 << s) - 1:] for s in range(w)]  # entry i + 2^s - 1 at i
    pos, v, le = np.empty_like(k), np.empty(k.shape), np.empty_like(k)
    for a in range(0, us.shape[1], 8):
        for u in np.ascontiguousarray(us[:, a:a + 8].T):
            np.left_shift(k, w, out=pos)  # row k starts at k 2^w
            for s in reversed(range(w)):
                views[s].take(pos, out=v, mode="clip")
                np.less_equal(v, u, out=le)
                np.left_shift(le, s, out=le)
                np.add(pos, le, out=pos)
            np.bitwise_and(pos, (1 << w) - 1, out=k)
            yield


def _rerun(rows: list, levels: np.ndarray, starts: list,
           us: np.ndarray) -> int:
    """Make the lanes' walks (columns of levels) right after pass 2, in
    order: a lane that started from a level other than the previous lane's
    end is rerun with bisect from that end until it meets its stored walk.
    Return how many leading lanes are right: all of them, unless the reruns
    take more than a quarter of the lanes' sweeps first."""
    lanes = levels.shape[1]
    budget, ends = levels.size // 4, levels[-1].tolist()
    end = ends[0]
    for b in range(1, lanes):
        if starts[b] != end:
            walk, k = levels[:, b], end
            for j, u in enumerate(us[b].tolist()):
                k = bisect(rows[k], u)
                if k == walk[j]:
                    break
                walk[j] = k
            budget -= j + 1
            if budget < 0:
                return b + 1
            ends[b] = int(walk[-1])
        end = ends[b]
    return lanes


def _kernel_lanes(table: np.ndarray, rows: list, k: int, us: np.ndarray,
                  lanes: int):
    """Levels after each uniform of us walked from level k as `lanes` lanes
    of LANE_SWEEPS sweeps, of as many leading lanes as are right; None if
    pass 1 gives up.

    A step is a function of (level, u) alone, so two walks fed the same
    uniforms that share a level at some sweep agree from there on: meeting
    is checked on the walks themselves, and no order between the rows is
    needed.  Pass 1 runs each lane from level n to its end, with a walk
    from level 0 beside it for the first eighth; it gives up there if fewer
    than a quarter of the lanes' two walks have met, as the full
    simulator's lanes do (at J*n well above 1 the walks keep to their
    wells).  Pass 2 runs each lane's true walk, from the previous lane's
    pass-1 end (the first from k), until every lane's has met pass 1's or
    the lanes end; then ``_rerun`` mends the lanes after one that never
    met, which started from a wrong level."""
    n = table.shape[0] - 1
    us = us.reshape(lanes, LANE_SWEEPS)
    probe = LANE_SWEEPS // 8
    ks = np.array([[n], [0]]).repeat(lanes, axis=1)
    levels = np.empty((LANE_SWEEPS, lanes), dtype=ks.dtype)
    for j, _ in enumerate(_kernel_steps(ks, us[:, :probe], table)):
        levels[j] = ks[0]
    if 4 * np.count_nonzero(ks[0] == ks[1]) < lanes:
        return None
    ks = ks[:1]
    for j, _ in enumerate(_kernel_steps(ks, us[:, probe:], table), probe):
        levels[j] = ks[0]
    ks[0] = np.append(k, levels[-1, :-1])
    starts = ks[0].tolist()
    differ = np.empty(lanes, dtype=bool)
    for j, _ in enumerate(_kernel_steps(ks, us, table)):
        np.not_equal(ks[0], levels[j], out=differ)
        if not differ.any():
            break
        levels[j] = ks[0]
    else:
        lanes = _rerun(rows, levels, starts, us)
    return levels[:, :lanes].T.ravel()


def _rates_checked(params: ModelParams) -> ReducedChain:
    """The reduced chain, refused as the spectral core refuses it where a
    rate underflowed to 0 (its stationary law can then sum to 2)."""
    chain = build_reduced_chain(params)
    if not positive_rates(chain):
        raise underflow_error(params.n, params.J, params.H)
    return chain


def simulate_reduced(params: ModelParams, seed: int, steps: int,
                     burn_in: int = 0) -> Trajectory:
    """Run the magnetization chain for `steps` recorded sweeps.

    The initial level is drawn from the exact stationary law.  For n <=
    N_MAX_SWEEP_KERNEL each sweep, burn-in included, is one draw from the row
    of P^n at the current level, bisect(row, u) by one uniform; above it each
    sweep is n single applications of the lumped transition rule, by one
    uniform each.  Identical arguments give bitwise-identical trajectories.
    The kernel walk's uniforms are one sequence however the calls that draw
    them split it (131072 at a time once lanes give up, as before them):
    superblocks of them run as lanes (``_kernel_lanes``), and the bisect
    loop runs a tail of fewer than MIN_LANES lanes, what is left past the
    last whole lane, and everything after a superblock whose lanes gave up
    or were not all mended.
    """
    if steps < 0 or burn_in < 0:
        raise ValueError("steps and burn_in must be nonnegative")
    n = params.n
    chain = _rates_checked(params)
    rng = np.random.default_rng(seed)
    k = int(rng.choice(n + 1, p=reduced_stationary(params).probabilities))
    samples = np.empty(steps)
    if n <= N_MAX_SWEEP_KERNEL:
        rows = sweep_kernel_rows(chain)
        table = np.pad(rows, ((0, 0), (0, (1 << n.bit_length()) - n)),
                       constant_values=2.0)
        listed, coupled, t = rows.tolist(), True, -burn_in
        while t < steps:
            us = rng.random(min(SUPERBLOCK_UPDATES if coupled else 131072,
                                steps - t))
            lanes = len(us) // LANE_SWEEPS
            run = _kernel_lanes(table, listed, k, us[:lanes * LANE_SWEEPS],
                                lanes) if coupled and lanes >= MIN_LANES else None
            done = 0 if run is None else len(run)
            if done:
                k = int(run[-1])
                _record(samples, run, n, t, 1)
                t += done
            coupled = done == lanes * LANE_SWEEPS
            for i in range(done, len(us), 131072):
                ks = _kernel_loop(listed, k, us[i:i + 131072].tolist())
                k = ks[-1]
                _record(samples, ks, n, t, 1)
                t += len(ks)
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


def _site_loop(spins: list, k: int, p_plus: list, us: list, xs: list) -> list:
    """The per-site heat-bath loop: apply the updates (u, x) of us, xs to
    spins in place, from level k, and return the level after each one."""
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
    return ks


def _lockstep(c: np.ndarray, k: np.ndarray, us: np.ndarray, xs: np.ndarray,
              p_plus: np.ndarray, n: int):
    """Advance the bitmask configurations c, at levels k, in place: lane
    (column) b takes the updates us[b], xs[b] in order, all lanes one step
    per numpy step.  Yield after each sweep of n steps.  The draws are
    transposed a few sweeps at a time, so a pass stopped early leaves the
    rest untouched; the work arrays keep every ufunc on one dtype, and
    the take on intp indices."""
    s, m, new = (np.empty_like(c) for _ in range(3))
    one, p = np.ones_like(c), np.empty(c.shape)
    for a in range(0, us.shape[1], 8 * n):
        slab = zip(np.ascontiguousarray(us[:, a:a + 8 * n].T),
                   np.ascontiguousarray(xs[:, a:a + 8 * n].T, c.dtype))
        for j, (u, x) in enumerate(slab, 1):
            np.right_shift(c, x, out=s)
            np.bitwise_and(s, one, out=s)
            np.subtract(k, s, out=m)  # up spins among the other sites
            p_plus.take(m, out=p, mode="clip")  # m is in 0..n-1
            np.less(u, p, out=new)
            np.add(m, new, out=k)
            np.bitwise_xor(s, new, out=s)
            np.left_shift(s, x, out=s)
            np.bitwise_xor(c, s, out=c)
            if j % n == 0:
                yield


def _run_lanes(spins: list, k: int, us: np.ndarray, xs: np.ndarray,
               p_plus: np.ndarray, lanes: int):
    """Sweep-end levels of the updates us, xs run from (spins, k) as `lanes`
    lanes of LANE_SWEEPS sweeps, and the end configuration; None unless
    every lane's top and bottom chains meet within it.

    For nondecreasing p_plus the update is monotone: chains started above
    and below the true one and fed its draws stay above and below it, so
    once they meet the true chain is theirs (Propp & Wilson, Random Struct.
    Alg. 9, 1996).  Pass 1 runs each lane's all-up and all-down chains until
    they have met in every lane, then the top ones alone to the lane ends;
    pass 2 runs each lane's true chain, from the previous lane's end (the
    first from spins), up to that meeting.  Pass 1 gives up an eighth of
    the way in if fewer than a quarter of the lanes have met: at J*n well
    above 1 hardly any do, while every run seen to meet within the lanes
    had 45% or more (n = 10, J*n = 1.5)."""
    n = len(spins)
    us, xs = us.reshape(lanes, -1), xs.reshape(lanes, -1)
    c = np.array([[(1 << n) - 1], [0]]).repeat(lanes, axis=1)
    ks = np.array([[n], [0]]).repeat(lanes, axis=1)
    for met, _ in enumerate(_lockstep(c, ks, us, xs, p_plus, n), 1):
        joined = np.count_nonzero(c[0] == c[1])
        if joined == lanes:
            break
        if met == LANE_SWEEPS // 8 and 4 * joined < lanes:
            return None
    else:
        return None
    c, ks = c[:1], ks[:1]
    levels = np.empty((LANE_SWEEPS, lanes), dtype=ks.dtype)
    for j, _ in enumerate(_lockstep(c, ks, us[:, met * n:], xs[:, met * n:],
                                    p_plus, n), met):
        levels[j] = ks[0]
    end = int(c[0, -1])
    c[0] = np.append(sum(s << i for i, s in enumerate(spins)), c[0, :-1])
    ks[0] = np.append(k, ks[0, :-1])
    for j, _ in zip(range(met), _lockstep(c, ks, us, xs, p_plus, n)):
        levels[j] = ks[0]
    return levels.T.ravel(), [(end >> i) & 1 for i in range(n)]


def _superblocks(rng, n: int, sweeps: int, size: int):
    """The draws of `sweeps` sweeps, made as the stream makes them (chunks of
    131072 // n sweeps, each its uniforms, then its sites), regrouped into
    blocks of `size` updates, then what is left.  Each block is a view of
    one reused buffer, valid until the next is asked for."""
    chunk = max(1, 131072 // n) * n
    us, xs = np.empty(size + chunk), np.empty(size + chunk, dtype=np.uint8)
    held = 0
    for t in range(0, sweeps * n, chunk):
        b = min(chunk, sweeps * n - t)
        rng.random(out=us[held:held + b])
        xs[held:held + b] = rng.integers(0, n, size=b)
        held += b
        while held >= size:
            yield us[:size], xs[:size]
            held -= size
            us[:held], xs[:held] = us[size:size + held], xs[size:size + held]
    if held:
        yield us[:held], xs[:held]


def simulate_full(params: ModelParams, seed: int, steps: int,
                  burn_in: int = 0) -> Trajectory:
    """Single-site heat-bath simulation of the full configuration chain.

    Each step picks a site uniformly and sets its spin to +1 with probability
    logistic(2 (J * (sum of other spins) + H)); n <= N_MAX_SIMULATE_FULL.
    Each chunk of 131072 // n sweeps draws its uniforms, then its sites, so
    the chunk size is part of the stream.  Superblocks of the draws run as
    coupled lanes (``_run_lanes``); the per-site loop runs what is left past
    the last whole lane, a tail of fewer than MIN_LANES lanes, and a
    superblock whose lanes do not all meet with everything after it.  Either
    way the trajectory is the per-site loop's, bit for bit.  An underflowed
    chain raises EigensolverError before any draw.
    """
    if steps < 0 or burn_in < 0:
        raise ValueError("steps and burn_in must be nonnegative")
    n = params.n
    if n > N_MAX_SIMULATE_FULL:
        raise ValueError(f"simulate_full supports n <= {N_MAX_SIMULATE_FULL}, got {n}")
    _rates_checked(params)
    rng = np.random.default_rng(seed)
    k = int(rng.choice(n + 1, p=reduced_stationary(params).probabilities))
    spins = np.bincount(rng.permutation(n)[:k], minlength=n).tolist()
    # p(set +1) depends only on m = k - spins[x], the number of up spins
    # among the other n - 1 sites, whose sum is 2m - n + 1.
    p_plus = [logistic(2.0 * (params.J * (2 * m - n + 1) + params.H))
              for m in range(n)]
    table = np.array(p_plus)
    coupled = bool(np.all(table[:-1] <= table[1:]))  # the sandwich needs it
    lanes = max(1, SUPERBLOCK_UPDATES // (n * LANE_SWEEPS))
    block = lanes * LANE_SWEEPS * n
    samples = np.empty(steps)
    chunk = max(1, 131072 // n) * n  # the loop takes one draw chunk at a time
    t = -burn_in
    for us, xs in _superblocks(rng, n, burn_in + steps, block):
        width = len(us) // (LANE_SWEEPS * n)  # whole lanes
        done = width * LANE_SWEEPS * n
        run = _run_lanes(spins, k, us[:done], xs[:done], table, width) if (
            coupled and width >= MIN_LANES) else None
        if run is None:
            coupled, done = False, 0  # the loop runs the rest
        else:
            levels, spins = run
            k = int(levels[-1])
            _record(samples, levels, n, t, 1)
            t += len(levels)
        for i in range(done, len(us), chunk):
            # built while the last piece's lists live, as when each chunk was
            # drawn and looped at once; built inside the call, the loop ran
            # ~10% slower (fresh processes, 2-core host)
            u, x = us[i:i + chunk].tolist(), xs[i:i + chunk].tolist()
            ks = _site_loop(spins, k, p_plus, u, x)
            k = ks[-1]
            _record(samples, ks, n, t, n)
            t += len(ks) // n
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
