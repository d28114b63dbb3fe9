"""Heat-bath simulation and relaxation-time estimation from trajectories.

Both simulators record the total magnetization m = 2k - n once per sweep (n
elementary single-site steps).  The full simulator resets one uniformly
chosen spin per step from its conditional law.  The reduced simulator walks
the magnetization levels: up to n = N_MAX_SWEEP_KERNEL it draws each
recorded level from the row of the sweep kernel P^n at the previous level,
one uniform per sweep; above that it applies the lumped up/down rule once
per step.

``_superblocks`` draws all three streams and ``_run`` runs them, each from
an exact stationary sample (stationarity tests need no burn-in; the
argument is still honored), after refusing a chain whose rates underflowed
to 0, as the spectral core does.  Where a stream has a lane step (the full
chain and the kernel walk), ``_run`` runs a trajectory's time windows side
by side (lanes) with numpy, speculatively, each lane from its superblock's
start state first, then from its true start until it meets that guess.  A
sweep's state (the level, or the configuration as a bitmask) is a function
of the state before and the draws alone, so chains that meet stay
together; meeting is checked on the states themselves and needs no
monotonicity, which the rounded cumulative rows of P^n do not have.  The
stream's loop (its walk) reruns lanes started wrong and runs every sweep
no lane takes: the same bytes either way.

The relaxation time targeted by the estimators is 1/(1 - lambda_2) in
single-site steps, i.e. (1/(1 - lambda_2))/n in the sweep units of the
recorded series.  Two estimators are provided: a least-squares fit to the
log-autocovariance over lags with signal above the noise floor, and the
integrated autocorrelation time with the self-consistent window rule
W >= 6 tau(W).  Standard errors come from recomputing the estimate on 16
contiguous batches.  Both read the autocovariance block by block, out to
the lags they use, so their memory is set by those lags, not by the run's
length; a series with a non-finite sample is refused.
"""

import math
from bisect import bisect
from dataclasses import dataclass
from functools import partial

import numpy as np

from .ising import ModelParams, logistic
from .magchain import (Tridiagonal, build_reduced_chain, positive_rates,
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

# The lanes take about SUPERBLOCK_UPDATES draws at a time (8 draw chunks) as
# lanes of LANE_SWEEPS sweeps, one numpy step for all lanes at once per site
# update of the full chain (819 lanes at n = 10, 341 at n = 24) or per sweep
# of the kernel walk (8192 lanes), which spreads each step's ~1 us per ufunc
# call over enough updates (2-core host).  The full chain's draw buffers
# (10 MiB, the sites held as bytes) left `simulate --full --n 10 --steps
# 1000000` at a peak RSS below the per-site loop's.  Lanes of 64 and 128
# sweeps ran equally fast; 128 is ~5x the sweeps by which all lanes have met
# at n = 10, J = 0.08 (23) and twice those at n = 24, J*n = 1 (56).  Below
# MIN_LANES lanes the loops run the same sweeps faster: the per-site loop
# below about 90 lanes (n = 3 to 24), and the bisect loop, as the kernel
# walk's lanes cost 1-4 ms however few they are, below 96 lanes at n = 3,
# about 130 at n = 10 to 24 and 150 at n = 512: with one MIN_LANES a run
# loses at most 1.3 ms, once, on a tail between those counts.
LANE_SWEEPS = 128
SUPERBLOCK_UPDATES = 1 << 20
MIN_LANES = 96

# Each stream draws chunks of CHUNK_UPDATES // (draws per sweep) sweeps, at
# least one, uniforms then sites: the chunk size is part of the trajectory
# format.  The loops walk one chunk at a time.
CHUNK_UPDATES = 131072

MIN_SAMPLES = 10_000
BATCH_COUNT = 16

# ``autocovariance`` transforms blocks of at least MIN_BLOCK samples,
# GROUP_SAMPLES samples at a time, and the estimators' first lag window is
# one such block; a series whose first W >= 6 tau(W) lies past it pays one
# more pass over the samples per doubling.  estimate_relaxation on 10^6
# samples, medians of 15 shuffled rounds (2-core host), traced peak:
#   MIN_BLOCK                         2^11    2^12    2^13    2^14
#   simulate n=10 J=0.08 (tau 2.9)    37.0    42.6    45.0    54.4 ms
#   simulate n=10 J=0.15 (tau 17)     37.4    42.9    46.1    53.3 ms
#   AR(1), phi = 0.999 (tau 1000)    110.4    77.5    47.5    53.6 ms
#   peak                               4.4     4.4     4.3     4.6 MiB
# In 40 paired rounds 2^12 beat 2^13 on the first series 35 times (by 7% in
# the median); 2^13 pays only where tau nears 1000 sweeps.
MIN_BLOCK = 4096
GROUP_SAMPLES = 1 << 17

# tau_int of a sequence i.i.d. at the sweep scale; estimates cannot resolve
# dynamics below this.
T_REL_FLOOR = 0.5


class EstimationError(RuntimeError):
    """The trajectory cannot support the requested estimate."""


@dataclass(frozen=True)
class Trajectory:
    """Magnetization samples m_t = 2 k_t - n, one per sweep: from the
    simulators in the narrowest signed integer dtype that holds 2n (int8 up
    to n = 63; numpy integer arithmetic wraps past it, so widen before
    squaring), from ``reports.trajectory_from_csv`` as float64."""

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


def _record(samples: np.ndarray, levels, n: int, t: int) -> int:
    """Store m = 2k - n for the levels k of consecutive sweeps from sweep t
    on (t < 0 indexes burn-in sweeps); return the sweep after them."""
    m = samples[max(t, 0):max(t + len(levels), 0)]
    m[:] = levels[len(levels) - len(m):]
    m *= 2
    m -= n
    return t + len(levels)


def sweep_kernel_rows(chain: Tridiagonal) -> np.ndarray:
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
    """Advance the levels k in place: lane b takes the uniforms us[b] in
    order, all lanes one sweep per numpy step; yield k after each.
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
            yield k


def _lanes(steps, walk, start: int, largest: int, lanes: int):
    """The levels after each sweep of `lanes` lanes of LANE_SWEEPS sweeps,
    run one after another from state `start`, and the end state, for as
    many leading lanes as are right.

    steps(states, a, b) advances the states (one per lane) in place through
    sweeps a to b of every lane, yielding the levels after each; walk(state,
    a, b) runs one chain through sweeps a to b of the lanes' draws by the
    loop and returns its levels and end state.  No state exceeds `largest`.
    Two chains fed the same draws that share a state at some sweep agree
    from there on.  Pass 1 runs every lane from `start`, a guess that is
    right for the first.  Pass 2 runs each lane's true chain, from the
    previous lane's pass-1 end (the first from `start`), until every lane's
    state is pass 1's at the same sweep or the lanes end.  A lane after one
    that never met started from a wrong state: walk reruns the whole lane
    from the true one, until the reruns (LANE_SWEEPS sweeps each) have taken
    more than a quarter of the lanes' sweeps."""
    states = np.full(lanes, start)
    # pass 1's states, and the levels, in the fewest bytes that hold them:
    # at int64, `simulate --full --n 3` ran about 10% slower than in uint8
    path = np.empty((LANE_SWEEPS, lanes), np.min_scalar_type(largest))
    levels = np.empty_like(path)
    for j, k in enumerate(steps(states, 0, LANE_SWEEPS)):
        path[j], levels[j] = states, k
    starts = np.append(start, path[-1, :-1])
    states[:] = starts
    for j, k in enumerate(steps(states, 0, LANE_SWEEPS)):
        if (states == path[j]).all():
            return levels.T.ravel(), int(path[-1, -1])
        levels[j] = k
    starts, ends = starts.tolist(), states.tolist()
    budget = lanes * LANE_SWEEPS // 4
    for b in range(1, lanes):
        if starts[b] != ends[b - 1]:
            levels[:, b], ends[b] = walk(ends[b - 1], b * LANE_SWEEPS,
                                         (b + 1) * LANE_SWEEPS)
            budget -= LANE_SWEEPS
            if budget < 0:
                return levels[:, :b + 1].T.ravel(), ends[b]
    return levels.T.ravel(), ends[-1]


def _superblocks(rng, per_sweep: int, sites: bool, sweeps: int, size: int):
    """The draws of `sweeps` sweeps of `per_sweep` updates, made as every
    stream makes them: in chunks of max(1, CHUNK_UPDATES // per_sweep)
    sweeps, each its uniforms, then, if `sites`, its sites in
    0..per_sweep-1.  They are regrouped into blocks of `size` updates, then
    what is left, each as (sweeps, [uniforms] or [uniforms, sites]): views
    of reused buffers, valid until the next block is asked for."""
    chunk = max(1, CHUNK_UPDATES // per_sweep) * per_sweep
    us = np.empty(size + chunk if size % chunk else size)
    draws = [us, np.empty(len(us), np.uint8)] if sites else [us]
    held = 0
    for t in range(0, sweeps * per_sweep, chunk):
        b = min(chunk, sweeps * per_sweep - t)
        rng.random(out=us[held:held + b])
        if sites:  # uint32: the int64 default's values, drawn faster
            draws[1][held:held + b] = rng.integers(0, per_sweep, size=b,
                                                   dtype=np.uint32)
        held += b
        while held >= size:
            yield size // per_sweep, [d[:size] for d in draws]
            held -= size
            for d in draws:
                d[:held] = d[size:size + held]
    if held:
        yield held // per_sweep, [d[:held] for d in draws]


def _start(params: ModelParams, seed: int, steps: int, burn_in: int):
    """The reduced chain, a generator from `seed` and a level drawn from the
    exact stationary law; negative lengths are refused, and so, before any
    draw, is a chain whose rates underflowed to 0 (pi can then sum to 2)."""
    if steps < 0 or burn_in < 0:
        raise ValueError("steps and burn_in must be nonnegative")
    chain = build_reduced_chain(params)
    if not positive_rates(chain):
        raise underflow_error(params.n, params.J, params.H)
    rng = np.random.default_rng(seed)
    pi = reduced_stationary(params)
    return chain, rng, int(rng.choice(params.n + 1, p=pi))


def _run(params: ModelParams, seed: int, steps: int, burn_in: int,
         stream) -> Trajectory:
    """The trajectory of `steps` sweeps after `burn_in` sweeps of a stream.

    stream(chain, rng, k) sets it up from ``_start``'s values and returns
    (per_sweep, sites, state, walk, lane): ``_superblocks``'s draw format,
    the start state, walk(draws, state, a, b), the loop through sweeps a to
    b of a block, returning their levels and end state, and None or a lane
    step and the largest state for ``_lanes``, step(states, *draws) on a
    state and a row of draws per lane.  With a lane step, superblocks of whole
    lanes (about SUPERBLOCK_UPDATES draws) run as lanes while every one
    before took all of its lanes, and the walk, a draw chunk at a time,
    runs the rest; without one it runs each block, one draw chunk."""
    chain, rng, k = _start(params, seed, steps, burn_in)
    per_sweep, sites, state, walk, lane = stream(chain, rng, k)
    chunk = max(1, CHUNK_UPDATES // per_sweep)
    width = LANE_SWEEPS * per_sweep
    size = max(1, SUPERBLOCK_UPDATES // width) * width if lane else chunk * per_sweep
    # _record forms 2k before it subtracts n, so the dtype must hold 2n: the
    # least signed one that holds -(2n + 1) does (int8 up to n = 63)
    samples = np.empty(steps, np.min_scalar_type(-2 * params.n - 1))
    t, trying = -burn_in, lane is not None
    for sweeps, draws in _superblocks(rng, per_sweep, sites, burn_in + steps, size):
        lanes, done = sweeps // LANE_SWEEPS, 0
        if trying and lanes >= MIN_LANES:
            rows = [d[:lanes * width].reshape(lanes, width) for d in draws]
            levels, state = _lanes(lambda states, a, b: lane[0](states, *(
                r[:, a * per_sweep:b * per_sweep] for r in rows)),
                partial(walk, draws), state, lane[1], lanes)
            done = len(levels)
            t = _record(samples, levels, params.n, t)
            trying = done == lanes * LANE_SWEEPS
        for i in range(done, sweeps, chunk):
            levels, state = walk(draws, state, i, min(i + chunk, sweeps))
            t = _record(samples, levels, params.n, t)
    return Trajectory(params=params, seed=seed, burn_in=burn_in, samples=samples)


def _lumped_loop(up: list, updown: list, k: int, us: list) -> list:
    """The lumped per-site rule: from level k, the level after each uniform
    u of us, k + 1 if u < up[k], k - 1 if not but u < updown[k], else k."""
    ks = []
    append = ks.append
    for u in us:
        if u < up[k]:
            k += 1
        elif u < updown[k]:
            k -= 1
        append(k)
    return ks


def simulate_reduced(params: ModelParams, seed: int, steps: int,
                     burn_in: int = 0) -> Trajectory:
    """Run the magnetization chain for `steps` recorded sweeps.

    The initial level is drawn from the exact stationary law.  For n <=
    N_MAX_SWEEP_KERNEL each sweep, burn-in included, is one draw from the row
    of P^n at the current level, bisect(row, u) by one uniform, run as lanes
    of ``_kernel_steps`` or by ``_kernel_loop``; above it each sweep is n
    applications of the lumped transition rule, one uniform each, walked by
    ``_lumped_loop``.  Identical arguments give bitwise-identical
    trajectories.
    """
    n = params.n

    def kernel(chain, rng, k):
        rows = sweep_kernel_rows(chain)
        table = np.pad(rows, ((0, 0), (0, (1 << n.bit_length()) - n)),
                       constant_values=2.0)
        listed = rows.tolist()

        def walk(draws, k, a, b):
            ks = _kernel_loop(listed, k, draws[0][a:b].tolist())
            return ks, ks[-1]

        return 1, False, k, walk, (partial(_kernel_steps, table=table), n)

    def lumped(chain, rng, k):
        up = np.append(chain.up, 0.0)
        up_t, updown_t = up.tolist(), (up + np.insert(chain.down, 0, 0.0)).tolist()

        def walk(draws, k, a, b):
            ks = _lumped_loop(up_t, updown_t, k, draws[0][a * n:b * n].tolist())
            return ks[n - 1::n], ks[-1]

        return n, False, k, walk, None

    return _run(params, seed, steps, burn_in,
                kernel if n <= N_MAX_SWEEP_KERNEL else lumped)


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


def _lockstep(c: np.ndarray, us: np.ndarray, xs: np.ndarray,
              p_plus: np.ndarray, n: int):
    """Advance the bitmask configurations c in place: lane b takes the
    updates us[b], xs[b] in order, all lanes one step per numpy step.
    Yield the levels after each sweep of n steps, counted from c once on
    entry and kept up to date.  The draws are transposed a few sweeps at a
    time, so a pass stopped early leaves the rest untouched; the work arrays
    keep every ufunc on one dtype, and the take on intp indices."""
    k = sum((c >> i) & 1 for i in range(n))
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
                yield k


def simulate_full(params: ModelParams, seed: int, steps: int,
                  burn_in: int = 0) -> Trajectory:
    """Single-site heat-bath simulation of the full configuration chain.

    Each step picks a site uniformly and sets its spin to +1 with probability
    logistic(2 (J * (sum of other spins) + H)); n <= N_MAX_SIMULATE_FULL.
    The draws are ``_superblocks``'s with sites.  ``_run`` takes them as
    lanes of ``_lockstep`` where it can and by the per-site loop where it
    cannot; either way the trajectory is the per-site loop's, bit for bit.
    An underflowed chain raises EigensolverError before any draw.
    """
    n = params.n
    if n > N_MAX_SIMULATE_FULL:
        raise ValueError(f"simulate_full supports n <= {N_MAX_SIMULATE_FULL}, got {n}")

    def stream(chain, rng, k):
        c = sum(1 << i for i in rng.permutation(n)[:k].tolist())  # spin i is bit i
        # p(set +1) depends only on m = k - spins[x], the number of up spins
        # among the other n - 1 sites, whose sum is 2m - n + 1.
        p_plus = [logistic(2.0 * (params.J * (2 * m - n + 1) + params.H))
                  for m in range(n)]
        lists = []

        def walk(draws, c, a, b):
            spins = [c >> i & 1 for i in range(n)]
            # built while the last call's lists live: built after they were
            # freed, the loop ran about 8% slower, for a 5 MiB lower peak
            # (fresh processes, 2-core host)
            lists[:] = (d[a * n:b * n].tolist() for d in draws)
            ks = _site_loop(spins, c.bit_count(), p_plus, *lists)
            return ks[n - 1::n], sum(s << i for i, s in enumerate(spins))

        step = partial(_lockstep, p_plus=np.array(p_plus), n=n)
        return n, True, c, walk, (step, (1 << n) - 1)

    return _run(params, seed, steps, burn_in, stream)


def autocovariance(x: np.ndarray, lags: int) -> np.ndarray:
    """Autocovariance gamma(l) = (1/N) sum_t (x_t - xbar)(x_{t+l} - xbar)
    for l = 0..lags-1, lags <= N, block by block, with no float copy of an
    integer x: its sum is exact in any order, so x and its float64 copy give
    the same bits.

    Blocks hold B samples of x - xbar, the least power of two >= max(lags,
    min(N, MIN_BLOCK)), each zero-padded to 2B and transformed once, about
    GROUP_SAMPLES samples at a time, so memory is set by B, not by N.  Every
    pair at a lag below B lies within one block or spans two neighbours: the
    sum of the blocks' power spectra |F_b|^2 and of their cross spectra with
    the next block, conj(F_b) F_{b+1} times (-1)^j at frequency j (block
    b + 1 sits B later, half the transform), transforms back to N gamma(l)
    for every l < B with no circular wrap."""
    x = np.asarray(x)
    N = len(x)
    xbar = x.mean(dtype=float)
    B = 1 << (max(lags, min(N, MIN_BLOCK)) - 1).bit_length()
    step = max(1, GROUP_SAMPLES // B) * B
    power, cross = np.zeros(B + 1), np.zeros(B + 1, complex)
    last = np.zeros(B + 1, complex)
    for a in range(0, N, step):
        size = min(step, N - a)
        y = np.zeros(-(-size // B) * B)
        np.subtract(x[a:a + size], xbar, out=y[:size])
        F = np.fft.rfft(y.reshape(-1, B), 2 * B)
        del y  # F and one group of temporaries at a time
        power += np.sum(F.real ** 2, axis=0) + np.sum(F.imag ** 2, axis=0)
        cross += last.conj() * F[0]  # the previous group's last block
        c = F[:-1].conj()
        c *= F[1:]
        cross += c.sum(axis=0)
        last = F[-1].copy()
        del F, c
    cross[1::2] *= -1
    return np.fft.irfft(power + cross, 2 * B)[:lags] / N


def _acov_with_floor(x: np.ndarray):
    """Autocovariance, its Bartlett noise floor with the L0 it sums to, and
    tau(W) at the windows W = 1, 2, ..., with sanity guards.

    The lags start at every one a minimum block holds, min(MIN_BLOCK, N),
    and double until they hold the first nonpositive one, L0, and the first
    W >= 6 tau(W), or else are all N (L0 = N // 2 if no lag is
    nonpositive): every lag either estimator reads.
    A lag-1 autocovariance significantly below zero (beyond -3 floors) means
    genuinely anticorrelated data that no relaxation-time reading fits; a
    lag-1 value merely within noise of zero is the white-noise regime and is
    left for the estimators to flag as floor-limited.
    """
    N = len(x)
    lags = min(MIN_BLOCK, N)
    while True:
        acov = autocovariance(x, lags)
        if acov[0] <= 0:
            raise EstimationError("zero-variance series")
        neg = np.nonzero(acov[1:] <= 0)[0]
        taus = 0.5 + np.cumsum(acov[1:] / acov[0])  # tau(W) for W = 1, 2, ...
        W = np.arange(1, len(acov))
        if lags == N or (len(neg) and np.any(W >= 6 * taus)):
            break
        lags = min(2 * lags, N)
    L0 = int(neg[0]) + 1 if len(neg) else N // 2
    noise_floor = math.sqrt((acov[0] ** 2 + 2 * np.sum(acov[1:L0] ** 2)) / N)
    if acov[1] <= -3 * noise_floor:
        raise EstimationError(
            "autocovariance nonpositive at lag 1: run too short or no dynamics")
    return acov, L0, noise_floor, taus, W


def _exp_fit(x: np.ndarray):
    """(t_rel_hat, floor_limited) from the log-autocovariance slope.

    Lags enter the fit while the autocovariance stays above three times its
    Bartlett noise floor: the window is the initial contiguous run above the
    threshold (tail lags that pop back over it are noise bumps, and their
    leverage would tilt the slope).  The fit is weighted by inverse variance
    of the log values, i.e. by signal-to-floor ratio.  When no lag qualifies
    the series is statistically white at the sweep scale, and the floor value
    is returned, flagged, as it is for a fit below the floor.
    """
    acov, L0, noise_floor, _, _ = _acov_with_floor(x)
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
    t_rel = float(1.0 / inv_tau)
    if t_rel < T_REL_FLOOR:
        return T_REL_FLOOR, True
    return t_rel, False


def _integrated(x: np.ndarray):
    """(tau_int, floor_limited) with the self-consistent window W >= 6 tau(W)."""
    *_, taus, W = _acov_with_floor(x)
    # the window always holds one: the sample autocovariances sum to
    # -gamma(0)/2 over lags 1..N-1, so tau(N - 1) = 0
    tau = float(taus[np.argmax(W >= 6 * taus)])
    if tau < T_REL_FLOOR:
        return T_REL_FLOOR, True
    return tau, False


_METHODS = {"exponential_fit": _exp_fit,
            "integrated_autocorrelation": _integrated}


def estimate_relaxation(traj: Trajectory,
                        method: str = "exponential_fit") -> RelaxationEstimate:
    """Estimate the relaxation time (in sweeps) from a magnetization series.

    Requires at least 10^4 samples, all finite.  The standard error is the batch-means
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
    if not np.isfinite(x).all():
        bad = int(np.argmin(np.isfinite(x)))
        raise EstimationError(f"non-finite sample at index {bad}")
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
    return RelaxationEstimate(t_rel_hat=t_rel_hat, stderr=stderr, method=method,
                              floor_limited=floor_limited)
