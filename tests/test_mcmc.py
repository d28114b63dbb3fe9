"""Simulators and relaxation estimators against spectral ground truth.

Statistical assertions use 4-sigma bands with an autocorrelation inflation
factor, and every test runs on a fixed seed, so failures signal real
regressions rather than unlucky draws.
"""

import hashlib
import inspect
import os
import subprocess
import sys
import tracemalloc
from bisect import bisect
from pathlib import Path

import numpy as np
import pytest
from numpy.linalg import matrix_power
from scipy.signal import lfilter
from scipy.stats import binom, chi2

import cwglauber
import cwglauber.mcmc as mcmc
from conftest import (dense_reduced_chain, reference_simulate_full,
                      reference_simulate_lumped, reference_simulate_reduced)
from cwglauber.ising import ModelParams
from cwglauber.magchain import build_reduced_chain, reduced_stationary
from cwglauber.mcmc import (N_MAX_SWEEP_KERNEL, EstimationError,
                            RelaxationEstimate, Trajectory, autocovariance,
                            estimate_relaxation, simulate_full,
                            simulate_reduced, sweep_kernel_rows)
from cwglauber.reports import trajectory_from_csv, trajectory_to_csv
from cwglauber.spectral import EigensolverError, second_eigenpair


def ar1(phi, size, rng):
    """An AR(1) series x_t = phi x_{t-1} + a_t with standard normal a_t."""
    return lfilter([1.0], [1.0, -phi], rng.standard_normal(size))


def series(samples):
    return Trajectory(params=ModelParams(n=1, J=0.0), seed=0, burn_in=0,
                      samples=samples)


def sigma_inflation(params):
    """Variance inflation of per-sweep averages from the slowest mode."""
    rho = second_eigenpair(params).lambda2 ** params.n  # per-sweep correlation
    return np.sqrt((1 + rho) / (1 - rho))


class TestSimulateReduced:
    def test_reproducible_bitwise(self):
        p = ModelParams(n=6, J=0.1, H=0.05)
        a = simulate_reduced(p, seed=42, steps=2000, burn_in=10)
        b = simulate_reduced(p, seed=42, steps=2000, burn_in=10)
        np.testing.assert_array_equal(a.samples, b.samples)
        c = simulate_reduced(p, seed=43, steps=2000, burn_in=10)
        assert not np.array_equal(a.samples, c.samples)

    def test_levels_stay_in_range(self):
        p = ModelParams(n=5, J=0.3, H=-0.2)
        traj = simulate_reduced(p, seed=1, steps=5000)
        k = (traj.samples + p.n) / 2
        assert k.min() >= 0 and k.max() <= p.n
        assert np.array_equal(k, k.astype(int))

    def test_free_chain_matches_binomial(self):
        """J=0 stationary levels are Binomial(n, 1/2); 4-sigma bands."""
        n, T = 6, 200_000
        p = ModelParams(n=n, J=0.0, H=0.0)
        traj = simulate_reduced(p, seed=7, steps=T)
        k = ((traj.samples + n) / 2).astype(int)
        freq = np.bincount(k, minlength=n + 1) / T
        expect = binom.pmf(np.arange(n + 1), n, 0.5)
        infl = sigma_inflation(p)
        sigma = np.sqrt(expect * (1 - expect) / T) * infl
        assert np.all(np.abs(freq - expect) <= 4 * sigma)

    def test_stationarity_preserved(self):
        """Started from the exact stationary law, the histogram stays inside
        4-sigma bands of it."""
        p = ModelParams(n=6, J=0.12, H=0.1)
        T = 150_000
        traj = simulate_reduced(p, seed=3, steps=T)
        k = ((traj.samples + p.n) / 2).astype(int)
        freq = np.bincount(k, minlength=p.n + 1) / T
        expect = reduced_stationary(p)
        sigma = np.sqrt(expect * (1 - expect) / T) * sigma_inflation(p)
        assert np.all(np.abs(freq - expect) <= 4 * sigma)

    def test_sweep_transitions_match_chain_power(self):
        """Per-sweep jumps are draws from P^n rows; multinomial 4-sigma."""
        n, T = 4, 120_000
        p = ModelParams(n=n, J=0.1, H=0.0)
        traj = simulate_reduced(p, seed=11, steps=T)
        k = ((traj.samples + n) / 2).astype(int)
        M = matrix_power(dense_reduced_chain(build_reduced_chain(p)), n)
        counts = np.zeros((n + 1, n + 1))
        np.add.at(counts, (k[:-1], k[1:]), 1)
        visits = counts.sum(axis=1)
        for a in range(n + 1):
            if visits[a] < 2000:
                continue
            prob = M[a]
            sigma = np.sqrt(visits[a] * prob * (1 - prob))
            assert np.all(np.abs(counts[a] - visits[a] * prob)
                          <= 4 * sigma + 1.0)

    def test_kernel_transitions_pass_chi_square(self):
        """Sweep-to-sweep counts of the kernel path against the rows of P^n
        built here, not by the simulator: Pearson chi-square per visited row,
        its cells below an expected count of 5 pooled with the next smallest
        until the pool reaches 5."""
        n, T = 10, 200_000
        p = ModelParams(n=n, J=0.08, H=0.0)
        k = ((simulate_reduced(p, seed=31, steps=T).samples + n) / 2).astype(int)
        M = matrix_power(dense_reduced_chain(build_reduced_chain(p)), n)
        counts = np.zeros((n + 1, n + 1))
        np.add.at(counts, (k[:-1], k[1:]), 1)
        stat, dof = 0.0, 0
        for a in np.nonzero(counts.sum(axis=1))[0]:
            order = np.argsort(M[a])
            o, e = counts[a][order], counts[a].sum() * M[a][order]
            # the smallest cells pool into one whose expected count reaches 5
            j = np.searchsorted(np.cumsum(e), 5.0)
            o = np.append(o[:j + 1].sum(), o[j + 1:])
            e = np.append(e[:j + 1].sum(), e[j + 1:])
            stat += np.sum((o - e) ** 2 / e)
            dof += len(e) - 1
        assert dof > 50
        assert chi2.sf(stat, dof) > 1e-4

    def test_per_site_path_above_cap_matches_binomial(self):
        """Above N_MAX_SWEEP_KERNEL the per-site loop runs.  At J=0, m = 2k - n
        with k ~ Binomial(n, 1/2): mean 0, variance n; 4-sigma bands inflated
        by the per-sweep correlations of m (lambda2^n) and of m^2 (its
        square)."""
        n, T = N_MAX_SWEEP_KERNEL + 1, 10_000
        p = ModelParams(n=n, J=0.0, H=0.0)
        m = simulate_reduced(p, seed=41, steps=T).samples
        rho2 = (second_eigenpair(p).lambda2 ** n) ** 2
        assert abs(m.mean()) <= 4 * np.sqrt(n / T) * sigma_inflation(p)
        var_sigma = n * np.sqrt(2 / T * (1 + rho2) / (1 - rho2))
        assert abs(m.var() - n) <= 4 * var_sigma

    def test_burn_in_shifts_the_stream(self):
        p = ModelParams(n=4, J=0.2, H=0.0)
        a = simulate_reduced(p, seed=5, steps=100, burn_in=0)
        b = simulate_reduced(p, seed=5, steps=100, burn_in=50)
        assert len(b.samples) == 100
        assert not np.array_equal(a.samples, b.samples)

    def test_rejects_negative_lengths(self):
        with pytest.raises(ValueError):
            simulate_reduced(ModelParams(n=3, J=0.1), seed=0, steps=-1)


class TestSimulateFull:
    def test_reproducible_bitwise(self):
        p = ModelParams(n=10, J=0.05, H=0.0)
        a = simulate_full(p, seed=9, steps=1500)
        b = simulate_full(p, seed=9, steps=1500)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_agrees_with_reduced_distribution(self):
        """Lumping consistency under dynamics: the two simulators sample the
        same magnetization law (two-sample 4-sigma per level)."""
        n, T = 10, 60_000
        p = ModelParams(n=n, J=0.05, H=0.0)
        kf = ((simulate_full(p, seed=21, steps=T).samples + n) / 2).astype(int)
        kr = ((simulate_reduced(p, seed=22, steps=T).samples + n) / 2).astype(int)
        ff = np.bincount(kf, minlength=n + 1) / T
        fr = np.bincount(kr, minlength=n + 1) / T
        expect = reduced_stationary(p)
        sigma = np.sqrt(2 * expect * (1 - expect) / T) * sigma_inflation(p)
        assert np.all(np.abs(ff - fr) <= 4 * sigma)

    def test_saturated_field_pins_all_spins_up(self):
        p = ModelParams(n=10, J=0.1, H=50.0)
        traj = simulate_full(p, seed=2, steps=10_000, burn_in=100)
        assert traj.samples.mean() > p.n - 0.01

    def test_size_guard(self):
        with pytest.raises(ValueError, match="n <= 24"):
            simulate_full(ModelParams(n=25, J=0.01), seed=0, steps=10)


@pytest.mark.parametrize("simulate", [simulate_reduced, simulate_full])
def test_underflowed_chain_is_refused_before_any_draw(simulate, monkeypatch):
    """At n = 8, J = 1e20 rates underflow to 0 and pi reads [1, 0, ..., 0,
    1]; both simulators refuse the chain as the spectral core does, before
    they make a generator."""
    def no_generator(seed):
        raise AssertionError("a generator was made")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    with pytest.raises(EigensolverError, match="underflow to 0 at n=8"):
        simulate(ModelParams(n=8, J=1e20), seed=0, steps=10_000)


# Lanes small enough that a few thousand site updates cross superblocks:
# 64-sweep lanes, superblocks of 8192 site updates, partial ones run as lanes
# from 4 lanes up (every n here fits at least 5 lanes in a superblock).
SMALL_LANES = {"LANE_SWEEPS": 64, "SUPERBLOCK_UPDATES": 8192, "MIN_LANES": 4}
# (J*n, H) of the lane oracle tests; only the sizes differ between them.
COUPLINGS_FIELDS = [(jn, h) for jn in (0.0, 0.5, 1.0, 3.0)
                    for h in (0.0, 0.3, -0.3)]
ORACLE_GRID = [(n, jn, h) for n in (1, 2, 3, 10, 24)
               for jn, h in COUPLINGS_FIELDS]
KERNEL_GRID = [(n, jn, h) for n in (1, 2, 3, 10, 24, 100, 512)
               for jn, h in COUPLINGS_FIELDS]
# Sweeps past the first superblock: none, four whole lanes (mid-superblock),
# four lanes and 3 sweeps (mid-lane), too few lanes for lanes (the loop), and
# 3 sweeps, fewer than one lane (the loop, with no whole lane at all).
ENDINGS = (0, 4 * 64, 4 * 64 + 3, 2 * 64 + 3, 3)


def count_loop_draws(monkeypatch, name):
    """Wrap the loop mcmc.<name> (``_site_loop`` or ``_kernel_loop``); the
    returned list holds the count of uniforms, one per step, it was given."""
    counted = [0]
    loop = getattr(mcmc, name)
    signature = inspect.signature(loop)

    def counting(*args):
        counted[0] += len(signature.bind(*args).arguments["us"])
        return loop(*args)

    monkeypatch.setattr(mcmc, name, counting)
    return counted


@pytest.mark.parametrize("i", range(len(ORACLE_GRID)),
                         ids=[f"n{n}-Jn{jn:g}-H{h:g}" for n, jn, h in ORACLE_GRID])
def test_lanes_match_the_per_site_loop(i, monkeypatch):
    """Bitwise the per-site loop's samples, whichever of lanes, reruns, the
    loop after lanes that gave up or were not all rerun, and the tail runs
    them.
    Burn-ins and endings cycle over the grid; 131072, one chunk at n = 1,
    runs there only."""
    n, jn, h = ORACLE_GRID[i]
    for name, value in SMALL_LANES.items():
        monkeypatch.setattr(mcmc, name, value)
    block = 8192 // (n * 64) * 64  # sweeps per superblock
    burn_in = (0, 7, 131072)[i % 3] if n == 1 else (0, 7)[i % 2]
    steps = block + ENDINGS[i % 5] - burn_in % block
    params = ModelParams(n=n, J=jn / n, H=h)
    looped = count_loop_draws(monkeypatch, "_site_loop")
    traj = simulate_full(params, seed=i, steps=steps, burn_in=burn_in)
    np.testing.assert_array_equal(
        traj.samples, reference_simulate_full(params, i, steps, burn_in))
    if jn <= 0.5:  # lanes meet well within 64 sweeps here
        assert looped[0] <= n * (burn_in + steps - block)


def test_lanes_carry_a_subcritical_run(monkeypatch):
    """At n = 10, J = 0.08 all but a partial lane's worth of a 200k-sweep
    run goes through the lanes."""
    looped = count_loop_draws(monkeypatch, "_site_loop")
    simulate_full(ModelParams(n=10, J=0.08), seed=5, steps=200_000)
    assert looped[0] <= 0.1 * 10 * 200_000


def test_lanes_run_without_numpy_2_popcount(monkeypatch):
    """The full chain's lanes count levels without np.bitwise_count, which
    NumPy 1.x (the declared floor is 1.26.4) lacks."""
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    for name, value in SMALL_LANES.items():
        monkeypatch.setattr(mcmc, name, value)
    looped = count_loop_draws(monkeypatch, "_site_loop")
    params = ModelParams(n=10, J=0.08)
    traj = simulate_full(params, seed=5, steps=3 * 768)
    assert looped[0] == 0  # three superblocks of 12 lanes, all as lanes
    np.testing.assert_array_equal(
        traj.samples, reference_simulate_full(params, 5, 3 * 768))


def count_lanes(monkeypatch, looped):
    """Wrap mcmc._lanes; the returned list holds, per call, the lanes asked
    for, the lanes returned and the loop draws (of ``looped``) within."""
    calls = []
    lanes = mcmc._lanes

    def counting(*a):
        before = looped[0]
        run = lanes(*a)
        calls.append((a[-1], len(run[0]) // mcmc.LANE_SWEEPS,
                      looped[0] - before))
        return run

    monkeypatch.setattr(mcmc, "_lanes", counting)
    return calls


def test_loop_takes_over_after_a_superblock_that_does_not_meet(monkeypatch):
    """At n = 10, J = 0.3 the chain keeps to a well for many sweeps. Pass 1
    starts every lane in the first superblock's well, so once the true
    chain has crossed to the other one every lane is rerun, and the reruns'
    budget runs out: the first superblock keeps only its leading lanes and
    the loop runs the rest of the run, with no second try."""
    looped = count_loop_draws(monkeypatch, "_site_loop")
    calls = count_lanes(monkeypatch, looped)
    simulate_full(ModelParams(n=10, J=0.3), seed=7, steps=150_000)
    [(asked, kept, reran)] = calls
    assert asked == mcmc.SUPERBLOCK_UPDATES // (10 * mcmc.LANE_SWEEPS)
    assert kept < asked
    assert looped[0] - reran == 10 * (150_000 - kept * mcmc.LANE_SWEEPS)


@pytest.mark.parametrize("i", range(len(KERNEL_GRID)),
                         ids=[f"n{n}-Jn{jn:g}-H{h:g}" for n, jn, h in KERNEL_GRID])
def test_kernel_lanes_match_the_bisect_loop(i, monkeypatch):
    """Bitwise the plain bisect walk's samples, whichever of lanes, reruns,
    the loop after lanes that gave up or did not meet, and the tail runs
    them.  With superblocks of 8192 sweeps (128 lanes of 64) the endings
    cycle over none, mid-superblock, mid-lane, too few lanes for lanes and
    less than one lane; the burn-ins over 0, 7 and a whole 131072-sweep draw
    chunk and 7."""
    n, jn, h = KERNEL_GRID[i]
    for name, value in SMALL_LANES.items():
        monkeypatch.setattr(mcmc, name, value)
    burn_in = (0, 7, 131072 + 7)[i % 3]
    steps = 8192 + ENDINGS[i % 5] - burn_in % 8192
    params = ModelParams(n=n, J=jn / n, H=h)
    looped = count_loop_draws(monkeypatch, "_kernel_loop")
    traj = simulate_reduced(params, seed=i, steps=steps, burn_in=burn_in)
    np.testing.assert_array_equal(
        traj.samples, reference_simulate_reduced(params, i, steps, burn_in))
    if n <= 24 and jn <= 0.5:  # lanes meet well within 64 sweeps here
        assert looped[0] <= (burn_in + steps) % 8192


@pytest.mark.parametrize("n", [1, 5, 8])
def test_kernel_step_is_bisect_at_ties(n):
    """A lane step is bisect(row, u) also where u equals entries of the row,
    repeated ones and 0 included: it counts the entries <= u."""
    rng = np.random.default_rng(n)
    rows = np.sort(rng.integers(0, 5, (n + 1, n)) / 4, axis=1)
    table = np.pad(rows, ((0, 0), (0, (1 << n.bit_length()) - n)),
                   constant_values=2.0)
    cases = [(k, u) for k in range(n + 1) for v in (0.0, 0.25, 0.5, 0.75)
             for u in (v, np.nextafter(v, 1.0), np.nextafter(v, -1.0)) if u >= 0]
    ks = np.array([k for k, _ in cases])
    us = np.array([[u] for _, u in cases])
    for _ in mcmc._kernel_steps(ks, us, table):
        pass
    assert ks.tolist() == [bisect(rows[k].tolist(), u) for k, u in cases]


def test_kernel_lanes_carry_a_subcritical_run(monkeypatch):
    """At n = 10, J = 0.08 all of a 200k-sweep run but its last part-lane
    goes through the lanes."""
    looped = count_loop_draws(monkeypatch, "_kernel_loop")
    params = ModelParams(n=10, J=0.08)
    traj = simulate_reduced(params, seed=5, steps=200_000)
    assert looped[0] == 200_000 % mcmc.LANE_SWEEPS
    np.testing.assert_array_equal(
        traj.samples, reference_simulate_reduced(params, 5, 200_000))


@pytest.mark.parametrize("seed", [2, 3])
def test_kernel_lanes_carry_a_run_in_the_lower_well(seed, monkeypatch):
    """At n = 100, J*n = 2 a run that starts in the lower well (m = -98)
    stays there; pass 1 starts every lane in it, so the lanes meet and carry
    all but the last part-lane."""
    looped = count_loop_draws(monkeypatch, "_kernel_loop")
    params = ModelParams(n=100, J=0.02)
    traj = simulate_reduced(params, seed=seed, steps=20_000)
    assert traj.samples[0] == -98 and traj.samples.max() < 0
    assert looped[0] <= 0.1 * 20_000
    np.testing.assert_array_equal(
        traj.samples, reference_simulate_reduced(params, seed, 20_000))


def test_kernel_walk_gives_up_after_a_superblock_that_does_not_meet(
        monkeypatch):
    """At n = 10, J = 0.3 the walk keeps to a well for many sweeps: once it
    has crossed from the one pass 1 starts every lane in, the first
    superblock's reruns run out of budget, it keeps only its leading lanes
    and the loop runs the rest of the run, with no second try."""
    for name, value in SMALL_LANES.items():
        monkeypatch.setattr(mcmc, name, value)
    looped = count_loop_draws(monkeypatch, "_kernel_loop")
    calls = count_lanes(monkeypatch, looped)
    params = ModelParams(n=10, J=0.3)
    traj = simulate_reduced(params, seed=5, steps=30_000)
    [(asked, kept, reran)] = calls
    assert asked == 8192 // 64 and kept < asked
    assert looped[0] - reran == 30_000 - kept * 64
    np.testing.assert_array_equal(
        traj.samples, reference_simulate_reduced(params, 5, 30_000))


@pytest.mark.parametrize("n,J,H,steps,burn_in,seed", [
    (513, 0.001, -0.05, 400, 300, 40),
    (1000, 0.0008, 0.1, 300, 200, 41),
    (1000, 0.003, 0.0, 300, 131, 42),
    (4000, 0.0002, 0.2, 100, 40, 43)])
def test_lumped_walk_matches_the_plain_rule(n, J, H, steps, burn_in, seed):
    """Above N_MAX_SWEEP_KERNEL the walk of the lumped rule gives the plain
    rule's samples bit for bit.  The burn-ins span a draw chunk boundary
    (255 sweeps per chunk at n = 513, 131 at 1000, 32 at 4000), or end on
    one, and every run ends mid-chunk."""
    assert n > N_MAX_SWEEP_KERNEL
    params = ModelParams(n=n, J=J, H=H)
    traj = simulate_reduced(params, seed=seed, steps=steps, burn_in=burn_in)
    np.testing.assert_array_equal(
        traj.samples, reference_simulate_lumped(params, seed, steps, burn_in))


def test_lumped_walk_holds_one_draw_chunk():
    """With no lane step each block of draws is one draw chunk.  At n = 1000
    the per-site loop that drew each chunk's uniforms afresh peaked at 7.1
    MiB traced (the chunk's uniforms as a list, 4.2 MiB, and its levels);
    the reused one-chunk buffer adds 1 MiB.  Blocks sized for lanes (8 lanes
    of 128 sweeps, 7.8 MiB of uniforms) would peak near 14 MiB."""
    import tracemalloc
    tracemalloc.start()
    try:
        simulate_reduced(ModelParams(n=1000, J=0.0005, H=0.1), seed=1,
                         steps=1200, burn_in=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9 * 2 ** 20, peak


@pytest.mark.parametrize("simulate,loop,seed,steps,reference", [
    (simulate_reduced, "_kernel_loop", 1, 3 * 8192,
     reference_simulate_reduced),
    (simulate_full, "_site_loop", 13, 4 * 2048, reference_simulate_full)],
    ids=["reduced", "full"])
def test_lanes_after_one_that_never_met_are_rerun(simulate, loop, seed, steps,
                                                  reference, monkeypatch):
    """At n = 4, J*n = 2 some lanes' true chains never meet pass 1's within
    64 sweeps (the full chain's, rarer, in the second of these four
    superblocks); the lanes after them are rerun by the loop, every lane is
    kept, and no draw reaches the loop outside the lanes."""
    for name, value in SMALL_LANES.items():
        monkeypatch.setattr(mcmc, name, value)
    looped = count_loop_draws(monkeypatch, loop)
    calls = count_lanes(monkeypatch, looped)
    params = ModelParams(n=4, J=0.5)
    traj = simulate(params, seed=seed, steps=steps)
    assert calls and all(asked == kept for asked, kept, _ in calls)
    assert any(reran for _, _, reran in calls)
    assert looped[0] == sum(reran for _, _, reran in calls)
    np.testing.assert_array_equal(traj.samples,
                                  reference(params, seed, steps))


def test_reruns_stop_after_a_quarter_of_the_sweeps():
    """Reruns that never meet pass 1 stop once they have taken a quarter of
    the lanes' sweeps; the lanes kept are the walk's.  The stand-in pass 1
    leaves every chain at level -1, which no true walk reaches."""
    rows = sweep_kernel_rows(build_reduced_chain(ModelParams(n=10, J=0.08)))
    table = np.pad(rows, ((0, 0), (0, 6)), constant_values=2.0)
    rows = rows.tolist()
    us = np.random.default_rng(7).random((64, 128))
    passes = []

    def stuck(ks, a, b):
        for _ in range(a, b):
            ks[:] = -1
            yield ks

    def steps(ks, a, b):
        passes.append((a, b))  # pass 1 asks once, then pass 2 once
        if len(passes) == 1:
            return stuck(ks, a, b)
        return mcmc._kernel_steps(ks, us[:, a:b], table)

    def walk(k, a, b):
        ks = mcmc._kernel_loop(rows, k, us.ravel()[a:b].tolist())
        return ks, ks[-1]

    levels, end = mcmc._lanes(steps, walk, 5, 10, 64)
    kept = len(levels) // 128
    assert kept == 2 + 64 // 4  # lane 0, then reruns until over 16 lanes
    truth = mcmc._kernel_loop(rows, 5, us.ravel().tolist())
    assert levels.tolist() == truth[:128 * kept]
    assert end == truth[128 * kept - 1]


# sha256 of trajectory_to_csv for (simulator, n, J, H, steps, burn_in,
# seed).  Reduced cases with n <= N_MAX_SWEEP_KERNEL (512) were recorded from
# the sweep-kernel draw; every full case, and every reduced case above the cap,
# is the sha256 of the per-site loops' v1 text with only the header's v1 made
# v2.  The per-site loops draw 131072 // n sweeps per chunk and the kernel
# 131072, so every step count here ends mid-chunk and burn-in 131072 spans
# whole chunks; J = 0.3 at n = 10 and J = 0.15 at n = 24 keep the walk on the
# walls k = 0, n; n = 512 and 513 sit on either side of the cap.  The last
# two full cases, recorded from the per-site loop (the last from
# conftest.reference_simulate_full), span two superblocks of lanes, a partial
# one and a tail of less than a lane; in the last, lanes after one that never
# met are rerun in the third.
PINNED_STREAMS = [
    ("reduced", 1, 0.0, 0.0, 131500, 0, 11,
     "3825bbefbd02c27a69b19399a22f5d2153e94c800411d5d5f2ee6dbeaac35b07"),
    ("reduced", 1, 0.3, 0.4, 1000, 131072, 12,
     "f76cd3f4212607633fa5e7e6723ed92b30892b61e4302cc8d3dc8bf731ae3c30"),
    ("full", 1, 0.0, -0.3, 131500, 5, 13,
     "20fcc107886ff7eb9caec161e2925491b40788ffe7b31ac987b3fec7a6260810"),
    ("full", 1, 0.3, 0.0, 1000, 131072, 14,
     "eb58c91effa54a48c8f5890ec2c5124ff78e510648564f56188f10974abefd75"),
    ("reduced", 10, 0.08, 0.0, 20000, 0, 15,
     "e2bb2fcb48343a9682dd2a054f3abdcc10938cf3c6bcbdcbfe8c3db955268dcf"),
    ("reduced", 10, 0.05, 0.2, 20000, 5, 16,
     "94f6f9fc774ba4e9b732fe83a70d353836f8e0f89f7bd65c44bbaf59857ff59c"),
    ("reduced", 10, 0.3, 0.0, 14000, 5, 17,
     "63c951ae2ff66231d165063ce967c9069a8cdc29b85ee44759b08dcb2cdbe6a9"),
    ("reduced", 10, 0.08, -0.1, 1000, 131072, 18,
     "27be5d01951c5ecc6b4ca57d1f0c3ff6670063dc86b528e3e2996dc35f974a8e"),
    ("full", 10, 0.08, 0.0, 20000, 0, 19,
     "ec6367dc7bc5a22ffa9400fe6e2e3cd1065bead4285151993a5e641714ad0258"),
    ("full", 10, 0.05, 0.2, 20000, 5, 20,
     "b575252232bb2795f3ee42a54df83a969901a92ad32bae7506c9811201decf90"),
    ("full", 10, 0.3, 0.0, 14000, 5, 21,
     "b8cf8e655148ef27c6033f5cf01e4c56e24d32f33c317cac4750b7a6ec509674"),
    ("full", 10, 0.08, -0.1, 1000, 131072, 22,
     "d4f6a1fdd5096c4e2afa394a85c95edaacc59cf4a9f7234906bf09f72a68ebe2"),
    ("reduced", 24, 0.03, 0.0, 7000, 0, 23,
     "3b4987c880651719c51e0dcc73230c85bcfce30c7399a601f719de434cbb1bc7"),
    ("reduced", 24, 0.15, 0.05, 7000, 5, 24,
     "fff8c609a7df64dccd25ecadedc0483c9eed5f7457f577e3d972f568ffe57940"),
    ("full", 24, 0.03, 0.0, 7000, 0, 25,
     "65b3e5a67ecac03eb1e06964e4cd0a8d425f488b75dc1c27c1f2d0baf213d2cf"),
    ("full", 24, 0.15, 0.05, 7000, 5, 26,
     "c426007d246442ad1d91851f26662b6fa4d26664a42f730098b5f424277b423a"),
    ("reduced", 1000, 0.0008, 0.1, 300, 5, 27,
     "d8abd7620677a910306e685b2b91e0db84f1ba84998e619904d8f0cd046b6a34"),
    ("reduced", 512, 0.001, 0.05, 2000, 5, 28,
     "600d9c99f6f8d21471d85b4555019965b8091b13e1d0841179eb87c013000d8d"),
    ("reduced", 513, 0.001, -0.05, 300, 5, 29,
     "326f12fcbb031d82f6bb110cd7ae88ae25985503bb44f929c6212717f7419164"),
    ("full", 10, 0.08, 0.1, 250_000, 3, 30,
     "69b943aa9d48d216008d6843e0c81c9faa1556db320f06575deb6d84efdce021"),
    ("full", 10, 0.15, 0.0, 250_000, 0, 35,
     "98e3616ff9b58a99691aed9a7101e5b7a7dc4f410b7f5e4bd942a278e36fd762"),
]


@pytest.mark.parametrize("sim,n,J,H,steps,burn_in,seed,digest", PINNED_STREAMS,
                         ids=[f"{c[0]}-n{c[1]}-seed{c[6]}"
                              for c in PINNED_STREAMS])
def test_trajectory_stream_is_pinned(sim, n, J, H, steps, burn_in, seed,
                                     digest):
    """Same seed, same bytes: the RNG calls, their order and chunk sizes are
    part of the trajectory format."""
    simulate = simulate_full if sim == "full" else simulate_reduced
    traj = simulate(ModelParams(n=n, J=J, H=H), seed=seed, steps=steps,
                    burn_in=burn_in)
    text = trajectory_to_csv(traj)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("per_sweep", [3, 10, 24])
def test_uint32_sites_are_the_default_dtype_sites(per_sweep):
    """Below 2^32, int64 and uint32 bounded draws take one buffered 32-bit
    path: the same sites, and the generator left in the same state, so the
    site dtype is not part of the stream."""
    wide, narrow = np.random.default_rng(7), np.random.default_rng(7)
    for size in (131072, 1, 4999, 131072):
        sites = wide.integers(0, per_sweep, size=size)
        assert sites.dtype == np.int64
        np.testing.assert_array_equal(
            narrow.integers(0, per_sweep, size=size, dtype=np.uint32), sites)
        assert narrow.bit_generator.state == wide.bit_generator.state


def test_sweep_kernel_bytes_do_not_depend_on_blas_threads():
    """Unpadded, OpenBLAS products of sizes such as 101 and 513 differ in
    their last bits between one thread and two; the kernel must not."""
    code = ("import hashlib, numpy as np\n"
            "from cwglauber.ising import ModelParams\n"
            "from cwglauber.magchain import build_reduced_chain\n"
            "from cwglauber.mcmc import sweep_kernel_rows\n"
            "h = hashlib.sha256()\n"
            "for n in (10, 100, 300, 512):\n"
            "    p = ModelParams(n=n, J=0.5 / n, H=0.05)\n"
            "    h.update(np.array(sweep_kernel_rows(build_reduced_chain(p)))"
            ".tobytes())\n"
            "print(h.hexdigest())\n")
    src = str(Path(cwglauber.__file__).resolve().parents[1])
    digests = {subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": src,
                         "OPENBLAS_NUM_THREADS": str(threads)}).stdout
        for threads in (1, 2)}
    assert len(digests) == 1


class TestEstimateRelaxation:
    @pytest.mark.parametrize("method", ["exponential_fit",
                                        "integrated_autocorrelation"])
    def test_brackets_spectral_value(self, method):
        p = ModelParams(n=8, J=0.05, H=0.0)
        traj = simulate_reduced(p, seed=123, steps=200_000)
        est = estimate_relaxation(traj, method=method)
        spectral = second_eigenpair(p).t_rel / p.n  # sweeps
        assert abs(est.t_rel_hat - spectral) <= 0.2 * spectral
        assert est.stderr >= 0 and not est.floor_limited

    def test_white_noise_hits_floor(self):
        rng = np.random.default_rng(0)
        traj = Trajectory(params=ModelParams(n=1, J=0.0), seed=0, burn_in=0,
                          samples=rng.standard_normal(100_000))
        est = estimate_relaxation(traj, method="exponential_fit")
        assert est.floor_limited and est.t_rel_hat == 0.5
        est = estimate_relaxation(traj, method="integrated_autocorrelation")
        assert est.floor_limited and est.t_rel_hat <= 0.55

    def test_insufficient_data(self):
        traj = Trajectory(params=ModelParams(n=2, J=0.1), seed=0, burn_in=0,
                          samples=np.zeros(5000))
        with pytest.raises(EstimationError, match="10000"):
            estimate_relaxation(traj)

    def test_negative_lag_one_autocovariance(self):
        alternating = np.tile([1.0, -1.0], 10_000)
        traj = Trajectory(params=ModelParams(n=1, J=0.0), seed=0, burn_in=0,
                          samples=alternating)
        with pytest.raises(EstimationError, match="lag 1"):
            estimate_relaxation(traj)

    def test_exp_fit_without_decay(self):
        """The MA(2) series a_t + 0.3 a_{t-1} + a_{t-2} has acov(2) > acov(1)
        > 0, so the log-autocovariance rises and the fit finds no decay."""
        a = np.random.default_rng(0).standard_normal(20_002)
        x = a[2:] + 0.3 * a[1:-1] + a[:-2]
        with pytest.raises(EstimationError, match="found no decay"):
            estimate_relaxation(series(x), method="exponential_fit")

    def test_integrated_without_window(self):
        """The sample autocovariances of a finite series sum to -acov(0)/2
        over lags 1..N-1, so tau(N-1) = 0 and the last window qualifies: only
        a non-finite sample could leave none.  Such a series is refused up
        front, naming its first bad index, under either method."""
        x = ar1(0.5, 20_000, np.random.default_rng(1))
        x[[5, 70]] = np.nan, np.inf
        for method in mcmc._METHODS:
            with pytest.raises(EstimationError,
                               match="non-finite sample at index 5$"):
                estimate_relaxation(series(x), method=method)
        x[5] = 0.0
        with pytest.raises(EstimationError, match="index 70$"):
            estimate_relaxation(series(x))

    def test_fit_below_the_floor_is_floor_limited(self):
        """An AR(1) series with phi = 0.1 relaxes in 1/ln(10) = 0.43 sweeps:
        its fit lands below the floor, so it reads as the floor, flagged,
        as white noise does."""
        x = ar1(0.1, 80_000, np.random.default_rng(0))
        assert mcmc._exp_fit(x) == (mcmc.T_REL_FLOOR, True)
        est = estimate_relaxation(series(x), method="exponential_fit")
        assert est.floor_limited and est.t_rel_hat == mcmc.T_REL_FLOOR

    @pytest.mark.parametrize("method", ["exponential_fit",
                                        "integrated_autocorrelation"])
    def test_batch_that_raises_is_skipped(self, method):
        """A constant batch raises (zero variance) and leaves the stderr to
        the other 15 batches."""
        rng = np.random.default_rng(2)
        batches = [ar1(0.5, 1000, rng) for _ in range(16)]
        batches[3][:] = 0.0
        fit = mcmc._METHODS[method]
        with pytest.raises(EstimationError, match="zero-variance"):
            fit(batches[3])
        values = [fit(b)[0] for i, b in enumerate(batches) if i != 3]
        est = estimate_relaxation(series(np.concatenate(batches)), method)
        assert est.stderr == float(np.std(values, ddof=1) / np.sqrt(15))
        assert not est.floor_limited

    @pytest.mark.parametrize("method", ["exponential_fit",
                                        "integrated_autocorrelation"])
    def test_estimate_within_noise_of_the_floor(self, method):
        """14 fast batches and 2 faint slow ones: the whole-series fit sits
        above the floor but within 3 batch stderrs of it, so it is flagged
        floor-limited while keeping its value."""
        rng = np.random.default_rng(1)
        x = np.concatenate([ar1(0.2, 1000, rng) for _ in range(14)]
                           + [0.1 * ar1(0.9, 1000, rng) for _ in range(2)])
        t_rel_hat, floor_limited = mcmc._METHODS[method](x)
        assert not floor_limited and t_rel_hat > mcmc.T_REL_FLOOR
        est = estimate_relaxation(series(x), method)
        assert est.floor_limited and est.t_rel_hat == t_rel_hat
        assert est.t_rel_hat - mcmc.T_REL_FLOOR <= 3 * est.stderr

    def test_unknown_method(self):
        traj = Trajectory(params=ModelParams(n=2, J=0.1), seed=0, burn_in=0,
                          samples=np.zeros(20_000))
        with pytest.raises(ValueError, match="unknown method"):
            estimate_relaxation(traj, method="wavelet")

    def test_stderr_scales_like_inverse_sqrt_length(self):
        """Batch-means scaling: quadrupling the run roughly halves stderr."""
        p = ModelParams(n=6, J=0.05, H=0.0)
        short, long = [], []
        for seed in range(4):
            t1 = simulate_reduced(p, seed=seed, steps=50_000)
            t2 = simulate_reduced(p, seed=100 + seed, steps=200_000)
            short.append(estimate_relaxation(t1).stderr)
            long.append(estimate_relaxation(t2).stderr)
        ratio = np.mean(short) / np.mean(long)
        assert 1.3 <= ratio <= 3.2  # ideal 2.0, allow statistical spread

    def test_result_type(self):
        p = ModelParams(n=4, J=0.02, H=0.0)
        traj = simulate_reduced(p, seed=8, steps=20_000)
        est = estimate_relaxation(traj)
        assert isinstance(est, RelaxationEstimate)
        assert est.method == "exponential_fit"


# (N, lags) for autocovariance against the lagged sums, with B = MIN_BLOCK:
# N below one block and not a multiple of B; lags either side of B (B - 1
# and B share the block size, B + 1 doubles it) and 3B; and N = 3 groups
# and a few samples, so that each group's last spectrum carries into the next.
_B = mcmc.MIN_BLOCK
_GROUPS = 3 * mcmc.GROUP_SAMPLES + 17
ACOV_CASES = ([(N, lags) for N in (625, 4000)
               for lags in (1, 2, 20, 64, 65, 300, 600)]
              + [(N, lags) for N in (_B, 3 * _B + 5)
                 for lags in (_B - 1, _B, _B + 1, 3 * _B) if lags <= N]
              + [(_GROUPS, lags) for lags in (2, _B - 1, _B + 1)])


class TestAutocovariance:
    @pytest.mark.parametrize("N,lags", ACOV_CASES,
                             ids=[f"{lags}-{N}" for N, lags in ACOV_CASES])
    def test_matches_the_lagged_sums(self, N, lags):
        rng = np.random.default_rng(N + lags)
        x = np.cumsum(rng.standard_normal(N)) + 3.0
        y = x - x.mean()
        direct = np.array([y[:N - l] @ y[l:] for l in range(lags)]) / N
        got = autocovariance(x, lags)
        assert got.shape == (lags,)
        assert np.abs(got - direct).max() <= 1e-13 * direct[0]

    @pytest.mark.parametrize("method", ["exponential_fit",
                                        "integrated_autocorrelation"])
    def test_window_reads_what_all_lags_read(self, monkeypatch, method):
        """The estimators read gamma up to its first nonpositive lag (and
        the first W >= 6 tau(W)); a window grown to that point gives what
        all N lags give, errors included."""
        def ar1(phi, n):
            x, noise = np.zeros(n), rng.standard_normal(n)
            for t in range(1, n):
                x[t] = phi * x[t - 1] + noise[t]
            return x

        rng = np.random.default_rng(17)
        N = 1 << 16
        ma = rng.standard_normal(N + 2)
        # gamma(2) < 0 from the MA part; the slow part puts W past the
        # first window, one block of MIN_BLOCK lags
        mixed = ma[2:] - 0.9 * ma[:-2] + 0.018 * ar1(0.9998, N)
        acov = autocovariance(mixed, N)
        taus = 0.5 + np.cumsum(acov[1:] / acov[0])
        assert acov[2] < 0
        W = np.arange(1, mcmc.MIN_BLOCK)
        assert not np.any(W >= 6 * taus[:len(W)])
        series = [mixed, rng.standard_normal(50_000),
                  np.cumsum(rng.standard_normal(30_000)), ar1(0.995, N),
                  np.tile([1.0, -1.0], 10_000), np.zeros(20_000),
                  simulate_reduced(ModelParams(n=10, J=0.08), seed=3,
                                   steps=200_000).samples,
                  simulate_full(ModelParams(n=6, J=0.2, H=0.1), seed=4,
                                steps=40_000).samples]

        def outcomes():
            out = []
            for x in series:
                traj = Trajectory(params=ModelParams(n=1, J=0.0), seed=0,
                                  burn_in=0, samples=x)
                try:
                    out.append(estimate_relaxation(traj, method=method))
                except EstimationError as exc:
                    out.append(str(exc))
            return out

        windows = []

        def counted(x, lags):
            windows.append((len(x), lags))
            return autocovariance(x, lags)

        monkeypatch.setattr(mcmc, "autocovariance", counted)
        windowed = outcomes()
        assert windows[:2] == [(N, 4096), (N, 8192)]  # the mixed series grew
        monkeypatch.setattr(mcmc, "autocovariance",
                            lambda x, lags: autocovariance(x, len(x)))
        for a, b in zip(windowed, outcomes()):
            if isinstance(b, str):
                assert a == b
                continue
            assert a.floor_limited == b.floor_limited
            assert a.t_rel_hat == pytest.approx(b.t_rel_hat, rel=1e-12)
            assert a.stderr == pytest.approx(b.stderr, rel=1e-12)


@pytest.fixture(scope="module")
def long_run():
    return simulate_reduced(ModelParams(n=10, J=0.08), seed=7, steps=10**6)


def traced_peak(f, *args):
    """f(*args) and the peak of the memory it allocated (tracemalloc)."""
    tracemalloc.start()
    try:
        return f(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("method", ["exponential_fit",
                                    "integrated_autocorrelation"])
def test_estimate_in_bounded_memory(long_run, method):
    """On a 10^6-sweep run the estimate's transient memory is set by its lag
    blocks, not by the run: below 8 MiB (the samples take 7.6)."""
    est, used = traced_peak(estimate_relaxation, long_run, method)
    assert not est.floor_limited
    assert used < 8 << 20


def test_trajectory_write_in_bounded_memory(long_run):
    """The writer formats a chunk at a time: it peaks below three times the
    text it returns."""
    text, used = traced_peak(trajectory_to_csv, long_run)
    assert used < 3 * len(text)


def test_trajectory_read_in_bounded_memory(long_run):
    """The reader parses the values as one array, with no string per line:
    it peaks below 12 MiB, mostly the 7.6 MiB of samples it returns."""
    text = trajectory_to_csv(long_run)
    back, used = traced_peak(trajectory_from_csv, text)
    np.testing.assert_array_equal(back.samples, long_run.samples)
    assert used <= 12 << 20, used


def test_supercritical_slowdown_demonstrated_by_dynamics():
    """At fixed J*n = 1.6, doubled-size runs relax visibly slower; the
    quantitative ratio check lives in the spectral acceptance criterion,
    this run demonstrates the slowdown in the dynamics themselves."""
    estimates = {}
    for n in (8, 12):
        p = ModelParams(n=n, J=1.6 / n, H=0.0)
        traj = simulate_reduced(p, seed=77, steps=60_000)
        est = estimate_relaxation(traj, method="integrated_autocorrelation")
        spectral = second_eigenpair(p).t_rel / n
        estimates[n] = est.t_rel_hat
        print(f"n={n}: estimated t_rel {est.t_rel_hat:.2f} sweeps "
              f"(spectral {spectral:.2f})")
    assert estimates[12] > 1.5 * estimates[8]
