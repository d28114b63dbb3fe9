"""Simulators and relaxation estimators against spectral ground truth.

Statistical assertions use 4-sigma bands with an autocorrelation inflation
factor, and every test runs on a fixed seed, so failures signal real
regressions rather than unlucky draws.
"""

import hashlib

import numpy as np
import pytest
from numpy.linalg import matrix_power
from scipy.stats import binom

from conftest import dense_reduced_chain
from cwglauber.ising import ModelParams
from cwglauber.magchain import build_reduced_chain, reduced_stationary
from cwglauber.mcmc import (EstimationError, RelaxationEstimate, Trajectory,
                            estimate_relaxation, simulate_full,
                            simulate_reduced)
from cwglauber.reports import trajectory_to_csv
from cwglauber.spectral import second_eigenpair


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
        expect = reduced_stationary(p).probabilities
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
        expect = reduced_stationary(p).probabilities
        sigma = np.sqrt(2 * expect * (1 - expect) / T) * sigma_inflation(p)
        assert np.all(np.abs(ff - fr) <= 4 * sigma)

    def test_saturated_field_pins_all_spins_up(self):
        p = ModelParams(n=10, J=0.1, H=50.0)
        traj = simulate_full(p, seed=2, steps=10_000, burn_in=100)
        assert traj.samples.mean() > p.n - 0.01

    def test_size_guard(self):
        with pytest.raises(ValueError, match="n <= 24"):
            simulate_full(ModelParams(n=25, J=0.01), seed=0, steps=10)


# sha256 of trajectory_to_csv for (simulator, n, J, H, steps, burn_in,
# seed), recorded from the per-site loops as they stood before the flat-loop
# rewrite.  Each simulator draws 131072 // n sweeps per chunk, so every step
# count here ends mid-chunk and burn-in 131072 spans whole chunks; J = 0.3
# at n = 10 and J = 0.15 at n = 24 keep the walk on the walls k = 0, n.
PINNED_STREAMS = [
    ("reduced", 1, 0.0, 0.0, 131500, 0, 11,
     "53944424421e6a382294487d9bb0cf4af23fbfa67594a2b9bfb0726ba629d021"),
    ("reduced", 1, 0.3, 0.4, 1000, 131072, 12,
     "81243e5fd3273a23b2fa360831e7b046584021012f567ad853eb4b5a12401e92"),
    ("full", 1, 0.0, -0.3, 131500, 5, 13,
     "6d9c98800ffe684069d82f11b429e87963fe1fd5c6b8c2e424aa0ba33cab939f"),
    ("full", 1, 0.3, 0.0, 1000, 131072, 14,
     "f7fa771aec90274d98e09d8a00b0f827dc56b8321d461134353fa47d497303d9"),
    ("reduced", 10, 0.08, 0.0, 20000, 0, 15,
     "24aa4653d3a43d21079e096feca016391fe756eb46450865b1b583b4c1555c5f"),
    ("reduced", 10, 0.05, 0.2, 20000, 5, 16,
     "db5c237c694225268de2d522c73c9742f6927ed3f1f8635d18ecf30f15b4fd63"),
    ("reduced", 10, 0.3, 0.0, 14000, 5, 17,
     "7dfc956bb389678b552d2840095203a41ef6dee725c926e47f7baf4590d83892"),
    ("reduced", 10, 0.08, -0.1, 1000, 131072, 18,
     "164ca333c0bf05240e41603b933ebc0f3415828ed5993450545f4be61da676c3"),
    ("full", 10, 0.08, 0.0, 20000, 0, 19,
     "2dfcce379d3f9aae33cfb19dd25cd567fcfb58ccbae1d176543d248544013918"),
    ("full", 10, 0.05, 0.2, 20000, 5, 20,
     "1f8b026e7acd8176f68400d3c19254129c711ac440828902ba512a4e3dc593a8"),
    ("full", 10, 0.3, 0.0, 14000, 5, 21,
     "7d623fe3936ff021f5a71cf4c21202c9fe4b4bdb0ae68edc09c106c994c88aec"),
    ("full", 10, 0.08, -0.1, 1000, 131072, 22,
     "1202edf310ab9f3f12dd618efa304301d4f33f459924b78bd3b21e52a6736640"),
    ("reduced", 24, 0.03, 0.0, 7000, 0, 23,
     "915ac8efb88115a5fe532b67bd596f9b54031d87b981650b6a025b9bd90b3ec1"),
    ("reduced", 24, 0.15, 0.05, 7000, 5, 24,
     "0beb8d5ba72e62f564bc9f935002811abbae57ee92a910e2658565dc3a03943a"),
    ("full", 24, 0.03, 0.0, 7000, 0, 25,
     "2168aa79de71f6fc51407da691a17aa958ae635116081fa28cd2ed252752643b"),
    ("full", 24, 0.15, 0.05, 7000, 5, 26,
     "078fa69e66bf879787ba3a40da83ea1cb847e60790bc6184415e75d99255d174"),
    ("reduced", 1000, 0.0008, 0.1, 300, 5, 27,
     "808ca81d555f2b90944ee1dfa0021d6b4132e8986f6459518fb6ec5de364627b"),
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
