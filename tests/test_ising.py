"""Full-chain construction: Gibbs weights, transition rule, reversibility."""

import numpy as np
import pytest
from scipy.special import logsumexp

from conftest import detailed_balance_violation
from cwglauber.ising import (ModelParams, all_plus_counts,
                             full_transition_matrix, law_from_log_weights,
                             log_weights_full, logistic, stationary_full)


def pair_sum_log_weight(J, H, spins):
    """Independent oracle: the literal double sum over unordered pairs."""
    spins = list(spins)
    n = len(spins)
    pair = sum(spins[x] * spins[y] for x in range(n) for y in range(x + 1, n))
    return J * pair + H * sum(spins)


def index_of(spins):
    """Configuration index of a +-1 list: bit i set exactly when spin i is +1."""
    return sum(1 << i for i, s in enumerate(spins) if s > 0)


class TestModelParams:
    def test_valid(self):
        p = ModelParams(n=3, J=0.5, H=-0.2)
        assert (p.n, p.J, p.H) == (3, 0.5, -0.2)

    @pytest.mark.parametrize("kwargs", [
        dict(n=0, J=0.1), dict(n=-2, J=0.1), dict(n=3, J=-0.1),
        dict(n=3, J=np.inf), dict(n=3, J=0.1, H=np.nan),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)


class TestGibbsLogWeight:
    def test_two_aligned_spins(self):
        # J * ((2*2-2)^2 - 2)/2 = J at n=2, k=2
        p = ModelParams(n=2, J=1.0, H=0.0)
        assert log_weights_full(p)[index_of([1, 1])] == 1.0

    def test_zero_couplings(self):
        p = ModelParams(n=5, J=0.0, H=0.0)
        assert np.array_equal(log_weights_full(p), np.zeros(32))

    def test_hand_value(self):
        # 0.2*((4-3)^2-3)/2 + 0.1*1 = -0.1
        p = ModelParams(n=3, J=0.2, H=0.1)
        assert log_weights_full(p)[index_of([1, 1, -1])] == \
            pytest.approx(-0.1, abs=1e-15)

    @pytest.mark.parametrize("n,J,H", [(2, 1.0, 0.0), (4, 0.3, 0.2),
                                       (6, 0.7, -0.4), (7, 0.05, 1.3)])
    def test_matches_pair_sum_oracle(self, n, J, H):
        lw = log_weights_full(ModelParams(n=n, J=J, H=H))
        for idx in range(1 << n):
            spins = 2 * ((idx >> np.arange(n)) & 1) - 1
            expected = pair_sum_log_weight(J, H, spins)
            assert lw[idx] == pytest.approx(expected, abs=1e-13)

    def test_spin_flip_symmetry_exact_at_h0(self):
        p = ModelParams(n=7, J=0.4, H=0.0)
        lw = log_weights_full(p)
        m = 1 << 7
        assert np.array_equal(lw, lw[(m - 1) - np.arange(m)])


class TestLogistic:
    def test_midpoint_and_symmetry(self):
        assert logistic(0.0) == 0.5
        a = np.linspace(-30, 30, 121)
        np.testing.assert_allclose(logistic(a) + logistic(-a), 1.0, atol=1e-15)

    def test_no_overflow(self):
        assert logistic(-1e4) == 0.0
        assert logistic(1e4) == 1.0


class TestFullTransitionMatrix:
    def test_two_spins_free(self):
        P = full_transition_matrix(ModelParams(n=2, J=0.0, H=0.0)).toarray()
        off = P - np.diag(np.diag(P))
        assert np.all((off == 0) | (off == 0.25))
        np.testing.assert_array_equal(np.diag(P), 0.5)

    def test_single_spin_any_coupling(self):
        # no neighbors exist, so J is irrelevant and each flip has rate 1/2
        for J in (0.0, 3.0, 17.0):
            P = full_transition_matrix(ModelParams(n=1, J=J, H=0.0)).toarray()
            np.testing.assert_array_equal(P, [[0.5, 0.5], [0.5, 0.5]])

    @pytest.mark.parametrize("n,J,H", [(3, 0.5, 0.2), (5, 0.1, 0.0),
                                       (8, 0.3, 0.1), (6, 0.0, 0.7)])
    def test_rows_entries_locality(self, n, J, H):
        P = full_transition_matrix(ModelParams(n=n, J=J, H=H))
        assert np.abs(P.sum(axis=1) - 1.0).max() < 1e-14
        assert P.min() >= 0.0 and P.max() <= 1.0 + 1e-15
        rows, cols = np.nonzero(P)
        hamming = np.array([bin(r ^ c).count("1") for r, c in zip(rows, cols)])
        assert np.all(hamming <= 1)

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    @pytest.mark.parametrize("J,H", [(0.3, 0.0), (2.0, 0.0), (0.2, -0.4),
                                     (0.05, 0.7)])
    def test_matches_per_state_loop_bitwise(self, n, J, H):
        """The table-driven build against the heat-bath rule written out one
        state and one site at a time."""
        P = full_transition_matrix(ModelParams(n=n, J=J, H=H))
        m = 1 << n
        expected = np.zeros((m, m))
        for i in range(m):
            spins = [2 * ((i >> x) & 1) - 1 for x in range(n)]
            flips = np.empty(n)
            for x in range(n):
                others = sum(spins) - spins[x]
                flips[x] = logistic(2.0 * (-spins[x]) * (J * others + H)) / n
                expected[i, i ^ (1 << x)] = flips[x]
            expected[i, i] = 1.0 - flips.sum()
        np.testing.assert_array_equal(P.toarray(), expected)
        assert P.indices.dtype == np.int32 and P.indptr.dtype == np.int32

    def test_resource_guard(self):
        with pytest.raises(ValueError, match="n_max_full"):
            full_transition_matrix(ModelParams(n=5, J=0.1), n_max_full=4)
        full_transition_matrix(ModelParams(n=5, J=0.1), n_max_full=5)
        with pytest.raises(ValueError, match="n=5 refused: exceeds n_max_full=4"):
            stationary_full(ModelParams(n=5, J=0.1), n_max_full=4)
        assert len(stationary_full(ModelParams(n=5, J=0.1), n_max_full=5)) == 32

    @pytest.mark.parametrize("n,J,H", [(3, 0.5, 0.2), (6, 0.4, 0.1),
                                       (8, 0.2, 0.0)])
    def test_gibbs_flip_consistency(self, n, J, H):
        """P(s->s^x)/P(s^x->s) equals the Gibbs ratio; pins the unordered-pair
        convention."""
        params = ModelParams(n=n, J=J, H=H)
        P = full_transition_matrix(params)
        lw = log_weights_full(params)
        m = 1 << n
        idx = np.arange(m)
        cols = idx[:, None] ^ (1 << np.arange(n))[None, :]
        ratio = P[idx[:, None], cols] / P[cols, idx[:, None]]
        expected = np.exp(lw[cols] - lw[:, None])
        assert np.abs(ratio / expected - 1.0).max() < 1e-12


class TestStationaryAndDetailedBalance:
    def test_uniform_at_zero_energy(self):
        pi = stationary_full(ModelParams(n=2, J=0.0, H=0.0))
        np.testing.assert_allclose(pi, 0.25, atol=1e-15)

    def test_two_state_field(self):
        H = 0.8
        pi = stationary_full(ModelParams(n=1, J=0.0, H=H))
        z = np.exp(-H) + np.exp(H)
        np.testing.assert_allclose(pi,
                                   [np.exp(-H) / z, np.exp(H) / z], atol=1e-15)

    def test_left_eigenvector_residual(self):
        params = ModelParams(n=4, J=0.3, H=0.1)
        P = full_transition_matrix(params)
        p = stationary_full(params)
        assert np.abs(p @ P - p).max() < 1e-12

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    @pytest.mark.parametrize("J,H", [(0.0, 0.0), (0.2, 0.0), (0.4, 0.1)])
    def test_detailed_balance_grid(self, n, J, H):
        params = ModelParams(n=n, J=J, H=H)
        P = full_transition_matrix(params)
        pi = stationary_full(params)
        assert detailed_balance_violation(P.toarray(), pi) < 1e-13

    def test_symmetric_chain_uniform_pi_is_exact(self):
        P = np.array([[0.5, 0.3, 0.2], [0.3, 0.5, 0.2], [0.2, 0.2, 0.6]])
        pi = law_from_log_weights(np.zeros(3))
        assert detailed_balance_violation(P, pi) == 0.0

    def test_detects_injected_asymmetry(self):
        params = ModelParams(n=2, J=0.0, H=0.0)
        P = full_transition_matrix(params).toarray()
        pi = stationary_full(params)  # uniform, so the bump is undamped
        P[1, 2] += 1e-3
        assert detailed_balance_violation(P, pi) >= 1e-4


class TestDistribution:
    @pytest.mark.parametrize("n,J,H", [(6, 0.4, 0.2), (10, 0.05, -0.3)])
    def test_normalization_and_positivity(self, n, J, H):
        pi = stationary_full(ModelParams(n=n, J=J, H=H))
        assert abs(pi.sum() - 1.0) < 1e-12
        assert pi.min() > 0.0

    def test_plus_counts(self):
        counts = all_plus_counts(3)
        np.testing.assert_array_equal(counts, [0, 1, 1, 2, 1, 2, 2, 3])

    @pytest.mark.parametrize("size", [1, 2, 7, 8, 9, 13, 128, 129, 1000,
                                      4096, 5000])
    @pytest.mark.parametrize("spread", [0.0, 1e-3, 1.0, 700.0, 1e4])
    @pytest.mark.parametrize("ties", [1, 2, 4])
    def test_bitwise_scipy_logsumexp(self, size, spread, ties):
        """The law's axis=-1, keepdims=True call to scipy's logsumexp gives
        the bytes of the 1-D call; pairwise summation makes sizes past 8 and
        128 distinct."""
        rng = np.random.default_rng(size * 1000 + ties)
        lw = rng.uniform(-spread, 0.0, size) + rng.normal(0.0, 50.0)
        lw[rng.choice(size, min(ties, size), replace=False)] = lw.max() + 0.25
        for weights in (lw, np.round(lw)):
            expected = np.exp(weights - logsumexp(weights))
            got = law_from_log_weights(weights)
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", range(1, 13))
    def test_stationary_full_bitwise_scipy(self, n):
        for J, H in [(0.0, 0.0), (0.3, 0.0), (0.1, -0.4), (2.0, 0.7)]:
            lw = log_weights_full(ModelParams(n=n, J=J, H=H))
            got = stationary_full(ModelParams(n=n, J=J, H=H))
            assert got.tobytes() == np.exp(lw - logsumexp(lw)).tobytes()
