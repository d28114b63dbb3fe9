"""Magnetization chain: entries, stationary law, s_k and the J-derivative."""

import math

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp
from scipy.stats import binom

from cwglauber.ising import ModelParams, all_plus_counts, stationary_full
from cwglauber.magchain import (Tridiagonal, _stirling, build_reduced_chain,
                                derivative_matrix, inv_one_plus_cosh,
                                log_factorials, lump_vector,
                                reduced_stationary, s_values)
from cwglauber.ising import full_transition_matrix
from cwglauber.spectral import second_eigenpair

GRID = [(2, 0.0, 0.0), (3, 0.5, 0.2), (5, 0.1, -0.3), (8, 0.3, 0.0),
        (10, 0.45, 0.1), (1, 2.0, 0.5)]


def row_sums(chain):
    return (np.concatenate([chain.up, [0.0]])
            + np.concatenate([[0.0], chain.down]) + chain.diag)


class TestBuildReducedChain:
    def test_printed_formula_hand_value(self):
        # up[0] at n=2, J=0.5, H=0 is 1/(1+e^{(2-0-1)*2*0.5}) = 1/(1+e)
        chain = build_reduced_chain(ModelParams(n=2, J=0.5, H=0.0))
        assert chain.up[0] == pytest.approx(1.0 / (1.0 + math.exp(1.0)), rel=1e-15)

    def test_free_chain_is_lazy_ehrenfest(self):
        n = 6
        chain = build_reduced_chain(ModelParams(n=n, J=0.0, H=0.0))
        k = np.arange(n)
        np.testing.assert_array_equal(chain.up, (n - k) / n * 0.5)
        np.testing.assert_array_equal(chain.down, (k + 1) / n * 0.5)

    def test_single_spin_independent_of_coupling(self):
        for J in (0.0, 1.0, 50.0):
            chain = build_reduced_chain(ModelParams(n=1, J=J, H=0.0))
            assert chain.up[0] == 0.5 and chain.down[0] == 0.5

    @pytest.mark.parametrize("n,J,H", GRID)
    def test_rows_and_positivity(self, n, J, H):
        chain = build_reduced_chain(ModelParams(n=n, J=J, H=H))
        assert np.abs(row_sums(chain) - 1.0).max() < 1e-14
        assert chain.up.min() > 0 and chain.down.min() > 0

    @pytest.mark.parametrize("n,J,H", [(4, 0.2, 0.3), (7, 0.5, 0.9), (5, 0.0, 1.2)])
    def test_field_mirror_symmetry_exact(self, n, J, H):
        """Flipping H equals reversing the level order, to the last bit."""
        plus = build_reduced_chain(ModelParams(n=n, J=J, H=H))
        minus = build_reduced_chain(ModelParams(n=n, J=J, H=-H))
        np.testing.assert_array_equal(minus.up, plus.down[::-1])
        np.testing.assert_array_equal(minus.down, plus.up[::-1])
        np.testing.assert_array_equal(minus.diag, plus.diag[::-1])

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_transition_lumping_oracle(self, n):
        """From any configuration at level k the total up-move mass equals
        the reduced entry; same for down moves."""
        params = ModelParams(n=n, J=0.35, H=0.15)
        chain = build_reduced_chain(params)
        P = full_transition_matrix(params)
        levels = all_plus_counts(n)
        for k in range(n + 1):
            at_k = np.nonzero(levels == k)[0]
            if k < n:
                mass_up = P[np.ix_(at_k, np.nonzero(levels == k + 1)[0])].sum(axis=1)
                assert np.abs(mass_up - chain.up[k]).max() < 1e-14
            if k > 0:
                mass_dn = P[np.ix_(at_k, np.nonzero(levels == k - 1)[0])].sum(axis=1)
                assert np.abs(mass_dn - chain.down[k - 1]).max() < 1e-14


class TestReducedStationary:
    def test_binomial_at_zero_coupling(self):
        pi = reduced_stationary(ModelParams(n=2, J=0.0, H=0.0))
        np.testing.assert_allclose(pi, [0.25, 0.5, 0.25], atol=1e-15)

    def test_single_spin_symmetric(self):
        pi = reduced_stationary(ModelParams(n=1, J=5.0, H=0.0))
        np.testing.assert_allclose(pi, [0.5, 0.5], atol=1e-15)

    @pytest.mark.parametrize("J", [1.0, 3e5, 1e12, 1e300])
    def test_single_spin_law_has_no_coupling(self, J):
        """One spin has no pair: J is not in the law, at any size, for a
        point or a grid column, and the law is the full chain's exactly."""
        free = reduced_stationary(ModelParams(n=1, J=0.0, H=0.3))
        pi = reduced_stationary(ModelParams(n=1, J=J, H=0.3))
        grid = reduced_stationary(
            ModelParams(n=1, J=np.array([[J], [0.0]]), H=0.3))
        full = stationary_full(ModelParams(n=1, J=J, H=0.3))
        assert pi.tobytes() == free.tobytes() == full.tobytes()
        assert grid.shape == (2, 2) and grid.tobytes() == np.tile(pi, 2).tobytes()

    @pytest.mark.parametrize("n,J,H", [(6, 0.4, 0.1), (8, 0.2, 0.0), (10, 0.5, 0.3)])
    def test_lumps_full_gibbs_measure(self, n, J, H):
        params = ModelParams(n=n, J=J, H=H)
        lumped = np.bincount(all_plus_counts(n),
                             weights=stationary_full(params),
                             minlength=n + 1)
        np.testing.assert_allclose(reduced_stationary(params),
                                   lumped, atol=1e-12)

    @pytest.mark.parametrize("n,J,H", GRID)
    def test_detailed_balance(self, n, J, H):
        params = ModelParams(n=n, J=J, H=H)
        chain = build_reduced_chain(params)
        p = reduced_stationary(params)
        assert np.abs(p[:-1] * chain.up - p[1:] * chain.down).max() < 1e-12


class TestLogFactorials:
    @pytest.mark.parametrize("n", [1, 2, 11, 12, 13, 999, 1000, 1001,
                                   10**5, 10**6])
    def test_bitwise_scipy_gammaln(self, n):
        """log k! is scipy's gammaln(k + 1) to the bit for every k <= n, on
        either side of cephes lgam's branch edges at x = k + 1 = 13 and
        1000: a platform whose libm log or scipy differs fails here, at the
        n that shows it."""
        expected = gammaln(np.arange(n + 1) + 1.0)
        assert log_factorials(n).tobytes() == expected.tobytes()

    def test_stirling_bitwise_past_1e8(self):
        """Above x = 1e8 lgam drops the series: checked at points, as a
        table of log k! up to there would take 800 MB."""
        x = np.array([13.0, 999.0, 1000.0, 1e8 - 1, 1e8, 1e8 + 1, 1e9,
                      2.0**52])
        got = _stirling(x, np.array([math.log(v) for v in x]))
        assert got.tobytes() == gammaln(x).tobytes()

    @pytest.mark.parametrize("n,J,H", GRID + [(1000, 0.0015, 0.0),
                                             (40, 0.03, -0.2)])
    def test_stationary_law_bitwise_scipy(self, n, J, H):
        """The law is the one scipy's gammaln and logsumexp gave, for a
        point and for a grid column."""
        for Js in (J, np.array([[J], [J / 3], [0.0]])):
            k = np.arange(n + 1.0)
            m = 2 * k - n
            lw = (gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
                  + Js * (n > 1) * m * m / 2.0 + H * m)
            expected = np.exp(lw - logsumexp(lw, axis=-1, keepdims=True))
            got = reduced_stationary(ModelParams(n=n, J=Js, H=H))
            assert got.tobytes() == expected.tobytes()


class TestSValues:
    @pytest.mark.parametrize("n,J,H", GRID)
    def test_s0_vanishes(self, n, J, H):
        assert s_values(ModelParams(n=n, J=J, H=H))[0] == 0.0

    def test_hand_value(self):
        # (1*2/3) * 1/(1+cosh 0) = 1/3
        s = s_values(ModelParams(n=3, J=0.0, H=0.0))
        assert s[1] == pytest.approx(1.0 / 3.0, rel=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 6, 9, 12])
    @pytest.mark.parametrize("J,H", [(0.0, 0.0), (0.3, 0.0), (0.2, 0.5), (0.8, -0.4)])
    def test_sign_pattern(self, n, J, H):
        s = s_values(ModelParams(n=n, J=J, H=H))
        k = np.arange(n + 1)
        assert np.all(s[2 * k <= n + 1] >= 0)
        assert np.all(s[2 * k >= n + 1] <= 0)

    def test_stable_inv_one_plus_cosh(self):
        x = np.array([0.0, 1.0, -1.0, 800.0, -800.0])
        direct = 1.0 / (1.0 + np.cosh(np.clip(x, -700, 700)))
        got = inv_one_plus_cosh(x)
        np.testing.assert_allclose(got[:3], direct[:3], rtol=1e-14)
        assert np.all(np.isfinite(got)) and got[3] >= 0


class TestDerivativeMatrix:
    @pytest.mark.parametrize("n,J", [(2, 0.0), (4, 0.3), (7, 0.6), (10, 0.1)])
    def test_modes_agree_bitwise_at_h0(self, n, J):
        """The paper's s-form, up[k] = s_{n-k} and down[k] = s_{k+1} with
        rows summing to zero, is the analytic derivative at H = 0."""
        params = ModelParams(n=n, J=J, H=0.0)
        a = derivative_matrix(params)
        s = s_values(params)
        up, down = s[::-1][:n], s[1:]
        diag = -(np.concatenate([up, [0.0]]) + np.concatenate([[0.0], down]))
        np.testing.assert_array_equal(a.up, up)
        np.testing.assert_array_equal(a.down, down)
        np.testing.assert_array_equal(a.diag, diag)

    def test_down_entry_is_s_value(self):
        params = ModelParams(n=3, J=0.0, H=0.0)
        dm = derivative_matrix(params)
        assert dm.down[0] == s_values(params)[1] == pytest.approx(1 / 3, rel=1e-15)

    @pytest.mark.parametrize("n,J,H", GRID)
    def test_row_sums_zero(self, n, J, H):
        dm = derivative_matrix(ModelParams(n=n, J=J, H=H))
        rs = (np.concatenate([dm.up, [0.0]])
              + np.concatenate([[0.0], dm.down]) + dm.diag)
        assert np.abs(rs).max() < 1e-14

    @pytest.mark.parametrize("n,J,H", [(4, 0.2, 0.0), (6, 0.5, 0.3),
                                       (9, 0.05, -0.2), (3, 0.0, 0.1)])
    def test_analytic_matches_finite_difference(self, n, J, H):
        """A second-order difference of the chain entries arbitrates truth
        (one-sided at the J = 0 boundary, central elsewhere)."""
        d = 1e-6

        def entries(j):
            c = build_reduced_chain(ModelParams(n=n, J=j, H=H))
            return np.concatenate([c.up, c.down, c.diag])

        if J >= d:
            fd = (entries(J + d) - entries(J - d)) / (2 * d)
        else:
            fd = (-3 * entries(J) + 4 * entries(J + d) - entries(J + 2 * d)) / (2 * d)
        dm = derivative_matrix(ModelParams(n=n, J=J, H=H))
        analytic = np.concatenate([dm.up, dm.down, dm.diag])
        assert np.abs(fd - analytic).max() < 1e-8

    @pytest.mark.parametrize("n,J,H", GRID)
    def test_one_type_with_chain(self, n, J, H):
        """Chain and derivative are one type, whose apply is the product
        with the dense tridiagonal matrix it holds."""
        params = ModelParams(n=n, J=J, H=H)
        f = np.cos(np.arange(n + 1.0))
        for m in (build_reduced_chain(params), derivative_matrix(params)):
            assert type(m) is Tridiagonal
            dense = np.diag(m.diag) + np.diag(m.up, 1) + np.diag(m.down, -1)
            np.testing.assert_allclose(m.apply(f), dense @ f, rtol=0, atol=1e-15)

    def test_s_form_wrong_off_h0(self):
        """Negative control: the s-based upper diagonal fails the
        finite-difference oracle once a field is switched on."""
        n, J, H, d = 5, 0.3, 0.4, 1e-6
        s_form_up = s_values(ModelParams(n=n, J=J, H=H))[::-1][:n]
        hi = build_reduced_chain(ModelParams(n=n, J=J + d, H=H))
        lo = build_reduced_chain(ModelParams(n=n, J=J - d, H=H))
        fd_up = (hi.up - lo.up) / (2 * d)
        assert np.abs(fd_up - s_form_up).max() > 1e-4


class TestLumpVector:
    def test_zero_and_constant(self):
        n = 5
        assert not lump_vector(np.zeros(n + 1), n).any()
        P = full_transition_matrix(ModelParams(n=n, J=0.2, H=0.1))
        const = lump_vector(np.full(n + 1, 3.0), n)
        assert np.abs(P @ const - const).max() < 1e-14

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_second_eigenvector_lifts(self, n):
        params = ModelParams(n=n, J=0.15, H=0.05)
        res = second_eigenpair(params)
        P = full_transition_matrix(params)
        lifted = lump_vector(res.second_vector, n)
        assert np.abs(P @ lifted - res.lambda2 * lifted).max() < 1e-10

    def test_length_check(self):
        with pytest.raises(ValueError, match="level values"):
            lump_vector(np.zeros(4), 4)


def test_binom_pmf_agrees_with_free_stationary():
    """scipy's binomial is an independent route to the J=0 stationary law."""
    n = 9
    pi = reduced_stationary(ModelParams(n=n, J=0.0, H=0.0))
    np.testing.assert_allclose(pi, binom.pmf(np.arange(n + 1), n, 0.5),
                               atol=1e-13)
