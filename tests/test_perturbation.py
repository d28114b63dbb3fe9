"""Perturbation identity, sign structure, sweeps and the temperature view."""

import numpy as np
import pytest

from cwglauber.ising import ModelParams
from cwglauber.magchain import reduced_stationary
import cwglauber.perturbation as perturbation
from cwglauber.perturbation import (DegenerateGapError,
                                    finite_difference_gap, hellmann_feynman,
                                    sign_structure_terms,
                                    sweep_monotonicity, temperature_view)
from cwglauber.verification import run_verification
from test_acceptance import supercritical_slowdown_table


class TestHellmannFeynman:
    def test_nonnegative_at_h0(self):
        assert hellmann_feynman(ModelParams(n=6, J=0.1, H=0.0)) >= -1e-12

    @pytest.mark.parametrize("J", [0.0, 0.5, 3.0])
    def test_single_spin_chain_is_flat(self, J):
        assert hellmann_feynman(ModelParams(n=1, J=J, H=0.0)) == 0.0

    def test_matches_finite_difference_relative(self):
        params = ModelParams(n=5, J=0.2, H=0.0)
        hf = hellmann_feynman(params)
        fd = finite_difference_gap(params)
        assert abs(hf - fd) <= 1e-6 * abs(fd)

    @pytest.mark.parametrize("n", [2, 4, 7, 10])
    @pytest.mark.parametrize("J", [0.0, 0.2, 0.5, 0.8])
    @pytest.mark.parametrize("H", [0.0, 0.2, -0.2])
    def test_agreement_grid(self, n, J, H):
        params = ModelParams(n=n, J=J, H=H)
        hf = hellmann_feynman(params)
        fd = finite_difference_gap(params)
        assert abs(hf - fd) <= max(1e-8, 1e-6 * abs(fd))

    def test_refuses_degenerate_gap(self, monkeypatch):
        from cwglauber.spectral import SpectralResult
        fake = SpectralResult(
            lambda2=0.5, lambda3=0.5 + 1e-13, gap=0.5, t_rel=2.0,
            second_vector=np.array([-1.0, -0.5, 0.5, 1.0]),
            pi=np.array([0.125, 0.375, 0.375, 0.125]))
        monkeypatch.setattr(perturbation, "second_eigenpair", lambda p: fake)
        with pytest.raises(DegenerateGapError):
            hellmann_feynman(ModelParams(n=3, J=0.1, H=0.0))

    @pytest.mark.filterwarnings("error")
    def test_refuses_non_finite_vector(self):
        from cwglauber.spectral import EigensolverError
        with pytest.raises(EigensolverError, match="not finite"):
            hellmann_feynman(ModelParams(n=1000, J=0.00186, H=-0.5))


class TestFiniteDifference:
    @pytest.mark.parametrize("delta", [1e-9, 5e-3])
    def test_delta_range_enforced(self, delta):
        with pytest.raises(ValueError, match="delta"):
            finite_difference_gap(ModelParams(n=4, J=0.2, H=0.0), delta=delta)

    def test_single_spin_zero(self):
        assert finite_difference_gap(ModelParams(n=1, J=0.5, H=0.0)) == 0.0

    def test_boundary_uses_forward_difference(self):
        val = finite_difference_gap(ModelParams(n=6, J=0.0, H=0.0))
        assert np.isfinite(val)
        assert val == pytest.approx(hellmann_feynman(ModelParams(n=6, J=0.0, H=0.0)),
                                    abs=1e-8)

    def test_richardson_stability_under_halving(self):
        params = ModelParams(n=7, J=0.15, H=0.05)
        a = finite_difference_gap(params, delta=1e-5)
        b = finite_difference_gap(params, delta=5e-6)
        assert abs(a - b) < 1e-7

    def test_default_step_scales_with_n(self):
        """lambda_2 varies on the J scale 1/n; a step fixed at 1e-5 leaves a
        truncation error of 2.8e-3 relative here, near criticality."""
        params = ModelParams(n=1000, J=0.001, H=0.0)
        hf = hellmann_feynman(params)
        fd = finite_difference_gap(params)
        assert abs(hf - fd) <= 1e-6 * abs(fd)


class TestSignStructure:
    def test_rejects_field(self):
        with pytest.raises(ValueError, match="H = 0"):
            sign_structure_terms(ModelParams(n=5, J=0.2, H=0.1))

    @pytest.mark.parametrize("n", [4, 6, 10])
    def test_even_middle_term_vanishes(self, n):
        terms = sign_structure_terms(ModelParams(n=n, J=0.25, H=0.0))
        assert abs(terms[n // 2]) < 1e-12

    @pytest.mark.parametrize("n", range(2, 11))
    @pytest.mark.parametrize("J", [0.0, 0.1, 0.3, 0.5])
    def test_terms_nonnegative(self, n, J):
        terms = sign_structure_terms(ModelParams(n=n, J=J, H=0.0))
        assert terms.min() >= -1e-12

    @pytest.mark.parametrize("n,J", [(5, 0.2), (8, 0.4), (3, 0.0)])
    def test_weighted_sum_is_hf(self, n, J):
        params = ModelParams(n=n, J=J, H=0.0)
        terms = sign_structure_terms(params)
        pi = reduced_stationary(params).probabilities
        assert abs(np.sum(pi * terms) - hellmann_feynman(params)) < 1e-12


class TestSweep:
    def test_h0_sweep_monotone(self):
        grid = np.linspace(0.0, 0.6, 31)
        report = sweep_monotonicity(8, 0.0, grid)
        assert report.monotone_in_J
        assert report.max_violation <= 1e-10
        assert not report.failures
        assert [p.J for p in report.points] == list(grid)
        assert all(p.sign_terms_ok for p in report.points)
        assert all(p.hf_derivative >= -1e-12 for p in report.points)

    def test_field_sweep_reports_without_asserting(self):
        report = sweep_monotonicity(6, 0.3, np.linspace(0.0, 0.5, 11))
        assert len(report.points) == 11
        assert all(p.sign_terms_ok is None for p in report.points)
        assert isinstance(report.monotone_in_J, bool)

    def test_single_spin_trivial(self):
        report = sweep_monotonicity(1, 0.0, np.linspace(0.0, 1.0, 5))
        assert report.monotone_in_J and report.max_violation == 0.0
        assert all(p.gap == pytest.approx(1.0, abs=1e-14) for p in report.points)

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="ascending"):
            sweep_monotonicity(4, 0.0, [0.4, 0.1])
        with pytest.raises(ValueError, match="nonnegative"):
            sweep_monotonicity(4, 0.0, [-0.1, 0.2])

    def test_lambda2_nondecreasing_values(self):
        report = sweep_monotonicity(10, 0.0, np.linspace(0.0, 0.4, 21))
        lam = [p.lambda2 for p in report.points]
        assert all(b >= a - 1e-10 for a, b in zip(lam, lam[1:]))


class TestOneSolvePerPoint:
    """Each point's eigenpair is solved once, on the increment chain, and
    read by every consumer; only the finite-difference oracle solves again,
    for eigenvalues alone."""

    @pytest.mark.parametrize("H", [0.0, 0.2])
    def test_sweep_lapack_calls(self, lapack_calls, H):
        report = sweep_monotonicity(8, H, [0.1, 0.2, 0.3])
        assert len(report.points) == 3 and not report.failures
        # per point: one top pair, plus two FD solves; no full spectrum
        assert lapack_calls == {"dstevd": 0, "dstemr": 9}

    def test_verification_lapack_calls(self, lapack_calls):
        # the point and two FD solves, plus the reduced spectrum it checks
        run_verification(ModelParams(n=6, J=0.2, H=0.0))
        assert lapack_calls == {"dstevd": 1, "dstemr": 3}

    @pytest.mark.parametrize("H", [0.0, 0.2])
    def test_one_stationary_law_per_point(self, monkeypatch, H):
        """The point's SpectralResult carries pi; the derivative reads it."""
        import cwglauber
        calls = []
        real = cwglauber.magchain.reduced_stationary

        def counting(params):
            calls.append(params.J)
            return real(params)

        for module in vars(cwglauber).values():
            if hasattr(module, "reduced_stationary"):
                monkeypatch.setattr(module, "reduced_stationary", counting)
        grid = [0.0, 0.1, 0.2, 0.3]
        report = sweep_monotonicity(8, H, grid)
        assert len(report.points) == 4 and not report.failures
        assert calls == grid


class TestTemperatureView:
    def _report(self, n=8, lo=0.05, hi=0.5, steps=10, H=0.0):
        return sweep_monotonicity(n, H, np.linspace(lo, hi, steps))

    def test_sorting_reverses_j_order(self):
        report = self._report()
        view = temperature_view(report, c=1.0)
        assert [t for t, _ in view] == [1.0 / p.J for p in reversed(report.points)]
        assert [t_rel for _, t_rel in view] == \
            [p.t_rel for p in reversed(report.points)]

    def test_t_rel_nonincreasing_when_monotone(self):
        report = self._report()
        assert report.monotone_in_J
        view = temperature_view(report, c=1.0)
        assert all(b[1] <= a[1] for a, b in zip(view, view[1:]))

    def test_constant_is_a_pure_rescaling(self):
        report = self._report(steps=6)
        v1 = temperature_view(report, c=1.0)
        v2 = temperature_view(report, c=2.0)
        assert [t_rel for _, t_rel in v1] == [t_rel for _, t_rel in v2]
        np.testing.assert_allclose([2 * t for t, _ in v1], [t for t, _ in v2],
                                   rtol=1e-15)

    def test_rejects_zero_coupling_points(self):
        report = sweep_monotonicity(4, 0.0, [0.0, 0.1, 0.2])
        with pytest.raises(ValueError, match="infinite temperature"):
            temperature_view(report)

    def test_rejects_bad_constant(self):
        with pytest.raises(ValueError, match="positive"):
            temperature_view(self._report(steps=3), c=0.0)


def test_slowdown_table_shape():
    rows, ratios = supercritical_slowdown_table(ns=(4, 8, 12))
    assert len(rows) == 3 and len(ratios) == 2
    assert all(r > 1 for r in ratios)  # slowdown: t_rel grows with n
    # at fixed J*n above critical, growth is exponential-like, not flat
    assert rows[2][3] > 4 * rows[0][3]
