"""Perturbation identity, sign structure and sweeps."""

import numpy as np
import pytest

from conftest import analyse_point, failing_dstemr_rows, patch_dstemr
from cwglauber.ising import ModelParams
from cwglauber.magchain import build_reduced_chain, reduced_stationary
import cwglauber.perturbation as perturbation
import cwglauber.spectral as spectral
from cwglauber.perturbation import SweepPoint, sweep_monotonicity
from cwglauber.spectral import DegenerateGapError, relaxation
from cwglauber.verification import run_verification
from test_acceptance import supercritical_slowdown_table


class TestHellmannFeynman:
    def test_nonnegative_at_h0(self):
        assert analyse_point(ModelParams(n=6, J=0.1, H=0.0), raising=2).hf >= -1e-12

    @pytest.mark.parametrize("J", [0.0, 0.5, 3.0])
    def test_single_spin_chain_is_flat(self, J):
        assert analyse_point(ModelParams(n=1, J=J, H=0.0), raising=2).hf == 0.0

    def test_matches_finite_difference_relative(self):
        point = analyse_point(ModelParams(n=5, J=0.2, H=0.0))
        hf, fd = point.hf, point.fd
        assert abs(hf - fd) <= 1e-6 * abs(fd)

    @pytest.mark.parametrize("n", [2, 4, 7, 10])
    @pytest.mark.parametrize("J", [0.0, 0.2, 0.5, 0.8])
    @pytest.mark.parametrize("H", [0.0, 0.2, -0.2])
    def test_agreement_grid(self, n, J, H):
        point = analyse_point(ModelParams(n=n, J=J, H=H))
        hf, fd = point.hf, point.fd
        assert abs(hf - fd) <= max(1e-8, 1e-6 * abs(fd))

    def test_refuses_degenerate_gap(self, monkeypatch):
        # the point's row, then its two stencil rows
        fake = (np.array([[0.5, 0.5 + 1e-13], [0.5, 0.4], [0.5, 0.4]]),
                np.array([[-1.0, -0.5, 0.5, 1.0]]),
                np.array([[0.125, 0.375, 0.375, 0.125]]), [None] * 3)
        monkeypatch.setattr(perturbation, "second_eigenpairs",
                            lambda grid, *stencil: fake)
        with pytest.raises(DegenerateGapError):
            analyse_point(ModelParams(n=3, J=0.1, H=0.0), raising=2)

    def test_refuses_non_finite_vector(self):
        from cwglauber.spectral import EigensolverError
        with pytest.raises(EigensolverError, match="not finite"):
            analyse_point(ModelParams(n=1000, J=0.00186, H=-0.5), raising=2)


class TestFiniteDifference:
    def test_single_spin_zero(self):
        assert analyse_point(ModelParams(n=1, J=0.5, H=0.0)).fd == 0.0

    def test_boundary_uses_forward_difference(self):
        point = analyse_point(ModelParams(n=6, J=0.0, H=0.0))
        val = point.fd
        assert np.isfinite(val)
        assert val == pytest.approx(point.hf, abs=1e-8)

    def test_richardson_stability_under_halving(self, monkeypatch):
        params, fds = ModelParams(n=7, J=0.15, H=0.05), []
        for delta in (1e-5, 5e-6):
            monkeypatch.setattr(perturbation, "FD_DELTA_DEFAULT", delta * 7)
            assert perturbation.FD_DELTA_DEFAULT / 7 == delta
            fds.append(analyse_point(params).fd)
        a, b = fds
        assert abs(a - b) < 1e-7

    def test_default_step_scales_with_n(self):
        """lambda_2 varies on the J scale 1/n; a step fixed at 1e-5 leaves a
        truncation error of 2.8e-3 relative here, near criticality."""
        point = analyse_point(ModelParams(n=1000, J=0.001, H=0.0))
        hf, fd = point.hf, point.fd
        assert abs(hf - fd) <= 1e-6 * abs(fd)


class TestSignStructure:
    @pytest.mark.parametrize("n", [4, 6, 10])
    def test_even_middle_term_vanishes(self, n):
        terms = analyse_point(ModelParams(n=n, J=0.25, H=0.0), raising=1).terms
        assert abs(terms[n // 2]) < 1e-12

    @pytest.mark.parametrize("n", range(2, 11))
    @pytest.mark.parametrize("J", [0.0, 0.1, 0.3, 0.5])
    def test_terms_nonnegative(self, n, J):
        terms = analyse_point(ModelParams(n=n, J=J, H=0.0), raising=1).terms
        assert terms.min() >= -1e-12

    @pytest.mark.parametrize("n,J", [(5, 0.2), (8, 0.4), (3, 0.0)])
    def test_weighted_sum_is_hf(self, n, J):
        params = ModelParams(n=n, J=J, H=0.0)
        point = analyse_point(params, raising=2)
        pi = reduced_stationary(params)
        assert abs(np.sum(pi * point.terms) - point.hf) < 1e-12


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
    read by every consumer; the finite-difference oracle's two stencil
    couplings are solved in the same batch."""

    @pytest.mark.parametrize("H", [0.0, 0.2])
    def test_sweep_lapack_calls(self, lapack_calls, monkeypatch, H):
        # at n = 40 each batch is split between two worker threads
        monkeypatch.setattr(spectral, "WORKERS", 2)
        assert 8 < spectral.MIN_THREADED_ORDER <= 40
        batches, real = [], spectral.top_eigenpairs

        def counting(diag, offdiag, errors):
            batches.append(len(diag))
            return real(diag, offdiag, errors)

        monkeypatch.setattr(spectral, "top_eigenpairs", counting)
        for n in (8, 40):
            # blocks of two points: the 3-point sweep takes two blocks
            monkeypatch.setattr(perturbation, "BLOCK_ELEMENTS", 2 * (n + 1))
            lapack_calls.update(dstevd=0, dstemr=0)
            batches.clear()
            report = sweep_monotonicity(n, H, [0.8 / n, 1.6 / n, 2.4 / n])
            assert len(report.points) == 3 and not report.failures
            # per point: one top pair, plus two FD solves; no full spectrum
            assert lapack_calls == {"dstevd": 0, "dstemr": 9}, n
            # one batch per block, with the point and its stencil's rows
            assert batches == [3 * 2, 3 * 1], n

    def test_verification_lapack_calls(self, lapack_calls):
        # the point and two FD solves, also at J below the step, where the
        # one-sided stencil reads the point's own lambda_2; numpy's dense
        # eigh solves the reduced spectrum it checks
        for J in (0.2, 0.0, 5e-7):
            lapack_calls.update(dstevd=0, dstemr=0)
            run_verification(ModelParams(n=6, J=J, H=0.0))
            assert lapack_calls == {"dstevd": 0, "dstemr": 3}, J

    @pytest.mark.parametrize("H", [0.0, 0.2])
    def test_one_stationary_law_per_point(self, monkeypatch, H):
        """The grid core forms one stationary law per row; the derivative
        reads it.  Laws are counted by rows, one per coupling of params.J."""
        import cwglauber
        calls = []
        real = cwglauber.magchain.reduced_stationary

        def counting(params):
            calls.extend(np.ravel(params.J).tolist())
            return real(params)

        for module in vars(cwglauber).values():
            if hasattr(module, "reduced_stationary"):
                monkeypatch.setattr(module, "reduced_stationary", counting)
        grid = [0.0, 0.1, 0.2, 0.3]
        report = sweep_monotonicity(8, H, grid)
        assert len(report.points) == 4 and not report.failures
        assert calls == grid


def test_slowdown_table_shape():
    rows, ratios = supercritical_slowdown_table(ns=(4, 8, 12))
    assert len(rows) == 3 and len(ratios) == 2
    assert all(r > 1 for r in ratios)  # slowdown: t_rel grows with n
    # at fixed J*n above critical, growth is exponential-like, not flat
    assert rows[2][3] > 4 * rows[0][3]


def test_slowdown_ratios_fall_toward_the_barrier_factor():
    """Acceptance criterion 9 asks the step-4 ratios at J*n = 1.6 to rise;
    they fall, strictly, and stay above e^{4 dF}, where dF = beta m*^2 / 2
    - I(m*) is the Curie-Weiss free-energy barrier per spin at beta = 1.6,
    m* = tanh(beta m*) and I(m) = ((1+m)/2) ln(1+m) + ((1-m)/2) ln(1-m)."""
    beta, m = 1.6, 1.0
    for _ in range(200):
        m = np.tanh(beta * m)
    barrier = (beta * m * m / 2 - ((1 + m) / 2) * np.log1p(m)
               - ((1 - m) / 2) * np.log1p(-m))
    assert m == pytest.approx(0.890643, abs=5e-7)
    assert barrier == pytest.approx(0.153516, abs=5e-7)
    _, ratios = supercritical_slowdown_table(ns=range(4, 41, 4),
                                             coupling_times_n=beta)
    np.testing.assert_allclose(ratios[:7], [5.013, 3.071, 2.555, 2.330, 2.210,
                                            2.138, 2.092], atol=5e-4)
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    assert np.exp(4 * barrier) == pytest.approx(1.8479, abs=5e-5)
    assert min(ratios) > np.exp(4 * barrier)


@pytest.mark.parametrize("H", [0.0, 0.5, -2.0])
@pytest.mark.parametrize("n", [2, 3, 12, 40, 100])
def test_free_chain_is_exact_at_small_n(n, H):
    """At J = 0 the spins are independent: at every H, lambda_j = 1 - j/n,
    f is linear in the level, and d lambda_2/dJ = (1 - 1/n) / cosh^2 H."""
    point = analyse_point(ModelParams(n=n, J=0.0, H=H))
    res = spectral.second_eigenpair(ModelParams(n=n, J=0.0, H=H))
    assert abs(n * res.gap - 1.0) <= 1e-14
    assert abs(res.lambda3 - (1.0 - 2.0 / n)) <= 1e-14
    steps = np.diff(res.second_vector)
    np.testing.assert_allclose(steps, steps[0], rtol=1e-12)
    exact = (1.0 - 1.0 / n) / np.cosh(H) ** 2
    assert point.hf == pytest.approx(exact, rel=1e-11)
    assert point.fd == pytest.approx(exact, rel=1e-7)


def _reference_sweep(n, H, grid):
    """The sweep rebuilt point by point from one-row ``analyse`` calls."""
    points, failures = [], []
    for J in grid:
        try:
            point = analyse_point(ModelParams(n=n, J=J, H=H))
        except Exception as exc:
            failures.append({"J": J, "error": f"{type(exc).__name__}: {exc}"})
            continue
        gap, t_rel = relaxation(point.lambda2)
        sign_ok = (bool(np.all(point.terms >= -spectral.SIGN_TERM_TOL))
                   if H == 0.0 else None)
        points.append(SweepPoint(J=J, H=float(H), n=n, lambda2=point.lambda2,
                                 gap=gap, t_rel=t_rel,
                                 hf_derivative=point.hf, fd_derivative=point.fd,
                                 sign_terms_ok=sign_ok))
    return points, failures


def _increment_diagonal(n, J, H):
    chain = build_reduced_chain(ModelParams(n=n, J=J, H=H))
    return tuple(1.0 - (chain.up + chain.down))


class TestGridCore:
    """The sweep solves its grid in one pass; every point must carry the
    bytes the one-row functions give it."""

    @pytest.mark.parametrize("n", [1, 2, 7, 12, 40, 1000])
    @pytest.mark.parametrize("H", [0.0, 0.2, -0.4])
    def test_matches_per_point_reference(self, n, H):
        # starts at J = 0 (forward stencil) and crosses J n = 1; at n = 1000
        # the grid spans two blocks
        grid = np.linspace(0.0, 1.6 / n, 6 if n == 1000 else 9).tolist()
        report = sweep_monotonicity(n, H, grid)
        points, failures = _reference_sweep(n, H, grid)
        assert repr(report.points) == repr(points)
        assert report.failures == failures

    def test_matches_reference_where_f_is_lost(self):
        """Past J = 0.0018 at n = 1000, H = -0.5 the point's f is not finite."""
        grid = [0.0017, 0.0018, 0.00186, 0.0019]
        report = sweep_monotonicity(1000, -0.5, grid)
        points, failures = _reference_sweep(1000, -0.5, grid)
        assert repr(report.points) == repr(points)
        assert report.failures == failures and len(failures) == 2

    def test_failing_row_leaves_the_others_bytewise(self, monkeypatch):
        n, H = 12, 0.2
        grid = np.linspace(0.0, 0.2, 6).tolist()
        clean = sweep_monotonicity(n, H, grid)
        delta = perturbation.FD_DELTA_DEFAULT / n
        failing_dstemr_rows(monkeypatch, {
            # grid[2] fails in its own solve and in its J + delta solve
            _increment_diagonal(n, grid[2], H): 7,
            _increment_diagonal(n, grid[2] + delta, H): 8,
            # grid[4] fails only in its J - delta solve
            _increment_diagonal(n, grid[4] - delta, H): 9,
        })
        report = sweep_monotonicity(n, H, grid)
        kept = [p for p in clean.points if p.J not in (grid[2], grid[4])]
        assert repr(report.points) == repr(kept)
        # a point's own error wins over its stencil's
        assert report.failures == [
            {"J": grid[2], "error": "EigensolverError: dstemr failed with info=7"},
            {"J": grid[4], "error": "EigensolverError: dstemr failed with info=9"}]

    def test_working_set_is_bounded_by_the_block(self, monkeypatch):
        """A 400-point sweep at n = 3000 peaks within 2x a 4-point sweep.
        dstemr is replaced by a stand-in that writes a positive top vector
        into the solver's m x 2 block, so the test sees what the sweep keeps
        alive without the milliseconds per call the real routine spends."""
        import tracemalloc

        def dstemr(call):
            m = len(call.d)
            call.z[:, 1] = 1.0 / np.sqrt(m)
            call.w[:2] = 0.4, 0.5
            call.M.value, call.info.value = 2, 0

        patch_dstemr(monkeypatch, dstemr)
        n = 3000
        peaks = []
        for points in (4, 400):
            tracemalloc.start()
            try:
                report = sweep_monotonicity(n, 0.0, np.linspace(0.0, 0.5 / n, points))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert len(report.points) + len(report.failures) == points
        assert peaks[1] <= 2 * peaks[0], peaks
