"""Eigensolvers, symmetrization and second-eigenpair conventions."""

import math

import numpy as np
import pytest

import cwglauber.spectral as spectral
from conftest import dense_reduced_chain
from cwglauber.ising import Distribution, ModelParams
from cwglauber.magchain import (ReducedChain, build_reduced_chain,
                                reduced_stationary)
from cwglauber.spectral import (EigensolverError,
                                eigen_symmetric_tridiagonal,
                                eigen_top_tridiagonal,
                                eigenvector_structure_report,
                                full_chain_top_eigenvalues,
                                increment_eigenpair, lifted_residual,
                                second_eigenpair, symmetrize,
                                symmetrized_full_chain)
from cwglauber.ising import full_transition_matrix, stationary_full


def _dense_full_spectrum(params):
    """All 2^n eigenvalues, descending, of the dense full chain symmetrized
    by diag(sqrt(pi)); an independent route for n <= 8."""
    P = full_transition_matrix(params).toarray()
    s = np.sqrt(stationary_full(params).probabilities)
    S = (s[:, None] * P) / s[None, :]
    return np.linalg.eigvalsh(0.5 * (S + S.T))[::-1]


class TestSymmetrize:
    def test_hand_value_free_two_spins(self):
        # up = (1/2, 1/4), down = (1/4, 1/2): offdiag = sqrt(1/8) twice
        chain = build_reduced_chain(ModelParams(n=2, J=0.0, H=0.0))
        diag, offdiag = symmetrize(chain)
        np.testing.assert_allclose(offdiag, [math.sqrt(2) / 4] * 2, rtol=1e-15)
        np.testing.assert_array_equal(diag, chain.diag)

    def test_offdiag_strictly_positive(self):
        chain = build_reduced_chain(ModelParams(n=9, J=0.7, H=0.4))
        _, offdiag = symmetrize(chain)
        assert offdiag.min() > 0

    def test_rejects_negative_product(self):
        bad = ReducedChain(n=1, up=np.array([-0.1]), down=np.array([0.2]),
                           diag=np.array([1.1, 0.8]))
        with pytest.raises(ValueError, match="birth-death"):
            symmetrize(bad)

    @pytest.mark.parametrize("n,J,H", [(4, 0.2, 0.1), (8, 0.5, 0.0), (10, 0.05, -0.4)])
    def test_preserves_spectrum(self, n, J, H):
        """Similarity invariance, checked against dense eigvalsh on the
        nonsymmetric chain matrix pushed through diag(sqrt(pi))."""
        chain = build_reduced_chain(ModelParams(n=n, J=J, H=H))
        pi = reduced_stationary(ModelParams(n=n, J=J, H=H))
        w_tri, _ = eigen_symmetric_tridiagonal(*symmetrize(chain))
        s = np.sqrt(pi.probabilities)
        S = (s[:, None] * dense_reduced_chain(chain)) / s[None, :]
        w_dense = np.linalg.eigvalsh(0.5 * (S + S.T))[::-1]
        np.testing.assert_allclose(w_tri, w_dense, atol=1e-12)


class TestTridiagonalSolver:
    def test_two_by_two(self):
        w, v = eigen_symmetric_tridiagonal([0.0, 0.0], [1.0])
        np.testing.assert_allclose(w, [1.0, -1.0], atol=1e-15)

    def test_uniform_closed_form(self):
        a, b = 0.3, 0.2
        w, _ = eigen_symmetric_tridiagonal([a, a, a], [b, b])
        expected = sorted([a + b * math.sqrt(2), a, a - b * math.sqrt(2)],
                          reverse=True)
        np.testing.assert_allclose(w, expected, atol=1e-14)

    def test_single_element(self):
        w, v = eigen_symmetric_tridiagonal([2.5], [])
        assert w[0] == 2.5 and v[0, 0] == 1.0

    @pytest.mark.parametrize("m", [3, 10, 27, 50])
    def test_against_jacobi_oracle(self, m):
        rng = np.random.default_rng(m)
        diag = rng.standard_normal(m)
        offdiag = rng.standard_normal(m - 1)
        w, v = eigen_symmetric_tridiagonal(diag, offdiag)
        A = np.diag(diag) + np.diag(offdiag, 1) + np.diag(offdiag, -1)
        w_oracle = np.linalg.eigvalsh(A)[::-1]
        np.testing.assert_allclose(w, w_oracle, atol=1e-12 * max(1, np.abs(w).max()))

    @pytest.mark.parametrize("m", [5, 40])
    def test_residual_and_orthonormality(self, m):
        rng = np.random.default_rng(100 + m)
        diag = rng.standard_normal(m)
        offdiag = rng.standard_normal(m - 1)
        A = np.diag(diag) + np.diag(offdiag, 1) + np.diag(offdiag, -1)
        w, v = eigen_symmetric_tridiagonal(diag, offdiag)
        assert np.all(np.diff(w) <= 0)  # descending
        norm = np.linalg.norm(A)
        assert np.abs(A @ v - v * w).max() < 1e-12 * norm
        assert np.abs(v.T @ v - np.eye(m)).max() < 1e-12


class TestTopEigenpair:
    @pytest.mark.parametrize("m", [2, 10, 40])
    def test_matches_full_solver(self, m):
        rng = np.random.default_rng(200 + m)
        diag = rng.standard_normal(m)
        offdiag = rng.standard_normal(m - 1)
        w_all, v_all = eigen_symmetric_tridiagonal(diag, offdiag)
        w, v = eigen_top_tridiagonal(diag, offdiag)
        np.testing.assert_allclose(w, w_all[:2], rtol=0, atol=1e-12)
        assert abs(abs(v @ v_all[:, 0]) - 1.0) < 1e-12

    def test_single_element(self):
        w, v = eigen_top_tridiagonal([0.3], [])
        assert w == 0.3 and v.tolist() == [1.0]

    def test_lapack_failure_is_eigensolver_error(self, dstemr_fails):
        with pytest.raises(EigensolverError, match="info=7"):
            eigen_top_tridiagonal([1.0, 2.0], [0.5])
        with pytest.raises(EigensolverError):
            second_eigenpair(ModelParams(n=6, J=0.1, H=0.0))


class TestSecondEigenpair:
    @pytest.mark.parametrize("n", [1, 2, 5, 8, 12])
    def test_free_chain_closed_form(self, n):
        """At J = 0 the whole reduced spectrum is 1 - j/n."""
        params = ModelParams(n=n, J=0.0, H=0.0)
        res = second_eigenpair(params)
        w = eigen_symmetric_tridiagonal(
            *symmetrize(build_reduced_chain(params)))[0]
        np.testing.assert_allclose(w, 1.0 - np.arange(n + 1) / n, atol=1e-12)
        assert res.lambda2 == pytest.approx(w[1], abs=1e-12)
        if n >= 2:
            assert res.lambda3 == pytest.approx(w[2], abs=1e-12)
        assert res.gap == pytest.approx(1.0 / n, abs=1e-12)
        assert res.t_rel == pytest.approx(n, rel=1e-12)

    def test_single_spin(self):
        res = second_eigenpair(ModelParams(n=1, J=7.0, H=0.0))
        assert res.lambda2 == pytest.approx(0.0, abs=1e-15)
        assert res.t_rel == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("n,J,H", [(8, 0.1, 0.0), (6, 0.4, 0.1),
                                       (9, 0.25, 0.0), (4, 0.0, 0.6)])
    def test_matches_full_chain(self, n, J, H):
        res = second_eigenpair(ModelParams(n=n, J=J, H=H))
        full = full_chain_top_eigenvalues(symmetrized_full_chain(
            full_transition_matrix(ModelParams(n=n, J=J, H=H))))
        assert abs(res.lambda2 - full[1]) < 1e-10

    @pytest.mark.parametrize("n,J,H", [(5, 0.2, 0.0), (10, 0.6, 0.2), (7, 0.0, 0.0)])
    def test_conventions(self, n, J, H):
        params = ModelParams(n=n, J=J, H=H)
        res = second_eigenpair(params)
        pi = reduced_stationary(params).probabilities
        f = res.second_vector
        assert abs(np.sum(pi * f * f) - 1.0) < 1e-10
        assert f[-1] > f[0]
        w = eigen_symmetric_tridiagonal(
            *symmetrize(build_reduced_chain(params)))[0]
        assert abs(w[0] - 1.0) < 1e-10
        assert np.abs(w).max() <= 1.0 + 1e-12
        assert abs(res.lambda2 - w[1]) < 1e-12
        assert abs(res.lambda3 - w[2]) < 1e-12
        assert np.all(np.diff(f) >= -1e-9)
        assert res.pi.tobytes() == pi.tobytes()

    def test_power_iteration_cross_check(self):
        """Deflated power iteration on the raw nonsymmetric chain matrix is an
        algorithm-independent estimate of lambda_2."""
        params = ModelParams(n=6, J=0.2, H=0.0)
        chain = build_reduced_chain(params)
        pi = reduced_stationary(params).probabilities
        P = dense_reduced_chain(chain)
        rng = np.random.default_rng(0)
        g = rng.standard_normal(7)
        lam = 0.0
        for _ in range(20000):
            g = g - np.sum(pi * g)  # remove the <g, 1>_pi component
            g = P @ g
            new = np.linalg.norm(g)
            g = g / new
            if abs(new - lam) < 1e-13:
                break
            lam = new
        res = second_eigenpair(params)
        assert abs(lam - res.lambda2) < 1e-8

    def test_supercritical_deflation_keeps_structure(self):
        """lambda_1 - lambda_2 underflows here; the deflated eigenvector must
        still be cleanly antisymmetric."""
        res = second_eigenpair(ModelParams(n=12, J=0.6, H=0.0))
        f = res.second_vector
        assert np.abs(f + f[::-1]).max() < 1e-9
        assert res.gap < 1e-12  # the regime


class TestSeparation:
    def test_is_lambda2_minus_lambda3(self):
        res = second_eigenpair(ModelParams(n=6, J=0.2, H=0.1))
        assert res.separation == res.lambda2 - res.lambda3 > 0

    def test_none_for_single_spin(self):
        assert second_eigenpair(ModelParams(n=1, J=0.3, H=0.0)).separation is None


class TestSolverFailures:
    @pytest.mark.parametrize("n,J,H", [(12, 100.0, 0.0), (1, 0.0, -400.0)])
    def test_underflowed_chain_refused(self, n, J, H):
        params = ModelParams(n=n, J=J, H=H)
        assert build_reduced_chain(params).up[0] == 0.0
        with pytest.raises(EigensolverError, match="underflow"):
            second_eigenpair(params)

    def test_dense_oracle_failure_is_eigensolver_error(self, monkeypatch):
        import scipy.sparse.linalg

        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", failing)
        with pytest.raises(EigensolverError, match="did not converge"):
            full_chain_top_eigenvalues(symmetrized_full_chain(
                full_transition_matrix(ModelParams(n=4, J=0.1, H=0.0))))


class TestFullChainTopEigenvalues:
    def test_reaches_beyond_the_symmetric_sector(self):
        """The third value is not a reduced-chain eigenvalue: Lanczos sees
        the whole 2^n space, not only the lumped chain it is checked
        against."""
        params = ModelParams(n=3, J=0.4, H=0.2)
        top = full_chain_top_eigenvalues(
            symmetrized_full_chain(full_transition_matrix(params)))
        assert abs(top[2] - _dense_full_spectrum(params)[2]) < 1e-12
        assert abs(top[2] - second_eigenpair(params).lambda3) > 1e-3

    def test_deterministic(self):
        S = symmetrized_full_chain(
            full_transition_matrix(ModelParams(n=10, J=0.3, H=0.1)))
        first = full_chain_top_eigenvalues(S)
        assert np.array_equal(first, full_chain_top_eigenvalues(S))

    def test_single_spin_dense_route(self):
        params = ModelParams(n=1, J=0.0, H=0.4)
        np.testing.assert_allclose(
            full_chain_top_eigenvalues(
                symmetrized_full_chain(full_transition_matrix(params))),
            [1.0, second_eigenpair(params).lambda2], atol=1e-15)

    def test_arpack_no_convergence_is_eigensolver_error(self, monkeypatch):
        import scipy.sparse.linalg

        def failing(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence(
                "ARPACK error -1: No convergence", np.zeros(0), None)

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", failing)
        with pytest.raises(EigensolverError, match="No convergence"):
            full_chain_top_eigenvalues(symmetrized_full_chain(
                full_transition_matrix(ModelParams(n=4, J=0.1, H=0.0))))

    def test_symmetrized_full_chain_top_eigenvalue(self):
        """Dense eigvalsh of P symmetrized by diag(sqrt(pi)) agrees with the
        Lanczos route on the same P."""
        params = ModelParams(n=6, J=0.2, H=0.0)
        P = full_transition_matrix(params)
        top = full_chain_top_eigenvalues(symmetrized_full_chain(P))
        s = np.sqrt(stationary_full(params).probabilities)
        S = (s[:, None] * P.toarray()) / s[None, :]
        w = np.linalg.eigvalsh(0.5 * (S + S.T))[::-1]
        assert abs(w[0] - 1.0) < 1e-10
        np.testing.assert_allclose(w[:3], top, atol=1e-12)


class TestLiftedResidual:
    def test_bounds_reduced_eigenvalues_and_can_fail(self):
        """The spectrum_subset measurement: small for the true eigenpairs,
        at least half the shift for a displaced eigenvalue."""
        params = ModelParams(n=6, J=0.3, H=0.1)
        w, v = eigen_symmetric_tridiagonal(
            *symmetrize(build_reduced_chain(params)))
        S = symmetrized_full_chain(full_transition_matrix(params))
        assert lifted_residual(S, w, v) < 1e-13
        shifted = w.copy()
        shifted[2] += 1e-6
        assert lifted_residual(S, shifted, v) >= 5e-7


class TestSymmetrizedFullChain:
    @pytest.mark.parametrize("n,J,H", [(1, 0.0, 0.4), (2, 0.0, 19.0),
                                       (4, 0.0, 40.0), (3, 0.0, -30.0),
                                       (5, 1.0, 0.0), (8, 0.2, 0.1),
                                       (10, 0.05, -0.4)])
    def test_bitwise_the_elementwise_product(self, n, J, H):
        """S is scipy's sqrt(P * P.T) to the last bit, in data, indices and
        indptr, including points whose P has a zero diagonal entry (the
        product drops it)."""
        P = full_transition_matrix(ModelParams(n=n, J=J, H=H))
        ref = (P * P.T).sqrt()
        S = symmetrized_full_chain(P)
        assert S.nnz == ref.nnz
        for name in ("indptr", "indices", "data"):
            assert getattr(S, name).tobytes() == getattr(ref, name).tobytes()

    def test_asymmetric_pattern_matches_the_product(self):
        """A hand-built P with a one-way entry: S is still the elementwise
        product's square root, which drops that entry."""
        import scipy.sparse
        P = full_transition_matrix(ModelParams(n=4, J=0.2, H=0.1)).toarray()
        P[0, 3] = 1e-3
        P = scipy.sparse.csr_array(P)
        ref = (P * P.T).sqrt()
        S = symmetrized_full_chain(P)
        assert S[0, 3] == 0.0
        for name in ("indptr", "indices", "data"):
            assert getattr(S, name).tobytes() == getattr(ref, name).tobytes()

    def test_leaves_p_untouched(self):
        P = full_transition_matrix(ModelParams(n=4, J=0.0, H=40.0))
        before = [a.copy() for a in (P.data, P.indices, P.indptr)]
        symmetrized_full_chain(P)
        for a, b in zip(before, (P.data, P.indices, P.indptr)):
            assert np.array_equal(a, b)


class TestIncrementVector:
    @pytest.mark.parametrize("n,J,H", [(12, 0.1, 0.0), (12, 0.1, 0.3),
                                       (30, 0.05, 0.2)])
    def test_top_eigenpair_of_increment_chain(self, n, J, H):
        """g > 0 solves lambda_2 g = Q g and is parallel to the increments
        of the second eigenvector."""
        params = ModelParams(n=n, J=J, H=H)
        chain = build_reduced_chain(params)
        res = second_eigenpair(params)
        w, g = increment_eigenpair(chain)
        assert w[0] == res.lambda2 and w[1] == res.lambda3
        Q = (np.diag(1.0 - (chain.up + chain.down))
             + np.diag(chain.up[1:], 1) + np.diag(chain.down[:-1], -1))
        assert g.min() > 0 and abs(g.max() - 1.0) < 1e-15
        assert np.abs(Q @ g - res.lambda2 * g).max() < 1e-13
        d = np.diff(res.second_vector)
        np.testing.assert_allclose(d / d.max(), g, atol=1e-13)

    def test_solver_sign_does_not_matter(self, monkeypatch):
        params = ModelParams(n=9, J=0.2, H=0.1)
        before = second_eigenpair(params).second_vector
        real = spectral.eigen_top_tridiagonal
        monkeypatch.setattr(spectral, "eigen_top_tridiagonal",
                            lambda d, e: (real(d, e)[0], -real(d, e)[1]))
        np.testing.assert_array_equal(second_eigenpair(params).second_vector,
                                      before)

    def test_one_global_sign_keeps_defects_visible(self, monkeypatch):
        """A wrong-signed component must not be hidden by the sign fix."""
        params = ModelParams(n=8, J=0.1, H=0.0)
        real = spectral.eigen_top_tridiagonal

        def flawed(diag, offdiag):
            w, u = real(diag, offdiag)
            u = -np.abs(u)  # the solver's sign, negative overall
            u[0] = -u[0]    # and one component of the wrong sign
            return w, u

        monkeypatch.setattr(spectral, "eigen_top_tridiagonal", flawed)
        res = second_eigenpair(params)
        rep = eigenvector_structure_report(res.second_vector, h=0.0)
        assert not rep.increasing and not rep.strictly

    @pytest.mark.parametrize("H", [0.0, 0.7])
    def test_single_spin_vector(self, H):
        params = ModelParams(n=1, J=2.0, H=H)
        f = second_eigenpair(params).second_vector
        pi = reduced_stationary(params).probabilities
        assert f[1] > f[0]
        assert abs(pi @ f) < 1e-15 and abs(pi @ (f * f) - 1.0) < 1e-14
        if H == 0.0:
            np.testing.assert_allclose(f, [-1.0, 1.0], rtol=1e-15)

    def test_large_n_structure(self):
        """At n = 1000 the tail components of the increment chain's
        eigenvector are ~1e-97; inverse iteration leaves them at the
        rounding level and the rebuilt f is then neither increasing nor
        antisymmetric."""
        res = second_eigenpair(ModelParams(n=1000, J=0.0005, H=0.0))
        f = res.second_vector
        assert np.diff(f).min() > 0
        assert np.abs(f + f[::-1]).max() < 1e-9


class TestStructureReport:
    def test_all_flags_at_h0(self):
        res = second_eigenpair(ModelParams(n=7, J=0.15, H=0.0))
        rep = eigenvector_structure_report(res.second_vector, tol=1e-9,
                                           h=0.0,
                                           eigen_separation=res.separation)
        assert rep.increasing and rep.strictly
        assert rep.antisymmetric_at_h0 and rep.sign_split and rep.reliable

    @pytest.mark.parametrize("n", [4, 8])
    def test_even_middle_coordinate_vanishes(self, n):
        res = second_eigenpair(ModelParams(n=n, J=0.2, H=0.0))
        assert abs(res.second_vector[n // 2]) < 1e-9

    def test_strictness_is_min_increment(self):
        res = second_eigenpair(ModelParams(n=9, J=0.3, H=0.0))
        assert np.diff(res.second_vector).min() > 0

    def test_h_nonzero_skips_symmetry_flags(self):
        res = second_eigenpair(ModelParams(n=6, J=0.2, H=0.3))
        rep = eigenvector_structure_report(res.second_vector, h=0.3)
        assert rep.antisymmetric_at_h0 is None and rep.sign_split is None
        assert rep.increasing

    def test_degenerate_separation_flags_unreliable(self):
        rep = eigenvector_structure_report(np.array([-1.0, 0.0, 1.0]),
                                           eigen_separation=1e-13)
        assert not rep.reliable
        rep = eigenvector_structure_report(np.array([-1.0, 0.0, 1.0]),
                                           eigen_separation=1e-3)
        assert rep.reliable

    def test_non_increasing_vector_detected(self):
        rep = eigenvector_structure_report(np.array([0.0, 1.0, 0.5]))
        assert not rep.increasing and not rep.strictly

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("h", [0.0, 0.2])
    def test_non_finite_vector_flags_unreliable(self, h):
        rep = eigenvector_structure_report(
            np.array([-np.inf, np.nan, 0.0, np.inf]), h=h,
            eigen_separation=1e-3)
        assert not rep.reliable and not rep.increasing

    @pytest.mark.filterwarnings("error")
    def test_underflowed_increments_flag_unreliable(self):
        """Here the increments of f underflow to 0 where pi has its mass,
        so <f,f>_pi is 0 and f is not finite: the point's flags cannot be
        read, and must not read as a refutation."""
        params = ModelParams(n=1000, J=0.00186, H=-0.5)
        res = second_eigenpair(params)
        assert not np.isfinite(res.second_vector).all()
        rep = eigenvector_structure_report(res.second_vector, h=params.H,
                                           eigen_separation=res.separation)
        assert not rep.reliable


@pytest.mark.parametrize("n,J,H", [(3, 0.4, 0.2), (6, 0.1, 0.0), (8, 0.0, 0.5)])
def test_oracle_equivalence_spectrum_subset(n, J, H):
    """Every reduced-chain eigenvalue appears in the full-chain spectrum, and
    the point's lambda_2 and lambda_3 are the reduced chain's."""
    params = ModelParams(n=n, J=J, H=H)
    res = second_eigenpair(params)
    w = eigen_symmetric_tridiagonal(*symmetrize(build_reduced_chain(params)))[0]
    full = _dense_full_spectrum(params)
    dist = np.abs(w[:, None] - full[None, :]).min(axis=1)
    assert dist.max() < 1e-10
    assert abs(res.lambda2 - w[1]) < 1e-10
    assert abs(res.lambda3 - w[2]) < 1e-10


def _mp_reduced_spectrum(params):
    """Eigenvalues, descending, of the symmetrized reduced chain at 50
    digits, built from the closed-form heat-bath rates."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        n, J, H = params.n, mp.mpf(params.J), mp.mpf(params.H)
        up = [mp.mpf(n - k) / n / (1 + mp.exp((n - 2 * k - 1) * 2 * J - 2 * H))
              for k in range(n)]
        down = [mp.mpf(k) / n / (1 + mp.exp(-(n - 2 * k + 1) * 2 * J + 2 * H))
                for k in range(1, n + 1)]
        S = mp.zeros(n + 1, n + 1)
        for k in range(n + 1):
            S[k, k] = 1 - (up[k] if k < n else 0) - (down[k - 1] if k else 0)
        for k in range(n):
            S[k, k + 1] = S[k + 1, k] = mp.sqrt(up[k] * down[k])
        return [float(x) for x in
                sorted(mp.eigsy(S, eigvals_only=True), reverse=True)]


@pytest.mark.parametrize("n", [2, 12, 40])
@pytest.mark.parametrize("H", [0.0, 0.3])
@pytest.mark.parametrize("coupling_times_n", [0.0, 1.0, 3.0])
def test_lambda2_lambda3_against_mpmath(n, H, coupling_times_n):
    """lambda_2 and lambda_3 of the point solve agree with a 50-digit
    reference to within 1e-15."""
    params = ModelParams(n=n, J=coupling_times_n / n, H=H)
    res = second_eigenpair(params)
    ref = _mp_reduced_spectrum(params)
    assert abs(res.lambda2 - ref[1]) <= 1e-15
    assert abs(res.lambda3 - ref[2]) <= 1e-15


def test_distribution_type_reused():
    pi = reduced_stationary(ModelParams(n=4, J=0.2, H=0.1))
    assert isinstance(pi, Distribution)
    assert len(pi) == 5
