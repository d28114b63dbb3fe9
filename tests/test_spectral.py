"""Eigensolvers and second-eigenpair conventions."""

import math
import sys
import threading

import numpy as np
import pytest

import scipy.linalg

import cwglauber.spectral as spectral
from conftest import (dense_reduced_chain, failing_dstemr_rows, patch_dstemr,
                      reduced_eigh, tridiagonal_eigh)
from cwglauber.ising import ModelParams
from cwglauber.magchain import build_reduced_chain, reduced_stationary
from cwglauber.spectral import (STRUCTURE_TOL, EigensolverError,
                                eigenvector_structure_report,
                                full_chain_top_eigenvalues,
                                lifted_residual, second_eigenpair,
                                second_eigenpairs, shape_measures,
                                symmetrized_full_chain, top_eigenpairs)
from cwglauber.ising import full_transition_matrix, stationary_full


def _dense_full_spectrum(params):
    """All 2^n eigenvalues, descending, of the dense full chain symmetrized
    by diag(sqrt(pi)); an independent route for n <= 8."""
    P = full_transition_matrix(params).toarray()
    s = np.sqrt(stationary_full(params))
    S = (s[:, None] * P) / s[None, :]
    return np.linalg.eigvalsh(0.5 * (S + S.T))[::-1]


def top_pair(diag, offdiag):
    """``top_eigenpairs`` of one matrix: its eigenvalues (one for a 1 x 1
    matrix) and top eigenvector, raising the row's error."""
    errors = [None]
    w, v = top_eigenpairs(np.array([diag], dtype=float),
                          np.array(offdiag, dtype=float).reshape(1, -1), errors)
    if errors[0] is not None:
        raise errors[0]
    return w[0, :min(len(diag), 2)], v[0]


class TestTridiagonalSolver:
    """top_eigenpairs, the library's one tridiagonal solver, on closed forms
    and random matrices."""

    def test_two_by_two(self):
        w, v = top_pair([0.0, 0.0], [1.0])
        np.testing.assert_allclose(w, [1.0, -1.0], atol=1e-15)
        np.testing.assert_allclose(np.abs(v), [math.sqrt(0.5)] * 2, rtol=1e-15)

    def test_uniform_closed_form(self):
        a, b = 0.3, 0.2
        w, _ = top_pair([a, a, a], [b, b])
        np.testing.assert_allclose(w, [a + b * math.sqrt(2), a], atol=1e-14)

    def test_single_element(self):
        w, v = top_pair([2.5], [])
        assert w.tolist() == [2.5] and v.tolist() == [1.0]

    @pytest.mark.parametrize("m", [3, 10, 27, 50])
    def test_against_jacobi_oracle(self, m):
        rng = np.random.default_rng(m)
        diag = rng.standard_normal(m)
        offdiag = rng.standard_normal(m - 1)
        w, _ = top_pair(diag, offdiag)
        w_oracle = tridiagonal_eigh(diag, offdiag)[0][:2]
        np.testing.assert_allclose(w, w_oracle, atol=1e-12 * max(1, np.abs(w).max()))

    @pytest.mark.parametrize("m", [5, 40])
    def test_residual_and_orthonormality(self, m):
        rng = np.random.default_rng(100 + m)
        diag = rng.standard_normal(m)
        offdiag = rng.standard_normal(m - 1)
        A = np.diag(diag) + np.diag(offdiag, 1) + np.diag(offdiag, -1)
        w, v = top_pair(diag, offdiag)
        assert w[0] >= w[1]  # descending
        assert np.abs(A @ v - v * w[0]).max() < 1e-12 * np.linalg.norm(A)
        assert abs(v @ v - 1.0) < 1e-12


def assert_scipy_wrapper_bits(monkeypatch, diag, offdiag):
    """Every row's dstemr call, and what ``top_eigenpairs`` reads from it,
    has the bits of scipy's f2py wrapper (``scipy.linalg.lapack.dstemr``,
    which allocates an m x m eigenvector array) called as the library
    called it before it passed an m x 2 block: the same M, info,
    eigenvalues and eigenvectors.  Calls are matched to rows by their input
    bytes, as worker threads interleave them."""
    calls = {}

    def recording(call):
        d, e = call.d.tobytes(), call.e[:-1].tobytes()
        call.real()
        found = call.M.value
        calls.setdefault((d, e), []).append(
            (found, call.info.value, call.w[:found].copy(),
             call.z[:, :found].copy()))

    patch_dstemr(monkeypatch, recording)
    errors = [None] * len(diag)
    w, v = top_eigenpairs(diag, offdiag, errors)
    # one call per row, a 1 x 1 matrix included
    assert sum(map(len, calls.values())) == len(diag)
    assert errors == [None] * len(diag)
    for i in range(len(diag)):
        row_calls = calls.get((diag[i].tobytes(), offdiag[i].tobytes()), [])
        assert row_calls, f"no dstemr call has row {i}'s input"
        found, info, lam, z = row_calls.pop()
        m = diag.shape[1]
        ref = scipy.linalg.lapack.dstemr(diag[i], np.append(offdiag[i], 0.0), 3,
                                         0.0, 0.0, max(m - 1, 1), m)
        assert (found, info) == (ref[0], ref[3]) == (min(m, 2), 0)
        assert lam.tobytes() == ref[1][:found].tobytes()
        assert z.tobytes() == ref[2][:, :found].tobytes()
        assert w[i, :found].tobytes() == ref[1][:found][::-1].tobytes()
        assert v[i].tobytes() == ref[2][:, found - 1].tobytes()


class TestScipyWrapperOracle:
    @pytest.mark.parametrize("n", [1, 2, 3, 12, 40, 100, 300, 1000, 3000])
    @pytest.mark.parametrize("H", [0.0, 0.2, -0.5, 1.0])
    def test_increment_chains(self, monkeypatch, n, H):
        params = ModelParams(n, np.array([[0.0], [0.5], [1.0], [1.5], [3.0]]) / n, H)
        with np.errstate(all="ignore"):
            chain = build_reduced_chain(params)
            diag = 1.0 - (chain.up + chain.down)
            offdiag = np.sqrt(chain.up[:, 1:] * chain.down[:, :-1])
        assert_scipy_wrapper_bits(monkeypatch, diag, offdiag)

    @pytest.mark.parametrize("kind", ["definite", "indefinite", "graded"])
    @pytest.mark.parametrize("m", [1, 5, 30, 200])
    def test_generic_matrices(self, monkeypatch, kind, m):
        """Definite and graded matrices take dstemr's relative-accuracy
        path (tryrac) where increment chains do not."""
        rng = np.random.default_rng(m)
        if kind == "definite":
            diag, offdiag = 4.0 + rng.random((6, m)), rng.random((6, m - 1))
        elif kind == "indefinite":
            diag = rng.standard_normal((6, m))
            offdiag = rng.standard_normal((6, m - 1))
        else:
            diag = 10.0 ** rng.uniform(-12.0, 0.0, (6, m))
            offdiag = 0.1 * np.sqrt(diag[:, 1:] * diag[:, :-1])
        assert_scipy_wrapper_bits(monkeypatch, diag, offdiag)


class TestTopEigenpair:
    @pytest.mark.parametrize("m", [2, 10, 40])
    def test_matches_full_solver(self, m):
        rng = np.random.default_rng(200 + m)
        diag = rng.standard_normal(m)
        offdiag = rng.standard_normal(m - 1)
        w_all, v_all = tridiagonal_eigh(diag, offdiag)
        w, v = top_pair(diag, offdiag)
        np.testing.assert_allclose(w, w_all[:2], rtol=0, atol=1e-12)
        assert abs(abs(v @ v_all[:, 0]) - 1.0) < 1e-12

    def test_single_element(self):
        w, v = top_pair([0.3], [])
        assert w == 0.3 and v.tolist() == [1.0]

    @pytest.mark.parametrize("diag,offdiag,slots", [
        ((2, 5), (2, 1), 2),   # one off-diagonal would broadcast over four
        ((2, 5), (2, 5), 2),
        ((2, 5), (2, 4), 1),
        ((1, 0), (1, 0), 1)])
    def test_mismatched_shapes_are_refused(self, diag, offdiag, slots):
        with pytest.raises(ValueError, match="do not describe the same rows"):
            top_eigenpairs(np.ones(diag), np.ones(offdiag), [None] * slots)

    def test_lapack_failure_is_eigensolver_error(self, dstemr_fails):
        with pytest.raises(EigensolverError, match="info=7"):
            top_pair([1.0, 2.0], [0.5])
        with pytest.raises(EigensolverError):
            second_eigenpair(ModelParams(n=6, J=0.1, H=0.0))


class TestWorkerThreads:
    """From order MIN_THREADED_ORDER, top_eigenpairs splits a batch's rows
    into contiguous shares, one per worker; the bytes are one worker's."""

    @staticmethod
    def increment_batch(n, H, rows=7):
        with np.errstate(all="ignore"):
            chain = build_reduced_chain(
                ModelParams(n, np.linspace(0.0, 3.0 / n, rows)[:, None], H))
        return (1.0 - (chain.up + chain.down),
                np.sqrt(chain.up[:, 1:] * chain.down[:, :-1]))

    @pytest.mark.parametrize("n", [24, 100, 333])
    @pytest.mark.parametrize("H", [0.0, 0.2, -0.4])
    def test_bits_do_not_depend_on_the_worker_count(self, monkeypatch, n, H):
        diag, offdiag = self.increment_batch(n, H)
        # rows 0-2 | 3-6 with two workers, 0-1 | 2-3 | 4-6 with three: row 1
        # comes with an error, rows 2 and 5 fail in dstemr
        failing_dstemr_rows(monkeypatch, {tuple(diag[2]): 7, tuple(diag[5]): 8})
        given = EigensolverError("given")
        results = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(spectral, "WORKERS", workers)
            errors = [None, given] + [None] * 5
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)  # threads interleave as often as can be
            try:
                w, v = top_eigenpairs(diag, offdiag, errors)
            finally:
                sys.setswitchinterval(interval)
            assert errors[1] is given
            assert [str(e) for e in errors[2::3]] == [
                "dstemr failed with info=7", "dstemr failed with info=8"]
            assert [e is None for e in errors] == [True, False, False, True,
                                                   True, False, True]
            assert np.isnan(w[[1, 2, 5]]).all() and np.isnan(v[[1, 2, 5]]).all()
            assert np.isfinite(v[[0, 3, 4, 6]]).all()
            results.append((w.tobytes(), v.tobytes()))
        assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize("m,threaded", [
        (spectral.MIN_THREADED_ORDER - 1, False),
        (spectral.MIN_THREADED_ORDER, True)])
    def test_threads_start_from_the_order_threshold(self, monkeypatch, m,
                                                    threaded):
        pools = []

        class Recording(spectral.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(spectral, "ThreadPoolExecutor", Recording)
        monkeypatch.setattr(spectral, "WORKERS", 2)
        threads = threading.active_count()
        diag, offdiag = self.increment_batch(m, 0.0, rows=40)
        errors = [None] * 40
        w, _ = top_eigenpairs(diag, offdiag, errors)
        assert pools == ([(1,)] if threaded else [])
        assert threading.active_count() == threads
        assert errors == [None] * 40 and np.isfinite(w).all()
        # one row is solved serially at any order
        top_eigenpairs(diag[:1], offdiag[:1], [None])
        assert len(pools) == threaded


class TestSecondEigenpair:
    @pytest.mark.parametrize("n", [1, 2, 5, 8, 12])
    def test_free_chain_closed_form(self, n):
        """At J = 0 the whole reduced spectrum is 1 - j/n."""
        params = ModelParams(n=n, J=0.0, H=0.0)
        res = second_eigenpair(params)
        w = reduced_eigh(build_reduced_chain(params))[0]
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
        pi = reduced_stationary(params)
        f = res.second_vector
        assert abs(np.sum(pi * f * f) - 1.0) < 1e-10
        assert f[-1] > f[0]
        w = reduced_eigh(build_reduced_chain(params))[0]
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
        pi = reduced_stationary(params)
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

    def test_nan_for_single_spin(self):
        res = second_eigenpair(ModelParams(n=1, J=0.3, H=0.0))
        assert math.isnan(res.lambda3) and math.isnan(res.separation)


class TestSolverFailures:
    @pytest.mark.parametrize("n,J,H", [(12, 100.0, 0.0), (1, 0.0, -400.0)])
    def test_underflowed_chain_refused(self, n, J, H):
        params = ModelParams(n=n, J=J, H=H)
        assert build_reduced_chain(params).up[0] == 0.0
        with pytest.raises(EigensolverError, match="underflow"):
            second_eigenpair(params)

    def test_missing_dstemr_refuses_before_any_row(self, monkeypatch):
        monkeypatch.setattr(spectral, "dstemr", None)
        errors = [None, None]
        with pytest.raises(EigensolverError, match="lacks dstemr"):
            top_eigenpairs(np.ones((2, 3)), np.ones((2, 2)), errors)
        assert errors == [None, None]

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
        """At (6, 0.05, 0) the Lanczos basis becomes invariant and ARPACK
        asks for a restart vector, which the seeded generator draws too."""
        for n, J, H in [(10, 0.3, 0.1), (6, 0.05, 0.0)]:
            S = symmetrized_full_chain(
                full_transition_matrix(ModelParams(n=n, J=J, H=H)))
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
        s = np.sqrt(stationary_full(params))
        S = (s[:, None] * P.toarray()) / s[None, :]
        w = np.linalg.eigvalsh(0.5 * (S + S.T))[::-1]
        assert abs(w[0] - 1.0) < 1e-10
        np.testing.assert_allclose(w[:3], top, atol=1e-12)


class TestLiftedResidual:
    def test_bounds_reduced_eigenvalues_and_can_fail(self):
        """The spectrum_subset measurement: small for the true eigenpairs,
        at least half the shift for a displaced eigenvalue."""
        params = ModelParams(n=6, J=0.3, H=0.1)
        w, v = reduced_eigh(build_reduced_chain(params))
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
        """The increments d > 0 of the second eigenvector solve
        lambda_2 d = Q d, and the grid core's w, with stencil rows in its
        batch, holds lambda_2 and lambda_3."""
        params = ModelParams(n=n, J=J, H=H)
        chain = build_reduced_chain(params)
        res = second_eigenpair(params)
        w, f, _, _ = second_eigenpairs(ModelParams(n, np.array([[J]]), H),
                                       np.array([[J - 1e-3]]),
                                       np.array([[J + 1e-3]]))
        assert w[0, 0] == res.lambda2 and w[0, 1] == res.lambda3
        assert f.tobytes() == res.second_vector.tobytes()
        Q = (np.diag(1.0 - (chain.up + chain.down))
             + np.diag(chain.up[1:], 1) + np.diag(chain.down[:-1], -1))
        d = np.diff(res.second_vector)
        assert d.min() > 0
        assert np.abs(Q @ d - res.lambda2 * d).max() < 1e-13 * d.max()

    def test_solver_sign_does_not_matter(self, monkeypatch):
        params = ModelParams(n=9, J=0.2, H=0.1)
        before = second_eigenpair(params).second_vector

        def negated(call):
            call.real()
            call.z[:, call.M.value - 1] *= -1.0

        patch_dstemr(monkeypatch, negated)
        np.testing.assert_array_equal(second_eigenpair(params).second_vector,
                                      before)

    def test_one_global_sign_keeps_defects_visible(self, monkeypatch):
        """A wrong-signed component must not be hidden by the sign fix."""
        params = ModelParams(n=8, J=0.1, H=0.0)

        def flawed(call):
            call.real()
            u = call.z[:, call.M.value - 1]
            u[:] = -np.abs(u)  # the solver's sign, negative overall
            u[0] = -u[0]       # and one component of the wrong sign

        patch_dstemr(monkeypatch, flawed)
        res = second_eigenpair(params)
        rep = eigenvector_structure_report(res.second_vector, h=0.0)
        assert not rep.increasing and not rep.strictly

    @pytest.mark.parametrize("H", [0.0, 0.7])
    def test_single_spin_vector(self, H):
        params = ModelParams(n=1, J=2.0, H=H)
        f = second_eigenpair(params).second_vector
        pi = reduced_stationary(params)
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
        rep = eigenvector_structure_report(res.second_vector, h=0.0,
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

    @pytest.mark.parametrize("h", [0.0, 0.2])
    def test_non_finite_vector_flags_unreliable(self, h):
        rep = eigenvector_structure_report(
            np.array([-np.inf, np.nan, 0.0, np.inf]), h=h,
            eigen_separation=1e-3)
        assert not rep.reliable and not rep.increasing

    def test_breach_at_the_tolerance_passes(self):
        """A breach equal to STRUCTURE_TOL passes, as in verify."""
        rep = eigenvector_structure_report(np.array([-1e-9, 0.0, 2e-9]))
        assert rep.antisymmetric_at_h0 and rep.sign_split

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


class TestShapeMeasures:
    def test_hand_values(self):
        shape = shape_measures(np.array([-2.0, -0.5, 0.25, 1.0, 1.5]),
                               np.array([0.0, -3e-12, 1.0, 2.0, 0.0]))
        assert shape == {"increment": 0.5, "antisymmetry": 0.5,
                         "sign_split": 0.25, "middle": 0.25, "terms": 3e-12}

    def test_field_keeps_only_the_increment(self):
        shape = shape_measures(np.array([-1.0, 0.5, 2.0]), np.zeros(3), h=0.2)
        assert shape == {"increment": 1.5}

    def test_rows_are_independent(self):
        """A block's values are each row's own: a non-finite row (here with
        inf + -inf in its antisymmetry sum) fails every verdict, changes no
        other row's value and raises no warning, which would fail the test."""
        grid = ModelParams(n=8, J=np.array([[0.0], [0.05], [0.1], [0.3]]))
        f = second_eigenpairs(grid)[1]
        terms = f * np.linspace(-1.0, 1.0, 9)
        bad_f, bad_terms = f.copy(), terms.copy()
        bad_f[1] = [-np.inf, 0, 0, 0, np.nan, 0, 0, 0, np.inf]
        bad_terms[1] = np.nan
        block, bad = shape_measures(f, terms), shape_measures(bad_f, bad_terms)
        for i in range(len(f)):
            row = shape_measures(f[i], terms[i])
            for key, value in row.items():
                assert value.tobytes() == block[key][i].tobytes()
                if i != 1:
                    assert value.tobytes() == bad[key][i].tobytes()
                else:
                    assert not bad[key][i] <= STRUCTURE_TOL


@pytest.mark.parametrize("n,J,H", [(3, 0.4, 0.2), (6, 0.1, 0.0), (8, 0.0, 0.5)])
def test_oracle_equivalence_spectrum_subset(n, J, H):
    """Every reduced-chain eigenvalue appears in the full-chain spectrum, and
    the point's lambda_2 and lambda_3 are the reduced chain's."""
    params = ModelParams(n=n, J=J, H=H)
    res = second_eigenpair(params)
    w = reduced_eigh(build_reduced_chain(params))[0]
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


def test_stationary_law_is_plain_array():
    pi = reduced_stationary(ModelParams(n=4, J=0.2, H=0.1))
    assert type(pi) is np.ndarray and pi.shape == (5,)
