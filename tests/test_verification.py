"""The property suite behind `cwglauber verify`."""

import json
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse

import cwglauber.verification as verification
from cwglauber.cli import main
from cwglauber.ising import ModelParams, full_transition_matrix
from cwglauber.magchain import lump_vector
from cwglauber.perturbation import sweep_monotonicity
from cwglauber.verification import run_verification


@pytest.mark.parametrize("J", [0.55, 0.6])
def test_supercritical_points_pass_every_check(J):
    """lambda_1 - lambda_2 underflows at these points; the eigenvector
    checks (lumping, antisymmetry, sign split, middle zero) still hold."""
    failed = [r.name for r in run_verification(ModelParams(n=12, J=J, H=0.0))
              if r.status == "fail"]
    assert failed == []


@pytest.mark.parametrize("J", [0.0, 5e-7])
def test_j0_boundary_passes_every_check(J):
    """At J < 1e-6 the entry derivatives take the one-sided second-order
    stencil; a first-order difference failed derivative_vs_fd_entries."""
    failed = [r.name for r in run_verification(ModelParams(n=12, J=J, H=0.3))
              if r.status == "fail"]
    assert failed == []


# (name, status, tol) of every check, in order: a change here is a change
# to what `verify` claims, not to how it computes it
_FULL_CHAIN = [
    ("full_row_sums", "pass", 1e-14), ("full_entry_range", "pass", 1e-15),
    ("full_locality", "pass", 0.0), ("gibbs_flip_consistency", "pass", 1e-12),
    ("full_detailed_balance", "pass", 1e-13),
    ("full_stationarity", "pass", 1e-12)]
_REDUCED_AND_SPECTRA = [
    ("reduced_row_sums", "pass", 1e-14), ("reduced_positivity", "pass", 0.0),
    ("reduced_detailed_balance", "pass", 1e-13),
    ("stationary_lumping", "pass", 1e-12),
    ("transition_lumping", "pass", 1e-14), ("lumping_lambda2", "pass", 1e-10),
    ("spectrum_subset", "pass", 1e-10), ("eigenvalue_range", "pass", 1e-12),
    ("top_eigenvalue", "pass", 1e-10), ("lumped_eigenvector", "pass", 1e-10),
    ("eigenvector_normalization", "pass", 1e-10),
    ("derivative_row_sums", "pass", 1e-14),
    ("derivative_vs_fd_entries", "pass", 1e-08),
    ("s_sign_pattern", "pass", 0.0)]
_OFF_H0_TAIL = [
    ("eigenvector_increasing", "pass", 0.0),
    ("eigenvector_antisymmetry", "skip", None),
    ("eigenvector_sign_split", "skip", None),
    ("sign_structure_terms", "skip", None)]
CHECK_LISTS = {
    (6, 0.2, 0.0): _FULL_CHAIN + [("spin_flip_symmetry", "pass", 0.0)]
    + _REDUCED_AND_SPECTRA + [
        ("hellmann_feynman_vs_fd", "pass", 3.720785447081098e-07),
        ("eigenvector_increasing", "pass", 0.0),
        ("eigenvector_antisymmetry", "pass", 1e-09),
        ("eigenvector_sign_split", "pass", 1e-09),
        ("eigenvector_middle_zero", "pass", 1e-09),
        ("sign_structure_terms", "pass", 1e-12),
        ("sign_terms_sum_vs_hf", "pass", 1e-12)],
    (7, 0.3, 0.1): _FULL_CHAIN + [("spin_flip_symmetry", "skip", None)]
    + _REDUCED_AND_SPECTRA
    + [("hellmann_feynman_vs_fd", "pass", 6.483943795765335e-08)]
    + _OFF_H0_TAIL,
    (1, 0.1, 0.2): _FULL_CHAIN + [("spin_flip_symmetry", "skip", None)]
    + _REDUCED_AND_SPECTRA + [("hellmann_feynman_vs_fd", "pass", 1e-08)]
    + _OFF_H0_TAIL,
}


@pytest.mark.parametrize("n,J,H", list(CHECK_LISTS))
def test_check_list_is_pinned(n, J, H):
    """Names, order, statuses and tolerances; the FD-scaled tolerance of
    hellmann_feynman_vs_fd is compared to 1e-6 relative."""
    got = [(r.name, r.status, r.tol)
           for r in run_verification(ModelParams(n=n, J=J, H=H))]
    expected = [(name, status,
                 tol if tol is None else pytest.approx(tol, rel=1e-6))
                for name, status, tol in CHECK_LISTS[(n, J, H)]]
    assert got == expected


# the shape checks, in verify's order; the middle one at even n only
_SHAPE_CHECKS = ["eigenvector_increasing", "eigenvector_antisymmetry",
                 "eigenvector_sign_split", "eigenvector_middle_zero",
                 "sign_structure_terms"]
_VERDICT = {"PASS": True, "FAIL": False, "SKIP": None}


def _shape_verdicts(n, J, H, capsys):
    """verify's printed verdict on each shape check at (n, J, H), after
    checking that it prints every one and that gap's structure holds the
    same verdicts, then gap's ``reliable``."""
    point = ["--n", str(n), "--J", repr(J), "--H", repr(H)]
    assert main(["verify", *point]) in (0, 1)
    printed = dict(re.findall(r"^(\w+) +(PASS|FAIL|SKIP)\b",
                              capsys.readouterr().out, re.M))
    names = [name for name in _SHAPE_CHECKS
             if n % 2 == 0 or name != "eigenvector_middle_zero"]
    assert [name for name in printed if name in _SHAPE_CHECKS] == names
    verdicts = {name: _VERDICT[printed[name]] for name in names}
    assert main(["gap", *point, "--format", "json"]) == 0
    structure = json.loads(capsys.readouterr().out)["structure"]
    reliable = structure.pop("reliable")
    assert list(structure.items()) == [
        item for item in verdicts.items() if item[0] != "sign_structure_terms"]
    return verdicts, reliable


@pytest.mark.parametrize("H", [0.0, 0.3])
@pytest.mark.parametrize("n", range(1, 13))
def test_gap_sweep_and_verify_agree_on_the_shape(n, H, capsys):
    """verify prints every shape check; gap's structure holds its verdicts
    (true for PASS, false for FAIL, null for SKIP) and a sweep point's
    sign_ok its sign_structure_terms verdict."""
    grid = [0.0, 0.1, 0.5]
    points = sweep_monotonicity(n, H, grid).points
    assert [p.J for p in points] == grid
    for J, point in zip(grid, points):
        verdicts, reliable = _shape_verdicts(n, J, H, capsys)
        assert reliable
        assert point.sign_terms_ok is verdicts["sign_structure_terms"]


@pytest.mark.parametrize("n,J,H", [(12, 0.0, 40.0), (8, 7.275, -50.0)])
def test_gap_and_verify_agree_where_f_is_in_doubt(n, J, H, capsys):
    """At (12, 0, 40) the increments of f read 0 in rounding, and at
    (8, 7.275, -50) f is not finite: gap and verify still give one verdict
    per check, and the unreadable f is skipped by both."""
    verdicts, reliable = _shape_verdicts(n, J, H, capsys)
    if not reliable:
        assert set(verdicts.values()) == {None}


def test_builds_the_full_chain_once(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return full_transition_matrix(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name.startswith("cwglauber")
                and getattr(module, "full_transition_matrix", None)
                is full_transition_matrix):
            monkeypatch.setattr(module, "full_transition_matrix", counting)
    run_verification(ModelParams(n=6, J=0.2, H=0.1))
    assert len(calls) == 1


def test_peak_memory_is_a_few_chains():
    """tracemalloc peak of a whole run against the bytes of P's CSR arrays;
    one build and per-bit reads keep it under 6x (9.8x with two builds and
    (2^n, n) index arrays)."""
    params = ModelParams(n=14, J=0.05, H=0.1)
    P = full_transition_matrix(params, n_max_full=14)
    csr_bytes = P.data.nbytes + P.indices.nbytes + P.indptr.nbytes
    del P
    tracemalloc.start()
    try:
        run_verification(params, n_max_full=14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * csr_bytes


def test_stray_and_asymmetric_entries_are_caught(monkeypatch):
    """A nonzero beyond Hamming distance 1 fails full_locality; a bumped
    flip fails the flip-ratio and detailed-balance checks."""
    params = ModelParams(n=4, J=0.2, H=0.1)
    P = full_transition_matrix(params).toarray()
    P[0, 3] = 1e-3   # states 0 and 3 differ in two spins
    P[5, 4] += 1e-3  # a flip of spin 0
    monkeypatch.setattr(verification, "full_transition_matrix",
                        lambda *args, **kwargs: scipy.sparse.csr_array(P))
    failed = {r.name for r in run_verification(params) if r.status == "fail"}
    assert {"full_locality", "gibbs_flip_consistency",
            "full_detailed_balance"} <= failed


def _lumped_eigenvector(results):
    return next(r for r in results if r.name == "lumped_eigenvector")


def test_lumped_eigenvector_tolerance_is_the_rounding_floor():
    """At n=4, J=0, H=20 the pi-normalized f reaches ~1e9, so P @ lf rounds
    to ~1e-9 absolute (~1e-18 relative); every check passes there."""
    results = run_verification(ModelParams(n=4, J=0.0, H=20.0))
    check = _lumped_eigenvector(results)
    assert check.value > 1e-10 and check.tol > check.value
    assert [r.name for r in results if r.status == "fail"] == []


def test_lumped_eigenvector_catches_a_relative_perturbation(monkeypatch):
    """A 1e-8 relative change of lf's largest entry still fails at the point
    where the tolerance is raised to the rounding floor."""
    def perturbed(f_levels, n):
        lf = lump_vector(f_levels, n)
        lf[np.argmax(np.abs(lf))] *= 1 + 1e-8
        return lf

    monkeypatch.setattr(verification, "lump_vector", perturbed)
    check = _lumped_eigenvector(
        run_verification(ModelParams(n=4, J=0.0, H=20.0)))
    assert check.status == "fail"


def _degenerate_lambda3(monkeypatch):
    """Solve as usual, then set lambda_3 1e-13 below lambda_2."""
    import cwglauber.perturbation as perturbation
    real = perturbation.second_eigenpairs

    def degenerate(grid, *stencil):
        w, f, pi, errors = real(grid, *stencil)
        w[:, 1] = w[:, 0] - 1e-13
        return w, f, pi, errors

    monkeypatch.setattr(perturbation, "second_eigenpairs", degenerate)


def _failing_stencil(monkeypatch):
    """Fail every finite-difference stencil row before it is solved: the
    rows after the first k of a batch that solves k points and their two
    stencil couplings each."""
    import cwglauber.spectral as spectral
    real = spectral.top_eigenpairs

    def failing(diag, offdiag, errors):
        k = len(errors) // 3
        errors[k:] = [RuntimeError("stencil solve failed")] * (len(errors) - k)
        return real(diag, offdiag, errors)

    monkeypatch.setattr(spectral, "top_eigenpairs", failing)


def test_unusable_point_skips_both_derivative_checks(monkeypatch):
    """At a degenerate lambda_2 the derivative and shape checks skip with
    the usability error's message, and a failed stencil there is not
    raised: FD is read only where HF is."""
    _degenerate_lambda3(monkeypatch)
    _failing_stencil(monkeypatch)
    results = {r.name: r for r in run_verification(ModelParams(n=6, J=0.2))}
    for name in ("hellmann_feynman_vs_fd", *_SHAPE_CHECKS):
        assert results[name].status == "skip"
        assert results[name].note.startswith(
            "lambda2 - lambda3 = 1.000e-13 < 1e-12: eigenvalue not")
    assert "sign_terms_sum_vs_hf" not in results


def test_non_finite_vector_skips_with_its_reason():
    """At (8, 7.275, -50) lambda_2 - lambda_3 is 0.0061 and f is not
    finite: the checks on f skip naming that, the H = 0 checks name the
    field, and the checks that read f without the rule fail with NaN; no
    numpy warning is raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = {r.name: r for r in run_verification(
            ModelParams(n=8, J=7.275, H=-50.0))}
    for name in ("hellmann_feynman_vs_fd", "eigenvector_increasing"):
        assert (results[name].status, results[name].note) == (
            "skip", "second eigenvector is not finite: its increments "
            "underflowed where pi has its mass")
    for name in _SHAPE_CHECKS[1:]:
        assert (results[name].status, results[name].note) == ("skip", "H != 0")
    for name in ("lumped_eigenvector", "eigenvector_normalization"):
        assert results[name].status == "fail"
        assert np.isnan(results[name].value)


def test_stencil_failure_at_a_usable_point_is_raised(monkeypatch):
    _failing_stencil(monkeypatch)
    with pytest.raises(RuntimeError, match="stencil solve failed"):
        run_verification(ModelParams(n=6, J=0.2))
