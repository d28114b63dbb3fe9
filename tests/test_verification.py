"""The property suite behind `cwglauber verify`."""

import pytest

from cwglauber.ising import ModelParams
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
