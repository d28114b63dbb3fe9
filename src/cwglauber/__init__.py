"""Spectral-gap laboratory for Glauber dynamics of the mean-field Ising model.

Builds the full 2^n heat-bath chain and its lumped magnetization chain,
verifies the structural facts relating them (reversibility, lumping of the
stationary law and of the second eigenvalue, shape of the second
eigenvector), computes the coupling derivative of lambda_2 both through the
eigenvalue-perturbation identity and by finite differences, and cross-checks
spectral relaxation times against seeded Monte Carlo dynamics.
"""

from .ising import (ModelParams, N_MAX_FULL, full_transition_matrix,
                    law_from_log_weights, stationary_full)
from .magchain import (Tridiagonal, build_reduced_chain, derivative_matrix,
                       lump_vector, reduced_stationary, s_values)
from .mcmc import (RelaxationEstimate, Trajectory, estimate_relaxation,
                   simulate_full, simulate_reduced)
from .perturbation import (SweepPoint, SweepReport, analyse,
                           sweep_monotonicity, temperature_view)
from .spectral import (EigensolverError, SpectralResult, StructureReport,
                       eigenvector_structure_report, full_chain_top_eigenvalues,
                       second_eigenpair, symmetrized_full_chain)

__version__ = "0.1.0"

__all__ = [
    "ModelParams", "N_MAX_FULL", "full_transition_matrix",
    "law_from_log_weights", "stationary_full",
    "Tridiagonal", "build_reduced_chain", "derivative_matrix", "lump_vector",
    "reduced_stationary", "s_values",
    "RelaxationEstimate", "Trajectory", "estimate_relaxation",
    "simulate_full", "simulate_reduced",
    "SweepPoint", "SweepReport", "analyse", "sweep_monotonicity",
    "temperature_view",
    "EigensolverError", "SpectralResult", "StructureReport",
    "eigenvector_structure_report", "full_chain_top_eigenvalues",
    "second_eigenpair", "symmetrized_full_chain",
]
