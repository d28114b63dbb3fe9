"""Spectral-gap laboratory for Glauber dynamics of the mean-field Ising model.

Builds the full 2^n heat-bath chain and its lumped magnetization chain,
verifies the structural facts relating them (reversibility, lumping of the
stationary law and of the second eigenvalue, shape of the second
eigenvector), computes the coupling derivative of lambda_2 both through the
eigenvalue-perturbation identity and by finite differences, and cross-checks
spectral relaxation times against seeded Monte Carlo dynamics.
"""

from .ising import (Distribution, ModelParams, N_MAX_FULL,
                    check_detailed_balance, full_transition_matrix,
                    stationary_full)
from .magchain import (DerivativeMatrix, ReducedChain, build_reduced_chain,
                       derivative_matrix, lump_vector, reduced_stationary,
                       s_values)
from .mcmc import (RelaxationEstimate, Trajectory, estimate_relaxation,
                   simulate_full, simulate_reduced)
from .perturbation import (SweepPoint, SweepReport, finite_difference_gap,
                           hellmann_feynman, sign_structure_terms,
                           sweep_monotonicity, temperature_view)
from .spectral import (EigensolverError, SpectralResult, StructureReport,
                       eigen_dense_symmetric, eigen_symmetric_tridiagonal,
                       eigenvector_structure_report, full_chain_top_eigenvalues,
                       second_eigenpair, symmetrize)

__version__ = "0.1.0"

__all__ = [
    "Distribution", "ModelParams", "N_MAX_FULL", "check_detailed_balance",
    "full_transition_matrix", "stationary_full",
    "DerivativeMatrix", "ReducedChain", "build_reduced_chain",
    "derivative_matrix", "lump_vector", "reduced_stationary", "s_values",
    "RelaxationEstimate", "Trajectory", "estimate_relaxation",
    "simulate_full", "simulate_reduced",
    "SweepPoint", "SweepReport", "finite_difference_gap", "hellmann_feynman",
    "sign_structure_terms", "sweep_monotonicity", "temperature_view",
    "EigensolverError", "SpectralResult", "StructureReport",
    "eigen_dense_symmetric", "eigen_symmetric_tridiagonal",
    "eigenvector_structure_report", "full_chain_top_eigenvalues",
    "second_eigenpair", "symmetrize",
]
