"""Constrained saddle-point solvers and distributed networked optimization.

Projected primal-dual dynamics (GDA, OGDA, extra-gradient) over convex
product sets, rate certificates and descent diagnostics derived from
their convergence analyses, and per-agent simulations of the consensus
and resource-allocation problems those dynamics solve over a network.
"""

from .sets import WholeSpace, Box, Ball, Product, normal_cone_residual
from .core import (SaddleProblem, IterateZ, ValidationError, operator_F,
                   objective, vi_residual, check_monotone, estimate_kappa,
                   spectral_norm)
from .solvers import (SolverConfig, RunTrace, DivergenceError, step_bound,
                      step_gda, step_ogda, step_eg, run, delta_diagnostic,
                      eg_contraction_check)
from .graphs import NetworkGraph, ring, random_connected, lambda_max
from .consensus import (ConsensusAgentSpec, ConsensusProblem,
                        lagrangian_L1, operator_phi, consensus_residual,
                        step_consensus_ogda, step_consensus_eg,
                        simulate_consensus)
from .allocation import (AllocationAgentSpec, AllocationProblem,
                         lagrangian_L2, operator_psi, feasibility_gap,
                         step_allocation_ogda, step_allocation_eg,
                         simulate_allocation)
from .network import (Network, ConsensusNetworkSimulator,
                      AllocationNetworkSimulator)
from .oracle import (CertificationError, finite_diff_check,
                     solve_consensus_reference, solve_allocation_kkt,
                     allocation_grid_objective)

__version__ = "0.1.0"
