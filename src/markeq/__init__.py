"""Equilibrium policies for time-inconsistent stochastic control in discrete time.

The package solves finite-horizon problems whose objective mixes
state-dependent costs with a nonlinear function of an expectation, so the
dynamic-programming principle fails and the meaningful solution concept
is a subgame-perfect (consistent-planning) equilibrium: at every time and
state, no one-step deviation against the frozen continuation policy
improves the objective.
"""

from .errors import (ConfigError, InfeasibleControlError, KernelError,
                     MarkeqError, ModelError, SolverError)
from .evaluate import (DeviationReport, MCResult, deviation_report,
                       eval_objective_exact, eval_objective_mc, solve_naive,
                       solve_precommitment, verify_equilibrium)
from .families import (ExpUtilityParams, LQParams, MeanVarianceParams,
                       exp_utility_model, lq_model, mv_chain_model,
                       mv_closed_form, mv_model, nonlinear_lq_variant)
from .kernels import (AdditiveNoise, DiscreteChain, DiscretizedKernel,
                      PointIndicator, StepFunction, discretize, exact_expectation,
                      load_kernel_cache, policy_matrix, save_kernel_cache,
                      setwise_continuity_probe, tv_distance)
from .model import (AssumptionReport, ControlConstraint, Costs, Model, Policy,
                    build_model, config_hash, validate_assumptions)
from .noise import DensityNoise, GaussianNoise
from .solver import (AuxiliaryBundle, EquilibriumSolution, LevelSetReport,
                     SolveOptions, bellman_step, build_aux, golden_section,
                     levelset_probe, objective_L, solve, value_identity_check)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
