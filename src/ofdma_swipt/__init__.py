"""Secrecy-rate and wireless-power resource allocation for AN-aided OFDMA
downlinks: closed-form rate model, dual-decomposition solver, benchmark
heuristics and a seeded Monte-Carlo experiment harness."""

from .model import (Allocation, ChannelRealization, DomainError, SystemConfig,
                    eavesdropper_gains, optimal_split, rate_eve, rate_ir,
                    secrecy_rate, threshold_x, weighted_sum_secrecy)
from .vector import UnboundedSubproblemError
from .dual import (InfeasibleProblemError, SolveReport, SolverOptions,
                   assign_subcarriers, solve_dual)
from .heuristics import (SCHEMES, noncancel_secrecy_rate, solve,
                         solve_suboptimal)
from .channel import (ScenarioSpec, dbm_to_watts, generate_scenario,
                      path_loss, watts_to_dbm)

__all__ = [n for n in dir() if not n.startswith("_")]
__version__ = "0.1.0"
