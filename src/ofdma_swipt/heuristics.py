"""Two-stage suboptimal allocator and the benchmark schemes.

Benchmarks: fixed split ratio (alpha pinned, power/assignment still dual
optimized), fixed subcarrier assignment (FSA, round-robin map), and NoAN
(alpha pinned to zero). The non-cancelable-AN secrecy rate backs the claim
that AN without receiver-side cancellation never beats plain transmission.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (Allocation, ChannelRealization, DomainError, SystemConfig,
                    all_harvested_powers, optimal_split, secrecy_rate,
                    weighted_sum_secrecy)
from .dual import (InfeasibleProblemError, SolveReport, SolverOptions,
                   solve_dual)


@dataclass
class HeuristicReport(SolveReport):
    n1: int = 0  # SCs consumed by the harvesting stage
    n2: int = 0  # SCs assigned greedily for secrecy rate


def solve_suboptimal(config: SystemConfig,
                     channels: ChannelRealization) -> HeuristicReport:
    """Equal power on every SC; stage 1 feeds each ER its best SCs until the
    harvest target is met, stage 2 assigns the rest by weighted secrecy rate."""
    n = config.num_scs
    p_eq = min(config.peak_power, config.total_power / n)
    owner = np.full(n, -1, dtype=int)
    er_g = channels.er_gains
    ir_g = channels.ir_gains

    for l in range(config.num_ers):
        in_stage1 = owner >= 0
        q_l = config.harvest_eff[l] * p_eq * er_g[l, in_stage1].sum()
        while q_l < config.harvest_target[l]:
            free = np.nonzero(owner < 0)[0]
            if free.size == 0:
                raise InfeasibleProblemError(
                    f"ER {l} cannot reach its target with equal power")
            pick = free[np.argmax(er_g[l, free])]
            owner[pick] = int(np.argmax(ir_g[:, pick]))
            q_l += config.harvest_eff[l] * p_eq * er_g[l, pick]
    n1 = int((owner >= 0).sum())

    rest = np.nonzero(owner < 0)[0]
    if rest.size:
        a_star = optimal_split(p_eq, ir_g[:, rest], channels.eve_gains[:, rest],
                             config.noise_power)
        rs = secrecy_rate(np.full_like(a_star, p_eq), a_star,
                          ir_g[:, rest], channels.eve_gains[:, rest],
                          config.noise_power)
        owner[rest] = np.argmax(config.weights[:, None] * rs, axis=0)
    n2 = int(rest.size)

    x = np.zeros((config.num_irs, n), dtype=int)
    x[owner, np.arange(n)] = 1
    p = np.where(x == 1, p_eq, 0.0)
    a = np.where(x == 1,
                 optimal_split(p_eq, ir_g, channels.eve_gains, config.noise_power),
                 0.0)
    alloc = Allocation(assign=x, power=p, split=a)
    q = all_harvested_powers(alloc, channels, config)
    return HeuristicReport(
        objective=weighted_sum_secrecy(alloc, channels, config),
        harvested=q,
        duality_gap=None,
        iterations=1,
        allocation=alloc,
        trace=[],
        metadata={
            "scheme": "suboptimal",
            "equal_power": p_eq,
        },
        n1=n1,
        n2=n2,
    )


def solve_fixed_alpha(config: SystemConfig, channels: ChannelRealization,
                      alpha0: float = 0.5,
                      options: SolverOptions | None = None) -> SolveReport:
    """Dual-optimal power and assignment with the split ratio pinned."""
    if not 0.0 <= alpha0 <= 1.0:
        raise DomainError("split ratio must lie in [0, 1]")
    # named as configs name it: alpha 0.5 is scheme "alpha05"
    name = "noan" if alpha0 == 0.0 else "alpha" + f"{alpha0:g}".replace(".", "")
    return solve_dual(config, channels, options, alpha_fixed=alpha0,
                      scheme=name)


def solve_noan(config: SystemConfig, channels: ChannelRealization,
               options: SolverOptions | None = None) -> SolveReport:
    """No artificial noise: identical to the fixed-alpha scheme at zero."""
    return solve_fixed_alpha(config, channels, 0.0, options)


def round_robin_assignment(config: SystemConfig) -> np.ndarray:
    x = np.zeros((config.num_irs, config.num_scs), dtype=int)
    x[np.arange(config.num_scs) % config.num_irs, np.arange(config.num_scs)] = 1
    return x


def solve_fsa(config: SystemConfig, channels: ChannelRealization,
              options: SolverOptions | None = None) -> SolveReport:
    """Fixed round-robin SC-to-IR map; (p, alpha) still jointly optimized."""
    return solve_dual(config, channels, options,
                      fixed_assign=round_robin_assignment(config),
                      scheme="fsa")


def noncancel_secrecy_rate(p, alpha, h2, b2, sigma2):
    """Secrecy rate when the intended receiver cannot cancel the AN.

    Nonincreasing in alpha, so its maximum over alpha is the alpha=0 (NoAN)
    value; AN without cancellation never helps here.
    """
    p = np.asarray(p, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    if np.any(p < 0):
        raise DomainError("power must be nonnegative")
    if np.any((alpha < 0) | (alpha > 1)):
        raise DomainError("split ratio must lie in [0, 1]")
    if np.any(np.asarray(h2) <= 0) or np.any(np.asarray(b2) <= 0) \
            or np.any(np.asarray(sigma2) <= 0):
        raise DomainError("gains and noise power must be positive")
    r_ir = np.log2(sigma2 + h2 * p) - np.log2(sigma2 + alpha * h2 * p)
    r_ev = np.log2(sigma2 + b2 * p) - np.log2(sigma2 + alpha * b2 * p)
    out = np.maximum(r_ir - r_ev, 0.0)
    return out if out.ndim else float(out)
