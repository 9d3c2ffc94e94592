"""The scheme table and one ``solve`` that runs any scheme; the two-stage
suboptimal allocator and the non-cancelable-AN secrecy rate.

Besides the jointly optimal dual method, the benchmarks are the staged
equal-power heuristic, a fixed round-robin assignment (FSA), the split pinned
at one half, and no AN (the split pinned at zero); a pinned scheme still
dual-optimizes what it does not pin. The non-cancelable-AN rate backs the
claim that AN without receiver-side cancellation never beats plain
transmission.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .model import (Allocation, ChannelRealization, SystemConfig,
                    _validate_rate_inputs, all_harvested_powers,
                    optimal_split, secrecy_rate, weighted_sum_secrecy)
from .dual import (InfeasibleProblemError, SolveReport, SolverOptions,
                   solve_dual)


class Scheme(NamedTuple):
    """How a scheme runs: the dual method, with the split or the
    assignment optionally pinned, or the equal-power heuristic."""
    alpha: float | None = None  # the pinned split ratio
    round_robin: bool = False  # the pinned round-robin assignment
    equal_power: bool = False  # the dual-free staged heuristic


SCHEMES = {
    "optimal": Scheme(),
    "suboptimal": Scheme(equal_power=True),
    "fsa": Scheme(round_robin=True),
    "alpha05": Scheme(alpha=0.5),
    "noan": Scheme(alpha=0.0),
}

DEFAULT_SCHEME = "optimal"


def solve(config: SystemConfig, channels: ChannelRealization,
          scheme: str = DEFAULT_SCHEME,
          options: SolverOptions | None = None) -> SolveReport:
    """Run the scheme named ``scheme``; its name goes into the metadata."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; "
                         f"choose one of {tuple(SCHEMES)}")
    how = SCHEMES[scheme]
    if how.equal_power:
        report = solve_suboptimal(config, channels)
    else:
        assign = round_robin_assignment(config) if how.round_robin else None
        report = solve_dual(config, channels, options, alpha_fixed=how.alpha,
                            fixed_assign=assign)
    report.metadata["scheme"] = scheme
    return report


def solve_suboptimal(config: SystemConfig,
                     channels: ChannelRealization) -> SolveReport:
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
    return SolveReport(
        objective=weighted_sum_secrecy(alloc, channels, config),
        harvested=q,
        duality_gap=None,
        iterations=1,
        allocation=alloc,
        trace=[],
        metadata={"n1": n1, "n2": n2, "equal_power": p_eq},
    )


def round_robin_assignment(config: SystemConfig) -> np.ndarray:
    x = np.zeros((config.num_irs, config.num_scs), dtype=int)
    x[np.arange(config.num_scs) % config.num_irs, np.arange(config.num_scs)] = 1
    return x


def noncancel_secrecy_rate(p, alpha, h2, b2, sigma2):
    """Secrecy rate when the intended receiver cannot cancel the AN.

    Nonincreasing in alpha, so its maximum over alpha is the alpha=0 (NoAN)
    value; AN without cancellation never helps here.
    """
    p, alpha = _validate_rate_inputs(p, alpha, sigma2, h2, b2)
    r_ir = np.log2(sigma2 + h2 * p) - np.log2(sigma2 + alpha * h2 * p)
    r_ev = np.log2(sigma2 + b2 * p) - np.log2(sigma2 + alpha * b2 * p)
    out = np.maximum(r_ir - r_ev, 0.0)
    return out if out.ndim else float(out)
