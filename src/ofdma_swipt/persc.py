"""One (IR, SC) pair of the per-subcarrier kernel in :mod:`ofdma_swipt.vector`.

Given the dual prices, each pair contributes
``L(p, a) = w * secrecy_rate(p, a) + p * omega``. The functions here take one
pair as a :class:`PerScContext` and answer with the batched kernel on a
one-element problem, so the tests that judge them judge the code the dual
loop runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import LN2, DomainError, optimal_split, secrecy_rate, threshold_x
from . import vector
from .vector import UnboundedSubproblemError


@dataclass(frozen=True)
class PerScContext:
    """Inputs of one (IR, SC) subproblem."""

    h2: float  # IR channel power gain
    b2: float  # worst-case eavesdropper power gain
    sigma2: float  # noise power, watts
    weight: float  # IR weight
    omega: float  # dual price term on transmit power
    p_peak: float  # per-SC power cap, may be math.inf

    def __post_init__(self):
        if self.h2 <= 0 or self.b2 <= 0 or self.sigma2 <= 0:
            raise DomainError("gains and noise power must be positive")
        if self.weight <= 0:
            raise DomainError("weight must be positive")
        if self.p_peak <= 0:
            raise DomainError("peak power must be positive")


def price_omega(lam: np.ndarray, gamma: float, zeta: np.ndarray,
                er_gains_on_sc: np.ndarray) -> float:
    """Dual price of transmit power on one SC: -gamma + sum_l lam_l zeta_l g_l."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    return float(-gamma + (lam * np.asarray(zeta) * np.asarray(er_gains_on_sc)).sum())


def optimal_alpha_given_p(p: float, ctx: PerScContext) -> float:
    """Best split ratio at fixed power: [1/2 + (s/2p)(1/h2 - 1/b2)] in [0, 1]."""
    if p <= 0:
        raise DomainError("power must be positive")
    return float(optimal_split(p, ctx.h2, ctx.b2, ctx.sigma2))


def lagrangian_value(p: float, alpha: float, ctx: PerScContext) -> float:
    """w * secrecy_rate + p * omega at one candidate."""
    if p == 0.0:
        return 0.0
    rs = secrecy_rate(p, alpha, ctx.h2, ctx.b2, ctx.sigma2)
    return ctx.weight * rs + p * ctx.omega


def lagrangian_dp(p: float, alpha: float, ctx: PerScContext) -> float:
    """Analytic d/dp of w*(rate_ir - rate_eve) + p*omega at fixed alpha."""
    h2, b2, s = ctx.h2, ctx.b2, ctx.sigma2
    term = ((1.0 - alpha) * h2 / (s + (1.0 - alpha) * h2 * p)
            - b2 / (s + b2 * p)
            + alpha * b2 / (s + alpha * b2 * p))
    return ctx.weight * term / LN2 + ctx.omega


def _in_window(roots, alphas, p0, h, b, p_peak):
    """(power, split) of the roots beyond the zero-rate threshold and within
    the cap, converted back from normalized units."""
    out = []
    for r, a in zip(roots, alphas):
        x_plus = max(threshold_x(a, h, b, 1.0), 0.0)
        if x_plus < r <= p_peak / p0:
            out.append((float(r * p0), float(a)))
    return out


def cubic_candidates(alpha: float, ctx: PerScContext) -> list[float]:
    """Stationary powers at fixed alpha within ([X(alpha)]^+, P_peak]."""
    if not 0.0 <= alpha <= 1.0:
        raise DomainError("split ratio must lie in [0, 1]")
    p0, h, b = vector.normalized(ctx.h2, ctx.b2, ctx.sigma2)
    roots = vector.fixed_alpha_roots(alpha, h, b, ctx.weight, ctx.omega * p0)
    pairs = _in_window(roots, [alpha] * len(roots), p0, h, b, ctx.p_peak)
    return sorted({p for p, _ in pairs})


def quadratic_candidates(ctx: PerScContext) -> list[tuple[float, float]]:
    """Joint (p, alpha*(p)) candidates from the alpha-eliminated stationarity.

    Includes the peak-power boundary pair when the cap is finite; with an
    infinite cap and a nonnegative power price the subproblem is unbounded.
    """
    if math.isinf(ctx.p_peak) and ctx.omega >= 0.0:
        raise UnboundedSubproblemError(
            "per-SC objective grows without bound at infinite peak power")
    p0, h, b = vector.normalized(ctx.h2, ctx.b2, ctx.sigma2)
    roots = vector.joint_roots(h, b, ctx.weight, ctx.omega * p0)
    out = _in_window(roots, optimal_split(roots, h, b, 1.0), p0, h, b, ctx.p_peak)
    if math.isfinite(ctx.p_peak):
        out.append((ctx.p_peak, optimal_alpha_given_p(ctx.p_peak, ctx)))
    return out


def solve_per_sc(ctx: PerScContext) -> tuple[float, float, float]:
    """Maximize w*secrecy_rate + p*omega; returns (p*, alpha*, value)."""
    p, a, v = vector.solve_all([[ctx.h2]], [[ctx.b2]], ctx.sigma2,
                               [ctx.weight], [ctx.omega], ctx.p_peak)
    return float(p[0, 0]), float(a[0, 0]), float(v[0, 0])
