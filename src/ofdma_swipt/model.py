"""Core domain types and closed-form physical-layer quantities.

All rates are in bits/s/Hz, powers in watts, channel gains are linear
(dimensionless) power gains. Every receiver other than the intended one is a
potential eavesdropper; the effective eavesdropper gain on a subcarrier is the
largest channel gain among all other receivers.

The reported objective is the weighted sum secrecy rate divided by the number
of subcarriers N (per-subcarrier band average). Multiply by N to recover the
unnormalized sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

LN2 = np.log(2.0)

#: relative tolerance for gain equality tests (|h|^2 == |beta|^2)
GAIN_RTOL = 1e-12


class DomainError(ValueError):
    """Input outside the physical domain (negative power, alpha not in [0,1], ...)."""


def _check(cond, msg):
    if not cond:
        raise DomainError(msg)


@dataclass
class SystemConfig:
    """Static system parameters: receiver counts, power budgets, targets.

    Receivers are indexed with the K1 information receivers (IRs) first and
    the K2 energy receivers (ERs) after them.
    """

    num_irs: int
    num_ers: int
    num_scs: int
    total_power: float
    peak_power: float  # may be math.inf
    noise_power: float
    weights: np.ndarray  # (K1,)
    harvest_eff: np.ndarray  # (K2,)
    harvest_target: np.ndarray  # (K2,), watts

    def __post_init__(self):
        self.weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        self.harvest_eff = np.atleast_1d(np.asarray(self.harvest_eff, dtype=float))
        self.harvest_target = np.atleast_1d(np.asarray(self.harvest_target, dtype=float))
        if self.num_ers == 0:
            self.harvest_eff = self.harvest_eff[:0]
            self.harvest_target = self.harvest_target[:0]
        _check(self.num_irs >= 1, "need at least one IR")
        _check(self.num_ers >= 0, "num_ers must be nonnegative")
        _check(self.num_scs >= 1, "need at least one subcarrier")
        _check(0 < self.total_power < np.inf,
               "total_power must be positive and finite")
        _check(self.peak_power > 0, "peak_power must be positive")
        _check(0 < self.noise_power < np.inf,
               "noise_power must be positive and finite")
        _check(self.weights.shape == (self.num_irs,), "weights shape mismatch")
        _check(np.all((self.weights > 0) & (self.weights < np.inf)),
               "weights must be positive and finite")
        _check(self.harvest_eff.shape == (self.num_ers,), "harvest_eff shape mismatch")
        _check(self.harvest_target.shape == (self.num_ers,), "harvest_target shape mismatch")
        if self.num_ers:
            _check(np.all((self.harvest_eff > 0) & (self.harvest_eff < 1)),
                   "harvest efficiencies must lie in (0, 1)")
            _check(np.all((self.harvest_target >= 0) & (self.harvest_target < np.inf)),
                   "harvest targets must be nonnegative and finite")

    @property
    def num_receivers(self) -> int:
        return self.num_irs + self.num_ers


def eavesdropper_gains(gains: np.ndarray, num_irs: int | None = None) -> np.ndarray:
    """Worst-case eavesdropper gain per (receiver, subcarrier).

    ``out[k, n] = max_{k' != k} gains[k', n]`` for the first ``num_irs`` rows
    (all rows when ``num_irs`` is None). Requires at least two receivers.
    """
    gains = np.asarray(gains, dtype=float)
    K = gains.shape[0]
    if K < 2:
        raise DomainError("need at least two receivers for an eavesdropper to exist")
    if num_irs is None:
        num_irs = K
    # top-2 values per column; max-of-others is the runner-up for the argmax row
    order = np.argsort(gains, axis=0)
    top = gains[order[-1], np.arange(gains.shape[1])]
    second = gains[order[-2], np.arange(gains.shape[1])]
    out = np.broadcast_to(top, (num_irs, gains.shape[1])).copy()
    is_top = order[-1][None, :] == np.arange(num_irs)[:, None]
    out[is_top] = np.broadcast_to(second, out.shape)[is_top]
    return out


@dataclass
class ChannelRealization:
    """Per-receiver per-subcarrier power gains plus cached eavesdropper gains."""

    gains: np.ndarray  # (K, N), IRs first
    num_irs: int
    eve_gains: np.ndarray = field(init=False)  # (K1, N)

    def __post_init__(self):
        self.gains = np.asarray(self.gains, dtype=float)
        _check(np.all(np.isfinite(self.gains)) and np.all(self.gains > 0),
               "channel gains must be strictly positive and finite")
        _check(1 <= self.num_irs <= self.gains.shape[0], "num_irs out of range")
        self.eve_gains = eavesdropper_gains(self.gains, self.num_irs)

    @property
    def num_scs(self) -> int:
        return self.gains.shape[1]

    @property
    def ir_gains(self) -> np.ndarray:
        return self.gains[: self.num_irs]

    @property
    def er_gains(self) -> np.ndarray:
        return self.gains[self.num_irs:]


@dataclass
class Allocation:
    """Subcarrier assignment, per-SC transmit power and AN split ratio."""

    assign: np.ndarray  # (K1, N) in {0,1}
    power: np.ndarray  # (K1, N) watts
    split: np.ndarray  # (K1, N) in [0,1]

    def __post_init__(self):
        self.assign = np.asarray(self.assign, dtype=int)
        self.power = np.asarray(self.power, dtype=float)
        self.split = np.asarray(self.split, dtype=float)

    def validate(self, config: SystemConfig, tol: float = 1e-9) -> None:
        _check(np.all(self.assign.sum(axis=0) <= 1), "subcarrier assigned to >1 IR")
        off = self.assign == 0
        _check(np.all(self.power[off] == 0) and np.all(self.split[off] == 0),
               "power/split must be zero on unassigned pairs")
        _check(np.all(self.power >= 0), "negative power")
        _check(np.all(self.power <= config.peak_power * (1 + 1e-12) + tol),
               "peak power exceeded")
        _check((self.assign * self.power).sum() <= config.total_power + tol,
               "total power exceeded")
        _check(np.all((self.split >= 0) & (self.split <= 1)), "split outside [0,1]")

    @property
    def sc_power(self) -> np.ndarray:
        """Total transmit power per subcarrier."""
        return (self.assign * self.power).sum(axis=0)


def _validate_rate_inputs(p, alpha, sigma2, *gains):
    """DomainError unless p >= 0, 0 <= alpha <= 1, sigma2 > 0, gains > 0."""
    p = np.asarray(p, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    if np.any(p < 0):
        raise DomainError("power must be nonnegative")
    if np.any((alpha < 0) | (alpha > 1)):
        raise DomainError("split ratio must lie in [0, 1]")
    if np.any(np.asarray(sigma2) <= 0):
        raise DomainError("noise power must be positive")
    if any(np.any(np.asarray(g) <= 0) for g in gains):
        raise DomainError("channel gain must be positive")
    return p, alpha


def rate_ir(p, alpha, h2, sigma2):
    """Information rate of the intended receiver after AN cancellation."""
    p, alpha = _validate_rate_inputs(p, alpha, sigma2, h2)
    return np.log1p((1.0 - alpha) * h2 * p / sigma2) / LN2


def rate_eve(p, alpha, b2, sigma2):
    """Decodable rate of the worst-case eavesdropper (AN not cancellable)."""
    p, alpha = _validate_rate_inputs(p, alpha, sigma2, b2)
    # 1 + (1-a) b2 p / (s + a b2 p) == (s + b2 p) / (s + a b2 p)
    return (np.log1p(b2 * p / sigma2) - np.log1p(alpha * b2 * p / sigma2)) / LN2


def threshold_x(alpha, h2, b2, sigma2):
    """Power threshold below which the secrecy rate is exactly zero.

    Extended-real valued: for alpha == 0 the threshold is +inf when
    b2 >= h2 and -inf otherwise (a tie maps to +inf). Callers clamp with
    ``max(., 0)`` before use.
    """
    alpha = np.asarray(alpha, dtype=float)
    h2a = np.asarray(h2, dtype=float)
    b2a = np.asarray(b2, dtype=float)
    if np.any((alpha < 0) | (alpha > 1)):
        raise DomainError("split ratio must lie in [0, 1]")
    if np.any(h2a <= 0) or np.any(b2a <= 0) or np.any(np.asarray(sigma2) <= 0):
        raise DomainError("gains and noise power must be positive")
    out = _threshold(alpha, h2a, b2a, sigma2)
    return out if out.ndim else float(out)


def _threshold(alpha, h2, b2, sigma2):
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        finite = (sigma2 / alpha) * (1.0 / h2 - 1.0 / b2)
    at_zero = np.where(b2 >= h2, np.inf, -np.inf)
    return np.where(alpha == 0.0, at_zero, finite)


def _secrecy_rate(p, alpha, h2, b2, sigma2):
    """Secrecy rate without input checks; the one rate expression.

    rate_ir - rate_eve simplifies exactly to
    log2(1 + (1-a) p [s (h2 - b2) + a h2 b2 p] / (s (s + b2 p))), which has no
    cancellation between two logarithms. The bracket's sign is the threshold
    test; the rate is gated on ``p > [threshold_x]^+`` so that it is zero
    exactly below the threshold and positive beyond it.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = ((1.0 - alpha) * p * (sigma2 * (h2 - b2) + alpha * h2 * b2 * p)
                / (sigma2 * (sigma2 + b2 * p)))
        rs = np.log1p(gain) / LN2
    x_plus = np.maximum(_threshold(alpha, h2, b2, sigma2), 0.0)
    return np.where(p > x_plus, np.maximum(rs, 0.0), 0.0)


def secrecy_rate(p, alpha, h2, b2, sigma2):
    """Achievable secrecy rate: [rate_ir - rate_eve]^+.

    Exactly zero for p <= [threshold_x]^+ and strictly positive beyond it.
    """
    p, alpha = _validate_rate_inputs(p, alpha, sigma2, h2, b2)
    out = _secrecy_rate(p, alpha, h2, b2, sigma2)
    return out if out.ndim else float(out)


def optimal_split(p, h2, b2, sigma2):
    """Best split ratio at fixed power: [1/2 + (s/2p)(1/h2 - 1/b2)] clipped
    to [0, 1].

    Values above one only arise inside the zero-rate region, where the
    secrecy rate is zero whatever the split, so the clip is harmless there;
    wherever the rate is positive the result is below one.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        a = 0.5 + (sigma2 / (2.0 * p)) * (1.0 / h2 - 1.0 / b2)
    return np.clip(a, 0.0, 1.0)


def all_harvested_powers(alloc: Allocation, channels: ChannelRealization,
                         config: SystemConfig) -> np.ndarray:
    """Harvested power of every ER, as a (K2,) vector."""
    if config.num_ers == 0:
        return np.zeros(0)
    return config.harvest_eff * (channels.er_gains @ alloc.sc_power)


def weighted_sum_secrecy(alloc: Allocation, channels: ChannelRealization,
                         config: SystemConfig) -> float:
    """Band-averaged weighted sum secrecy rate (bits/s/Hz, divided by N)."""
    rs = secrecy_rate(alloc.power, alloc.split, channels.ir_gains,
                      channels.eve_gains, config.noise_power)
    total = (config.weights[:, None] * alloc.assign * rs).sum()
    return float(total) / config.num_scs
