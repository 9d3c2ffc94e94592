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
#: absolute slack, in watts, of the power budgets in Allocation.validate
POWER_ATOL = 1e-9


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
    # max-of-others is the top value, or the runner-up on the row holding it
    second, top = np.sort(gains, axis=0)[-2:]
    return np.where(gains[:num_irs] == top, second, top)


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
    def ir_gains(self) -> np.ndarray:
        return self.gains[: self.num_irs]

    @property
    def er_gains(self) -> np.ndarray:
        return self.gains[self.num_irs:]


@dataclass(slots=True)
class Allocation:
    """Per SC: the owning IR (-1 for none), transmit power and AN split, so
    no SC can have two owners. ``assign``, ``power`` and ``split`` are
    read-only (K1, N) views of the same data."""

    owner: np.ndarray  # (N,) int32 in [-1, K1)
    sc_power: np.ndarray  # (N,) watts
    sc_split: np.ndarray  # (N,) in [0,1]
    num_irs: int

    def __post_init__(self):
        # int32, not int64: every report holds one, and a caller may keep
        # thousands of reports
        self.owner = np.asarray(self.owner, dtype=np.int32)
        self.sc_power = np.asarray(self.sc_power, dtype=float)
        self.sc_split = np.asarray(self.sc_split, dtype=float)

    def validate(self, config: SystemConfig) -> None:
        _check(self.num_irs == config.num_irs
               and np.all((self.owner >= -1) & (self.owner < config.num_irs)),
               "owner must lie in [-1, K1)")
        off = self.owner < 0
        _check(np.all(self.sc_power[off] == 0) and np.all(self.sc_split[off] == 0),
               "power/split must be zero on unassigned SCs")
        _check(np.all(self.sc_power >= 0), "negative power")
        _check(np.all(self.sc_power <= config.peak_power * (1 + 1e-12) + POWER_ATOL),
               "peak power exceeded")
        _check(self.sc_power.sum() <= config.total_power + POWER_ATOL,
               "total power exceeded")
        _check(np.all((self.sc_split >= 0) & (self.sc_split <= 1)),
               "split outside [0,1]")

    def _on_owner(self, per_sc) -> np.ndarray:
        """Read-only (K1, N): ``per_sc`` at each SC's owner, 0 elsewhere."""
        out = np.where(self.owner == np.arange(self.num_irs)[:, None], per_sc, 0)
        out.setflags(write=False)
        return out

    assign = property(lambda self: self._on_owner(np.int8(1)))  # int8 one-hot
    power = property(lambda self: self._on_owner(self.sc_power))
    split = property(lambda self: self._on_owner(self.sc_split))


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
    _, alpha = _validate_rate_inputs(0.0, alpha, sigma2, h2, b2)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = _threshold(alpha, np.asarray(h2, dtype=float),
                         np.asarray(b2, dtype=float), sigma2)
    return out if out.ndim else float(out)


def _threshold(alpha, h2, b2, sigma2):
    """:func:`threshold_x` without input checks; callers ignore divide,
    invalid and overflow errors around it (sigma2 / 0 at alpha = 0)."""
    finite = np.divide(sigma2, alpha) * (1.0 / h2 - 1.0 / b2)
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
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
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
    """Best split ratio at fixed power: a = 1/2 + (s/2p)(1/h2 - 1/b2),
    clipped at 0, and 0 where a >= 1 or p = 0.

    a >= 1 exactly where p <= s (1/h2 - 1/b2), the zero-rate region, where
    no split has secrecy rate: sending no artificial noise there costs
    nothing, so the split is 0, the one rule for a rate-free SC. No split
    has rate at p = 0 either, so the split is 0 there at any gains, also
    where h2 = b2 and the formula reads inf * 0. Wherever the rate is
    positive, a < 1.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        a = 0.5 + np.divide(sigma2, 2.0 * p) * (1.0 / h2 - 1.0 / b2)
    return np.maximum(np.where((a >= 1.0) | (p == 0), 0.0, a), 0.0)


def all_harvested_powers(alloc: Allocation, channels: ChannelRealization,
                         config: SystemConfig) -> np.ndarray:
    """Harvested power of every ER, as a (K2,) vector."""
    return config.harvest_eff * (channels.er_gains @ alloc.sc_power)


def _weighted_sum_secrecy(owner, power, split, ir_gains, eve_gains, weights,
                          sigma2) -> float:
    """Weighted sum secrecy rate over the band, not divided by N, without
    input checks: (N,) owners in [-1, K1), powers and splits, (K1, N) IR
    and eavesdropper gains, (K1,) weights; the one sum formula."""
    n = owner.size
    at = owner * n + np.arange(n)  # flat (owner, SC) indexes
    # an unassigned SC (owner -1) reads the last IR's entries; the sum runs
    # over owned SCs only
    rs = _secrecy_rate(power, split, ir_gains.take(at), eve_gains.take(at),
                       sigma2)
    owned = np.where(owner >= 0, weights.take(owner) * rs, 0.0)
    return float(owned.sum())


def weighted_sum_secrecy(alloc: Allocation, channels: ChannelRealization,
                         config: SystemConfig) -> float:
    """Band-averaged weighted sum secrecy rate (bits/s/Hz, divided by N)."""
    _validate_rate_inputs(alloc.sc_power, alloc.sc_split, config.noise_power,
                          channels.ir_gains, channels.eve_gains)
    return _weighted_sum_secrecy(alloc.owner, alloc.sc_power, alloc.sc_split,
                                 channels.ir_gains, channels.eve_gains,
                                 config.weights,
                                 config.noise_power) / config.num_scs
