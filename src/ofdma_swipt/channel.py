"""Monte-Carlo channel generation: geometry, path loss, multipath fading.

Receivers are dropped uniformly by distance (information receivers across the
cell, energy receivers in a small disc near the base station). Small-scale
fading is an N-point frequency response of i.i.d. complex-Gaussian taps with
unit total average power, so E[|H(n)|^2] = 1 per subcarrier and
sum_n |H(n)|^2 / N equals the tap energy (numpy FFT convention) when N is at
least the number of taps; with fewer subcarriers the taps fold modulo N,
which keeps E[|H(n)|^2] = 1.

Every receiver draws its distance and taps from its own child of the seed
sequence, so adding receivers never perturbs the channels of existing ones:
one uniform distance, whose loss is a scalar :func:`path_loss` call, then one
normal draw of 2L values, the L real parts of its taps and then the L
imaginary parts. The taps of all receivers sit in one zero-padded array,
folded and sent through one FFT over a (K, N) array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ChannelRealization, DomainError, SystemConfig, _is_count

SPEED_OF_LIGHT = 299_792_458.0

#: reference distance anchoring the path-loss model, meters
D_REF = 1.0


@dataclass
class ScenarioSpec:
    cell_radius: float = 200.0
    er_radius: float = 2.0
    carrier: float = 900e6
    pathloss_exp: float = 3.0
    num_taps: int = 8
    seed: int = 0

    def __post_init__(self):
        for name in ("cell_radius", "er_radius", "carrier", "pathloss_exp"):
            if not 0 < getattr(self, name) < np.inf:  # False for NaN too
                raise DomainError(f"{name} must be positive and finite")
        for name in ("cell_radius", "er_radius"):
            # receivers are dropped at distances in [D_REF, radius]
            if getattr(self, name) < D_REF:
                raise DomainError(f"{name} below the reference distance {D_REF} m")
        if not _is_count(self.num_taps, 1):
            raise DomainError("num_taps must be an integer >= 1")


def dbm_to_watts(x: float) -> float:
    try:
        return 10.0 ** ((x - 30.0) / 10.0)
    except OverflowError:
        raise DomainError(f"{x} dBm overflows a float in watts") from None


def watts_to_dbm(w: float) -> float:
    if not w > 0:  # True for NaN too
        raise DomainError("power must be positive to express in dBm")
    return 10.0 * np.log10(w) + 30.0


def path_loss(d: float, spec: ScenarioSpec) -> float:
    """Linear power gain at distance d: free-space anchor at 1 m, then
    exponent decay."""
    if not (np.asarray(d) >= D_REF).all():  # True for NaN too
        raise DomainError(f"distance below reference {D_REF} m or NaN")
    g0 = (SPEED_OF_LIGHT / (4.0 * np.pi * spec.carrier * D_REF)) ** 2
    return g0 * (D_REF / d) ** spec.pathloss_exp


def generate_scenario(config: SystemConfig, spec: ScenarioSpec) -> ChannelRealization:
    """Draw one deterministic channel realization for the given seed."""
    n, k_all, num_taps = config.num_scs, config.num_receivers, spec.num_taps
    loss = np.empty(k_all)
    normals = np.empty((k_all, 2 * num_taps))  # per row: real, then imaginary
    for k, child in enumerate(np.random.SeedSequence(spec.seed).spawn(k_all)):
        rng = np.random.default_rng(child)
        radius = spec.cell_radius if k < config.num_irs else spec.er_radius
        # a Python float: an array power rounds differently
        loss[k] = path_loss(rng.uniform(D_REF, radius), spec)
        rng.standard_normal(out=normals[k])
    # taps beyond n fold onto tap l mod n: the n-point DFT of the response;
    # the columns past num_taps stay 0
    taps = np.zeros((k_all, num_taps + -num_taps % n), dtype=complex)
    taps[:, :num_taps] = normals[:, :num_taps] + 1j * normals[:, num_taps:]
    taps *= np.sqrt(1.0 / (2.0 * num_taps))  # unit total mean power
    freq = np.fft.fft(taps.reshape(k_all, -1, n).sum(axis=1), axis=1)
    gains = loss[:, None] * np.abs(freq) ** 2
    return ChannelRealization(gains=gains, num_irs=config.num_irs)
