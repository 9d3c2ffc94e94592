"""Shared fixtures and oracle helpers for the test suite."""

from typing import NamedTuple

import numpy as np
import pytest

from ofdma_swipt import (ChannelRealization, ScenarioSpec, SystemConfig,
                         dbm_to_watts, generate_scenario)
from ofdma_swipt import vector

NOISE_DBM = -83.0
POWER_DBM = 37.0


def paper_system(n_sc=64, k1=4, k2=4, qbar_uw=100.0, p_max_dbm=POWER_DBM,
                 p_peak=np.inf):
    """Reference downlink configuration used throughout the experiments."""
    return SystemConfig(
        num_irs=k1, num_ers=k2, num_scs=n_sc,
        total_power=dbm_to_watts(p_max_dbm), peak_power=p_peak,
        noise_power=dbm_to_watts(NOISE_DBM),
        weights=np.ones(k1), harvest_eff=np.full(k2, 0.6),
        harvest_target=np.full(k2, qbar_uw * 1e-6))


def paper_channels(config, seed=0):
    return generate_scenario(config, ScenarioSpec(seed=seed))


class Ctx(NamedTuple):
    """Inputs of one (IR, SC) subproblem: maximize w*secrecy_rate + p*omega
    over p in [0, p_peak] and the split in [0, 1]."""

    h2: float  # IR channel power gain
    b2: float  # worst-case eavesdropper power gain
    sigma2: float  # noise power, watts
    weight: float  # IR weight
    omega: float  # dual price of transmit power
    p_peak: float  # per-SC power cap


def solve_one(ctx):
    """(p*, alpha*, value) of the per-SC kernel on one pair."""
    kernel = vector.Kernel([[ctx.h2]], [[ctx.b2]], ctx.sigma2, [ctx.weight],
                           ctx.p_peak)
    _, p, a, v, _, _ = kernel([ctx.omega])
    return float(p[0]), float(a[0]), float(v[0])


def random_context(rng):
    """Randomized per-subcarrier context spanning the numeric range seen in
    practice: unit noise and the thermal floor, gains over several decades."""
    sigma2 = 1.0 if rng.integers(2) == 0 else 5e-12
    h2 = sigma2 * 10.0 ** rng.uniform(-3.0, 3.0)
    b2 = sigma2 * 10.0 ** rng.uniform(-3.0, 3.0)
    w = 10.0 ** rng.uniform(-1.0, 1.0)
    p_scale = sigma2 / np.sqrt(h2 * b2)
    p_peak = rng.uniform(0.5, 50.0) * p_scale
    omega = rng.uniform(-1.0, 1.0) * w / p_scale
    return Ctx(h2=h2, b2=b2, sigma2=sigma2, weight=w, omega=omega,
               p_peak=p_peak)


def grid_best(ctx, num_p=1001, num_a=501):
    """Brute-force maximum of the per-SC objective on a (p, alpha) grid.

    Evaluated in normalized units (power scaled by sigma^2/sqrt(h2*b2)),
    where the objective value is scale-invariant; includes the (0, 0)
    skip point via the final clamp at zero. The grid is scanned 16 powers
    at a time against every split, the maximum the same as over the whole
    grid. At 1001 splits a block's arrays stay under 128 KiB, glibc
    malloc's default mmap threshold, so they reuse heap memory instead of
    faulting in fresh pages on every block.
    """
    p0 = ctx.sigma2 / np.sqrt(ctx.h2 * ctx.b2)
    h = np.sqrt(ctx.h2 / ctx.b2)
    b = 1.0 / h
    ps = np.linspace(0.0, ctx.p_peak / p0, num_p)
    als = np.linspace(0.0, 1.0, num_a)
    tops = [np.max(vector._value(ps[i:i + 16, None], als, h, b, ctx.weight,
                                 ctx.omega * p0))
            for i in range(0, num_p, 16)]
    return max(float(np.max(tops)), 0.0)


def synthetic_channels(rng, k1, k2, n_sc, spread=2.0):
    """Channel matrix with log-uniform gains around unity (unit-noise tests)."""
    gains = 10.0 ** rng.uniform(-spread, spread, size=(k1 + k2, n_sc))
    return ChannelRealization(gains=gains, num_irs=k1)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
