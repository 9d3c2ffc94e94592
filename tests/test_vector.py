"""Batched per-subcarrier kernel: shapes, batch consistency, domain and
boundary cases, reuse of one kernel across prices, and an independent
power-grid oracle for the fixed-split path."""

import numpy as np
import pytest

from ofdma_swipt import UnboundedSubproblemError, solve, vector
from ofdma_swipt.model import secrecy_rate

from conftest import (Ctx, paper_channels, paper_system, random_context,
                      solve_one)


def test_fixed_alpha_path_matches_power_grid(rng):
    # with the split pinned the objective is one-dimensional in p: scan
    # 200 001 powers in [0, P_peak] (p = 0 is the skip) in normalized units
    for i in range(200):
        ctx = random_context(rng)
        alpha0 = 0.0 if i % 4 == 0 else float(rng.uniform(0.0, 0.9))
        _, _, v = vector.solve_all(np.array([[ctx.h2]]), np.array([[ctx.b2]]),
                                   ctx.sigma2, np.array([ctx.weight]),
                                   np.array([ctx.omega]), ctx.p_peak,
                                   alpha_fixed=alpha0)
        v = float(v[0, 0])
        p0, h, b = vector.normalized(ctx.h2, ctx.b2, ctx.sigma2)
        ps = np.linspace(0.0, ctx.p_peak / p0, 200_001)
        grid = float(np.max(ctx.weight * secrecy_rate(ps, alpha0, h, b, 1.0)
                            + ps * ctx.omega * p0))
        tol = 1e-6 * (1.0 + abs(v))
        assert grid - tol <= v <= grid + tol, f"draw {i}: {v!r} vs grid {grid!r}"


def test_batch_shapes_and_consistency(rng):
    k1, n = 3, 5
    h = 10.0 ** rng.uniform(-2, 2, size=(k1, n))
    b = 10.0 ** rng.uniform(-2, 2, size=(k1, n))
    w = rng.uniform(0.5, 2.0, size=k1)
    om = rng.uniform(-0.5, 0.5, size=n)
    p, a, v = vector.solve_all(h, b, 1.0, w, om, 10.0)
    assert p.shape == a.shape == v.shape == (k1, n)
    for k in range(k1):
        for j in range(n):
            ctx = Ctx(h2=h[k, j], b2=b[k, j], sigma2=1.0, weight=w[k],
                      omega=om[j], p_peak=10.0)
            _, _, v_ref = solve_one(ctx)
            assert v[k, j] == pytest.approx(v_ref, rel=1e-6,
                                            abs=1e-9 * (1 + abs(v_ref)))


def test_requires_finite_cap():
    with pytest.raises(ValueError):
        vector.solve_all(np.ones((1, 1)), np.ones((1, 1)), 1.0,
                         np.ones(1), np.zeros(1), np.inf)


def test_skip_fallback_returns_zeros():
    # eavesdropper dominant, negative price: skipping the SC is optimal
    p, a, v = vector.solve_all(np.array([[1.0]]), np.array([[4.0]]), 1.0,
                               np.ones(1), np.array([-1.0]), 0.1)
    assert (p[0, 0], a[0, 0], v[0, 0]) == (0.0, 0.0, 0.0)


def test_energy_only_pair_sends_no_noise():
    # eavesdropper dominant, positive price: full power for harvesting only;
    # no split carries secrecy rate, and the reported one is 0, not 1
    p, a, v = vector.solve_all(np.array([[1.0]]), np.array([[4.0]]), 1.0,
                               np.ones(1), np.array([1.0]), 0.5)
    assert (p[0, 0], a[0, 0], v[0, 0]) == (0.5, 0.0, 0.5)


@pytest.mark.parametrize("alpha", [None, 0.0, 0.5], ids=["free", "noan", "alpha05"])
@pytest.mark.parametrize("qbar_uw, seed", [(100.0, 0), (400.0, 10)],
                         ids=["paper-draw-0", "400uW-draw-10"])
def test_kernel_reuse_matches_fresh_solve_all(monkeypatch, alpha, qbar_uw, seed):
    # the prices of a real solve, recorded at the kernel's door
    prices = []
    call = vector.Kernel.__call__

    def recording(kern, omega):
        prices.append(np.array(omega))
        return call(kern, omega)

    monkeypatch.setattr(vector.Kernel, "__call__", recording)
    cfg = paper_system(qbar_uw=qbar_uw)
    ch = paper_channels(cfg, seed)
    solve(cfg, ch)
    monkeypatch.undo()
    n = cfg.num_scs
    negative = -np.abs(prices[0]) * np.linspace(0.5, 2.0, n)
    seq = prices + [negative, np.zeros(n)] + prices[:3]
    args = (ch.ir_gains, ch.eve_gains, cfg.noise_power, cfg.weights)

    def same(got, om, cap):
        ref = vector.solve_all(*args, om, cap, alpha_fixed=alpha)
        for x, y in zip(got, ref):
            assert x.tobytes() == y.tobytes()  # sign bits and NaNs included

    kern = vector.Kernel(*args, cfg.total_power, alpha)
    for om in seq:
        same(kern(om), om, cfg.total_power)
    # an infinite cap is bounded only where every price is negative; the
    # first evaluation's prices, -gamma0, are
    uncapped = vector.Kernel(*args, np.inf, alpha)
    for om in (prices[0], negative):
        same(uncapped(om), om, np.inf)
    with pytest.raises(UnboundedSubproblemError):
        uncapped(np.zeros(n))
    same(uncapped(negative), negative, np.inf)
    cached = [v for v in vars(kern).values() if isinstance(v, np.ndarray)]
    assert len(cached) >= 8 and not any(v.flags.writeable for v in cached)
    with pytest.raises(ValueError):
        kern.p_fix[0] = 0.0
