"""Batched per-subcarrier kernel: shapes, batch consistency, pinned owners,
domain and boundary cases, reuse of one kernel across prices, and an
independent power-grid oracle for the fixed-split path."""

import numpy as np
import pytest

from ofdma_swipt import UnboundedSubproblemError, solve, vector
from ofdma_swipt.model import LN2, secrecy_rate

from conftest import (Ctx, paper_channels, paper_system, random_context,
                      solve_one)


def test_fixed_alpha_path_matches_power_grid(rng):
    # with the split pinned the objective is one-dimensional in p: scan
    # 200 001 powers in [0, P_peak] (p = 0 is the skip) in normalized units
    for i in range(200):
        ctx = random_context(rng)
        alpha0 = 0.0 if i % 4 == 0 else float(rng.uniform(0.0, 0.9))
        kernel = vector.Kernel(np.array([[ctx.h2]]), np.array([[ctx.b2]]),
                               ctx.sigma2, np.array([ctx.weight]), ctx.p_peak,
                               alpha_fixed=alpha0)
        v = float(kernel(np.array([ctx.omega]))[3][0])
        p0, h, b = vector.normalized(ctx.h2, ctx.b2, ctx.sigma2)
        ps = np.linspace(0.0, ctx.p_peak / p0, 200_001)
        grid = float(np.max(ctx.weight * secrecy_rate(ps, alpha0, h, b, 1.0)
                            + ps * ctx.omega * p0))
        tol = 1e-6 * (1.0 + abs(v))
        assert grid - tol <= v <= grid + tol, f"draw {i}: {v!r} vs grid {grid!r}"


def test_batch_shapes_and_consistency(rng):
    # each SC's winner is its best pair's 1x1 kernel, or the skip
    k1, n = 3, 5
    h = 10.0 ** rng.uniform(-2, 2, size=(k1, n))
    b = 10.0 ** rng.uniform(-2, 2, size=(k1, n))
    w = rng.uniform(0.5, 2.0, size=k1)
    om = rng.uniform(-0.5, 0.5, size=n)
    owner, p, a, v, dp = vector.Kernel(h, b, 1.0, w, 10.0)(om)
    assert owner.shape == p.shape == a.shape == v.shape == dp.shape == (n,)
    for j in range(n):
        ref = [solve_one(Ctx(h2=h[k, j], b2=b[k, j], sigma2=1.0, weight=w[k],
                             omega=om[j], p_peak=10.0)) for k in range(k1)]
        best = max(r[2] for r in ref)
        if best <= 0.0:
            assert (owner[j], p[j], a[j], v[j], dp[j]) == (-1, 0.0, 0.0, 0.0, 0.0)
            continue
        p_ref, a_ref, v_ref = ref[owner[j]]
        assert v_ref == best
        assert (p[j], a[j], v[j]) == pytest.approx(
            (p_ref, a_ref, v_ref), rel=1e-6, abs=1e-9 * (1 + abs(v_ref)))


def test_pinned_owner_is_its_pairs_kernel(rng):
    # a pinned SC is its pinned pair's 1x1 kernel to the bit, and keeps
    # its owner where that pair skips
    k1, n, cap = 4, 64, 10.0
    h = 10.0 ** rng.uniform(-2, 2, size=(k1, n))
    b = 10.0 ** rng.uniform(-2, 2, size=(k1, n))
    w = rng.uniform(0.5, 2.0, size=k1)
    pin = rng.integers(0, k1, size=n)
    for alpha in (None, 0.0, 0.5):
        om = rng.uniform(-0.5, 0.5, size=n)
        owner, *got = vector.Kernel(h, b, 1.0, w, cap, alpha, pin)(om)
        assert owner.tolist() == pin.tolist()
        assert np.any(got[0] == 0.0) and np.any(got[0] > 0.0)
        for j, k in enumerate(pin):
            ref = vector.Kernel([[h[k, j]]], [[b[k, j]]], 1.0, [w[k]], cap,
                                alpha)(om[j:j + 1])[1:]
            assert [x[j].tobytes() for x in got] == [y[0].tobytes() for y in ref]


@pytest.mark.parametrize("a2", [1e-20, 1e-14, 1.0])
def test_quad_roots_keep_the_large_root(a2):
    # (a2 x - 1)(x - 1): at a tiny a2 the root 1/a2 is still real, and
    # dropping it lost the best candidate at huge power budgets
    r = vector._quad_roots(a2, -(1.0 + a2), 1.0)
    assert sorted(r.tolist()) == pytest.approx(sorted([1.0, 1.0 / a2]), rel=1e-12)


def test_quad_roots_slots():
    # q / a2 first and c2 / q second; at a2 = 0 the linear root is the
    # second, and a negative discriminant leaves both absent
    assert vector._quad_roots(1e-20, 1.0, -1.0).tolist() == [-1e20, 1.0]
    r1, r2 = vector._quad_roots(np.array([0.0, 1.0]), np.array([2.0, 0.0]),
                                np.array([-1.0, 1.0]))
    assert np.isnan(r1).all() and r2[0] == 0.5 and np.isnan(r2[1])


def test_requires_finite_cap():
    with pytest.raises(ValueError):
        vector.Kernel(np.ones((1, 1)), np.ones((1, 1)), 1.0, np.ones(1),
                      np.inf)(np.zeros(1))


def test_skip_fallback_returns_zeros():
    # eavesdropper dominant, negative price: skipping the SC is optimal
    out = vector.Kernel(np.array([[1.0]]), np.array([[4.0]]), 1.0,
                        np.ones(1), 0.1)(np.array([-1.0]))
    assert [x[0] for x in out] == [-1, 0.0, 0.0, 0.0, 0.0]


def test_energy_only_pair_sends_no_noise(rng):
    # eavesdropper dominant, positive price: full power for harvesting only;
    # no split carries secrecy rate, and the reported one is 0, not 1
    out = vector.Kernel(np.array([[1.0]]), np.array([[4.0]]), 1.0,
                        np.ones(1), 0.5)(np.array([1.0]))
    assert [x[0] for x in out] == [0, 0.5, 0.0, 0.5, 0.0]
    # the same below sigma2 (1/h2 - 1/b2), where no split has secrecy rate
    for _ in range(500):
        ctx = random_context(rng)
        h2, b2 = sorted((ctx.h2, ctx.b2))
        if h2 == b2:
            continue
        cap = rng.uniform(0.01, 1.0) * ctx.sigma2 * (1.0 / h2 - 1.0 / b2)
        ctx = ctx._replace(h2=h2, b2=b2, omega=abs(ctx.omega), p_peak=cap)
        p, a, _ = solve_one(ctx)
        assert (p, a) == (pytest.approx(cap, rel=1e-12), 0.0)


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
        ref = vector.Kernel(*args, cap, alpha)(om)
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


def _winner(kern, om):
    """(p, dp/domega, root slot) of a one-pair kernel at price ``om``; the
    slot counts the roots row by row and is None where a boundary candidate
    or the skip won. Every row of a one-pair kernel is that pair's."""
    _, p, _, _, dp = kern(np.array([om]))
    p, dp = float(p[0]), float(dp[0])
    roots = kern.roots(om * kern.p0)[0].T.ravel() * kern.p0[0]
    hit = np.flatnonzero(np.isclose(roots, p, rtol=1e-12, atol=0.0))
    return p, dp, (int(hit[0]) if p > 0 and hit.size else None)


# root slots of each kind: with a free split the joint quadratic's two on
# the pair's row and the alpha = 0 quadratic's two on its extra row (h2 >
# b2); with a pinned split the cubic's three (at split 0 a quadratic's two)
@pytest.mark.parametrize("alpha, slots", [
    (None, (0, 1)), (None, (2, 3)), (0.5, (0, 1, 2)), (0.0, (0, 1))],
    ids=["free-joint", "free-alpha0", "alpha05-cubic", "noan-quadratic"])
def test_power_slope_matches_central_difference(rng, alpha, slots):
    # where the winner stays the same root at omega +- step, dp/domega is
    # the slope of the kernel's own p
    checked = 0
    for _ in range(3000):
        ctx = random_context(rng)
        kern = vector.Kernel([[ctx.h2]], [[ctx.b2]], ctx.sigma2, [ctx.weight],
                             ctx.p_peak, alpha)
        p, dp, slot = _winner(kern, ctx.omega)
        if slot not in slots:
            continue
        step = 1e-6 * abs(ctx.omega)
        p_hi, _, slot_hi = _winner(kern, ctx.omega + step)
        p_lo, _, slot_lo = _winner(kern, ctx.omega - step)
        if slot_hi != slot or slot_lo != slot:
            continue
        fd = (p_hi - p_lo) / (2.0 * step)
        assert dp > 0.0
        assert fd == pytest.approx(dp, rel=1e-5)
        checked += 1
        if checked == 40:
            break
    assert checked == 40


@pytest.mark.parametrize("alpha", [None, 0.0, 0.5], ids=["free", "noan", "alpha05"])
def test_power_slope_zero_on_boundary_and_skip_winners(rng, alpha):
    # the peak, the zero-rate boundary, 1/b - 1/h and the skip do not move
    # with the price
    seen = {"boundary": 0, "skip": 0}
    for _ in range(2000):
        ctx = random_context(rng)
        kern = vector.Kernel([[ctx.h2]], [[ctx.b2]], ctx.sigma2, [ctx.weight],
                             ctx.p_peak, alpha)
        p, dp, slot = _winner(kern, ctx.omega)
        if slot is None:
            assert dp == 0.0
            seen["skip" if p == 0.0 else "boundary"] += 1
            if min(seen.values()) == 20:
                break
    assert min(seen.values()) == 20


def test_extra_rows_at_scale(monkeypatch):
    # without energy receivers a quarter of the pairs have h2 > b2 and so an
    # extra (alpha = 0) row; at the prices of a real solve, and where the
    # kinds of candidate nearly tie, each SC is its winning pair's 1x1
    # kernel to the bit, and each kind of candidate wins somewhere
    cfg = paper_system(k2=0)
    s2 = cfg.noise_power
    won = {"joint": 0, "alpha0": 0, "boundary": 0}
    for seed in range(4):
        prices = []
        call = vector.Kernel.__call__

        def recording(kern, omega):
            prices.append(np.array(omega))
            return call(kern, omega)

        monkeypatch.setattr(vector.Kernel, "__call__", recording)
        ch = paper_channels(cfg, seed)
        solve(cfg, ch)
        monkeypatch.undo()
        H, B, w = ch.ir_gains, ch.eve_gains, cfg.weights
        # the solve's prices never put the boundary first: add the prices
        # where the alpha = 0 stationary point of each SC's strongest IR is
        # the boundary p = s2 (1/B - 1/H), so the three kinds nearly tie
        j, k = np.nonzero((H > B).T)
        assert j.tolist() == list(range(cfg.num_scs))
        h, b = H[k, j], B[k, j]
        prices.append(-w[k] * b * (h - b) / (LN2 * s2 * (2.0 * h - b)))
        kern = vector.Kernel(H, B, s2, w, cfg.total_power)
        assert kern.extra.tolist() == sorted(k * cfg.num_scs + j)
        for om in prices:
            owner, *got = kern(om)
            for j, k in enumerate(owner):
                if k < 0:
                    assert got[2][j] == 0.0
                    continue
                one = vector.Kernel([[H[k, j]]], [[B[k, j]]], s2, [w[k]],
                                    cfg.total_power)
                ref = one(om[j:j + 1])
                assert ref[0][0] == 0
                assert [x[j].tobytes() for x in got] == [y[0].tobytes()
                                                         for y in ref[1:]]
                roots = one.roots(om[j] * one.p0)[0].T.ravel() * one.p0[0]
                p = got[0][j]
                if p in roots[:2]:
                    won["joint"] += 1
                elif p in roots[2:]:
                    assert got[1][j] == 0.0
                    won["alpha0"] += 1
                elif one.p_fix.size == 2 and p == one.p_fix[0, 1] * one.p0[1]:
                    assert got[1][j] == 0.0
                    won["boundary"] += 1
    assert min(won.values()) > 0, won
