"""Batched per-subcarrier kernel: shapes, batch consistency, pinned owners,
domain and boundary cases, reuse of one kernel across prices, an
independent power-grid oracle for the fixed-split path, and the marginal
rates of the dual's start against central differences of the rate."""

from dataclasses import replace

import numpy as np
import pytest

from ofdma_swipt import solve, vector
from ofdma_swipt.model import (LN2, _secrecy_rate, optimal_split,
                               secrecy_rate, threshold_x)

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
    # a pinned SC is its pinned pair's 1x1 kernel to the bit, with owner -1
    # where that pair skips; the kernel has rows for the pinned pairs only,
    # and with a free split (some pinned pair has h2 > b2) a second block of
    # them for the alpha = 0 roots
    k1, n, cap = 4, 64, 10.0
    h = 10.0 ** rng.uniform(-2, 2, size=(k1, n))
    b = 10.0 ** rng.uniform(-2, 2, size=(k1, n))
    w = rng.uniform(0.5, 2.0, size=k1)
    pin = rng.integers(0, k1, size=n)
    hgb = int(np.sum(h[pin, np.arange(n)] > b[pin, np.arange(n)]))
    assert 0 < hgb < n
    for alpha in (None, 0.0, 0.5, 1.0):
        om = rng.uniform(-0.5, 0.5, size=n)
        kern = vector.Kernel(h, b, 1.0, w, cap, alpha, pin)
        assert kern.p0.size == (2 * n if alpha is None else n)
        owner, *got = kern(om)
        assert np.any(got[0] == 0.0) and np.any(got[0] > 0.0)
        for j, k in enumerate(pin):
            ref = vector.Kernel([[h[k, j]]], [[b[k, j]]], 1.0, [w[k]], cap,
                                alpha)(om[j:j + 1])
            assert owner[j] == (k if ref[0][0] == 0 else -1)
            assert [x[j].tobytes() for x in got] == [y[0].tobytes()
                                                     for y in ref[1:]]


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

    kern = vector.Kernel(*args, cfg.total_power, alpha)
    for om in seq:
        ref = vector.Kernel(*args, cfg.total_power, alpha)(om)
        for x, y in zip(kern(om), ref):
            assert x.tobytes() == y.tobytes()  # sign bits and NaNs included
    cached = [v for v in vars(kern).values() if isinstance(v, np.ndarray)]
    assert len(cached) >= 8 and not any(v.flags.writeable for v in cached)
    with pytest.raises(ValueError):
        kern.p_fix[0] = 0.0


def _winner(kern, om):
    """(p, dp/domega, root slot) of a one-pair kernel at price ``om``; the
    slot counts the roots row by row and is None where the peak or the skip
    won. Every row of a one-pair kernel is that pair's."""
    _, p, _, _, dp = kern(np.array([om]))
    p, dp = float(p[0]), float(dp[0])
    roots = kern.roots(om * kern.p0)[0].T.ravel() * kern.p0[0]
    hit = np.flatnonzero(np.isclose(roots, p, rtol=1e-12, atol=0.0))
    return p, dp, (int(hit[0]) if p > 0 and hit.size else None)


# root slots of each kind: with a free split the joint quadratic's two on
# the pair's row and the alpha = 0 quadratic's two on its row at offset m
# (h2 > b2); with a pinned split the cubic's three (at split 0 a
# quadratic's two)
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
    # the peak, the one boundary candidate left, and the skip do not move
    # with the price
    seen = {"peak": 0, "skip": 0}
    for _ in range(2000):
        ctx = random_context(rng)
        kern = vector.Kernel([[ctx.h2]], [[ctx.b2]], ctx.sigma2, [ctx.weight],
                             ctx.p_peak, alpha)
        p, dp, slot = _winner(kern, ctx.omega)
        if slot is None:
            assert dp == 0.0
            assert p in (0.0, kern.p_fix[0, 0] * kern.p0[0])
            seen["skip" if p == 0.0 else "peak"] += 1
            if min(seen.values()) == 20:
                break
    assert min(seen.values()) == 20


def test_extra_rows_at_scale(monkeypatch):
    # without energy receivers a quarter of the pairs have h2 > b2, every
    # SC's strongest IR among them, so the table's pairs repeat at offset m
    # with alpha = 0 rows; at the prices of a real solve, and where the
    # kinds of root nearly tie, each SC is its winning pair's 1x1 kernel to
    # the bit, and each kind of root wins somewhere
    cfg = paper_system(k2=0)
    s2 = cfg.noise_power
    won = {"joint": 0, "alpha0": 0}
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
        # the prices where the alpha = 0 stationary point of each SC's
        # strongest IR is the boundary p = s2 (1/B - 1/H) of the two
        # subregions, so the two kinds of root nearly tie
        sc, ir = np.nonzero((H > B).T)
        assert sc.tolist() == list(range(cfg.num_scs))
        h, b = H[ir, sc], B[ir, sc]
        edge = -w[ir] * b * (h - b) / (LN2 * s2 * (2.0 * h - b))
        prices.append(edge)
        kern = vector.Kernel(H, B, s2, w, cfg.total_power)
        # the table keeps each SC's strongest IR only, one pair per SC, so
        # the alpha = 0 block at offset m holds the same pairs in SC order
        m = cfg.num_scs
        assert kern.table.tolist() == [ir.tolist()] and kern.m == m
        assert kern.p0.size == 2 * m and not kern.joint[m:].any()
        assert kern.ir[m:].tolist() == ir.tolist()
        assert kern.col[m:].tolist() == sc.tolist()
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
        # the boundary itself is no candidate: the roots match or beat it
        _, _, _, v, _ = kern(edge)
        p_edge = s2 * (1.0 / b - 1.0 / h)
        cap = p_edge <= cfg.total_power
        ref = w[ir] * secrecy_rate(p_edge, 0.0, h, b, s2) + p_edge * edge
        assert cap.any() and np.all((v >= ref - 1e-12 * np.abs(ref))[cap])
    assert min(won.values()) > 0, won


def _first_best(H, B, w, cap, alpha, om, j):
    """SC ``j``'s (owner, p, alpha, value, dp/domega) as the first best of
    its K1 one-pair kernels in index order, or the skip, and each pair's
    value."""
    outs = [vector.Kernel([[H[k, j]]], [[B[k, j]]], 1.0, [w[k]], cap,
                          alpha)(om[j:j + 1]) for k in range(len(w))]
    values = [o[3][0] for o in outs]
    k = int(np.argmax(values))
    best = [x[0] for x in outs[k]]
    best[0] = k if best[0] == 0 else -1
    return best, values


def _ulps(x, y):
    return abs(x - y) / np.spacing(max(abs(x), abs(y)))


def test_undominated_table_is_first_best_over_one_pair_kernels(rng):
    # the table keeps each SC's undominated IRs, so every SC is the first
    # best of its K1 one-pair kernels, to the bit; where that winner has
    # rate 0 (a peak scoring p omega) a dominated pair may tie it in real
    # arithmetic, and the value and power agree within 4 ulps
    cap, zero_rate = 10.0, 0
    for i in range(400):
        k1, n = int(rng.integers(1, 7)), int(rng.integers(1, 9))
        H = 10.0 ** rng.uniform(-2, 2, size=(k1, n))
        B = 10.0 ** rng.uniform(-2, 2, size=(k1, n))
        w = rng.choice([0.5, 1.0, 2.0], size=k1)  # equal weights
        if k1 > 1:
            a, b = rng.choice(k1, size=2, replace=False)
            j = int(rng.integers(n))
            H[a, j] = H[b, j]  # an exactly equal gain
            B[b, (j + 1) % n] = B[a, (j + 1) % n]
            if i % 3 == 0:
                H[a], B[a] = H[b], B[b]  # a duplicated IR
        if n > 1 and i % 4 == 0:
            H[:, -1], B[:, -1] = H[:, 0], B[:, 0]  # a duplicated SC
        alpha = (None, 0.0, 0.5, float(rng.uniform()))[i % 4]
        om = rng.uniform(-1.0, 1.0, size=n)
        kern = vector.Kernel(H, B, 1.0, w, cap, alpha)
        got = kern(om)
        for j in range(n):
            keep = [k for k in range(k1) if not any(
                w[o] >= w[k] and H[o, j] >= H[k, j] and B[o, j] <= B[k, j]
                and (o < k or (w[o], H[o, j], B[o, j]) != (w[k], H[k, j], B[k, j]))
                for o in range(k1) if o != k)]
            assert sorted(set(kern.table[:, j])) == keep
            assert kern.table[:len(keep), j].tolist() == keep
            ref, values = _first_best(H, B, w, cap, alpha, om, j)
            out = [x[j] for x in got]
            k = ref[0]
            if k >= 0 and secrecy_rate(ref[1], ref[2], H[k, j], B[k, j],
                                       1.0) == 0.0:
                zero_rate += 1
                assert out[0] >= 0 and _ulps(values[out[0]], ref[3]) <= 4
                assert _ulps(out[1], ref[1]) <= 4 and _ulps(out[3], ref[3]) <= 4
                assert (out[2], out[4]) == (ref[2], ref[4])
                continue
            assert [np.float64(x).tobytes() for x in out] == [
                np.float64(x).tobytes() for x in ref], (i, j)
    assert zero_rate > 0


@pytest.mark.parametrize("k2", [4, 0])
def test_paper_draws_keep_one_pair_per_sc(k2):
    # with equal weights each SC's strongest IR dominates the others
    cfg = paper_system(k2=k2)
    for seed in range(20):
        ch = paper_channels(cfg, seed)
        kern = vector.Kernel(ch.ir_gains, ch.eve_gains, cfg.noise_power,
                             cfg.weights, cfg.total_power)
        assert kern.table.shape == (1, cfg.num_scs)
        assert kern.table[0].tolist() == np.argmax(ch.ir_gains, axis=0).tolist()


@pytest.mark.parametrize("k2", [4, 0])
def test_padded_entries_repeat_their_first_pair(monkeypatch, k2):
    # unequal weights leave 1-3 IRs per SC; an SC with fewer than the most
    # repeats its first pair's candidates after its own, so the first
    # maximum never picks them, and the SC is the kernel of its own column,
    # which has no padding, to the bit; without energy receivers a free
    # split adds the alpha = 0 block as well
    cfg = replace(paper_system(k2=k2), weights=np.array([1.0, 2.0, 0.5, 1.0]))
    prices = []
    call = vector.Kernel.__call__

    def recording(kern, omega):
        prices.append(np.array(omega))
        return call(kern, omega)

    monkeypatch.setattr(vector.Kernel, "__call__", recording)
    ch = paper_channels(cfg, 0)
    solve(cfg, ch)
    monkeypatch.undo()
    args = (ch.ir_gains, ch.eve_gains, cfg.noise_power, cfg.weights,
            cfg.total_power)
    for alpha in (None, 0.5):
        kern = vector.Kernel(*args, alpha)
        t = kern.table
        padded = (np.arange(len(t))[:, None] > 0) & (t == t[0])
        assert 0 < padded.sum() and len(t) > 1
        assert (kern.p0.size > kern.m) == (alpha is None and k2 == 0)
        # each entry's candidates are rows of its pair, at ``at`` or at
        # offset m, so padded entries repeat the first pair's slots of the
        # same SC
        order = kern.order.reshape(len(t), -1, cfg.num_scs)
        assert np.array_equal(order % kern.p0.size % kern.m,
                              np.broadcast_to(kern.at[:, None], order.shape))
        first = np.broadcast_to(order[:1], order.shape)
        assert np.array_equal(order.swapaxes(1, 2)[padded],
                              first.swapaxes(1, 2)[padded])
        for om in prices:
            got = kern(om)
            for j in np.flatnonzero(padded.any(axis=0)):
                one = vector.Kernel(*(x[:, j:j + 1] for x in args[:2]),
                                    *args[2:], alpha)
                assert one.table.shape[0] < len(t)
                ref = one(om[j:j + 1])
                assert [x[j].tobytes() for x in got] == [y[0].tobytes()
                                                         for y in ref]


def test_near_tie_pair_in_a_mixed_table():
    # SC 0's pair has h2 = 10 b2, so the kernel has an alpha = 0 block; SC
    # 1's is above b2 by less than GAIN_RTOL, so its row there copies its
    # own: its marginal rate where its optimal split is 0, and every call
    # output, are its 1x1 kernel's to the bit, never NaN
    H, B = np.array([[10.0, 1.0 + 5e-13]]), np.ones((1, 2))
    kern = vector.Kernel(H, B, 1.0, [1.0], 10.0)
    ones = [vector.Kernel(H[:, j:j + 1], B[:, j:j + 1], 1.0, [1.0], 10.0)
            for j in range(2)]
    assert kern.p0.size == 4 and kern.joint.tolist() == [1, 1, 0, 1]
    assert [one.p0.size for one in ones] == [2, 1]
    for p in (1e-13, 1e-14):
        assert optimal_split(p, H[0], B[0], 1.0).tolist() == [0.0, 0.0]
        owner, rate, slope = kern.marginal_rates(p)
        assert owner.tolist() == [0, 0]
        for j, one in enumerate(ones):
            ref = one.marginal_rates(p)
            assert rate[j].tobytes() == ref[1][0].tobytes()
            assert slope[j].tobytes() == ref[2][0].tobytes()
        assert np.all(np.isfinite(slope) & (slope > 0.0))
    for om in (-1.0, -0.3, -0.1, -0.03, -1e-3, -1e-12, 0.0, 1e-3, 0.5):
        got = kern(np.full(2, om))
        for j, one in enumerate(ones):
            assert [x[j].tobytes() for x in got] == [
                y[0].tobytes() for y in one(np.array([om]))]


def _marginal_oracle(h2, b2, sigma2, w, p, alpha):
    """w dR/dp of ``model._secrecy_rate`` at power ``p`` > its zero-rate
    threshold and the fixed split ``alpha``: a five-point central
    difference whose stencil stays above the threshold."""
    step = 1e-3 * min(p, p - max(threshold_x(alpha, h2, b2, sigma2), 0.0))
    f = [w * _secrecy_rate(p + k * step, alpha, h2, b2, sigma2)
         for k in (-2, -1, 1, 2)]
    return (f[0] - 8.0 * f[1] + 8.0 * f[2] - f[3]) / (12.0 * step)


def _check_marginal_rates(H, B, sigma2, w, p, alpha, p_peak):
    """Check ``Kernel.marginal_rates(p)`` SC by SC: the owner's weighted
    rate at p is the largest of any IR's, with the optimal split at p where
    ``alpha`` is None, the returned rate is w ``secrecy_rate`` of the owner
    to 1e-12 and no IR outside the kernel's table beats it, and its slope
    is the oracle's to 1e-6, or 0 where the rate is. Returns the SCs whose
    rate is 0 and those whose optimal split at p is 0 with h2 > b2."""
    kern = vector.Kernel(H, B, sigma2, w, p_peak, alpha)
    owner, rate, slope = kern.marginal_rates(p)
    zero = split_0 = 0
    for n, k in enumerate(owner):
        splits = (optimal_split(p, H[:, n], B[:, n], sigma2) if alpha is None
                  else np.full(len(w), alpha))
        rates = w * _secrecy_rate(p, splits, H[:, n], B[:, n], sigma2)
        assert rates[k] == rates.max(), (n, k, rates)
        ref = w * secrecy_rate(p, splits, H[:, n], B[:, n], sigma2)
        assert rate[n] == pytest.approx(ref[k], rel=1e-12, abs=0.0), (n, k)
        outside = np.setdiff1d(np.arange(len(w)), kern.table[:, n])
        assert np.all(ref[outside] <= rate[n] * (1.0 + 1e-12)), (n, k)
        if rates[k] == 0.0:
            assert slope[n] == 0.0, n
            zero += 1
            continue
        split_0 += bool(splits[k] == 0.0 and H[k, n] > B[k, n])
        ref = _marginal_oracle(H[k, n], B[k, n], sigma2, w[k], p, splits[k])
        assert slope[n] == pytest.approx(ref, rel=1e-6), (n, k)
    return zero, split_0


@pytest.mark.parametrize("alpha", [None, 0.5, 0.0])
def test_marginal_rates_on_paper_draws(alpha):
    # the dual's start reads these at equal power p_eq; with split 0 no
    # paper pair has a rate (h2 < b2 everywhere), so every slope is 0, and
    # at split 0.5 a few SCs are below their zero-rate threshold
    cfg = paper_system()
    p_eq = cfg.total_power / cfg.num_scs
    zeros = 0
    for seed in range(20):
        ch = paper_channels(cfg, seed)
        zeros += _check_marginal_rates(ch.ir_gains, ch.eve_gains,
                                       cfg.noise_power, cfg.weights, p_eq,
                                       alpha, cfg.total_power)[0]
    assert (zeros == 20 * cfg.num_scs) == (alpha == 0.0)


@pytest.mark.parametrize("alpha", [None, 0.5, 0.0])
def test_marginal_rates_on_random_pairs(rng, alpha):
    # gains over six decades, so about half the pairs have h2 > b2, and
    # unequal weights, so an SC keeps several undominated IRs
    zeros = split_0 = 0
    for _ in range(100):
        sigma2 = 1.0 if rng.integers(2) == 0 else 5e-12
        H = sigma2 * 10.0 ** rng.uniform(-3.0, 3.0, size=(3, 6))
        B = sigma2 * 10.0 ** rng.uniform(-3.0, 3.0, size=(3, 6))
        w = 10.0 ** rng.uniform(-1.0, 1.0, size=3)
        p = sigma2 * 10.0 ** rng.uniform(-2.0, 2.0)
        z, s0 = _check_marginal_rates(H, B, sigma2, w, p, alpha, 10.0 * p)
        zeros += z
        split_0 += s0
    assert zeros > 0
    # the free split's alpha = 0 rows, and split 0's own rows
    assert (split_0 > 0) == (alpha != 0.5)
