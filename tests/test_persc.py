"""The per-subcarrier kernel on one (IR, SC) pair: the split at fixed power,
stationarity of the closed-form roots, and the grid oracle.

Every pair is solved by a ``vector.Kernel`` on 1x1 arrays (``solve_one``);
the roots are the kernel's own, kept where the kernel keeps them: powers in
(0, P_peak].
"""

import math

import numpy as np
import pytest

from ofdma_swipt import (UnboundedSubproblemError, optimal_split, rate_eve,
                         rate_ir, secrecy_rate, threshold_x, vector)
from ofdma_swipt.model import LN2

from conftest import Ctx, grid_best, random_context, solve_one


def ctx_of(h2=1.0, b2=1.0, sigma2=1.0, weight=1.0, omega=0.0, p_peak=np.inf):
    return Ctx(h2=h2, b2=b2, sigma2=sigma2, weight=weight, omega=omega,
               p_peak=p_peak)


def kernel_value(p, alpha, ctx):
    """The kernel's w * secrecy_rate + p * omega at powers ``p`` in watts."""
    p0, h, b = vector.normalized(ctx.h2, ctx.b2, ctx.sigma2)
    return vector._value(np.asarray(p) / p0, alpha, h, b, ctx.weight,
                         ctx.omega * p0)


def smooth_value(p, alpha, ctx):
    """w * (rate_ir - rate_eve) + p * omega without the [.]^+ gate: the
    function whose stationary points the closed-form roots are."""
    rs = (rate_ir(p, alpha, ctx.h2, ctx.sigma2)
          - rate_eve(p, alpha, ctx.b2, ctx.sigma2))
    return ctx.weight * rs + p * ctx.omega


def lagrangian_dp(p, alpha, ctx):
    """Analytic d/dp of :func:`smooth_value` at a fixed split."""
    h2, b2, s = ctx.h2, ctx.b2, ctx.sigma2
    term = ((1.0 - alpha) * h2 / (s + (1.0 - alpha) * h2 * p)
            - b2 / (s + b2 * p)
            + alpha * b2 / (s + alpha * b2 * p))
    return ctx.weight * term / LN2 + ctx.omega


def kernel_roots(ctx, alpha=None):
    """The kernel's price-dependent candidate powers of one pair, normalized,
    row by row: with a free split the two joint roots, then the two alpha = 0
    roots where h2 > b2; with a pinned split the fixed-split roots."""
    kern = vector.Kernel([[ctx.h2]], [[ctx.b2]], ctx.sigma2, [ctx.weight],
                         ctx.p_peak, alpha)
    # every row of a one-pair kernel is that pair's: p0 holds the rows' units
    return kern.roots(ctx.omega * kern.p0)[0].T.ravel()


def fixed_roots(alpha, ctx):
    """Fixed-split stationary powers the kernel keeps, in watts."""
    p0, h, b = vector.normalized(ctx.h2, ctx.b2, ctx.sigma2)
    roots = kernel_roots(ctx, alpha)
    return sorted(float(r * p0) for r in roots if 0.0 < r <= ctx.p_peak / p0)


def joint_roots(ctx):
    """(p, optimal_split(p)) stationary pairs the kernel keeps, p in watts."""
    p0, h, b = vector.normalized(ctx.h2, ctx.b2, ctx.sigma2)
    roots = kernel_roots(ctx)[:2]  # the two roots with the split eliminated
    return [(float(r * p0), float(optimal_split(r, h, b, 1.0)))
            for r in roots if 0.0 < r <= ctx.p_peak / p0]


class TestOptimalAlpha:
    def test_symmetric_gains(self):
        assert optimal_split(3.7, 2.0, 2.0, 1.0) == 0.5

    def test_hand_value(self):
        assert optimal_split(1.0, 1.0, 2.0, 1.0) == pytest.approx(0.75)

    def test_clamped_to_zero(self):
        assert optimal_split(0.5, 10.0, 1.0, 1.0) == 0.0

    def test_always_below_one_in_valid_region(self, rng):
        # whenever the chosen power clears the zero-rate threshold, the
        # optimal split keeps strictly positive information power
        for _ in range(200):
            ctx = random_context(rng)
            p = rng.uniform(0.1, 10.0) * ctx.sigma2 / math.sqrt(ctx.h2 * ctx.b2)
            a = optimal_split(p, ctx.h2, ctx.b2, ctx.sigma2)
            x_plus = max(threshold_x(a, ctx.h2, ctx.b2, ctx.sigma2), 0.0)
            if p > x_plus:
                assert a < 1.0


class TestCubicCandidates:
    def test_alpha_zero_reduces_degree(self, rng):
        # leading coefficient vanishes at alpha=0; the reduced polynomial
        # must still yield stationary points when they exist
        found = 0
        for _ in range(100):
            ctx = random_context(rng)
            roots = fixed_roots(0.0, ctx)
            for p in roots:
                assert 0.0 < p <= ctx.p_peak
                scale = ctx.weight / p
                assert abs(lagrangian_dp(p, 0.0, ctx)) <= 1e-5 * scale
            found += len(roots)
        assert found > 0

    def test_roots_are_stationary_fd(self, rng):
        checked = 0
        for _ in range(200):
            ctx = random_context(rng)
            alpha = rng.uniform(0.0, 0.95)
            for p in fixed_roots(alpha, ctx):
                eps = 1e-6 * p
                fd = (smooth_value(p + eps, alpha, ctx)
                      - smooth_value(p - eps, alpha, ctx)) / (2 * eps)
                scale = max(abs(lagrangian_dp(p * 1.5, alpha, ctx)),
                            ctx.weight / p)
                assert abs(fd) <= 1e-4 * scale
                checked += 1
        assert checked > 20

    def test_steeply_priced_context_has_no_roots(self):
        # strongly negative price with a small weight: the objective is
        # monotone decreasing in p, so no interior stationary point exists
        ctx = ctx_of(h2=2.0, b2=1.0, omega=-100.0, weight=0.01, p_peak=10.0)
        assert fixed_roots(0.3, ctx) == []
        vals = kernel_value(np.linspace(1e-4, 10.0, 500), 0.3, ctx)
        assert np.all(np.diff(vals) < 0)


class TestQuadraticCandidates:
    def test_symmetric_gains_carry_half_split(self):
        ctx = ctx_of(h2=2.0, b2=2.0, omega=-0.05, p_peak=50.0)
        cands = joint_roots(ctx)
        assert cands
        assert all(a == 0.5 for _, a in cands)

    def test_zero_price_matches_line_search(self, rng):
        # along p -> (p, optimal_split(p)) the joint roots and the cap hold
        # the best point
        for _ in range(50):
            ctx = random_context(rng)._replace(omega=0.0)
            cap_split = optimal_split(ctx.p_peak, ctx.h2, ctx.b2, ctx.sigma2)
            cands = joint_roots(ctx) + [(ctx.p_peak, cap_split)]
            ps = np.linspace(ctx.p_peak / 5000, ctx.p_peak, 5000)
            als = optimal_split(ps, ctx.h2, ctx.b2, ctx.sigma2)
            vals = (ctx.weight * secrecy_rate(ps, als, ctx.h2, ctx.b2, ctx.sigma2)
                    + ps * ctx.omega)
            best = float(vals.max())
            got = max(float(kernel_value(p, a, ctx)) for p, a in cands)
            assert got >= best - 1e-6 * (1.0 + abs(best))

    def test_boundary_only_when_no_interior_roots(self):
        # deep in the zero-rate region with a positive price the objective
        # is linear and the cap is the only candidate
        ctx = ctx_of(h2=1.0, b2=2.0, omega=1e-3, p_peak=0.2)
        assert joint_roots(ctx) == []
        assert solve_one(ctx)[0] == ctx.p_peak

    def test_unbounded_with_infinite_cap_and_positive_price(self):
        ctx = ctx_of(h2=2.0, b2=1.0, omega=0.5, p_peak=np.inf)
        with pytest.raises(UnboundedSubproblemError):
            solve_one(ctx)


class TestSolvePerSc:
    def test_zero_region_with_nonpositive_price_skips(self):
        ctx = ctx_of(h2=1.0, b2=2.0, omega=-0.3, p_peak=0.4)
        assert solve_one(ctx) == (0.0, 0.0, 0.0)

    def test_symmetric_gains_exact_half_split(self):
        ctx = ctx_of(h2=2.0, b2=2.0, omega=-0.05, p_peak=np.inf)
        p, a, v = solve_one(ctx)
        assert a == 0.5
        assert v > 0.0

    def test_matches_grid_oracle(self, rng):
        for _ in range(100):
            ctx = random_context(rng)
            _, _, v = solve_one(ctx)
            v_grid = grid_best(ctx)
            assert abs(v - v_grid) <= 1e-3 * (1.0 + abs(v_grid))

    def test_dominates_grid_everywhere(self, rng):
        # the winner's value must never fall below any brute-force point
        for _ in range(30):
            ctx = random_context(rng)
            _, _, v = solve_one(ctx)
            assert v >= grid_best(ctx) - 1e-6 * (1.0 + abs(v))

    def test_split_strictly_below_one(self, rng):
        for _ in range(200):
            ctx = random_context(rng)
            p, a, _ = solve_one(ctx)
            if p > 0.0:
                assert a < 1.0

    def test_value_is_exact_objective_at_winner(self, rng):
        # the kernel's value, computed in normalized units, against the
        # model's secrecy rate in watts
        for _ in range(100):
            ctx = random_context(rng)
            p, a, v = solve_one(ctx)
            if p > 0.0:
                ref = (ctx.weight * secrecy_rate(p, a, ctx.h2, ctx.b2, ctx.sigma2)
                       + p * ctx.omega)
                assert v == pytest.approx(ref, rel=1e-9, abs=1e-12)
