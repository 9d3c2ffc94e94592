"""Per-subcarrier joint (power, split) optimizer: candidate construction,
stationarity of returned roots and the grid oracle."""

import math

import numpy as np
import pytest

from ofdma_swipt import DomainError, optimal_split, secrecy_rate
from ofdma_swipt.persc import (PerScContext, UnboundedSubproblemError,
                               cubic_candidates, lagrangian_dp,
                               lagrangian_value, optimal_alpha_given_p,
                               price_omega, quadratic_candidates, solve_per_sc)

from conftest import grid_best, random_context


def ctx_of(h2=1.0, b2=1.0, sigma2=1.0, weight=1.0, omega=0.0, p_peak=np.inf):
    return PerScContext(h2=h2, b2=b2, sigma2=sigma2, weight=weight,
                        omega=omega, p_peak=p_peak)


class TestPriceOmega:
    def test_all_zero(self):
        assert price_omega(np.zeros(2), 0.0, np.full(2, 0.5), np.ones(2)) == 0.0

    def test_single_er(self):
        got = price_omega(np.array([1.0]), 0.05, np.array([0.5]), np.array([0.2]))
        assert got == pytest.approx(0.05)

    def test_two_ers_negative(self):
        got = price_omega(np.array([1.0, 1.0]), 1.0, np.array([0.6, 0.6]),
                          np.array([0.1, 0.2]))
        assert got == pytest.approx(-0.82)


class TestOptimalAlpha:
    def test_symmetric_gains(self):
        assert optimal_alpha_given_p(3.7, ctx_of(h2=2.0, b2=2.0)) == 0.5

    def test_hand_value(self):
        assert optimal_alpha_given_p(1.0, ctx_of(h2=1.0, b2=2.0)) == pytest.approx(0.75)

    def test_clamped_to_zero(self):
        assert optimal_alpha_given_p(0.5, ctx_of(h2=10.0, b2=1.0)) == 0.0

    def test_rejects_nonpositive_power(self):
        with pytest.raises(DomainError):
            optimal_alpha_given_p(0.0, ctx_of())

    def test_always_below_one_in_valid_region(self, rng):
        # whenever the chosen power clears the zero-rate threshold, the
        # optimal split keeps strictly positive information power
        for _ in range(200):
            ctx = random_context(rng)
            p = rng.uniform(0.1, 10.0) * ctx.sigma2 / math.sqrt(ctx.h2 * ctx.b2)
            a = optimal_alpha_given_p(p, ctx)
            from ofdma_swipt import threshold_x
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
            roots = cubic_candidates(0.0, ctx)
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
            for p in cubic_candidates(alpha, ctx):
                eps = 1e-6 * p
                fd = (lagrangian_value(p + eps, alpha, ctx)
                      - lagrangian_value(p - eps, alpha, ctx)) / (2 * eps)
                scale = max(abs(lagrangian_dp(p * 1.5, alpha, ctx)),
                            ctx.weight / p)
                assert abs(fd) <= 1e-4 * scale
                checked += 1
        assert checked > 20

    def test_steeply_priced_context_has_no_roots(self):
        # strongly negative price with a small weight: the objective is
        # monotone decreasing in p, so no interior stationary point exists
        ctx = ctx_of(h2=2.0, b2=1.0, omega=-100.0, weight=0.01, p_peak=10.0)
        assert cubic_candidates(0.3, ctx) == []
        ps = np.linspace(1e-4, 10.0, 500)
        vals = [lagrangian_value(p, 0.3, ctx) for p in ps]
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestQuadraticCandidates:
    def test_symmetric_gains_carry_half_split(self):
        ctx = ctx_of(h2=2.0, b2=2.0, omega=-0.05, p_peak=50.0)
        cands = quadratic_candidates(ctx)
        assert cands
        assert all(a == 0.5 for _, a in cands)

    def test_zero_price_matches_line_search(self, rng):
        for _ in range(50):
            ctx = random_context(rng)
            ctx = PerScContext(h2=ctx.h2, b2=ctx.b2, sigma2=ctx.sigma2,
                               weight=ctx.weight, omega=0.0, p_peak=ctx.p_peak)
            cands = quadratic_candidates(ctx)
            ps = np.linspace(ctx.p_peak / 5000, ctx.p_peak, 5000)
            als = optimal_split(ps, ctx.h2, ctx.b2, ctx.sigma2)
            vals = (ctx.weight * secrecy_rate(ps, als, ctx.h2, ctx.b2, ctx.sigma2)
                    + ps * ctx.omega)
            best = float(vals.max())
            got = max(lagrangian_value(p, a, ctx) for p, a in cands)
            assert got >= best - 1e-6 * (1.0 + abs(best))

    def test_boundary_only_when_no_interior_roots(self):
        # deep in the zero-rate region with a positive price the objective
        # is linear and the cap is the only candidate
        ctx = ctx_of(h2=1.0, b2=2.0, omega=1e-3, p_peak=0.2)
        cands = quadratic_candidates(ctx)
        assert (ctx.p_peak, optimal_alpha_given_p(ctx.p_peak, ctx)) in cands

    def test_unbounded_with_infinite_cap_and_positive_price(self):
        ctx = ctx_of(h2=2.0, b2=1.0, omega=0.5, p_peak=np.inf)
        with pytest.raises(UnboundedSubproblemError):
            quadratic_candidates(ctx)


class TestSolvePerSc:
    def test_zero_region_with_nonpositive_price_skips(self):
        ctx = ctx_of(h2=1.0, b2=2.0, omega=-0.3, p_peak=0.4)
        assert solve_per_sc(ctx) == (0.0, 0.0, 0.0)

    def test_symmetric_gains_exact_half_split(self):
        ctx = ctx_of(h2=2.0, b2=2.0, omega=-0.05, p_peak=np.inf)
        p, a, v = solve_per_sc(ctx)
        assert a == 0.5
        assert v > 0.0

    def test_matches_grid_oracle(self, rng):
        for _ in range(100):
            ctx = random_context(rng)
            _, _, v = solve_per_sc(ctx)
            v_grid = grid_best(ctx)
            assert abs(v - v_grid) <= 1e-3 * (1.0 + abs(v_grid))

    def test_dominates_grid_everywhere(self, rng):
        # the winner's value must never fall below any brute-force point
        for _ in range(30):
            ctx = random_context(rng)
            _, _, v = solve_per_sc(ctx)
            assert v >= grid_best(ctx) - 1e-6 * (1.0 + abs(v))

    def test_split_strictly_below_one(self, rng):
        for _ in range(200):
            ctx = random_context(rng)
            p, a, _ = solve_per_sc(ctx)
            if p > 0.0:
                assert a < 1.0

    def test_value_is_exact_objective_at_winner(self, rng):
        for _ in range(100):
            ctx = random_context(rng)
            p, a, v = solve_per_sc(ctx)
            if p > 0.0:
                assert v == pytest.approx(lagrangian_value(p, a, ctx),
                                          rel=1e-9, abs=1e-12)
