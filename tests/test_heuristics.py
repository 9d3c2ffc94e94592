"""Two-stage suboptimal allocator, benchmark schemes and the
non-cancelable-noise rate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofdma_swipt import (ChannelRealization, DomainError,
                         InfeasibleProblemError, SystemConfig,
                         noncancel_secrecy_rate, secrecy_rate, solve,
                         solve_dual, solve_suboptimal)
from ofdma_swipt.heuristics import SCHEMES, round_robin_assignment
from ofdma_swipt.model import all_harvested_powers

from conftest import paper_channels, paper_system

log_gain = st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0 ** e)


class TestSolve:
    def test_unknown_scheme_lists_choices(self):
        cfg = paper_system(n_sc=8)
        with pytest.raises(ValueError, match="'optimal', 'suboptimal'"):
            solve(cfg, paper_channels(cfg, seed=0), "magic")

    def test_table_pins_what_each_scheme_names(self):
        cfg = paper_system(n_sc=8, qbar_uw=0.0)
        ch = paper_channels(cfg, seed=0)
        assert solve(cfg, ch, "alpha05").objective == \
            solve_dual(cfg, ch, alpha_fixed=0.5).objective
        fsa = solve(cfg, ch, "fsa").allocation.assign
        assert np.all(fsa <= round_robin_assignment(cfg))


class TestSuboptimal:
    def test_zero_targets_skip_stage_one(self):
        cfg = paper_system(n_sc=16, qbar_uw=0.0)
        rep = solve_suboptimal(cfg, paper_channels(cfg, seed=0))
        assert rep.metadata["n1"] == 0
        assert rep.metadata["n2"] == cfg.num_scs
        assert rep.allocation.assign.sum() == cfg.num_scs

    def test_single_er_takes_its_best_sc(self):
        # one strong SC satisfies the target alone; it must be the ER's
        # argmax-gain SC and go to the strongest IR there
        cfg = SystemConfig(num_irs=1, num_ers=1, num_scs=2, total_power=2.0,
                           peak_power=2.0, noise_power=1.0, weights=np.ones(1),
                           harvest_eff=np.array([0.5]),
                           harvest_target=np.array([0.2]))
        ch = ChannelRealization(gains=np.array([[1.0, 3.0], [0.1, 0.9]]),
                                num_irs=1)
        rep = solve_suboptimal(cfg, ch)
        assert rep.metadata["n1"] == 1
        assert rep.allocation.assign[0, 1] == 1  # SC 1 is the ER's best

    def test_stage_one_meets_targets(self):
        cfg = paper_system(n_sc=32)
        ch = paper_channels(cfg, seed=5)
        rep = solve_suboptimal(cfg, ch)
        q = all_harvested_powers(rep.allocation, ch, cfg)
        assert np.all(q >= cfg.harvest_target)
        assert rep.metadata["n1"] + rep.metadata["n2"] <= cfg.num_scs

    def test_equal_power_on_used_scs(self):
        cfg = paper_system(n_sc=16)
        rep = solve_suboptimal(cfg, paper_channels(cfg, seed=6))
        p_eq = cfg.total_power / cfg.num_scs
        used = rep.allocation.assign == 1
        assert np.allclose(rep.allocation.power[used], p_eq)

    def test_infeasible_when_scs_run_out(self):
        cfg = SystemConfig(num_irs=1, num_ers=1, num_scs=2, total_power=1e-3,
                           peak_power=1e-3, noise_power=1.0, weights=np.ones(1),
                           harvest_eff=np.array([0.5]),
                           harvest_target=np.array([10.0]))
        ch = ChannelRealization(gains=np.ones((2, 2)), num_irs=1)
        with pytest.raises(InfeasibleProblemError):
            solve_suboptimal(cfg, ch)


class TestFixedAlpha:
    def test_all_noise_split_gives_zero(self):
        cfg = paper_system(n_sc=8, qbar_uw=0.0)
        rep = solve_dual(cfg, paper_channels(cfg, seed=0), alpha_fixed=1.0)
        assert rep.objective == 0.0

    def test_rejects_split_outside_unit_interval(self):
        cfg = paper_system(n_sc=8)
        with pytest.raises(DomainError):
            solve_dual(cfg, paper_channels(cfg, seed=0), alpha_fixed=1.5)

    def test_symmetric_channels_match_optimal(self, rng):
        # identical gains for every receiver: the jointly optimal split is
        # exactly one half, so pinning it there loses nothing
        row = 10.0 ** rng.uniform(-1, 1, size=8)
        ch = ChannelRealization(gains=np.tile(row, (3, 1)), num_irs=2)
        cfg = SystemConfig(num_irs=2, num_ers=1, num_scs=8, total_power=4.0,
                           peak_power=4.0, noise_power=1.0, weights=np.ones(2),
                           harvest_eff=np.array([0.6]),
                           harvest_target=np.array([0.0]))
        opt = solve(cfg, ch)
        fixed = solve(cfg, ch, "alpha05")
        assert fixed.objective == pytest.approx(opt.objective, rel=1e-6)


class TestNoAn:
    def test_equals_fixed_alpha_zero(self):
        cfg = paper_system(n_sc=8)
        ch = paper_channels(cfg, seed=1)
        assert solve(cfg, ch, "noan").objective == \
            solve_dual(cfg, ch, alpha_fixed=0.0).objective

    def test_near_zero_under_reference_geometry(self):
        # energy receivers sit next to the transmitter and overhear
        # everything, so plain transmission has no secrecy to offer
        cfg = paper_system(n_sc=16)
        rep = solve(cfg, paper_channels(cfg, seed=2), "noan")
        assert rep.objective <= 1e-6

    def test_paper_draw_1_certified(self):
        # a zero optimum used to leave a step-size stop rule at the cap
        cfg = paper_system()
        rep = solve(cfg, paper_channels(cfg, 1), "noan")
        assert rep.metadata["converged"] is True
        assert rep.iterations <= 200
        assert rep.objective == 0.0

    def test_positive_when_intended_channels_dominate(self, rng):
        k1, n = 2, 8
        ir = 10.0 ** rng.uniform(0.5, 1.0, size=(k1, n))
        er = 10.0 ** rng.uniform(-2.0, -1.0, size=(1, n))
        ch = ChannelRealization(gains=np.vstack([ir, er]), num_irs=k1)
        cfg = SystemConfig(num_irs=k1, num_ers=1, num_scs=n, total_power=4.0,
                           peak_power=4.0, noise_power=1.0, weights=np.ones(k1),
                           harvest_eff=np.array([0.6]),
                           harvest_target=np.array([0.0]))
        assert solve(cfg, ch, "noan").objective > 0.0


class TestFsa:
    def test_round_robin_map(self):
        cfg = paper_system(n_sc=6, k1=4)
        x = round_robin_assignment(cfg)
        assert np.all(x.sum(axis=0) == 1)
        assert x[0].tolist() == [1, 0, 0, 0, 1, 0]

    def test_single_ir_equals_optimal(self):
        cfg = paper_system(n_sc=8, k1=1, qbar_uw=0.0)
        ch = paper_channels(cfg, seed=3)
        opt = solve(cfg, ch)
        fsa = solve(cfg, ch, "fsa")
        assert fsa.objective == pytest.approx(opt.objective, rel=1e-6, abs=1e-12)


class TestSchemeOrdering:
    def test_optimal_dominates_benchmarks_on_matched_seed(self):
        cfg = paper_system(n_sc=16)
        ch = paper_channels(cfg, seed=7)
        opt = solve(cfg, ch).objective
        tol = 1e-4 * (1.0 + opt)
        for scheme in SCHEMES:
            assert solve(cfg, ch, scheme).objective <= opt + tol


class TestNoncancelRate:
    def test_alpha_zero_equals_plain_secrecy(self):
        got = noncancel_secrecy_rate(2.0, 0.0, 3.0, 1.0, 1.0)
        assert got == pytest.approx(secrecy_rate(2.0, 0.0, 3.0, 1.0, 1.0))

    def test_zero_when_eavesdropper_at_least_as_strong(self):
        for a in np.linspace(0, 1, 11):
            assert noncancel_secrecy_rate(5.0, a, 1.0, 2.0, 1.0) == 0.0
            assert noncancel_secrecy_rate(5.0, a, 2.0, 2.0, 1.0) == 0.0

    def test_hand_ordering_in_alpha(self):
        v0 = noncancel_secrecy_rate(1.0, 0.0, 3.0, 1.0, 1.0)
        v3 = noncancel_secrecy_rate(1.0, 0.3, 3.0, 1.0, 1.0)
        v7 = noncancel_secrecy_rate(1.0, 0.7, 3.0, 1.0, 1.0)
        assert v0 == pytest.approx(1.0)
        assert v0 >= v3 >= v7

    @given(h2=log_gain, b2=log_gain,
           p=st.floats(min_value=1e-3, max_value=1e3),
           a1=st.floats(min_value=0.0, max_value=1.0),
           a2=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=300)
    def test_nonincreasing_in_alpha(self, h2, b2, p, a1, a2):
        lo, hi = min(a1, a2), max(a1, a2)
        v_lo = noncancel_secrecy_rate(p, lo, h2, b2, 1.0)
        v_hi = noncancel_secrecy_rate(p, hi, h2, b2, 1.0)
        assert v_hi <= v_lo + 1e-12

    def test_max_over_alpha_is_at_zero(self, rng):
        for _ in range(200):
            h2, b2 = 10.0 ** rng.uniform(-3, 3, size=2)
            p = 10.0 ** rng.uniform(-2, 2)
            als = np.linspace(0.0, 1.0, 101)
            vals = noncancel_secrecy_rate(np.full_like(als, p), als, h2, b2, 1.0)
            assert np.max(vals) == vals[0]
