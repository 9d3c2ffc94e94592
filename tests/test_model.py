"""Closed-form rate model: hand-checked values and region properties."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ofdma_swipt import (Allocation, ChannelRealization, DomainError,
                         SystemConfig, eavesdropper_gains,
                         noncancel_secrecy_rate, rate_eve, rate_ir,
                         secrecy_rate, threshold_x, vector,
                         weighted_sum_secrecy)
from ofdma_swipt.model import all_harvested_powers

log_gain = st.floats(min_value=-4.0, max_value=4.0).map(lambda e: 10.0 ** e)
unit = st.floats(min_value=0.0, max_value=1.0)


class TestRateIr:
    def test_hand_value(self):
        assert rate_ir(1.0, 0.0, 3.0, 1.0) == pytest.approx(2.0)

    def test_zero_power(self):
        assert rate_ir(0.0, 0.4, 7.0, 1.0) == 0.0

    def test_all_power_to_noise(self):
        assert rate_ir(5.0, 1.0, 7.0, 1.0) == 0.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            rate_ir(-1.0, 0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            rate_ir(1.0, 1.5, 1.0, 1.0)
        with pytest.raises(DomainError):
            rate_ir(1.0, 0.5, -1.0, 1.0)


@pytest.mark.parametrize("rate, n_gains", [
    (rate_ir, 1), (rate_eve, 1), (secrecy_rate, 2), (noncancel_secrecy_rate, 2)])
def test_rates_share_input_checks(rate, n_gains):
    ok = [1.0] * n_gains
    calls = [(-1.0, 0.5, ok, 1.0), (1.0, 1.5, ok, 1.0), (1.0, -0.1, ok, 1.0),
             (1.0, 0.5, ok, 0.0)]
    calls += [(1.0, 0.5, ok[:i] + [0.0] + ok[i + 1:], 1.0) for i in range(n_gains)]
    for p, alpha, gains, sigma2 in calls:
        with pytest.raises(DomainError):
            rate(p, alpha, *gains, sigma2)


class TestRateEve:
    def test_hand_value(self):
        assert rate_eve(2.0, 0.5, 4.0, 1.0) == pytest.approx(math.log2(1.8))

    def test_zero_power(self):
        assert rate_eve(0.0, 0.3, 4.0, 1.0) == 0.0

    def test_no_noise_split(self):
        assert rate_eve(1.0, 0.0, 1.0, 1.0) == pytest.approx(1.0)


class TestThreshold:
    def test_hand_value(self):
        assert threshold_x(0.5, 1.0, 2.0, 1.0) == pytest.approx(1.0)

    def test_alpha_zero_eve_stronger(self):
        assert threshold_x(0.0, 1.0, 2.0, 1.0) == math.inf

    def test_alpha_zero_ir_stronger(self):
        assert threshold_x(0.0, 2.0, 1.0, 1.0) == -math.inf

    def test_alpha_zero_tie_maps_to_inf(self):
        assert threshold_x(0.0, 1.0, 1.0, 1.0) == math.inf

    def test_equal_gains(self):
        assert threshold_x(0.7, 3.0, 3.0, 1.0) == 0.0

    def test_python_float_split_zero(self):
        # unchecked callers pass the split as a Python float: at 0 the
        # threshold is +inf (b2 >= h2) and the rate 0, not a ZeroDivisionError
        assert vector._value(1.0, 0.0, 0.5, 2.0, 1.0, 0.0) == 0.0

    @pytest.mark.parametrize("args", [(1.5, 1.0, 2.0, 1.0), (-0.1, 1.0, 2.0, 1.0),
                                      (0.5, 0.0, 2.0, 1.0), (0.5, 1.0, -2.0, 1.0),
                                      (0.5, 1.0, 2.0, 0.0)])
    def test_domain_errors(self, args):
        with pytest.raises(DomainError):
            threshold_x(*args)


class TestSecrecyRate:
    def test_hand_value(self):
        assert secrecy_rate(1.0, 0.0, 3.0, 1.0, 1.0) == pytest.approx(1.0)

    def test_hand_value_with_split(self):
        # threshold X = 1.5 < p = 2, so the rate is positive
        expect = 1.0 - math.log2(1.8)
        assert secrecy_rate(2.0, 0.5, 1.0, 4.0, 1.0) == pytest.approx(expect)

    def test_equal_gains_positive_only_with_noise_split(self):
        assert secrecy_rate(10.0, 0.3, 2.0, 2.0, 1.0) > 0.0
        assert secrecy_rate(10.0, 0.0, 2.0, 2.0, 1.0) == 0.0

    @given(h2=log_gain, b2=log_gain,
           # at alpha=1 no information power flows and the rate is
           # identically zero, so the region statement applies to alpha < 1;
           # near alpha=0 the positive part scales like alpha*p^2 and drowns
           # in float cancellation, hence the gap between 0 and 1e-3
           alpha=st.one_of(st.just(0.0),
                           st.floats(min_value=1e-3, max_value=0.999)),
           p=st.floats(min_value=0.0, max_value=1e4),
           sigma2=st.sampled_from([1.0, 5e-12]))
    @settings(max_examples=300)
    # above the threshold, yet a difference of two logarithms rounds to 0
    @example(h2=1.0000000000000004, b2=1.0, alpha=0.0, p=19.0, sigma2=1.0)
    def test_zero_region_dichotomy(self, h2, b2, alpha, p, sigma2):
        p_unit = sigma2 / math.sqrt(h2 * b2)
        p_scaled = p * p_unit
        x_plus = max(threshold_x(alpha, h2, b2, sigma2), 0.0)
        rs = secrecy_rate(p_scaled, alpha, h2, b2, sigma2)
        if p_scaled <= x_plus:
            assert rs == 0.0
        elif p_scaled > x_plus + 1e-6 * p_unit:
            assert rs > 0.0
        else:
            # within float cancellation range of the boundary the positive
            # part may round to zero, but never goes negative
            assert rs >= 0.0

    @given(h2=log_gain, b2=log_gain, alpha=unit,
           p=st.floats(min_value=1e-6, max_value=1e4))
    @settings(max_examples=200)
    def test_continuity_in_power(self, h2, b2, alpha, p):
        eps = 1e-7 * p
        lo = secrecy_rate(p - eps, alpha, h2, b2, 1.0)
        hi = secrecy_rate(p + eps, alpha, h2, b2, 1.0)
        # small power perturbations move the rate by O(eps / sigma^2)
        assert abs(hi - lo) <= 1e-4 * (1.0 + p * max(h2, b2))


class TestEavesdropperGains:
    def test_max_of_others(self):
        g = np.array([[1.0], [4.0], [2.0]])
        assert eavesdropper_gains(g)[0, 0] == 4.0

    def test_tie(self):
        g = np.array([[5.0], [5.0]])
        assert eavesdropper_gains(g)[0, 0] == 5.0

    def test_own_gain_excluded(self):
        g = np.array([[9.0], [1.0], [2.0]])
        assert eavesdropper_gains(g)[0, 0] == 2.0

    def test_single_receiver_rejected(self):
        with pytest.raises(DomainError):
            eavesdropper_gains(np.array([[1.0, 2.0]]))

    def test_adding_receiver_never_decreases(self, rng):
        g = rng.lognormal(size=(4, 6))
        extra = np.vstack([g, rng.lognormal(size=(1, 6))])
        assert np.all(eavesdropper_gains(extra, 4) >= eavesdropper_gains(g, 4))

    def test_removing_argmax_never_increases(self, rng):
        g = rng.lognormal(size=(5, 3))
        for n in range(3):
            top = int(np.argmax(g[:, n]))
            keep = [k for k in range(5) if k != top]
            before = eavesdropper_gains(g)[keep, n]
            after = eavesdropper_gains(g[keep])[:, n]
            assert np.all(after <= before)


def _toy(k1=1, k2=1, n_sc=2, zeta=0.6, qbar=0.0, p_max=10.0):
    return SystemConfig(num_irs=k1, num_ers=k2, num_scs=n_sc,
                        total_power=p_max, peak_power=p_max,
                        noise_power=1.0, weights=np.ones(k1),
                        harvest_eff=np.full(k2, zeta),
                        harvest_target=np.full(k2, qbar))


class TestHarvestedPower:
    def test_zero_power(self):
        ch = ChannelRealization(gains=np.array([[1.0, 1.0], [0.01, 0.01]]),
                                num_irs=1)
        alloc = Allocation(owner=[-1, -1], sc_power=np.zeros(2),
                           sc_split=np.zeros(2), num_irs=1)
        assert all_harvested_powers(alloc, ch, _toy()).tolist() == [0.0]

    def test_single_sc_hand_value(self):
        ch = ChannelRealization(gains=np.array([[1.0, 1.0], [0.01, 0.02]]),
                                num_irs=1)
        alloc = Allocation(owner=[0, -1], sc_power=[1.0, 0.0],
                           sc_split=[0.3, 0.0], num_irs=1)
        assert all_harvested_powers(alloc, ch, _toy()) == pytest.approx([6.0e-3])

    def test_two_sc_hand_value(self):
        ch = ChannelRealization(gains=np.array([[1.0, 1.0], [0.01, 0.005]]),
                                num_irs=1)
        alloc = Allocation(owner=[0, 0], sc_power=[1.0, 2.0],
                           sc_split=[0.0, 0.0], num_irs=1)
        assert all_harvested_powers(alloc, ch, _toy(zeta=0.5)) == pytest.approx([0.01])

    def test_linear_in_power_and_split_invariant(self, rng):
        cfg = _toy(k1=2, k2=2, n_sc=4)
        gains = rng.lognormal(size=(4, 4))
        ch = ChannelRealization(gains=gains, num_irs=2)
        owner = np.array([0, 1, 0, -1])
        on = owner >= 0
        p = rng.uniform(0.1, 1.0, size=(2, 4))[owner, np.arange(4)] * on
        base = all_harvested_powers(
            Allocation(owner, p, 0.2 * on, num_irs=2), ch, cfg)
        doubled = all_harvested_powers(
            Allocation(owner, 2 * p, 0.9 * on, num_irs=2), ch, cfg)
        assert np.allclose(doubled, 2 * base)


class TestWeightedSumSecrecy:
    def test_empty_assignment(self):
        cfg = _toy()
        ch = ChannelRealization(gains=np.ones((2, 2)), num_irs=1)
        alloc = Allocation(owner=[-1, -1], sc_power=np.zeros(2),
                           sc_split=np.zeros(2), num_irs=1)
        assert weighted_sum_secrecy(alloc, ch, cfg) == 0.0

    def test_single_sc_band_average(self):
        # one assigned SC whose secrecy rate is 1.0, averaged over the band
        cfg = _toy(n_sc=2)
        ch = ChannelRealization(gains=np.array([[3.0, 3.0], [1.0, 1.0]]),
                                num_irs=1)
        alloc = Allocation(owner=[0, -1], sc_power=[1.0, 0.0],
                           sc_split=[0.0, 0.0], num_irs=1)
        assert weighted_sum_secrecy(alloc, ch, cfg) == pytest.approx(1.0 / 2)

    def test_weighted_two_irs(self):
        # per-SC secrecy rates 1.0 and something computable, weights (2, 1)
        cfg = SystemConfig(num_irs=2, num_ers=0, num_scs=2,
                           total_power=10.0, peak_power=10.0, noise_power=1.0,
                           weights=np.array([2.0, 1.0]),
                           harvest_eff=np.zeros(0), harvest_target=np.zeros(0))
        gains = np.array([[3.0, 1.0], [1.0, 3.0]])
        ch = ChannelRealization(gains=gains, num_irs=2)
        alloc = Allocation(owner=[0, 1], sc_power=[1.0, 1.0],
                           sc_split=np.zeros(2), num_irs=2)
        # both SCs have h2=3 against b2=1 at p=1: rate 1.0 each
        assert weighted_sum_secrecy(alloc, ch, cfg) == pytest.approx(3.0 / 2)


class TestAllocationViews:
    def test_views_spread_per_sc_data_read_only(self):
        alloc = Allocation(owner=[1, -1, 0], sc_power=[2.0, 0.0, 3.0],
                           sc_split=[0.5, 0.0, 0.25], num_irs=2)
        assert alloc.assign.dtype == np.int8
        assert alloc.assign.tolist() == [[0, 0, 1], [1, 0, 0]]
        assert alloc.power.tolist() == [[0.0, 0.0, 3.0], [2.0, 0.0, 0.0]]
        assert alloc.split.tolist() == [[0.0, 0.0, 0.25], [0.5, 0.0, 0.0]]
        for view in (alloc.assign, alloc.power, alloc.split):
            with pytest.raises(ValueError):
                view[0, 0] = 1


class TestAllocationValidate:
    @pytest.mark.parametrize("owner", [2, -2])
    def test_rejects_owner_out_of_range(self, owner):
        cfg = _toy(k1=2, n_sc=1)
        alloc = Allocation(owner=[owner], sc_power=[1.0], sc_split=[0.0],
                           num_irs=2)
        with pytest.raises(DomainError, match="owner"):
            alloc.validate(cfg)

    @pytest.mark.parametrize("power, split", [(1.0, 0.0), (0.0, 0.5)])
    def test_rejects_power_or_split_on_unassigned_sc(self, power, split):
        cfg = _toy(k1=2, n_sc=2)
        alloc = Allocation(owner=[0, -1], sc_power=[1.0, power],
                           sc_split=[0.0, split], num_irs=2)
        with pytest.raises(DomainError, match="unassigned"):
            alloc.validate(cfg)

    def test_rejects_total_power_violation(self):
        cfg = _toy(n_sc=2, p_max=1.0)
        alloc = Allocation(owner=[0, 0], sc_power=[1.0, 1.0],
                           sc_split=np.zeros(2), num_irs=1)
        with pytest.raises(DomainError):
            alloc.validate(cfg)
