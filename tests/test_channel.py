"""Channel generation: unit conversions, path loss, fading statistics and
deterministic stream splitting."""

import numpy as np
import pytest

from ofdma_swipt import (DomainError, ScenarioSpec, dbm_to_watts,
                         generate_scenario, path_loss, watts_to_dbm)
from ofdma_swipt.channel import SPEED_OF_LIGHT

from conftest import paper_system


class TestDbmConversion:
    def test_zero_dbm(self):
        assert dbm_to_watts(0.0) == pytest.approx(1e-3)

    def test_37_dbm(self):
        assert dbm_to_watts(37.0) == pytest.approx(5.0119, rel=1e-4)

    def test_noise_floor(self):
        assert dbm_to_watts(-83.0) == pytest.approx(5.0119e-12, rel=1e-4)

    def test_round_trip(self):
        assert watts_to_dbm(dbm_to_watts(12.3)) == pytest.approx(12.3)

    def test_nonpositive_watts_rejected(self):
        with pytest.raises(DomainError):
            watts_to_dbm(0.0)


class TestPathLoss:
    def test_reference_anchor(self):
        spec = ScenarioSpec()
        expect = (SPEED_OF_LIGHT / (4 * np.pi * 900e6)) ** 2
        assert path_loss(1.0, spec) == pytest.approx(expect)
        # 7.036e-4 comes from rounding the propagation speed to 3e8 m/s
        assert expect == pytest.approx(7.036e-4, rel=2e-3)

    def test_doubling_distance(self):
        spec = ScenarioSpec()
        assert path_loss(2.0, spec) == pytest.approx(path_loss(1.0, spec) / 8)

    def test_cell_edge(self):
        spec = ScenarioSpec()
        assert path_loss(200.0, spec) == pytest.approx(path_loss(1.0, spec) / 8e6)

    def test_below_reference_rejected(self):
        with pytest.raises(DomainError):
            path_loss(0.5, ScenarioSpec())


class TestGenerateScenario:
    def test_deterministic(self):
        cfg = paper_system(n_sc=16)
        a = generate_scenario(cfg, ScenarioSpec(seed=42))
        b = generate_scenario(cfg, ScenarioSpec(seed=42))
        assert np.array_equal(a.gains, b.gains)

    def test_seed_changes_gains(self):
        cfg = paper_system(n_sc=16)
        a = generate_scenario(cfg, ScenarioSpec(seed=1))
        b = generate_scenario(cfg, ScenarioSpec(seed=2))
        assert not np.array_equal(a.gains, b.gains)

    def test_adding_receivers_preserves_existing_streams(self):
        spec = ScenarioSpec(seed=7)
        small = generate_scenario(paper_system(n_sc=8, k2=2), spec)
        big = generate_scenario(paper_system(n_sc=8, k2=4), spec)
        assert np.array_equal(big.gains[:6], small.gains)

    def test_small_scale_fading_has_unit_mean(self):
        # pin all receivers next to the reference distance so the path loss
        # is a known constant and the fading statistics are exposed
        cfg = paper_system(n_sc=8, k1=2, k2=0, qbar_uw=0.0)
        spec = ScenarioSpec(cell_radius=1.0 + 1e-9, seed=0)
        g0 = path_loss(1.0, spec)
        samples = []
        for seed in range(1500):
            ch = generate_scenario(cfg, ScenarioSpec(cell_radius=1.0 + 1e-9,
                                                     seed=seed))
            samples.append(ch.gains / g0)
        mean = float(np.mean(samples))
        assert mean == pytest.approx(1.0, abs=0.02)

    def test_single_tap_gives_flat_response(self):
        cfg = paper_system(n_sc=16, k1=2, k2=0, qbar_uw=0.0)
        ch = generate_scenario(cfg, ScenarioSpec(num_taps=1, seed=3))
        for row in ch.gains:
            assert np.allclose(row, row[0])

    def test_er_gains_dominate_ir_gains(self):
        cfg = paper_system(n_sc=16)
        meds_ir, meds_er = [], []
        for seed in range(50):
            ch = generate_scenario(cfg, ScenarioSpec(seed=seed))
            meds_ir.append(np.median(ch.ir_gains))
            meds_er.append(np.median(ch.er_gains))
        assert np.median(meds_er) / np.median(meds_ir) > 1e3


class TestScenarioSpecValidation:
    def test_bad_radius(self):
        with pytest.raises(DomainError):
            ScenarioSpec(cell_radius=-1.0)

    @pytest.mark.parametrize("name", ["cell_radius", "er_radius", "carrier",
                                      "pathloss_exp"])
    @pytest.mark.parametrize("value", [0.0, np.nan, np.inf])
    def test_scalars_positive_and_finite(self, name, value):
        with pytest.raises(DomainError, match=name):
            ScenarioSpec(**{name: value})

    def test_bad_taps(self):
        with pytest.raises(DomainError):
            ScenarioSpec(num_taps=0)
