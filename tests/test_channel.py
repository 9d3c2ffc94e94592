"""Channel generation: unit conversions, path loss, fading statistics and
deterministic stream splitting."""

import numpy as np
import pytest

from ofdma_swipt import (DomainError, ScenarioSpec, dbm_to_watts,
                         generate_scenario, path_loss, watts_to_dbm)
from ofdma_swipt import channel
from ofdma_swipt.channel import D_REF, SPEED_OF_LIGHT

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

    @pytest.mark.parametrize("dbm", [3150.0, 4000.0])
    def test_overflow_rejected(self, dbm):
        # beyond about 3112 dBm the watts overflow a float
        with pytest.raises(DomainError, match="overflows"):
            dbm_to_watts(dbm)

    def test_nonpositive_watts_rejected(self):
        with pytest.raises(DomainError):
            watts_to_dbm(0.0)

    def test_nan_watts_rejected(self):
        with pytest.raises(DomainError):
            watts_to_dbm(float("nan"))


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

    @pytest.mark.parametrize("d", [np.nan, [2.0, np.nan],
                                   np.array([[3.0], [np.nan]])])
    def test_nan_distance_rejected(self, d):
        with pytest.raises(DomainError):
            path_loss(d, ScenarioSpec())

    @pytest.mark.parametrize("d", [
        np.nextafter(D_REF, 0.0), -np.inf,
        np.array([2.0, np.nextafter(D_REF, 0.0)])],
        ids=["scalar-just-below", "scalar-minus-inf", "array-just-below"])
    def test_just_below_reference_rejected(self, d):
        with pytest.raises(DomainError, match="below reference"):
            path_loss(d, ScenarioSpec())

    def test_takes_arrays(self):
        spec = ScenarioSpec()
        d = np.array([1.0, 2.0, 200.0])
        assert path_loss(d, spec) == pytest.approx(
            [path_loss(float(x), spec) for x in d], rel=1e-12)


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

    @pytest.mark.parametrize("n_sc", [2, 3, 4, 64])
    def test_unit_mean_at_any_subcarrier_count(self, n_sc):
        # fewer subcarriers than the 8 taps: the taps fold onto the DFT
        # instead of being cropped, which would lose their power
        cfg = paper_system(n_sc=n_sc, k1=2, k2=0, qbar_uw=0.0)
        g0 = path_loss(1.0, ScenarioSpec())
        mean = np.mean([generate_scenario(cfg, ScenarioSpec(cell_radius=1.0 + 1e-9,
                                                            seed=seed)).gains / g0
                        for seed in range(400)])
        assert mean == pytest.approx(1.0, abs=0.1)

    def test_single_tap_gives_flat_response(self):
        cfg = paper_system(n_sc=16, k1=2, k2=0, qbar_uw=0.0)
        ch = generate_scenario(cfg, ScenarioSpec(num_taps=1, seed=3))
        for row in ch.gains:
            assert np.allclose(row, row[0])

    def test_one_scalar_loss_call_per_receiver(self, monkeypatch):
        # an array power rounds differently from the scalar one, so every
        # receiver's loss comes from its own call on a Python float
        distances = []

        def recording(d, spec):
            distances.append(d)
            return path_loss(d, spec)

        monkeypatch.setattr(channel, "path_loss", recording)
        cfg = paper_system()
        generate_scenario(cfg, ScenarioSpec(seed=3))
        assert len(distances) == cfg.num_receivers
        assert all(type(d) is float for d in distances)

    def test_er_gains_dominate_ir_gains(self):
        cfg = paper_system(n_sc=16)
        meds_ir, meds_er = [], []
        for seed in range(50):
            ch = generate_scenario(cfg, ScenarioSpec(seed=seed))
            meds_ir.append(np.median(ch.ir_gains))
            meds_er.append(np.median(ch.er_gains))
        assert np.median(meds_er) / np.median(meds_ir) > 1e3


def per_receiver_gains(config, spec):
    """The generator drawn one receiver at a time: each receiver's taps are
    two normal draws, padded, folded and transformed by their own FFT."""
    n = config.num_scs
    children = np.random.SeedSequence(spec.seed).spawn(config.num_receivers)
    gains = np.empty((config.num_receivers, n))
    for k, child in enumerate(children):
        rng = np.random.default_rng(child)
        if k < config.num_irs:
            d = rng.uniform(D_REF, spec.cell_radius)
        else:
            d = rng.uniform(D_REF, spec.er_radius)
        taps = (rng.standard_normal(spec.num_taps)
                + 1j * rng.standard_normal(spec.num_taps))
        taps *= np.sqrt(1.0 / (2.0 * spec.num_taps))
        taps = np.pad(taps, (0, -spec.num_taps % n)).reshape(-1, n).sum(axis=0)
        freq = np.fft.fft(taps)
        gains[k] = path_loss(d, spec) * np.abs(freq) ** 2
    return gains


@pytest.mark.parametrize("system, taps", [
    ({}, 8), ({"n_sc": 8}, 8), ({"n_sc": 3}, 8), ({}, 1),
    ({"k2": 0, "qbar_uw": 0.0}, 8), ({"n_sc": 1}, 8), ({"n_sc": 4}, 13),
    ({"k1": 1, "k2": 1}, 8)],
    ids=["paper", "n8", "n3-folded", "one-tap", "no-er", "n1-folded",
         "n4-13-taps", "one-ir-one-er"])
def test_one_fft_matches_per_receiver_draws(system, taps):
    # one normal draw per receiver, split into real and imaginary parts,
    # and the batched FFT over all receivers draw the same bytes as two
    # draws and one FFT per receiver
    cfg = paper_system(**system)
    for seed in range(200):
        spec = ScenarioSpec(num_taps=taps, seed=seed)
        got = generate_scenario(cfg, spec).gains
        assert got.tobytes() == per_receiver_gains(cfg, spec).tobytes()


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

    @pytest.mark.parametrize("name", ["cell_radius", "er_radius"])
    def test_radius_below_reference_distance(self, name):
        # receivers are dropped at distances in [D_REF, radius]
        with pytest.raises(DomainError, match=name):
            ScenarioSpec(**{name: 0.5})
        assert getattr(ScenarioSpec(**{name: D_REF}), name) == D_REF

    def test_bad_taps(self):
        with pytest.raises(DomainError):
            ScenarioSpec(num_taps=0)
