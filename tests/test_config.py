"""Config parsing: schema validation, unit conversion, defaults."""

import math

import numpy as np
import pytest

from ofdma_swipt.config import ConfigError, load_config, parse_config
from ofdma_swipt.heuristics import SCHEMES


def base_config():
    return {
        "system": {"K1": 2, "K2": 2, "N": 8, "P_max_dBm": 37,
                   "sigma2_dBm": -83, "Qbar_uW": 100},
        "scheme": "optimal",
    }


class TestParseConfig:
    def test_valid_roundtrip(self):
        exp = parse_config(base_config())
        assert exp.system.num_irs == 2
        assert exp.system.total_power == pytest.approx(5.0119, rel=1e-4)
        assert exp.system.peak_power == math.inf
        assert np.allclose(exp.system.harvest_target, 100e-6)
        assert exp.scheme == "optimal"

    def test_inf_peak_literal(self):
        data = base_config()
        data["system"]["P_peak_dBm"] = "inf"
        assert parse_config(data).system.peak_power == math.inf

    def test_finite_peak(self):
        data = base_config()
        data["system"]["P_peak_dBm"] = 30
        assert parse_config(data).system.peak_power == pytest.approx(1.0)

    def test_vector_fields(self):
        data = base_config()
        data["system"]["weights"] = [1.0, 2.0]
        data["system"]["zeta"] = [0.5, 0.7]
        exp = parse_config(data)
        assert exp.system.weights.tolist() == [1.0, 2.0]
        assert exp.system.harvest_eff.tolist() == [0.5, 0.7]

    def test_vector_length_mismatch(self):
        data = base_config()
        data["system"]["weights"] = [1.0, 2.0, 3.0]
        with pytest.raises(ConfigError):
            parse_config(data)

    def test_unknown_keys_rejected(self):
        data = base_config()
        data["system"]["bogus"] = 1
        with pytest.raises(ConfigError):
            parse_config(data)

    def test_unknown_top_level_key_rejected(self):
        # a misspelt "scheme" must not fall back to the default scheme
        data = base_config()
        data["schme"] = "noan"
        with pytest.raises(ConfigError, match="schme"):
            parse_config(data)

    def test_scenario_seed_rejected(self):
        # the channel seed comes from --seed, never from the file
        data = base_config()
        data["scenario"] = {"seed": 3}
        with pytest.raises(ConfigError, match="seed"):
            parse_config(data)

    def test_scenario_bandwidth_rejected(self):
        # nothing reads a bandwidth: the noise power is sigma2_dBm
        data = base_config()
        data["scenario"] = {"bandwidth": 1e6}
        with pytest.raises(ConfigError, match="bandwidth"):
            parse_config(data)

    @pytest.mark.parametrize("key", ["xi0", "nu0", "polish_rounds"])
    def test_removed_solver_keys_rejected(self, key):
        data = base_config()
        data["solver"] = {key: 1}
        with pytest.raises(ConfigError):
            parse_config(data)

    def test_missing_system_section(self):
        with pytest.raises(ConfigError):
            parse_config({"scheme": "optimal"})

    def test_bad_scheme(self):
        data = base_config()
        data["scheme"] = "magic"
        with pytest.raises(ConfigError, match="noan"):
            parse_config(data)

    def test_all_schemes_accepted(self):
        for scheme in SCHEMES:
            data = base_config()
            data["scheme"] = scheme
            assert parse_config(data).scheme == scheme

    def test_scenario_and_solver_defaults(self):
        exp = parse_config(base_config())
        assert exp.scenario.cell_radius == 200.0
        assert exp.solver.max_iterations == 5000


class TestLoadConfig:
    def test_reads_shipped_configs(self):
        exp = load_config("configs/paper.yaml")
        assert exp.system.num_scs == 64
        exp = load_config("configs/small.yaml")
        assert exp.system.num_scs == 8

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/no/such/file.yaml")

    def test_malformed_yaml(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("system: [unclosed\n")
        with pytest.raises(ConfigError):
            load_config(str(bad))
