"""Config parsing: schema validation, unit conversion, defaults."""

import math
from pathlib import Path

import numpy as np
import pytest
import yaml

from ofdma_swipt import config
from ofdma_swipt.config import (ConfigError, load_config, parse_config,
                                read_config, with_axis)
from ofdma_swipt.heuristics import SCHEMES

CONFIGS = sorted((Path(__file__).parents[1] / "configs").glob("*.yaml"))


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

    @pytest.mark.parametrize("key", ["xi0", "nu0", "polish_rounds",
                                     "convergence_tol", "feasibility_tol"])
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

    @pytest.mark.parametrize("section, key", [
        ("system", "K1"), ("system", "K2"), ("system", "N"),
        ("scenario", "num_taps"), ("solver", "max_iter")])
    def test_negative_count_rejected(self, section, key):
        data = base_config()
        data.setdefault(section, {})[key] = -1
        with pytest.raises(ConfigError, match=f"{key}: .*expected a count"):
            parse_config(data)


class TestWithAxis:
    def test_mapping_left_unchanged(self):
        # every swept value starts from the file's own mapping
        data = base_config()
        data["system"]["zeta"] = [0.5, 0.7]
        for k2 in (3, 1):
            with_axis(data, "K2", k2)
        assert data["system"] == {**base_config()["system"], "zeta": [0.5, 0.7]}

    def test_k2_from_empty_lists_takes_defaults(self):
        data = base_config()
        data["system"].update(K2=0, zeta=[], Qbar_uW=[])
        system = parse_config(with_axis(data, "K2", 2)).system
        assert system.harvest_eff.tolist() == [0.6, 0.6]
        assert system.harvest_target.tolist() == [0.0, 0.0]


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

    def test_loader_is_libyaml_where_built(self):
        # CSafeLoader has SafeLoader's constructor and resolver on libyaml's
        # parser; without libyaml, SafeLoader itself
        assert config._LOADER is (yaml.CSafeLoader if yaml.__with_libyaml__
                                  else yaml.SafeLoader)

    def test_reads_what_safe_load_reads(self, tmp_path):
        # the shipped configs, configs written by yaml.safe_dump as the CLI
        # tests write them, and scalars the YAML 1.1 resolver treats apart:
        # the mapping is safe_load's, to its types and reprs
        assert len(CONFIGS) >= 2
        texts = [path.read_text() for path in CONFIGS]
        for system in ({}, {"K2": 0}, {"Qbar_uW": 1e12}, {"K1": 1, "K2": 0},
                       {"weights": [1.0, 2.0]}, {"Qbar_uW": [100, 2.5e-3]},
                       {"P_peak_dBm": "inf"}, {"P_peak_dBm": None}):
            data = base_config()
            data["system"].update(system)
            data["solver"] = {"max_iter": 7}
            data["scenario"] = {"cell_radius": 200.0, "carrier": 9e8}
            texts.append(yaml.safe_dump(data))
        texts.append("system:\n  a: 1e3\n  b: 1.0e3\n  c: .inf\n  d: -.Inf\n"
                     "  e: .nan\n  f: yes\n  g: off\n  h: ~\n  i: 0x1f\n"
                     "  j: 017\n  k: 1_000\n  l: 2026-10-21\n  m: '37'\n"
                     "  n: [1, {o: p}]\n  q: 190:20:30\n")
        for i, text in enumerate(texts):
            path = tmp_path / f"{i}.yaml"
            path.write_text(text)
            got, ref = read_config(str(path)), yaml.safe_load(text)
            assert repr(got) == repr(ref), text

    @pytest.mark.parametrize("text", [
        "system: [unclosed\n", "system:\n\tK1: 2\n", "a: 1\n---\nb: 2\n",
        "system: {K1: 2\n", "system:\n  K1: 2\n K2: 2\n", "key: value: other\n",
        b"system:\n  K1: \xff\xfe\n"],
        ids=["flow", "tab", "two-documents", "mapping", "indent", "nested",
             "not-utf8"])
    def test_malformed_file_is_a_config_error(self, tmp_path, text):
        bad = tmp_path / "bad.yaml"
        (bad.write_bytes if isinstance(text, bytes) else bad.write_text)(text)
        with pytest.raises(ConfigError, match="cannot read config"):
            read_config(str(bad))
