"""Experiment configuration files: YAML in, validated dataclasses out.

Schema (all sections optional except ``system``):

system:
  K1: 4            # information receivers
  K2: 4            # energy receivers
  N: 64            # subcarriers
  P_max_dBm: 37
  P_peak_dBm: inf  # "inf" for no per-SC cap
  sigma2_dBm: -83
  weights: 1.0     # scalar or list of K1
  zeta: 0.6        # scalar or list of K2
  Qbar_uW: 100     # scalar or list of K2, microwatts
scenario:
  cell_radius: 200
  er_radius: 2
  carrier: 900e6
  pathloss_exp: 3
  num_taps: 8
solver:
  max_iter: 5000   # cap on dual evaluations
scheme: optimal    # a name in heuristics.SCHEMES

Powers are dBm in files and watts internally; a dBm value whose watts
overflow a float is rejected. Booleans are not numbers: ``true`` is
rejected wherever a number is expected. Counts (K1, K2, N, num_taps,
max_iter) must be nonnegative whole numbers: -1, 2.7 or .inf is rejected,
not truncated, and so is a count too big for a numpy index, such as 1e20.
Radii, the carrier and the path-loss exponent must be positive and
finite. The solver's tolerances are not settings: both are fixed at 1e-9
(``dual.CONVERGENCE_TOL``, ``dual.FEASIBILITY_TOL``). Unknown keys are
rejected at every level; the channel seed is not a config key but the
CLI's --seed.

A swept value is read as the key it replaces (``AXES``), in the file's
units: Qbar in microwatts, Pmax in dBm. ``with_axis`` writes it into a copy
of the mapping, which ``parse_config`` then validates as if it had been in
the file. On the K2 axis the per-ER lists follow the count: configured ERs
keep their values, an appended ER copies ER 0's, and an empty list gives
way to the key's default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
import yaml

from .channel import ScenarioSpec, dbm_to_watts
from .dual import SolverOptions
from .heuristics import DEFAULT_SCHEME, SCHEMES
from .model import SystemConfig


AXES = {"Qbar": "Qbar_uW", "Pmax": "P_max_dBm", "N": "N", "K2": "K2"}
_SCENARIO_KEYS = {f.name for f in fields(ScenarioSpec)} - {"seed"}


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    system: SystemConfig
    scenario: ScenarioSpec
    solver: SolverOptions
    scheme: str


def _number(value, name: str, expected: str = "a number") -> float:
    """``value`` as a float; ConfigError for a boolean or a non-number."""
    try:
        if not isinstance(value, bool):
            return float(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"{name}: bad value {value!r}, expected {expected}")


def _as_vector(value, count, name):
    if not isinstance(value, list):
        return np.full(count, _number(value, name))
    if len(value) != count:
        raise ConfigError(f"{name}: expected scalar or list of length {count}")
    return np.array([_number(v, name) for v in value])


def parse_count(value, name: str) -> int:
    """``value`` as an int; ConfigError unless it is a nonnegative whole
    number that fits a numpy index (at most ``np.iinfo(np.intp).max``)."""
    number = _number(value, name, "a count")
    if not number.is_integer() or not 0 <= number <= np.iinfo(np.intp).max:
        raise ConfigError(f"{name}: bad value {value!r}, expected a count")
    return int(number)


def _power_dbm(value, name):
    if isinstance(value, str):
        if value.strip().lower() in ("inf", "+inf", "infinity"):
            return math.inf
        raise ConfigError(f"{name}: bad value {value!r}")
    return dbm_to_watts(_number(value, name))


def parse_config(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict) or "system" not in data:
        raise ConfigError("config must be a mapping with a 'system' section")
    unknown = set(data) - {"system", "scenario", "solver", "scheme"}
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown, key=str)}")
    try:
        sys_d = dict(data["system"])
        k1 = parse_count(sys_d.pop("K1"), "K1")
        k2 = parse_count(sys_d.pop("K2"), "K2")
        n = parse_count(sys_d.pop("N"), "N")
        p_max = _power_dbm(sys_d.pop("P_max_dBm"), "P_max_dBm")
        p_peak_raw = sys_d.pop("P_peak_dBm", "inf")
        p_peak = math.inf if p_peak_raw is None else _power_dbm(p_peak_raw, "P_peak_dBm")
        sigma2 = _power_dbm(sys_d.pop("sigma2_dBm"), "sigma2_dBm")
        weights = _as_vector(sys_d.pop("weights", 1.0), k1, "weights")
        zeta = _as_vector(sys_d.pop("zeta", 0.6), k2, "zeta")
        qbar = _as_vector(sys_d.pop("Qbar_uW", 0.0), k2, "Qbar_uW") * 1e-6
        if sys_d:
            raise ConfigError(f"unknown system keys: {sorted(sys_d)}")
        system = SystemConfig(num_irs=k1, num_ers=k2, num_scs=n,
                              total_power=p_max, peak_power=p_peak,
                              noise_power=sigma2, weights=weights,
                              harvest_eff=zeta, harvest_target=qbar)
        sc_d = dict(data.get("scenario", {}))
        unknown = set(sc_d) - _SCENARIO_KEYS
        if unknown:
            raise ConfigError(f"unknown scenario keys: {sorted(unknown)}")
        scenario = ScenarioSpec(**{  # keys not in the file keep their defaults
            key: (parse_count if key == "num_taps" else _number)(value, key)
            for key, value in sc_d.items()})
        so_d = dict(data.get("solver", {}))
        solver = SolverOptions(max_iterations=parse_count(
            so_d.pop("max_iter", SolverOptions.max_iterations), "max_iter"))
        if so_d:
            raise ConfigError(f"unknown solver keys: {sorted(so_d)}")
        scheme = str(data.get("scheme", DEFAULT_SCHEME))
        if scheme not in SCHEMES:
            raise ConfigError(f"scheme must be one of {tuple(SCHEMES)}")
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad config: {exc}") from exc
    return ExperimentConfig(system=system, scenario=scenario,
                            solver=solver, scheme=scheme)


def with_axis(data: dict, axis: str, value) -> dict:
    """A copy of the config mapping ``data`` with the key of the swept
    ``axis`` set to ``value``; on the K2 axis the per-ER lists follow the
    count, as the module docstring states."""
    sys_d = dict(data["system"])
    sys_d[AXES[axis]] = value
    if axis == "K2":
        k2 = parse_count(value, "K2")
        for key in ("zeta", "Qbar_uW"):
            ers = sys_d.get(key)
            if ers == []:
                del sys_d[key]
            elif isinstance(ers, list):
                sys_d[key] = (ers + ers[:1] * k2)[:k2]
    return {**data, "system": sys_d}


def read_config(path: str):
    """The YAML document in ``path``, unparsed."""
    try:
        with open(path) as fh:
            return yaml.safe_load(fh)
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def load_config(path: str) -> ExperimentConfig:
    return parse_config(read_config(path))
