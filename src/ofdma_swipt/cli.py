"""Command-line harness: single solves, Monte-Carlo sweeps, power profiles.

Subcommands: solve | sweep | profile. Outputs are JSON (solve) or CSV written
to --out (stdout by default). Reruns with identical arguments are
byte-identical; wallclock columns are zero unless --timing is passed.

Exit codes: 0 ok, 2 config error or an --out that cannot be written
(checked before the first solve), 3 infeasible, 4 not converged.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time

import numpy as np

from .channel import dbm_to_watts, generate_scenario
from .config import ConfigError, ExperimentConfig, load_config, parse_count
from .dual import InfeasibleProblemError
from .heuristics import solve
from .model import DomainError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_NOT_CONVERGED = 4

AXES = ("Qbar", "Pmax", "N", "K2")


def _fmt(x) -> str:
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return "nan"
    if isinstance(x, float):
        return f"{x:.9g}"
    return str(x)


def run_scheme(exp: ExperimentConfig, seed: int):
    spec = dataclasses.replace(exp.scenario, seed=seed)
    channels = generate_scenario(exp.system, spec)
    return solve(exp.system, channels, exp.scheme, exp.solver)


def _resize(v: np.ndarray, k: int, fill: float) -> np.ndarray:
    """First k entries of v, padded with v[0] (or fill when v is empty)."""
    pad = np.full(max(k - v.size, 0), v[0] if v.size else fill)
    return np.concatenate([v[:k], pad])


def apply_axis(exp: ExperimentConfig, axis: str, value: float) -> ExperimentConfig:
    """Rebuild the config with one swept parameter replaced."""
    s = exp.system
    kw = {}
    if axis == "Qbar":
        kw["harvest_target"] = np.full(s.num_ers, value * 1e-6)
    elif axis == "Pmax":
        kw["total_power"] = dbm_to_watts(value)
    elif axis == "N":
        kw["num_scs"] = parse_count(value, axis)
    elif axis == "K2":
        k2 = parse_count(value, axis)
        kw["num_ers"] = k2
        # configured ERs keep their values, as they keep their channel
        # streams; appended ERs copy ER 0
        kw["harvest_eff"] = _resize(s.harvest_eff, k2, 0.6)
        kw["harvest_target"] = _resize(s.harvest_target, k2, 0.0)
    else:
        raise ConfigError(f"axis must be one of {AXES}")
    return dataclasses.replace(exp, system=dataclasses.replace(s, **kw))


def _report_dict(report, seed: int) -> dict:
    return {
        "seed": seed,
        "objective_bps_hz": report.objective,
        "harvested_w": [float(q) for q in np.atleast_1d(report.harvested)],
        "duality_gap_bps_hz": report.duality_gap,
        "iterations": report.iterations,
        "allocation": {
            "assign": report.allocation.assign.tolist(),
            "power_w": report.allocation.power.tolist(),
            "split": report.allocation.split.tolist(),
        },
        "metadata": report.metadata,
    }


def _write_out(out: str, mode: str, text: str = ""):
    """Write ``text`` to ``out`` opened with ``mode``, its directory made
    first; a path that cannot be written is a config error."""
    try:
        parent = os.path.dirname(out)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(out, mode) as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc}") from exc


def _check_out(out: str | None):
    """Fail before any solve if ``out`` cannot be written. Appending nothing
    truncates nothing, and a file this check creates is removed again, so a
    run that ends without output leaves ``out`` as it was."""
    if out:
        existed = os.path.lexists(out)
        _write_out(out, "a")
        if not existed:
            os.remove(out)


def _emit(text: str, out: str | None):
    if out:
        _write_out(out, "w", text)
    else:
        sys.stdout.write(text)


def cmd_solve(args) -> int:
    exp = load_config(args.config)
    report = run_scheme(exp, args.seed)
    _emit(json.dumps(_report_dict(report, args.seed), indent=2, sort_keys=True) + "\n",
          args.out)
    if not report.metadata.get("converged", True):
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def cmd_sweep(args) -> int:
    exp = load_config(args.config)
    if args.trials < 1:
        raise ConfigError(f"--trials: expected at least 1, got {args.trials}")
    try:
        values = [float(v) for v in args.values.split(",")]
    except ValueError as exc:
        raise ConfigError(f"--values: {exc}") from exc
    lines = [
        f"# ofdma-swipt sweep axis={args.axis} scheme={exp.scheme} "
        f"trials={args.trials} seed={args.seed}",
        "# row seed = seed + trial; objective and gap are band-averaged (per SC)",
        "axis_value,trial,scheme,objective,gap,feasible,iterations,wallclock,"
        "converged,stop_reason",
    ]
    for value in values:
        exp_v = apply_axis(exp, args.axis, value)
        for trial in range(args.trials):
            row_seed = args.seed + trial
            t0 = time.perf_counter()
            try:
                report = run_scheme(exp_v, row_seed)
                obj, gap = report.objective, report.duality_gap
                feas, iters = 1, report.iterations
                conv = int(report.metadata.get("converged", True))
                stop = report.metadata.get("stop_reason", "")
            except InfeasibleProblemError as exc:
                obj, gap, feas, conv = math.nan, math.nan, 0, 0
                iters, stop = exc.evaluations, ""
            wallclock = time.perf_counter() - t0 if args.timing else 0.0
            lines.append(",".join(_fmt(v) for v in (
                value, trial, exp.scheme, obj, gap, feas, iters, wallclock,
                conv, stop)))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_profile(args) -> int:
    exp = load_config(args.config)
    report = run_scheme(exp, args.seed)
    alloc = report.allocation
    lines = [
        f"# ofdma-swipt profile scheme={exp.scheme} seed={args.seed}",
        "sc,assigned_ir,power,alpha,info_power",
    ]
    for n, (k, p, a) in enumerate(zip(alloc.owner, alloc.sc_power,
                                      alloc.sc_split)):
        lines.append(",".join(_fmt(v) for v in (n, k, p, a, (1.0 - a) * p)))
    _emit("\n".join(lines) + "\n", args.out)
    if not report.metadata.get("converged", True):
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ofdma-swipt",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)

    p_solve = sub.add_parser("solve", help="one scheme on one realization")
    common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="Monte-Carlo sweep along one axis")
    common(p_sweep)
    p_sweep.add_argument("--axis", required=True, choices=AXES)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated axis values")
    p_sweep.add_argument("--trials", type=int, default=50)
    p_sweep.add_argument("--timing", action="store_true",
                         help="record wallclock (breaks byte-identical reruns)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_prof = sub.add_parser("profile", help="per-SC power/split of one solve")
    common(p_prof)
    p_prof.set_defaults(func=cmd_profile)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.seed < 0:
            raise ConfigError(f"--seed: expected a nonnegative integer, got {args.seed}")
        _check_out(args.out)
        return args.func(args)
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleProblemError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
