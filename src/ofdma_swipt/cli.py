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

from .channel import generate_scenario
from .config import (AXES, ConfigError, ExperimentConfig, load_config,
                     parse_config, read_config, with_axis)
from .dual import InfeasibleProblemError
from .heuristics import solve
from .model import DomainError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_NOT_CONVERGED = 4


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


def _report_json(exp: ExperimentConfig, report, seed: int) -> str:
    alloc = report.allocation
    return json.dumps({
        "seed": seed,
        "objective_bps_hz": report.objective,
        "harvested_w": [float(q) for q in np.atleast_1d(report.harvested)],
        "duality_gap_bps_hz": report.duality_gap,
        "iterations": report.iterations,
        "allocation": {
            "assign": alloc.assign.tolist(),
            "power_w": alloc.power.tolist(),
            "split": alloc.split.tolist(),
        },
        "metadata": report.metadata,
    }, indent=2, sort_keys=True) + "\n"


def _profile_csv(exp: ExperimentConfig, report, seed: int) -> str:
    alloc = report.allocation
    lines = [
        f"# ofdma-swipt profile scheme={exp.scheme} seed={seed}",
        "sc,assigned_ir,power,alpha,info_power",
    ]
    for n, (k, p, a) in enumerate(zip(alloc.owner, alloc.sc_power,
                                      alloc.sc_split)):
        lines.append(",".join(_fmt(v) for v in (n, k, p, a, (1.0 - a) * p)))
    return "\n".join(lines) + "\n"


def cmd_one(args) -> int:
    """The solve and profile commands: one draw, emitted by ``args.render``."""
    exp = load_config(args.config)
    report = run_scheme(exp, args.seed)
    _emit(args.render(exp, report, args.seed), args.out)
    return EXIT_OK if report.metadata.get("converged", True) else EXIT_NOT_CONVERGED


def cmd_sweep(args) -> int:
    data = read_config(args.config)
    exp = parse_config(data)  # the file as written must parse, swept key too
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
        exp_v = parse_config(with_axis(data, args.axis, value))
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
    p_solve.set_defaults(func=cmd_one, render=_report_json)

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
    p_prof.set_defaults(func=cmd_one, render=_profile_csv)
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
