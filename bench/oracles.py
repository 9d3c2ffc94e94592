"""Correctness oracles for the benchmark, computed apart from the package.

Every oracle takes plain arrays (a :class:`Case`) and returns a list of
problems; an empty list means the check passed. Nothing here imports
``ofdma_swipt``: rates are recomputed in 40-digit ``mpmath`` from the channel
gains, feasibility from the gains and the allocation, and infeasibility of a
harvest target from a minimum-power LP of its own.

``python3 bench/oracles.py`` runs :func:`self_test`, which feeds each oracle
a clean case and corrupted copies of it and fails unless every corrupted copy
is rejected.
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass

import mpmath
import numpy as np
from scipy.optimize import linprog

#: relative tolerance of the reported objective against the 40-digit value
OBJECTIVE_RTOL = 1e-10
#: relative tolerance of the reported harvested power against its recomputation
HARVEST_RTOL = 1e-9


@dataclass
class Case:
    """One solve's inputs and outputs as plain arrays."""

    label: str
    gains: np.ndarray  # (K1 + K2, N) power gains, IRs first
    num_irs: int
    weights: np.ndarray  # (K1,)
    noise: float  # per-SC noise power, W
    total_power: float  # W
    peak_power: float  # W, may be inf
    harvest_eff: np.ndarray  # (K2,)
    harvest_target: np.ndarray  # (K2,) W
    feas_tol: float  # W
    infeasible: bool = False
    objective: float = float("nan")  # band-averaged, bps/Hz
    gap: float | None = None
    assign: np.ndarray | None = None  # (K1, N)
    power: np.ndarray | None = None  # (K1, N) W
    split: np.ndarray | None = None  # (K1, N)
    harvested: np.ndarray | None = None  # (K2,) W
    lam: np.ndarray | None = None  # (K2,) final harvest multipliers
    gamma: float = 0.0  # final power price


def eve_gains(case: Case) -> np.ndarray:
    """Largest gain among all other receivers, per (IR, SC)."""
    g = case.gains
    out = np.empty((case.num_irs, g.shape[1]))
    for k in range(case.num_irs):
        out[k] = np.delete(g, k, axis=0).max(axis=0)
    return out


def sc_power(case: Case) -> np.ndarray:
    return (case.assign * case.power).sum(axis=0)


def harvest(case: Case) -> np.ndarray:
    er = case.gains[case.num_irs:]
    return case.harvest_eff * (er @ sc_power(case))


def mp_objective(case: Case) -> mpmath.mpf:
    """Band-averaged weighted secrecy rate in 40-digit arithmetic:
    [log2(1 + (1-a) h p / s) - log2((s + b p) / (s + a b p))]^+ summed over
    assigned pairs."""
    with mpmath.workdps(40):
        beta = eve_gains(case)
        s = mpmath.mpf(case.noise)
        total = mpmath.mpf(0)
        for k, n in zip(*np.nonzero(case.assign)):
            p = mpmath.mpf(float(case.power[k, n]))
            a = mpmath.mpf(float(case.split[k, n]))
            h = mpmath.mpf(float(case.gains[k, n]))
            b = mpmath.mpf(float(beta[k, n]))
            r = (mpmath.log(1 + (1 - a) * h * p / s)
                 - mpmath.log((s + b * p) / (s + a * b * p))) / mpmath.log(2)
            total += mpmath.mpf(float(case.weights[k])) * max(r, 0)
        return total / case.gains.shape[1]


def check_objective(case: Case) -> list[str]:
    exact = mp_objective(case)
    err = abs(mpmath.mpf(case.objective) - exact)
    if not err <= OBJECTIVE_RTOL * max(1, abs(exact)):
        return [f"{case.label}: objective {case.objective!r} != "
                f"{mpmath.nstr(exact, 17)} (40-digit)"]
    return []


def check_feasible(case: Case) -> list[str]:
    """One IR per SC, no power off the assignment, 0 <= p <= P_peak,
    alpha in [0,1], total power and harvest within the solver tolerance."""
    x, p, a = case.assign, case.power, case.split
    bad = []
    if not np.all((x == 0) | (x == 1)):
        bad.append("assignment not in {0,1}")
    if np.any(x.sum(axis=0) > 1):
        bad.append("SC assigned to more than one IR")
    if np.any(p[x == 0] != 0) or np.any(a[x == 0] != 0):
        bad.append("power or split on an unassigned pair")
    if np.any(p < 0) or np.any(p > case.peak_power * (1 + 1e-12)):
        bad.append("per-SC power outside [0, P_peak]")
    if np.any((a < 0) | (a > 1)):
        bad.append("split outside [0, 1]")
    total = float(sc_power(case).sum())
    if total > case.total_power + case.feas_tol:
        bad.append(f"total power {total!r} > P_max {case.total_power!r} + tol")
    q = harvest(case)
    short = case.harvest_target - case.feas_tol - q
    if np.any(short > 0):
        bad.append(f"harvest below target by {float(short.max()):.3g} W")
    if case.harvested is not None and np.any(
            np.abs(case.harvested - q)
            > HARVEST_RTOL * np.maximum(np.abs(q), case.harvest_target) + 1e-18):
        bad.append("reported harvest differs from the recomputed one")
    return [f"{case.label}: {b}" for b in bad]


def check_weak_duality(bound: Case, case: Case) -> list[str]:
    """bound.objective + bound.gap >= case.objective, up to the bound's
    multipliers times ``case``'s excess over ``bound``'s constraints."""
    if not np.array_equal(bound.gains, case.gains):
        return [f"{case.label}: weak duality compared across draws"]
    n = bound.gains.shape[1]
    lam = np.zeros(len(bound.harvest_target)) if bound.lam is None else bound.lam
    excess_q = np.maximum(bound.harvest_target - harvest(case), 0.0)
    excess_p = max(float(sc_power(case).sum()) - bound.total_power, 0.0)
    slack = (float(lam @ excess_q) + bound.gamma * excess_p) / n
    ub = bound.objective + bound.gap
    if case.objective > ub + slack + 1e-13 * max(1.0, abs(ub)):
        return [f"{case.label}: objective {case.objective!r} above the bound "
                f"{ub!r} of {bound.label} (+{slack:.3g} for constraint excess)"]
    return []


def check_noan_zero(case: Case) -> list[str]:
    """Without AN the secrecy rate is zero unless h^2 > beta^2 somewhere."""
    h = case.gains[:case.num_irs]
    if np.any(h > eve_gains(case)) or case.objective == 0.0:
        return []
    return [f"{case.label}: objective {case.objective!r} != 0 although no "
            f"(IR, SC) pair has h^2 > beta^2"]


def check_fsa(case: Case) -> list[str]:
    k, n = np.nonzero((case.assign != 0) | (case.power != 0))
    if np.any(k != n % case.num_irs):
        return [f"{case.label}: assignment is not n mod K1"]
    return []


def check_alpha(case: Case, alpha: float) -> list[str]:
    on = (case.assign == 1) & (case.power > 0)
    if np.any(case.split[on] != alpha):
        return [f"{case.label}: split != {alpha} on a powered SC"]
    return []


def min_power_for_targets(case: Case) -> float:
    """Least total power that meets every harvest target: inf when no power
    does, NaN when the LP itself fails."""
    n = case.gains.shape[1]
    er = case.gains[case.num_irs:]
    cap = None if np.isinf(case.peak_power) else case.peak_power
    res = linprog(c=np.ones(n), A_ub=-(case.harvest_eff[:, None] * er),
                  b_ub=-case.harvest_target, bounds=[(0.0, cap)] * n,
                  method="highs")
    if res.status == 2:
        return float("inf")
    return float(res.fun) if res.status == 0 else float("nan")


def check_infeasible(case: Case) -> list[str]:
    need = min_power_for_targets(case)
    if need > case.total_power:
        return []
    return [f"{case.label}: reported infeasible, but {need!r} W meets every "
            f"target within P_max {case.total_power!r}"]


def check_monotone(lo: Case, hi: Case) -> list[str]:
    """Per draw, raising the harvest target cannot help: an infeasible lower
    target stays infeasible, and the objective at the higher target is at
    most the bound at the lower one."""
    if lo.infeasible:
        return [] if hi.infeasible else [
            f"{hi.label}: solved although {lo.label} is infeasible"]
    if hi.infeasible:
        return []
    return check_weak_duality(lo, hi)


def self_test() -> list[str]:
    """Run each oracle on a clean hand-built case and on corrupted copies.

    Returns the problems: a clean case rejected or a corrupted one accepted.
    """
    gains = np.array([[4.0, 0.5, 3.0, 0.2],   # IR 0
                      [0.5, 5.0, 0.3, 0.1],   # IR 1
                      [1.0, 1.0, 1.0, 2.0]])  # ER 0
    x = np.array([[1, 0, 1, 0], [0, 1, 0, 1]])
    p = np.array([[1.5, 0.0, 1.0, 0.0], [0.0, 1.5, 0.0, 0.0]])
    a = np.array([[0.3, 0.0, 0.5, 0.0], [0.0, 0.5, 0.0, 0.0]])
    base = Case(label="synthetic", gains=gains, num_irs=2,
                weights=np.array([1.0, 2.0]), noise=1.0, total_power=4.0,
                peak_power=float("inf"), harvest_eff=np.array([0.5]),
                harvest_target=np.array([1.5]), feas_tol=1e-9,
                assign=x, power=p, split=a, harvested=np.array([2.0]),
                lam=np.array([0.2]), gamma=0.3)
    base.objective = float(mp_objective(base))
    base.gap = 0.1
    half = dataclasses.replace(base, split=np.where(x * p > 0, 0.5, 0.0))
    half.objective = float(mp_objective(half))
    dark = dataclasses.replace(base, gains=np.vstack([gains[:2], np.full(4, 10.0)]),
                               split=np.zeros_like(a), harvested=None)
    dark.objective = float(mp_objective(dark))
    unreachable = dataclasses.replace(base, infeasible=True,
                                      harvest_target=np.array([100.0]))

    def corrupt(case, **kw):
        return dataclasses.replace(case, label=case.label + " (corrupted)", **kw)

    x2 = x.copy()
    x2[1, 0] = 1
    x3 = x[::-1].copy()
    stray = p.copy()
    stray[1, 2] = 0.5
    trials = [
        (check_objective, (base,), (corrupt(base, objective=base.objective + 1e-6),)),
        (check_feasible, (base,), (corrupt(base, power=p * 1.01, harvested=None),)),
        (check_feasible, (base,), (corrupt(base, split=np.where(x, 1.2, 0.0)),)),
        (check_feasible, (base,), (corrupt(base, assign=x2),)),
        (check_feasible, (base,), (corrupt(base, power=stray, harvested=None),)),
        (check_feasible, (base,), (corrupt(base, harvest_target=np.array([2.5])),)),
        (check_feasible, (base,), (corrupt(base, harvested=np.array([2.2])),)),
        (check_weak_duality, (base, half),
         (base, corrupt(half, objective=base.objective + base.gap + 1e-3))),
        (check_noan_zero, (dark,), (corrupt(dark, objective=1e-3),)),
        (check_fsa, (base,), (corrupt(base, assign=x3, power=p[::-1], split=a[::-1]),)),
        (check_alpha, (half, 0.5), (corrupt(half, split=np.where(x * p > 0, 0.4, 0.0)), 0.5)),
        (check_infeasible, (unreachable,), (corrupt(base, infeasible=True),)),
        (check_monotone, (unreachable, unreachable),
         (unreachable, corrupt(base, harvest_target=np.array([200.0])))),
        (check_monotone, (base, half), (base, corrupt(half, objective=base.objective + 0.2))),
    ]
    problems = []
    for oracle, clean, broken in trials:
        errors = oracle(*clean)
        if errors:
            problems.append(f"{oracle.__name__} rejects a clean case: {errors}")
        if not oracle(*broken):
            labels = [c.label for c in broken if isinstance(c, Case)]
            problems.append(f"{oracle.__name__} accepts {labels}")
    return problems


if __name__ == "__main__":
    found = self_test()
    for line in found:
        print(line)
    print("oracle self-test:", "FAILED" if found else "ok")
    sys.exit(1 if found else 0)
