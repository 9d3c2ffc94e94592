"""Outer Lagrange-dual loop: per-SC optimization, assignment, subgradient
updates of the multipliers, primal recovery and duality-gap measurement.

The dual function is evaluated with the per-SC power additionally capped at
min(P_peak, P_max); the cap is implied by the total-power constraint, keeps
every subproblem bounded, and leaves the dual bound valid.

After the diminishing-step subgradient phase, a few rounds of coordinate
bisection polish the multipliers (each harvest multiplier against its target,
then the power price against the budget). Every dual point visited tightens
the reported bound; every primal iterate is screened for feasibility and the
best feasible one is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from .model import (Allocation, ChannelRealization, SystemConfig, LN2,
                    all_harvested_powers, optimal_split, secrecy_rate,
                    weighted_sum_secrecy)
from . import vector


class InfeasibleProblemError(RuntimeError):
    """No power allocation can satisfy the harvesting targets."""


@dataclass
class SolverOptions:
    max_iterations: int = 5000
    step_xi0: float = 1.0
    step_nu0: float = 1.0
    convergence_tol: float = 1e-6  # relative change of (lambda, gamma)
    convergence_window: int = 10
    feasibility_tol: float = 1e-9  # watts
    polish_rounds: int = 2
    bisect_iters: int = 50
    keep_trace: bool = True

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        for name in ("step_xi0", "step_nu0", "convergence_tol",
                     "feasibility_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class DualState:
    """Multipliers, iteration counter and the current step sizes."""

    lam: np.ndarray  # (K2,), >= 0
    gamma: float  # >= 0
    iteration: int = 0
    xi: np.ndarray = None  # (K2,) current step sizes
    nu: float = 1.0

    def __post_init__(self):
        self.lam = np.atleast_1d(np.asarray(self.lam, dtype=float))
        if self.xi is None:
            self.xi = np.ones_like(self.lam)
        self.xi = np.atleast_1d(np.asarray(self.xi, dtype=float))


@dataclass
class SolveReport:
    objective: float  # bits/s/Hz, band-averaged (divided by N)
    harvested: np.ndarray  # (K2,) watts
    duality_gap: float | None
    iterations: int
    feasible: bool
    allocation: Allocation
    trace: list
    metadata: dict = field(default_factory=dict)


def assign_subcarriers(values: np.ndarray) -> np.ndarray:
    """Winner-take-all assignment: per SC the IR with the largest per-SC
    value gets it if that value is positive; ties break to the lowest index."""
    values = np.asarray(values, dtype=float)
    k_star = np.argmax(values, axis=0)
    cols = np.arange(values.shape[1])
    x = np.zeros(values.shape, dtype=int)
    win = values[k_star, cols] > 0.0
    x[k_star[win], cols[win]] = 1
    return x


def subgradient_step(dual: DualState, primal: Allocation,
                     channels: ChannelRealization,
                     config: SystemConfig) -> DualState:
    """One projected subgradient update of (lambda, gamma) at the given primal."""
    q = all_harvested_powers(primal, channels, config)
    total = float(primal.sc_power.sum())
    lam_new = np.maximum(dual.lam - dual.xi * (q - config.harvest_target), 0.0)
    gamma_new = max(dual.gamma - dual.nu * (config.total_power - total), 0.0)
    return DualState(lam=lam_new, gamma=gamma_new, iteration=dual.iteration + 1,
                     xi=dual.xi.copy(), nu=dual.nu)


def duality_gap(report: SolveReport) -> float:
    """Duality gap of a converged run; signals absence on infeasible runs."""
    if not report.feasible or report.duality_gap is None:
        raise ValueError("duality gap undefined: no feasible primal")
    return report.duality_gap


def check_harvest_feasibility(config: SystemConfig,
                              channels: ChannelRealization) -> bool:
    """LP feasibility of the harvesting targets under the power budget."""
    if config.num_ers == 0 or np.all(config.harvest_target == 0):
        return True
    n = config.num_scs
    cap = min(config.peak_power, config.total_power)
    a_ub = [np.ones(n)]
    b_ub = [config.total_power]
    for l in range(config.num_ers):
        a_ub.append(-config.harvest_eff[l] * channels.er_gains[l])
        b_ub.append(-config.harvest_target[l])
    res = linprog(c=np.zeros(n), A_ub=np.array(a_ub), b_ub=np.array(b_ub),
                  bounds=[(0.0, cap)] * n, method="highs")
    return res.status == 0


class _Engine:
    """Shared machinery for the optimal and benchmark dual solvers."""

    def __init__(self, config: SystemConfig, channels: ChannelRealization,
                 options: SolverOptions, alpha_fixed: float | None = None,
                 fixed_assign: np.ndarray | None = None):
        self.cfg = config
        self.ch = channels
        self.opt = options
        self.alpha_fixed = alpha_fixed
        self.fixed_assign = fixed_assign
        self.H = channels.ir_gains
        self.B = channels.eve_gains
        self.zg = (config.harvest_eff[:, None] * channels.er_gains
                   if config.num_ers else np.zeros((0, config.num_scs)))
        self.p_eff = min(config.peak_power, config.total_power)
        self.n_evals = 0
        self.g_min = math.inf
        self.best_obj = -math.inf  # unnormalized weighted sum rate
        self.best_alloc: Allocation | None = None
        self.best_q: np.ndarray | None = None
        self.trace: list = []
        # marginal-rate scale at equal power: rough inverse water level
        p_eq = config.total_power / config.num_scs
        slopes = (config.weights[:, None] * self.H
                  / (LN2 * (config.noise_power + self.H * p_eq)))
        self.gamma0 = float(np.mean(slopes))
        if config.num_ers:
            gbar = channels.er_gains.mean(axis=1)
            self.lam_scale = self.gamma0 / (config.harvest_eff * gbar)
            self.q_scale = np.maximum(config.harvest_target,
                                      config.harvest_eff * gbar * config.total_power)
        else:
            self.lam_scale = np.zeros(0)
            self.q_scale = np.zeros(0)

    def evaluate(self, lam: np.ndarray, gamma: float) -> dict:
        """Inner maximization at one dual point; updates bound and primal."""
        self.n_evals += 1
        omega = -gamma + (lam @ self.zg if self.cfg.num_ers else 0.0)
        omega = np.broadcast_to(np.atleast_1d(omega), (self.cfg.num_scs,))
        p, a, val = vector.solve_all(self.H, self.B, self.cfg.noise_power,
                                     self.cfg.weights, omega, self.p_eff,
                                     alpha_fixed=self.alpha_fixed)
        if self.fixed_assign is None:
            x = assign_subcarriers(val)
        else:
            x = self.fixed_assign
        p = np.where(x == 1, p, 0.0)
        a = np.where((x == 1) & (p > 0), a, 0.0)
        alloc = Allocation(assign=x, power=p, split=a)
        sc_val = (x * val).sum()
        g_raw = (sc_val - float(lam @ self.cfg.harvest_target)
                 + gamma * self.cfg.total_power)
        self.g_min = min(self.g_min, g_raw)
        q = all_harvested_powers(alloc, self.ch, self.cfg)
        total = float(alloc.sc_power.sum())
        primal_norm = self._consider_primal(alloc, q, total)
        if self.opt.keep_trace:
            qv = float(np.max(self.cfg.harvest_target - q)) if self.cfg.num_ers else 0.0
            self.trace.append((g_raw / self.cfg.num_scs, primal_norm,
                               total - self.cfg.total_power, qv))
        return {"alloc": alloc, "q": q, "total": total, "g_raw": g_raw}

    def _consider_primal(self, alloc: Allocation, q: np.ndarray,
                         total: float) -> float:
        tol = self.opt.feasibility_tol
        pmax = self.cfg.total_power
        if total > pmax + tol and total > 1.01 * pmax:
            return math.nan
        if total > pmax:
            # scaled back even within the tolerance: an overspend would let
            # the primal exceed the dual bound and the gap go negative
            scale = pmax / total
            alloc = Allocation(assign=alloc.assign,
                               power=alloc.power * scale,
                               split=alloc.split)
            q = q * scale
            total = pmax
        if self.cfg.num_ers and np.any(q < self.cfg.harvest_target - tol):
            return math.nan
        obj_raw = weighted_sum_secrecy(alloc, self.ch, self.cfg) * self.cfg.num_scs
        if obj_raw > self.best_obj:
            self.best_obj = obj_raw
            self.best_alloc = alloc
            self.best_q = q
        return obj_raw / self.cfg.num_scs

    # -- subgradient phase -------------------------------------------------

    def subgradient_phase(self) -> tuple[bool, int]:
        cfg, opt = self.cfg, self.opt
        lam = np.zeros(cfg.num_ers)
        gamma = self.gamma0
        streak = 0
        converged = False
        t = 0
        for t in range(1, opt.max_iterations + 1):
            res = self.evaluate(lam, gamma)
            sg_q = res["q"] - cfg.harvest_target
            sg_p = cfg.total_power - res["total"]
            root_t = math.sqrt(t)
            if cfg.num_ers:
                xi = (opt.step_xi0 / root_t) * self.lam_scale / np.maximum(
                    self.q_scale, np.abs(sg_q))
            else:
                xi = np.zeros(0)
            nu = (opt.step_nu0 / root_t) * self.gamma0 / max(
                cfg.total_power, abs(sg_p))
            lam_new = np.maximum(lam - xi * sg_q, 0.0)
            gamma_new = max(gamma - nu * sg_p, 0.0)
            prev = np.concatenate([lam, [gamma]])
            new = np.concatenate([lam_new, [gamma_new]])
            denom = max(float(np.linalg.norm(prev)), 1e-300)
            rel = float(np.linalg.norm(new - prev)) / denom
            streak = streak + 1 if rel < opt.convergence_tol else 0
            lam, gamma = lam_new, gamma_new
            if streak >= opt.convergence_window:
                converged = True
                break
        self.lam, self.gamma = lam, gamma
        return converged, t

    # -- coordinate bisection polish ----------------------------------------

    def _bisect(self, f, lo, hi, iters):
        """Root bracket refinement for a nondecreasing f with f(lo)<0<=f(hi)."""
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            if f(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        return hi

    def polish_phase(self):
        cfg, opt = self.cfg, self.opt
        lam, gamma = self.lam.copy(), self.gamma

        for _ in range(opt.polish_rounds):
            for l in range(cfg.num_ers):
                def qgap(v, l=l):
                    trial = lam.copy()
                    trial[l] = v
                    return float(self.evaluate(trial, gamma)["q"][l]
                                 - cfg.harvest_target[l])
                if qgap(0.0) >= 0.0:
                    lam[l] = 0.0
                    continue
                hi = max(lam[l], self.lam_scale[l], 1e-300)
                ok = False
                for _ in range(80):
                    if qgap(hi) >= 0.0:
                        ok = True
                        break
                    hi *= 2.0
                if ok:
                    lam[l] = self._bisect(qgap, 0.0, hi, opt.bisect_iters)
                else:
                    lam[l] = hi

            def pgap(g):
                return float(cfg.total_power - self.evaluate(lam, g)["total"])
            if pgap(0.0) >= 0.0:
                gamma = 0.0
            else:
                hi = max(gamma, self.gamma0, 1e-300)
                while pgap(hi) < 0.0:
                    hi *= 2.0
                gamma = self._bisect(pgap, 0.0, hi, opt.bisect_iters)
        self.lam, self.gamma = lam, gamma
        self.evaluate(lam, gamma)

    # -- feasible fallback ---------------------------------------------------

    def fallback_primal(self):
        """Build a feasible allocation from the harvesting LP when the dual
        iterates never produced one (harvesting-dominated instances)."""
        cfg = self.cfg
        n = cfg.num_scs
        cap = self.p_eff
        if cfg.num_ers and np.any(cfg.harvest_target > 0):
            a_ub = [np.ones(n)]
            b_ub = [cfg.total_power]
            for l in range(cfg.num_ers):
                a_ub.append(-cfg.harvest_eff[l] * self.ch.er_gains[l])
                b_ub.append(-cfg.harvest_target[l])
            res = linprog(c=-(self.H.max(axis=0)), A_ub=np.array(a_ub),
                          b_ub=np.array(b_ub), bounds=[(0.0, cap)] * n,
                          method="highs")
            if res.status != 0:
                raise InfeasibleProblemError("harvesting targets unreachable")
            p_sc = np.asarray(res.x)
        else:
            p_sc = np.zeros(n)
        x = np.zeros((cfg.num_irs, n), dtype=int)
        p = np.zeros((cfg.num_irs, n))
        a = np.zeros((cfg.num_irs, n))
        if self.fixed_assign is not None:
            owners = np.argmax(self.fixed_assign, axis=0)
        else:
            owners = np.argmax(self.cfg.weights[:, None] * self.H, axis=0)
        cols = np.nonzero(p_sc > 0)[0]
        rows = owners[cols]
        x[rows, cols] = 1
        p[rows, cols] = p_sc[cols]
        if self.alpha_fixed is not None:
            a[rows, cols] = self.alpha_fixed
        else:
            a[rows, cols] = optimal_split(p_sc[cols], self.H[rows, cols],
                                          self.B[rows, cols], cfg.noise_power)
        alloc = Allocation(assign=x, power=p, split=a)
        q = all_harvested_powers(alloc, self.ch, cfg)
        self._consider_primal(alloc, q, float(p_sc.sum()))


def solve_dual(config: SystemConfig, channels: ChannelRealization,
               options: SolverOptions | None = None,
               alpha_fixed: float | None = None,
               fixed_assign: np.ndarray | None = None,
               scheme: str = "optimal") -> SolveReport:
    """Run the full dual loop for one scheme and recover the best primal."""
    options = options or SolverOptions()
    if not check_harvest_feasibility(config, channels):
        raise InfeasibleProblemError("harvesting targets unreachable under the power budget")
    eng = _Engine(config, channels, options, alpha_fixed=alpha_fixed,
                  fixed_assign=fixed_assign)
    converged, iters = eng.subgradient_phase()
    eng.polish_phase()
    if eng.best_alloc is None:
        eng.fallback_primal()
    if eng.best_alloc is None:
        raise InfeasibleProblemError("no feasible allocation found")
    n = config.num_scs
    gap = (eng.g_min - eng.best_obj) / n
    report = SolveReport(
        objective=eng.best_obj / n,
        harvested=eng.best_q,
        duality_gap=gap,
        iterations=eng.n_evals,
        feasible=True,
        allocation=eng.best_alloc,
        trace=eng.trace,
        metadata={
            "scheme": scheme,
            "converged": bool(converged),
            "subgradient_iterations": iters,
            "normalization": "band-average: objective and gap divided by num_scs",
            "gamma_init": eng.gamma0,
            "lambda": eng.lam.tolist(),
            "gamma": eng.gamma,
            "stationarity_coefficients": "rederived closed forms",
            "assignment_tiebreak": "lowest IR index",
        },
    )
    return report


def solve_optimal(config: SystemConfig, channels: ChannelRealization,
                  options: SolverOptions | None = None) -> SolveReport:
    """Jointly optimal power, split and assignment via the dual method."""
    return solve_dual(config, channels, options, scheme="optimal")
