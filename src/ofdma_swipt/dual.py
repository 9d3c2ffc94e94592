"""Outer Lagrange-dual loop: per-SC optimization, assignment, a cutting-plane
minimization of the dual, primal recovery and duality-gap measurement.

:func:`solve_dual` can pin the split (``alpha_fixed``) or the assignment
(``fixed_assign``); ``heuristics.SCHEMES`` names these variants.

The dual function is evaluated with the per-SC power additionally capped at
min(P_peak, P_max); the cap is implied by the total-power constraint, keeps
every subproblem bounded, and leaves the dual bound valid. One
:class:`vector.Kernel`, built per solve, holds what does not depend on the
multipliers; each evaluation calls it.

The dual g(lambda, gamma) is convex on the nonnegative orthant, and each
evaluation yields a cut: its value and the subgradient (Q - Qbar, P_max -
sum p). Kelley's method (J. SIAM 8(4), 1960) evaluates next at the minimizer
of the piecewise-linear model of all cuts, found by an LP over a box that
grows whenever the minimizer lands on its upper face. That master LP is one
warm HiGHS model per solve. Each cut is written in units of g at the start
point and added once as a row that never changes. When the minimizer is
inside the box the model's minimum is, by convexity, a lower bound on g over
the whole orthant; the loop stops once the best dual value is within
:data:`CONVERGENCE_TOL` of that bound, relative to |g| at the start point.
Every dual point visited tightens the reported bound; ``max_iterations`` caps
the evaluations.

Primal recovery is one screen. Budget and harvest are linear in per-SC power,
so an iterate that overspends is scaled onto P_max, its harvest with it; the
screen then rejects it only if some ER falls short of its target by more than
:data:`FEASIBILITY_TOL`. When a harvest target is positive, one LP over per-SC
powers runs before the loop: its infeasibility means no allocation can meet
the targets, and its allocation is the first primal screened. The best
screened primal is returned. Both LPs run on scipy's bundled HiGHS bindings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize._highspy._core import HighsModelStatus, HighsStatus, _Highs

from .model import (LN2, Allocation, ChannelRealization, DomainError,
                    SystemConfig, all_harvested_powers, optimal_split,
                    secrecy_rate, weighted_sum_secrecy)
from . import vector


class InfeasibleProblemError(RuntimeError):
    """No power allocation can satisfy the harvesting targets."""


#: stop once the dual bound gap is this small, relative to |g| at the start
CONVERGENCE_TOL = 1e-9
#: watts an accepted primal may fall short of a harvest target
FEASIBILITY_TOL = 1e-9


@dataclass
class SolverOptions:
    max_iterations: int = 5000  # dual evaluations

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass
class SolveReport:
    objective: float  # bits/s/Hz, band-averaged (divided by N)
    harvested: np.ndarray  # (K2,) watts
    duality_gap: float | None
    iterations: int
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


class _Engine:
    """One dual solve: the kernel, the best dual point and the best primal."""

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
        self.zg = config.harvest_eff[:, None] * channels.er_gains
        self.p_eff = min(config.peak_power, config.total_power)
        self.kernel = vector.Kernel(self.H, self.B, config.noise_power,
                                    config.weights, self.p_eff, alpha_fixed)
        self.n_evals = 0
        self.g_min = math.inf
        self.best_obj = -math.inf  # unnormalized weighted sum rate
        self.best_alloc: Allocation | None = None
        self.best_q: np.ndarray | None = None
        self.best_source: int | str | None = None  # evaluation index or "harvest LP"
        self.trace: list = []
        self.lam: np.ndarray | None = None  # argmin of the visited dual values
        self.gamma: float | None = None
        # marginal-rate scale at equal power: rough inverse water level
        p_eq = config.total_power / config.num_scs
        slopes = (config.weights[:, None] * self.H
                  / (LN2 * (config.noise_power + self.H * p_eq)))
        self.gamma0 = float(np.mean(slopes))
        gbar = channels.er_gains.mean(axis=1)
        self.lam_scale = self.gamma0 / (config.harvest_eff * gbar)

    def evaluate(self, lam: np.ndarray, gamma: float):
        """Inner maximization at one dual point; updates bound and primal.
        Returns the cut there: g and its subgradient (Q - Qbar, P_max - sum p)."""
        self.n_evals += 1
        omega = -gamma + lam @ self.zg
        p, a, val = self.kernel(omega)
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
        if g_raw < self.g_min:
            self.g_min, self.lam, self.gamma = g_raw, lam, gamma
        q = all_harvested_powers(alloc, self.ch, self.cfg)
        total = float(alloc.sc_power.sum())
        primal_norm = self._consider_primal(alloc, q, total, self.n_evals)
        qv = float(np.max(self.cfg.harvest_target - q)) if self.cfg.num_ers else 0.0
        self.trace.append((g_raw / self.cfg.num_scs, primal_norm,
                           total - self.cfg.total_power, qv))
        return g_raw, np.append(q - self.cfg.harvest_target,
                                self.cfg.total_power - total)

    def _consider_primal(self, alloc: Allocation, q: np.ndarray,
                         total: float, source: int | str) -> float:
        pmax = self.cfg.total_power
        if total > pmax:
            # scaled even within the tolerance: an overspend would let the
            # primal exceed the dual bound and the gap go negative
            scale = pmax / total
            alloc = Allocation(assign=alloc.assign,
                               power=alloc.power * scale,
                               split=alloc.split)
            q = q * scale
            total = pmax
        if np.any(q < self.cfg.harvest_target - FEASIBILITY_TOL):
            return math.nan
        obj_raw = weighted_sum_secrecy(alloc, self.ch, self.cfg) * self.cfg.num_scs
        if obj_raw > self.best_obj:
            self.best_obj = obj_raw
            self.best_alloc = alloc
            self.best_q = q
            self.best_source = source
        return obj_raw / self.cfg.num_scs

    # -- cutting plane -----------------------------------------------------

    def cutting_plane(self) -> bool:
        """Kelley's cutting plane on the dual in normalized multipliers
        y = (lambda / lam_scale, gamma / gamma0); True when the bound gap
        closed to :data:`CONVERGENCE_TOL` within ``max_iterations``
        evaluations."""
        unit = np.append(self.lam_scale, self.gamma0)
        y = np.append(np.zeros(self.cfg.num_ers), 1.0)
        master = _MasterLP(np.full(y.size, 4.0))
        scale = None
        for _ in range(self.opt.max_iterations):
            g, sub = self.evaluate(y[:-1] * unit[:-1], y[-1] * unit[-1])
            # cut in units of g at the start point (>= gamma0 * P_max > 0):
            # t >= g / scale + s . (y' - y)
            scale = scale or g
            s = unit * sub / scale
            master.cut(s, s @ y - g / scale)
            solution = master.solve()
            if solution is None:
                return False
            y, t = solution
            on_face = y >= master.upper * (1.0 - 1e-9)
            if not on_face.any() and self.g_min / scale - t <= CONVERGENCE_TOL:
                return True
            master.grow(on_face)
        return False

    # -- harvest LP ----------------------------------------------------------

    def harvest_lp_primal(self):
        """Raise if no per-SC powers meet the harvest targets within the
        budget; else screen the LP's powers, which maximize sum_n max_k
        H[k, n] p_n, each SC given to its fixed or best weighted IR."""
        cfg, n = self.cfg, self.cfg.num_scs
        a_ub = np.vstack([np.ones(n), -self.zg])  # budget, then harvest rows
        m, cols = a_ub.shape[0], np.arange(n, dtype=np.int32)
        # presolve and dual simplex, as linprog sets them: both can move the vertex
        h = _highs(presolve="on", simplex_strategy=1)
        h.addVars(n, np.zeros(n), np.full(n, self.p_eff))
        h.changeColsCost(n, cols, -(self.H.max(axis=0)))
        h.addRows(m, np.full(m, -h.getInfinity()),
                  np.append(cfg.total_power, -cfg.harvest_target), a_ub.size,
                  np.arange(0, a_ub.size, n, dtype=np.int32),
                  np.tile(cols, m), a_ub.ravel())
        if not _optimal(h):
            raise InfeasibleProblemError(
                "harvesting targets unreachable under the power budget")
        p_sc = np.array(h.getSolution().col_value)
        x = np.zeros((cfg.num_irs, n), dtype=int)
        p = np.zeros((cfg.num_irs, n))
        a = np.zeros((cfg.num_irs, n))
        if self.fixed_assign is not None:
            owners = np.argmax(self.fixed_assign, axis=0)
        else:
            owners = np.argmax(cfg.weights[:, None] * self.H, axis=0)
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
        self._consider_primal(alloc, q, float(p_sc.sum()), "harvest LP")


def _highs(**options) -> _Highs:
    """An empty, silent HiGHS model with ``options`` set, on scipy's bundled
    bindings: a private API (see the scipy range in pyproject.toml)."""
    h = _Highs()
    h.setOptionValue("output_flag", False)
    for name, value in options.items():
        h.setOptionValue(name, value)
    return h


def _optimal(h: _Highs) -> bool:
    """Run ``h``; True when HiGHS reports the model optimal."""
    return (h.run() != HighsStatus.kError
            and h.getModelStatus() == HighsModelStatus.kOptimal)


class _MasterLP:
    """Kelley's master LP, min t over 0 <= y <= upper and s_i . y - t <= b_i
    for every cut i, kept in one HiGHS model for the whole solve. A cut is
    one added row that never changes; growing the box changes the bounds of
    the grown columns only; the simplex restarts from the previous basis."""

    def __init__(self, upper: np.ndarray):
        self._h = _highs(primal_feasibility_tolerance=1e-10,
                         dual_feasibility_tolerance=1e-10)
        self._inf = self._h.getInfinity()
        self.upper = np.array(upper, dtype=float)
        m = self.upper.size
        self._h.addVars(m + 1, np.append(np.zeros(m), -self._inf),
                        np.append(self.upper, self._inf))  # y, then a free t
        self._h.changeColCost(m, 1.0)
        self._cols = np.arange(m + 1, dtype=np.int32)

    def cut(self, s: np.ndarray, b: float):
        """Add the cut s . y - t <= b."""
        self._h.addRow(-self._inf, float(b), self._cols.size, self._cols,
                       np.append(s, -1.0))

    def grow(self, on_face: np.ndarray):
        """Quadruple the box on the faces ``on_face`` marks."""
        self.upper[on_face] *= 4.0
        for j in np.flatnonzero(on_face):
            self._h.changeColBounds(int(j), 0.0, float(self.upper[j]))

    def solve(self):
        """(y, min t) over the cuts so far, or None unless HiGHS reports the
        master optimal."""
        if not _optimal(self._h):
            return None
        # HiGHS may return y a hair below its 0 bound
        y = np.maximum(self._h.getSolution().col_value[:-1], 0.0)
        return y, self._h.getObjectiveValue()


def solve_dual(config: SystemConfig, channels: ChannelRealization,
               options: SolverOptions | None = None,
               alpha_fixed: float | None = None,
               fixed_assign: np.ndarray | None = None) -> SolveReport:
    """Run the full dual loop and recover the best primal; ``alpha_fixed``
    pins the split ratio, ``fixed_assign`` the (K1, N) assignment."""
    if alpha_fixed is not None and not 0.0 <= alpha_fixed <= 1.0:
        raise DomainError("split ratio must lie in [0, 1]")
    options = options or SolverOptions()
    eng = _Engine(config, channels, options, alpha_fixed=alpha_fixed,
                  fixed_assign=fixed_assign)
    if np.any(config.harvest_target > 0):
        eng.harvest_lp_primal()
    converged = eng.cutting_plane()
    if eng.best_alloc is None:
        raise InfeasibleProblemError("no feasible allocation found")
    n = config.num_scs
    gap = (eng.g_min - eng.best_obj) / n
    return SolveReport(
        objective=eng.best_obj / n,
        harvested=eng.best_q,
        duality_gap=gap,
        iterations=eng.n_evals,
        allocation=eng.best_alloc,
        trace=eng.trace,
        metadata={
            "converged": converged,
            "gamma_init": eng.gamma0,
            "lambda": eng.lam.tolist(),
            "gamma": float(eng.gamma),
            "primal_source": eng.best_source,
        },
    )
