"""Outer Lagrange-dual loop: a cutting-plane minimization of the dual with
Newton steps, primal recovery and duality-gap measurement.

:func:`solve_dual` can pin the split (``alpha_fixed``) or the assignment
(``fixed_assign``, (N,) owners, not the (K1, N) assignment);
``heuristics.SCHEMES`` names these variants.

The dual function is evaluated with the per-SC power additionally capped at
min(P_peak, P_max); the cap is implied by the total-power constraint, keeps
every subproblem bounded, and leaves the dual bound valid. One
:class:`vector.Kernel`, built per solve with the pins, holds what does not
depend on the multipliers; each evaluation calls it for every SC's owner,
power and split.

The dual g(lambda, gamma) is convex on the nonnegative orthant, and each
evaluation yields a cut: its value and the subgradient (Q - Qbar, P_max -
sum p). Kelley's method (J. SIAM 8(4), 1960) keeps the piecewise-linear model
of all cuts and minimizes it by an LP over a box that grows whenever the
minimizer lands on its upper face. That master LP is one warm HiGHS model
per solve, built at the first refused Newton point (below) with the cuts
so far: most solves never solve a master. Each cut is added once as a row
that never changes. Two rules stop the loop, each certifying the best dual
value g_min as an upper bound on the optimum to :data:`CONVERGENCE_TOL`;
``metadata["stop_reason"]`` names the one that fired:

- *gap closed*, tested right after each evaluation and right after the
  per-SC LP, when it runs, before that iteration's next point: g_min -
  best_obj <= CONVERGENCE_TOL * |g_min|. By weak duality every screened
  primal is at most the optimum, which is at most g_min. The screen's
  harvest shortfall of :data:`FEASIBILITY_TOL` per target lets a primal
  exceed g_min by at most lambda . (FEASIBILITY_TOL * Qbar) at g_min's
  lambda: the floor of a negative gap, reported with 4 ulps of g_min for
  rounding as
  ``metadata["gap_floor"]``. ``solve_dual`` runs the per-SC LP exactly
  when this test fails after the loop; both places call one method.
- *bound certified*, tested on the iterations that solve the master: when
  its minimizer is inside the box, the model's minimum t is, by convexity, a
  lower bound on g over the whole orthant, and g_min is within
  CONVERGENCE_TOL of t, relative to |g| at the start point (>= g_min).

The master is solved only on an iteration whose Newton point (below) is
refused; an iteration that takes the Newton point, or halves it, adds its
cut and goes straight to the next evaluation, without the master, its stop
test or box growth. The loop ends uncertified, with ``converged`` False,
when HiGHS does not solve a master (*master LP failed*) or after
``max_iterations`` evaluations (*evaluation cap*).
``metadata["master_solves"]`` counts the masters and
``metadata["newton_steps"]`` the Newton points taken and the halvings, so
every evaluation but one that closes the gap is followed by exactly one
of them.

The loop starts at lambda = 0 and gamma at the water level: at the optimum
gamma is the common marginal weighted secrecy rate of every SC in use
(Yu & Lui), so the start is that rate averaged over the SCs at equal power
p_eq = min(P_max / N, P_peak), each SC's for its best IR in the
kernel's table there (:meth:`vector.Kernel.marginal_rates`, read from the
kernel's stationarity rows). Where every SC's rate at p_eq is 0 (``noan``
on the paper's pairs) it starts at ``gamma0``, the mean over all pairs of
w H / (ln 2 (sigma^2 + H P_max / N)). ``metadata["gamma_init"]`` is the
start.

Each unit of the loop has one home. The engine (``_Engine``) owns the
multipliers' unit, ``unit`` = (lam_scale, gamma0) with lam_scale_l =
gamma0 / (zeta_l mean_n g_ln), and the cut scale ``scale``, g at the first
evaluation (> 0, as lambda = 0 and gamma > 0 there).
:meth:`_Engine.evaluate` and :meth:`_Engine.follow` take the normalized
point y = (lambda, gamma) / ``unit`` and answer in cut units: g / scale,
the subgradient times ``unit`` over scale, and the Hessian times ``unit``
on both axes over scale. The loop is Kelley's cutting plane with projected
Newton steps in y, with no unit arithmetic of its own.
:class:`vector.Kernel` converts its winning candidates to watts in one
helper, and the master (``_MasterLP``) owns and grows its box.
:func:`solve_dual` runs the engine at the weights scaled by an exact power
of two, the largest in [1, 2). The problem is homogeneous in the weights,
so the objective, gap, ``gap_floor``, lambda, gamma, ``gamma_init`` and
trace values of the given weights are the engine's after one exact ldexp,
taken where they are divided by N; no unit or tolerance under- or
overflows at extreme weights.

The points are picked as in a bundle-Newton method (Luksan & Vlcek, Math.
Program. 83, 1998). Where the winners of an evaluation do not switch, g is
smooth with Hessian sum_n p'_n c_n c_n^T, where p'_n is the owner's
dp/domega from the kernel and c_n = d omega_n / d(lambda, gamma). The next
point is the projected Newton point from the current one (Bertsekas, SIAM
J. Control Optim. 20(2), 1982): a Newton step on the coordinates that are
positive or have a negative subgradient, re-solved without every
coordinate at 0 whose step is negative until none is (each solve but
the last drops one, so at most one solve per multiplier), then clipped
at 0. It is taken when it lies in the box, differs from the current
point, and the cut model there is below the best dual value plus
:data:`CONVERGENCE_TOL`, a margin for rounding, as at the optimum the two
are equal; else the master's minimizer is. When
a Newton point's g exceeds the best value before it, the loop steps
halfway back toward the point it left, at most twice in a row, each
halving counted as a Newton step; after that the rule above picks the
next point. Curvature only picks points, and skipping the master changes
no stop rule: the cuts and the screened primals certify the bound, only a
master iteration can certify it by the cut model, and the evaluation cap
bounds any cycle of Newton points.

Between two evaluations the loop may take model steps: Newton steps on the
last evaluation's smooth piece, where g is what the same winners give. They
run when the evaluation just taken kept every SC's winning candidate of
the one before, no master has been solved, and the Newton step's predicted
decrease -s . (y_newton - y), in cut units (below), exceeds
sqrt(CONVERGENCE_TOL). A model step re-linearizes at the Newton point from
the same candidates' powers and dp/domega at its prices
(:meth:`vector.Kernel.follow`: the same roots, without the values, the
screen or a cut) and moves to that point's projected Newton point. The
steps repeat until the predicted decrease is at most CONVERGENCE_TOL or
stops falling, or a kept root leaves (0, P_peak]; the last point then faces
the tests above as the Newton point. Only evaluations set g_min, the cuts
and the screened primals, so both stop rules certify as before; the chain
is one Newton step, and ``metadata["model_steps"]`` counts its steps. Where
the harvest targets bind, the loop converges quadratically on unchanged
winners, and a model step costs about two thirds of an evaluation.

Primal recovery is one screen and one per-SC LP. The screen takes per-SC
owner, power and split vectors, of an evaluation or of a rounded LP
mixture, and computes their harvest and total power, which an evaluation
reuses for its cut. Budget and harvest are linear in per-SC power, so a
primal that overspends is scaled onto P_max, its harvest with it; the
screen then rejects it only if some ER falls short of its target by more
than :data:`FEASIBILITY_TOL` of that target. Its score is
``model.weighted_sum_secrecy`` before the division by N and without the
input checks, as the solve made every input itself, and only a new best
primal becomes an :class:`Allocation`. The LP
mixes per-SC columns (Yu & Lui, IEEE Trans. Commun. 54(7), 2006): weights
0 <= z <= 1 on columns of (SC, owner, power, rate), at most 1 in total on
each SC, that maximize the rate within the budget and the harvest targets,
every row in units of its right-hand side; its mixture, rounded per SC to
the heaviest owner at the mean power, is screened, which sets the best
primal and nothing of the dual trajectory. Its columns follow one rule.
The first LP of a solve with no primal yet has one column per SC at full
power (some target is then positive), for the SC's first best IR in the
kernel's table there and worth that IR's weighted secrecy rate
(:meth:`vector.Kernel.marginal_rates`): its infeasibility means no
allocation can meet the targets (``InfeasibleProblemError`` then counts
the evaluations run). Every other LP has the visited iterates' columns,
one per (SC, iterate) with positive power. The full-power LP runs where
the loop first lacks a primal: on the iteration about to solve the first
master while no iterate has passed the screen, or after a loop that hit
the evaluation cap without one. The LP over the visited iterates runs
after the loop whenever the best screened primal's gap is still above
:data:`CONVERGENCE_TOL` of |g|; ``metadata["lp_runs"]`` counts the LPs, 0
to 2. Any iterate that passes the screen proves the targets reachable to
within :data:`FEASIBILITY_TOL` (weak duality): a target less than that
share above what the budget can deliver is met with that shortfall, not
declared unreachable. The best screened primal is returned;
``primal_source`` names it, by its evaluation's index or as
``"recovered"``. Every LP runs on scipy's bundled HiGHS binding,
``scipy.optimize._highspy._core``, which this module loads from its file
in scipy's install directory instead of importing it: the import would
first run ``scipy.optimize``, whose ~0.45 s of imports (linalg, sparse,
special, ...) this package never uses. The module is registered under its
own name, so a later ``import scipy.optimize`` reuses it. A scipy outside
the range pinned in pyproject.toml that moves the file makes this import
fail with an ImportError naming the paths tried.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .model import (LN2, Allocation, ChannelRealization, DomainError,
                    SystemConfig, _weighted_sum_secrecy, optimal_split)
from . import vector

_HIGHS_CORE = "scipy.optimize._highspy._core"


def _load_highs_core():
    """scipy's compiled HiGHS binding, loaded from its file without
    importing ``scipy.optimize`` (see the module docstring). It is
    registered in ``sys.modules`` under its own name, so a later ``import
    scipy.optimize`` reuses it and its pybind11 types are registered once;
    if that name is already loaded, it is returned. No file at any
    extension suffix raises ImportError naming the paths tried."""
    if _HIGHS_CORE in sys.modules:
        return sys.modules[_HIGHS_CORE]
    scipy = importlib.util.find_spec("scipy")  # finds, imports nothing
    if scipy is None:
        raise ImportError("scipy is not installed")
    stem = os.path.join(scipy.submodule_search_locations[0], "optimize",
                        "_highspy", "_core")
    paths = [stem + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    for path in paths:
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location(_HIGHS_CORE, path)
            module = importlib.util.module_from_spec(spec)
            sys.modules[_HIGHS_CORE] = module
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"scipy's HiGHS binding {_HIGHS_CORE} not found; "
                      f"tried {', '.join(paths)}")


_core = _load_highs_core()
_Highs, HighsStatus, HighsModelStatus = (
    _core._Highs, _core.HighsStatus, _core.HighsModelStatus)


class InfeasibleProblemError(RuntimeError):
    """No power allocation can satisfy the harvesting targets.
    ``evaluations`` counts the dual evaluations the solve ran first: those
    before the verdict of the per-SC LP over one full-power column per
    SC, which runs once where the loop first lacks a primal: at the first
    master, or after a loop that hit the evaluation cap."""

    def __init__(self, message: str, evaluations: int = 0):
        super().__init__(message)
        self.evaluations = evaluations


#: stop once the best dual value is this close, relative to |g|, to the cut
#: model's minimum or to the best primal (see the module docstring)
CONVERGENCE_TOL = 1e-9
#: share of a harvest target an accepted primal may fall short of it
FEASIBILITY_TOL = 1e-9


@dataclass
class SolverOptions:
    max_iterations: int = 5000  # dual evaluations

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


#: one record per evaluation: the dual value and the screened primal (NaN
#: where the screen rejected the iterate), both band-averaged, the total
#: power minus P_max and the worst harvest shortfall (0 without ERs)
TRACE_DTYPE = np.dtype((np.record, [("dual", float), ("primal", float),
                                    ("power_excess", float),
                                    ("harvest_shortfall", float)]))


@dataclass(slots=True)
class SolveReport:
    objective: float  # bits/s/Hz, band-averaged (divided by N)
    harvested: np.ndarray  # (K2,) watts
    duality_gap: float | None
    iterations: int
    allocation: Allocation
    trace: np.ndarray  # TRACE_DTYPE records
    metadata: dict = field(default_factory=dict)


class _Engine:
    """One dual solve: the kernel, the loop's units, the best dual point and
    the best primal."""

    def __init__(self, config: SystemConfig, channels: ChannelRealization,
                 options: SolverOptions, alpha_fixed: float | None = None,
                 fixed_assign: np.ndarray | None = None):
        self.cfg = config
        self.opt = options
        self.H = channels.ir_gains
        self.B = channels.eve_gains
        self.G = channels.er_gains
        self.zg = config.harvest_eff[:, None] * self.G
        target = config.harvest_target
        # the screen's harvest floor: each target less its tolerated shortfall
        self.q_floor = target - FEASIBILITY_TOL * target
        self.p_eff = min(config.peak_power, config.total_power)
        self.kernel = vector.Kernel(self.H, self.B, config.noise_power,
                                    config.weights, self.p_eff, alpha_fixed,
                                    fixed_assign)
        # d omega_n / d(lambda, gamma): the directions of the dual's curvature
        self.d_omega = np.vstack([self.zg, -np.ones(config.num_scs)])
        self.n_evals = 0
        self.newton_steps = 0
        self.model_steps = 0
        self.master_solves = 0
        # the winning candidates of the last evaluation; whether they are
        # those of the one before; whether its g rose above the best before
        self.cand: np.ndarray | None = None
        self.kept = self.rose = False
        self.lp_runs = 0  # per-SC LPs
        self.visited: list = []  # per evaluation: per-SC owner, power, rate
        self.g_min = math.inf
        self.best_obj = -math.inf  # unnormalized weighted sum rate
        self.best_alloc: Allocation | None = None
        self.best_q: np.ndarray | None = None
        # evaluation index or "recovered" (an LP mixture)
        self.best_source: int | str | None = None
        # per evaluation: a TRACE_DTYPE tuple, its g and primal sums over
        # the SCs (solve_dual divides them by N)
        self.trace: list = []
        self.lam: np.ndarray | None = None  # argmin of the visited dual values
        self.gamma: float | None = None
        # marginal-rate scale at equal power: the unit of gamma
        p_eq = config.total_power / config.num_scs
        slopes = (config.weights[:, None] * self.H
                  / (LN2 * (config.noise_power + self.H * p_eq)))
        # means as sums over counts: np.mean's own arithmetic, unwrapped
        gamma0 = float(slopes.sum() / slopes.size)
        gbar = self.G.sum(axis=1) / config.num_scs
        # the units of the normalized multipliers y: (lambda, gamma) = unit * y
        self.unit = np.append(gamma0 / (config.harvest_eff * gbar), gamma0)
        self.scale = None  # g at the first evaluation: the unit of the cuts
        # the start: the water level, each SC's marginal weighted rate at
        # equal power averaged over the SCs; the unit where it is 0
        level = float(self.kernel.marginal_rates(min(p_eq, self.p_eff))[2].sum()
                      / config.num_scs)
        self.y_start = level / gamma0 or 1.0

    def evaluate(self, y: np.ndarray):
        """Inner maximization at the normalized point ``y``; updates bound
        and primal, keeps the winning candidates for :meth:`follow` and sets
        ``kept`` and ``rose``. Returns the cut there in cut units: g, its
        subgradient and its Hessian in y (see :meth:`_slopes`)."""
        self.n_evals += 1
        lam, gamma, omega = self._prices(y)
        owner, p, a, val, dp, cand = self.kernel(omega)
        self.kept = self.cand is not None and bool((cand == self.cand).all())
        self.cand = cand
        g = (float(val.sum()) - float(lam @ self.cfg.harvest_target)
             + gamma * self.cfg.total_power)
        self.rose = g > self.g_min
        if g < self.g_min:
            self.g_min, self.lam, self.gamma = g, lam, gamma
        self.visited.append((owner, p, val - p * omega))
        q, total, primal = self._screen(owner, p, a, self.n_evals)
        qv = (float((self.cfg.harvest_target - q).max()) if self.cfg.num_ers
              else 0.0)
        self.trace.append((g, primal, total - self.cfg.total_power, qv))
        self.scale = self.scale or g
        return (g / self.scale, *self._slopes(q, total, dp))

    def follow(self, y: np.ndarray):
        """g's subgradient and Hessian at the normalized point ``y``, as
        :meth:`evaluate` returns them, where every SC keeps the last
        evaluation's winning candidate (:meth:`vector.Kernel.follow`); None
        where a kept root leaves (0, P_peak]. Sets no bound, cut or
        primal."""
        out = self.kernel.follow(self._prices(y)[2], self.cand)
        if out is None:
            return None
        p, dp = out
        return self._slopes(self.cfg.harvest_eff * (self.G @ p),
                            float(p.sum()), dp)

    def _prices(self, y: np.ndarray):
        """lambda and gamma at the normalized point ``y``, and each SC's
        price omega = lambda . zeta g_n - gamma."""
        lam, gamma = y[:-1] * self.unit[:-1], y[-1] * self.unit[-1]
        return lam, gamma, -gamma + lam @ self.zg

    def _slopes(self, q: np.ndarray, total: float, dp: np.ndarray):
        """In cut units, each multiplier's axis times its unit and g divided
        by ``scale``: the subgradient (Q - Qbar, P_max - sum p) of harvest
        ``q`` and total power ``total``, and the Hessian sum_n p'_n c_n c_n^T
        of the power slopes ``dp``, with c_n = d omega_n / d(lambda,
        gamma)."""
        hess = (self.d_omega * dp) @ self.d_omega.T
        sub = np.empty(self.cfg.num_ers + 1)
        np.subtract(q, self.cfg.harvest_target, out=sub[:-1])
        sub[-1] = self.cfg.total_power - total
        return (self.unit * sub / self.scale,
                self.unit * hess * self.unit[:, None] / self.scale)

    def _screen(self, owner: np.ndarray, power: np.ndarray,
                split: np.ndarray, source: int | str):
        """Screen the primal of per-SC ``owner``, ``power`` and ``split``
        from ``source``. Returns its harvest and total power, both before
        any scaling onto P_max, and its objective before the division by N,
        or NaN where it is rejected; an :class:`Allocation` is built only
        for a new best primal. The vectors and gains come from the solve,
        so the score skips the input checks of ``weighted_sum_secrecy``."""
        cfg = self.cfg
        q = cfg.harvest_eff * (self.G @ power)
        total = float(power.sum())
        p_scaled, q_scaled = power, q
        if total > cfg.total_power:
            # scaled even within the tolerance: an overspend would let the
            # primal exceed the dual bound and the gap go negative
            scale = cfg.total_power / total
            p_scaled, q_scaled = power * scale, q * scale
        if (q_scaled < self.q_floor).any():
            return q, total, math.nan
        obj_raw = _weighted_sum_secrecy(owner, p_scaled, split, self.H, self.B,
                                        cfg.weights, cfg.noise_power)
        if obj_raw > self.best_obj:
            self.best_obj = obj_raw
            self.best_alloc = Allocation(owner, p_scaled, split, cfg.num_irs)
            self.best_q = q_scaled
            self.best_source = source
        return q, total, obj_raw

    # -- cutting plane -----------------------------------------------------

    def gap_closed(self) -> bool:
        """True when the best screened primal is within
        :data:`CONVERGENCE_TOL` of the best dual value, relative to |g_min|:
        by weak duality both then lie within that share of the optimum."""
        return self.g_min - self.best_obj <= CONVERGENCE_TOL * abs(self.g_min)

    @property
    def g_min_cut(self) -> float:
        """The best dual value in cut units."""
        return self.g_min / self.scale

    def cutting_plane(self) -> str:
        """Kelley's cutting plane on the dual in normalized multipliers
        y = (lambda, gamma) / ``unit`` from the water level, with
        Newton steps, halved at most twice where g rose, choosing the
        points; the master runs only where the Newton point is refused
        (see the module docstring), and the full-power per-SC LP before the
        first master that has no screened primal to go with it, at most once
        per solve. Returns why it stopped: "gap closed" or
        "bound certified", which certify the bound to
        :data:`CONVERGENCE_TOL`, or "evaluation cap" or "master LP
        failed"."""
        y = np.append(np.zeros(self.cfg.num_ers), self.y_start)
        master = _MasterLP(np.full(y.size, 4.0))
        left, halvings = None, 0  # the point a Newton step left, its halvings
        for _ in range(self.opt.max_iterations):
            g, s, hess = self.evaluate(y)
            if self.gap_closed():
                return "gap closed"
            master.cut(s, s @ y - g)  # t >= g + s . (y' - y)
            if left is not None and self.rose and halvings < 2:
                # the Newton step rose above the best value before it:
                # halfway back toward the point it left
                halvings += 1
                self.newton_steps += 1
                y = 0.5 * (y + left)
                continue
            y_newton = _newton_point(y, s, hess)
            if y_newton is not None and not self.master_solves:
                y_newton = self._model_steps(y, s, y_newton)
            if (y_newton is not None and (y_newton <= master.upper).all()
                    and master.model(y_newton) < self.g_min_cut + CONVERGENCE_TOL
                    and not (y_newton == y).all()):
                self.newton_steps += 1
                left, halvings = y, 0
                y = y_newton
                continue
            left = None
            if self.best_alloc is None and not self.lp_runs:
                # no iterate has passed the screen, so some target is
                # positive: the full-power LP decides whether any allocation
                # meets them and seeds the screen before the master runs
                self.recover_primal()
                if self.gap_closed():
                    return "gap closed"
            self.master_solves += 1
            solution = master.solve()
            if solution is None:
                return "master LP failed"
            y, t, inside = solution
            if inside and self.g_min_cut - t <= CONVERGENCE_TOL:
                return "bound certified"
        return "evaluation cap"

    def _model_steps(self, y: np.ndarray, s: np.ndarray,
                     y_newton: np.ndarray) -> np.ndarray:
        """The Newton point after the model steps from the Newton point
        ``y_newton`` of ``y`` (gradient ``s``): none unless the last
        evaluation kept every winner of the one before and the predicted
        decrease -s . (y_newton - y) exceeds sqrt(CONVERGENCE_TOL); then,
        while it exceeds CONVERGENCE_TOL, re-linearize at the point by
        :meth:`follow` and move to its projected Newton point, unless
        follow returns None, there is no Newton point, or the predicted
        decrease does not fall."""
        if not self.kept:
            return y_newton
        dec = -float(s @ (y_newton - y))
        if dec <= math.sqrt(CONVERGENCE_TOL):
            return y_newton
        while dec > CONVERGENCE_TOL:
            slopes = self.follow(y_newton)
            if slopes is None:
                break
            s, hess = slopes
            y_next = _newton_point(y_newton, s, hess)
            if y_next is None:
                break
            dec_next = -float(s @ (y_next - y_newton))
            if not dec_next < dec:
                break
            self.model_steps += 1
            y_newton, dec = y_next, dec_next
        return y_newton

    # -- per-SC LPs ----------------------------------------------------------

    def recover_primal(self):
        """Screen one mixture of per-SC columns (Yu & Lui). Where no primal
        has passed the screen and no per-SC LP has run, one column per SC
        at ``p_eff``, for the kernel's first best table IR there and worth
        its weighted secrecy rate (:meth:`vector.Kernel.marginal_rates`);
        then an infeasible LP means no allocation meets the harvest
        targets, and raises. Else one column per (SC, visited iterate) with
        positive power. A solve runs the full-power LP at most once."""
        full_power = self.best_alloc is None and not self.lp_runs
        self.lp_runs += 1
        if full_power:
            owner, rate, _ = self.kernel.marginal_rates(self.p_eff)
            if not self._mix(self.kernel.cols,
                             np.full(self.cfg.num_scs, self.p_eff), rate, owner):
                raise InfeasibleProblemError(
                    "harvesting targets unreachable under the power budget",
                    self.n_evals)
            return
        owner, power, rate = (np.array(v) for v in zip(*self.visited))
        sc, it = np.nonzero(power.T > 0)  # by SC
        self._mix(sc, power[it, sc], rate[it, sc], owner[it, sc])

    def _mix(self, sc: np.ndarray, power: np.ndarray, rate: np.ndarray,
             owner: np.ndarray) -> bool:
        """Screen the best mixture of per-SC columns, rounded per SC; False
        unless HiGHS reports its LP optimal. Column j puts ``power[j]`` on SC
        ``sc[j]`` (nondecreasing) for IR ``owner[j]`` at rate ``rate[j]``. An
        LP over weights 0 <= z <= 1, with sum z <= 1 on each SC, maximizes
        sum z rate within the budget and the harvest targets; SC n then goes
        to the owner of its largest weight at the mean power sum z power,
        with the optimal or the pinned split. Budget and harvest are linear
        in per-SC power, so the rounding keeps both. The per-SC rows are
        sent by their structure, one nonzero per column, and the budget and
        harvest rows by :func:`_add_rows`, so the LP's size is linear in its
        columns."""
        cfg, n = self.cfg, self.cfg.num_scs
        _, first, count = np.unique(sc, return_index=True, return_counts=True)
        # rows: sum z <= 1 on each SC of two or more columns, whose columns
        # are consecutive; then the budget and the harvest targets, each in
        # units of its right-hand side
        rhs = np.where(cfg.harvest_target > 0, cfg.harvest_target, 1.0)
        lens = count[count > 1]  # the lengths of the sum z <= 1 rows
        shared = np.flatnonzero(np.repeat(count > 1, count)).astype(np.int32)
        h = _highs(np.zeros(sc.size), np.ones(sc.size), -rate)
        h.addRows(lens.size, np.full(lens.size, -np.inf), np.ones(lens.size),
                  shared.size, (np.cumsum(lens) - lens).astype(np.int32),
                  shared, np.ones(shared.size))
        _add_rows(h, np.concatenate([[-np.inf], cfg.harvest_target / rhs]),
                  np.concatenate([[1.0], np.full(cfg.num_ers, np.inf)]),
                  np.vstack([power / cfg.total_power,
                             self.zg[:, sc] * power / rhs[:, None]]))
        solution = _solve(h)
        if solution is None:
            return False
        z = solution[0]
        # per SC, the column of the largest weight comes first; ties go to
        # the earliest column
        lead = np.lexsort((-z, sc))[first]
        p_sc = np.bincount(sc, z * power, minlength=n)
        on = p_sc > 0
        owners = np.full(n, -1)
        owners[sc[lead]] = owner[lead]
        owners[~on] = -1
        a = (optimal_split(p_sc, self.H[owners, self.kernel.cols],
                           self.B[owners, self.kernel.cols], cfg.noise_power)
             if self.kernel.free else self.kernel.a)
        self._screen(owners, p_sc, np.where(on, a, 0.0), "recovered")
        return True


def _newton_point(y: np.ndarray, s: np.ndarray, hess: np.ndarray):
    """The projected Newton point from ``y`` with gradient ``s`` and Hessian
    ``hess`` (Bertsekas, SIAM J. Control Optim. 20(2), 1982): a step on the
    free coordinates (y > 0, or at 0 with s < 0), re-solved on the rest
    after dropping every coordinate at 0 whose step is negative, until none
    is, so at most one solve per coordinate; then clipped at 0. ``y``
    itself where every coordinate drops; None where a free block is
    singular or not finite."""
    free = (y > 0) | (s < 0)
    step = np.zeros(y.size)
    while free.any():
        block = hess[free][:, free]
        if not np.isfinite(block).all():
            return None
        try:
            step[free] = np.linalg.solve(block, -s[free])
        except np.linalg.LinAlgError:
            return None
        drop = free & (y == 0) & (step < 0)
        if not drop.any():
            break
        free &= ~drop
        step[drop] = 0.0
    return np.maximum(y + step, 0.0)


def _highs(lower: np.ndarray, upper: np.ndarray, cost: np.ndarray) -> _Highs:
    """A silent HiGHS model, primal and dual feasibility tolerances 1e-10,
    with one column per entry of ``lower``, ``upper`` and ``cost``, and no
    rows; on scipy's bundled binding, a private API loaded from its file by
    :func:`_load_highs_core` (see the scipy range in pyproject.toml), whose
    infinite bound is ``inf``. The master and every per-SC LP share this
    setting: the master works in units of g at its start point, and a
    per-SC LP has no bound or right-hand side above 1, so both tolerances
    are relative, well inside the screen's :data:`FEASIBILITY_TOL` share."""
    h = _Highs()
    for name, value in (("output_flag", False),
                        ("primal_feasibility_tolerance", 1e-10),
                        ("dual_feasibility_tolerance", 1e-10)):
        h.setOptionValue(name, value)
    n = len(cost)
    h.addVars(n, lower, upper)
    h.changeColsCost(n, np.arange(n, dtype=np.int32), cost)
    return h


def _add_rows(h: _Highs, lower: np.ndarray, upper: np.ndarray,
              rows: np.ndarray):
    """Add the rows ``lower <= rows @ x <= upper`` to ``h``, ``rows`` a
    dense (rows, columns) matrix of which only the nonzero entries are
    sent."""
    r, c = np.nonzero(rows)
    starts = np.searchsorted(r, np.arange(len(rows)))
    h.addRows(len(rows), lower, upper, r.size, starts.astype(np.int32),
              c.astype(np.int32), rows[r, c])


def _solve(h: _Highs):
    """Run ``h``: its solution, clipped at 0 (HiGHS may return a column a
    hair below its 0 bound), and its objective value; None unless HiGHS
    reports the model optimal."""
    if (h.run() == HighsStatus.kError
            or h.getModelStatus() != HighsModelStatus.kOptimal):
        return None
    return (np.maximum(h.getSolution().col_value, 0.0),
            h.getObjectiveValue())


class _MasterLP:
    """Kelley's master LP, min t over 0 <= y <= upper and s_i . y - t <= b_i
    for every cut i. :meth:`cut` stores the row (s_i, -1, b_i) in one array
    whose capacity doubles when full, so storing k cuts copies O(k) entries;
    :meth:`model` evaluates the cuts at a point. Most solves never solve
    a master, so its HiGHS model is created at the first :meth:`solve`;
    each solve adds the cuts stored since the previous one as rows that
    never change and restarts the simplex from the previous basis. The box
    starts at ``upper`` and is the master's own: each solve quadruples it
    on the faces its minimizer touches, which changes the bounds of those
    columns only."""

    def __init__(self, upper: np.ndarray):
        self.upper = np.array(upper, dtype=float)
        self._h: _Highs | None = None
        self._cuts = np.empty((8, self.upper.size + 2))  # rows (s_i, -1, b_i)
        self._k = 0  # cuts stored

    def cut(self, s: np.ndarray, b: float):
        """Add the cut s . y - t <= b."""
        if self._k == len(self._cuts):
            self._cuts = np.concatenate([self._cuts, np.empty_like(self._cuts)])
        row = self._cuts[self._k]
        row[:-2] = s
        row[-2:] = -1.0, b
        self._k += 1

    def model(self, y: np.ndarray) -> float:
        """The cut model at ``y``: max_i s_i . y - b_i."""
        cuts = self._cuts[:self._k]
        return float((cuts[:, :-2] @ y - cuts[:, -1]).max())

    def solve(self):
        """(y, min t, inside) over the cuts so far, or None unless HiGHS
        reports the master optimal. t is free, so it is read from the
        objective. ``inside`` is False where y lies on an upper face of the
        box, to within 1e-9 of it; the box is then quadrupled on those
        faces."""
        if self._h is None:
            m = self.upper.size
            self._h = _highs(np.append(np.zeros(m), -np.inf),
                             np.append(self.upper, np.inf),
                             np.append(np.zeros(m), 1.0))
        new = self._cuts[self._h.getNumRow():self._k]  # since the last solve
        _add_rows(self._h, np.full(len(new), -np.inf), new[:, -1], new[:, :-1])
        solution = _solve(self._h)
        if solution is None:
            return None
        y = solution[0][:-1]
        on_face = y >= self.upper * (1.0 - 1e-9)
        self.upper[on_face] *= 4.0
        for j in np.flatnonzero(on_face):
            self._h.changeColBounds(int(j), 0.0, float(self.upper[j]))
        return y, solution[1], not on_face.any()


def solve_dual(config: SystemConfig, channels: ChannelRealization,
               options: SolverOptions | None = None,
               alpha_fixed: float | None = None,
               fixed_assign: np.ndarray | None = None) -> SolveReport:
    """Run the full dual loop and recover the best primal; ``alpha_fixed``
    pins the split ratio, ``fixed_assign`` the owner of each SC: (N,)
    integers in [0, K1), not the (K1, N) assignment."""
    if alpha_fixed is not None and not 0.0 <= alpha_fixed <= 1.0:
        raise DomainError("split ratio must lie in [0, 1]")
    if fixed_assign is not None:
        owners = np.asarray(fixed_assign)
        if not (owners.shape == (config.num_scs,) and owners.dtype.kind in "iu"
                and np.all((owners >= 0) & (owners < config.num_irs))):
            raise DomainError("fixed_assign must be (N,) integers in [0, K1)")
    options = options or SolverOptions()
    # the engine runs at the weights times 2^shift, the largest in [1, 2):
    # the problem is homogeneous in the weights, and the exact power of two
    # keeps its units and tolerances in range; ``unscaled`` undoes it. At
    # shift 0 the config is the given one, which skips its re-validation
    shift = 1 - int(np.frexp(config.weights.max())[1])
    scaled = (replace(config, weights=np.ldexp(config.weights, shift))
              if shift else config)
    eng = _Engine(scaled, channels, options, alpha_fixed=alpha_fixed,
                  fixed_assign=fixed_assign)
    stop_reason = eng.cutting_plane()
    if eng.best_alloc is None and not eng.lp_runs:
        eng.recover_primal()  # the evaluation cap, with no primal
    if not eng.gap_closed():
        eng.recover_primal()
    if eng.best_alloc is None:
        raise InfeasibleProblemError("no feasible allocation found", eng.n_evals)

    def unscaled(x, n=1):
        """``x``, in units of the solve's weights, divided by ``n`` and in
        units of the given weights."""
        return np.ldexp(x / n, -shift)

    n = config.num_scs
    trace = np.array(eng.trace, TRACE_DTYPE)
    for name in ("dual", "primal"):
        trace[name] = unscaled(trace[name], n)
    # how far below 0 rounding may take the gap (see the module docstring)
    gap_floor = float(unscaled(
        4.0 * np.finfo(float).eps * abs(eng.g_min)
        + eng.lam @ (FEASIBILITY_TOL * config.harvest_target), n))
    return SolveReport(
        objective=float(unscaled(eng.best_obj, n)),
        harvested=eng.best_q,
        duality_gap=unscaled(eng.g_min - eng.best_obj, n),
        iterations=eng.n_evals,
        allocation=eng.best_alloc,
        trace=trace,
        metadata={
            "converged": stop_reason in ("gap closed", "bound certified"),
            "stop_reason": stop_reason,
            "gamma_init": float(unscaled(eng.y_start * eng.unit[-1])),
            "lambda": unscaled(eng.lam).tolist(),
            "gamma": float(unscaled(eng.gamma)),
            "primal_source": eng.best_source,
            "newton_steps": eng.newton_steps,
            "model_steps": eng.model_steps,
            "master_solves": eng.master_solves,
            "lp_runs": eng.lp_runs,
            "gap_floor": gap_floor,
        },
    )
