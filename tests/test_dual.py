"""Outer dual loop: assignment rule, the cutting-plane stop rules, the master
LP and the per-SC LP's harvest check against linprog, primal recovery,
duality-gap sanity, small-instance optimality and the loading of the HiGHS
binding."""

import importlib.util
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from ofdma_swipt import (ChannelRealization, DomainError,
                         InfeasibleProblemError, SystemConfig, dual,
                         optimal_split, secrecy_rate, solve, solve_dual,
                         vector)
from ofdma_swipt.cli import EXIT_INFEASIBLE, EXIT_NOT_CONVERGED, main
from ofdma_swipt.dual import SolverOptions
from ofdma_swipt.heuristics import round_robin_assignment
from ofdma_swipt.model import (Allocation, all_harvested_powers,
                               weighted_sum_secrecy)

from conftest import paper_channels, paper_system, synthetic_channels


class TestAssignSubcarriers:
    """The kernel's owner of each SC."""

    @staticmethod
    def owners(weights, h2=4.0, b2=1.0, omega=0.0):
        # one SC, one row per weight, equal gains: at price 0 every row's
        # value is its weight times one rate
        k1 = len(weights)
        return vector.Kernel(np.full((k1, 1), h2), np.full((k1, 1), b2), 1.0,
                             weights, 1.0)(np.array([omega]))[0]

    def test_argmax_wins(self):
        assert self.owners([0.3, 0.7, 0.1]).tolist() == [1]

    def test_nonpositive_column_unassigned(self):
        # eavesdropper dominant at a negative price: every pair skips
        owner = self.owners([1.0, 2.0], h2=1.0, b2=4.0, omega=-1.0)
        assert owner.tolist() == [-1]

    def test_tie_breaks_to_lowest_index(self):
        assert self.owners([0.5, 0.5]).tolist() == [0]
        assert self.owners([0.1, 0.5, 0.5]).tolist() == [1]

    def test_exclusive_per_sc(self, rng):
        k1, n = 4, 16
        h = 10.0 ** rng.uniform(-2, 2, size=(k1, n))
        b = 10.0 ** rng.uniform(-2, 2, size=(k1, n))
        w = rng.uniform(0.5, 2.0, size=k1)
        om = rng.uniform(-0.5, 0.5, size=n)
        owner, _, _, v, _, _ = vector.Kernel(h, b, 1.0, w, 10.0)(om)
        values = np.array([[vector.Kernel([[h[k, j]]], [[b[k, j]]], 1.0, [w[k]],
                                          10.0)(om[j:j + 1])[3][0]
                            for j in range(n)] for k in range(k1)])
        assert owner.shape == (16,)
        assert np.all((owner >= -1) & (owner < 4))
        on = np.flatnonzero(owner >= 0)
        assert on.size > 0 and np.all(owner[values.max(axis=0) <= 0] == -1)
        assert np.all(owner[on] == np.argmax(values[:, on], axis=0))
        assert np.all(v[on] == values[:, on].max(axis=0))


def _brute_force_no_er(cfg, ch, num_p=201, num_a=201):
    """Exhaustive assignment x (p, alpha) grid for tiny instances without
    harvest constraints: per-SC value tables plus a shared power budget
    resolved by trying every split of the budget over a coarse simplex."""
    n = cfg.num_scs
    ps = np.linspace(0.0, min(cfg.peak_power, cfg.total_power), num_p)
    als = np.linspace(0.0, 1.0, num_a)
    # value[k, n, i] = best weighted secrecy over alpha at power ps[i]
    val = np.empty((cfg.num_irs, n, num_p))
    for k in range(cfg.num_irs):
        for j in range(n):
            rs = secrecy_rate(ps[None, :], als[:, None], ch.ir_gains[k, j],
                              ch.eve_gains[k, j], cfg.noise_power)
            val[k, j] = cfg.weights[k] * rs.max(axis=0)
    best = 0.0
    # greedy-free exhaustive: iterate over per-SC power index tuples
    from itertools import product
    for idx in product(range(0, num_p, 4), repeat=n):
        if ps[list(idx)].sum() > cfg.total_power + 1e-12:
            continue
        tot = sum(val[:, j, i].max() for j, i in enumerate(idx))
        best = max(best, tot)
    return best / n


class TestSolveOptimal:
    def test_no_er_matches_brute_force(self, rng):
        cfg = SystemConfig(num_irs=2, num_ers=0, num_scs=3, total_power=2.0,
                           peak_power=1.0, noise_power=1.0,
                           weights=np.array([1.0, 1.5]),
                           harvest_eff=np.zeros(0), harvest_target=np.zeros(0))
        ch = synthetic_channels(rng, 2, 1, 3, spread=1.0)
        ch = ChannelRealization(gains=ch.gains[:3], num_irs=2)
        rep = solve(cfg, ch)
        brute = _brute_force_no_er(cfg, ch)
        assert rep.objective >= brute - 1e-3
        assert rep.objective <= brute + 0.05 * (1.0 + brute)

    def test_single_sc_toy_gap_is_tight(self):
        # one SC, one IR, harvesting slack: no integer coupling binds
        cfg = SystemConfig(num_irs=1, num_ers=1, num_scs=1, total_power=2.0,
                           peak_power=2.0, noise_power=1.0, weights=np.ones(1),
                           harvest_eff=np.array([0.5]),
                           harvest_target=np.array([0.0]))
        ch = ChannelRealization(gains=np.array([[5.0], [1.0]]), num_irs=1)
        rep = solve(cfg, ch)
        assert rep.duality_gap <= 1e-9

    def test_zero_targets_price_lambda_to_zero(self):
        cfg = paper_system(n_sc=8, qbar_uw=0.0)
        rep = solve(cfg, paper_channels(cfg, seed=1))
        assert np.all(np.asarray(rep.metadata["lambda"]) == 0.0)

    def test_feasibility_and_validation_of_returned_primal(self):
        cfg = paper_system(n_sc=16)
        ch = paper_channels(cfg, seed=2)
        rep = solve(cfg, ch)
        rep.allocation.validate(cfg)
        q = all_harvested_powers(rep.allocation, ch, cfg)
        assert np.all(q >= cfg.harvest_target - 1e-9)
        assert rep.allocation.sc_power.sum() <= cfg.total_power + 1e-9
        assert rep.duality_gap >= -1e-9

    def test_dual_trace_upper_bounds_primal(self):
        cfg = paper_system(n_sc=8)
        rep = solve(cfg, paper_channels(cfg, seed=3))
        dual_values = rep.trace["dual"]
        assert min(dual_values) >= rep.objective - 1e-9

    def test_trace_is_one_record_array(self):
        # one TRACE_DTYPE record per evaluation, owning its memory; fields
        # by name or by position; the dual-free heuristic has none
        cfg = paper_system(n_sc=8)
        ch = paper_channels(cfg, seed=3)
        rep = solve(cfg, ch)
        assert rep.trace.dtype.names == dual.TRACE_DTYPE.names
        assert rep.trace.shape == (rep.iterations,) and rep.trace.base is None
        assert rep.trace[0][0] == rep.trace["dual"][0]
        assert np.isnan(rep.trace["primal"]).sum() < rep.iterations
        sub = solve(cfg, ch, "suboptimal").trace
        assert sub.shape == (0,) and sub.dtype.names == dual.TRACE_DTYPE.names

    def test_infeasible_targets_raise(self):
        cfg = paper_system(n_sc=8, qbar_uw=1e9)
        with pytest.raises(InfeasibleProblemError):
            solve(cfg, paper_channels(cfg, seed=0))

    def test_budget_not_overspent_and_gap_nonnegative(self):
        # an allocation above P_max could score above the dual bound
        cfg = paper_system(n_sc=16)
        rep = solve(cfg, paper_channels(cfg, seed=2))
        assert rep.allocation.sc_power.sum() <= cfg.total_power * (1 + 1e-15)
        assert rep.duality_gap >= -1e-12

    @pytest.mark.parametrize("scheme, p_max_dbm", [
        ("optimal", 120.0), ("fsa", 120.0), ("alpha05", 150.0)])
    def test_bound_holds_at_huge_budget(self, scheme, p_max_dbm):
        # at such budgets the prices are tiny and the stationarity
        # quadratics nearly linear; their large root must still be a candidate
        cfg = paper_system(p_max_dbm=p_max_dbm)
        for seed in range(3):
            rep = solve(cfg, paper_channels(cfg, seed), scheme)
            assert rep.metadata["converged"] is True
            assert rep.duality_gap >= -1e-9

    @pytest.mark.parametrize("owners", [[-1] * 8, [0] * 7 + [2], [0] * 5],
                             ids=["unowned", "owner-K1", "short"])
    def test_fixed_assign_outside_owners_rejected(self, owners):
        # every SC unowned, an owner equal to K1, and a vector of length 5
        # for N = 8: pinned owners must be (N,) integers in [0, K1)
        cfg = paper_system(n_sc=8, k1=2, k2=2)
        with pytest.raises(DomainError):
            solve_dual(cfg, paper_channels(cfg, 0),
                       fixed_assign=np.array(owners))

    def test_matched_seed_gap_shrinks_with_bandwidth(self):
        # the reported gap never exceeds a loose ceiling at either size and
        # stays nonnegative up to numerical tolerance
        for n in (16, 64):
            cfg = paper_system(n_sc=n)
            rep = solve(cfg, paper_channels(cfg, seed=4))
            assert -1e-9 <= rep.duality_gap < 1e-4


class TestCuttingPlane:
    def test_evaluation_budget_on_paper_seeds(self):
        # Newton points from the kernel's curvature: Kelley's points alone
        # took 15.15 evaluations on average here, and 5.65 without the stop
        # on a closed gap; from gamma0 instead of the water level, 4.05
        cfg = paper_system()
        reps = [solve(cfg, paper_channels(cfg, seed)) for seed in range(20)]
        assert all(rep.metadata["converged"] is True for rep in reps)
        assert np.mean([rep.iterations for rep in reps]) <= 3.0
        steps = [rep.metadata["newton_steps"] for rep in reps]
        assert all(0 < k < rep.iterations for k, rep in zip(steps, reps))

    def test_start_at_the_water_level(self):
        # gamma_init is the start: the mean over SCs of the best table IR's
        # marginal weighted rate at equal power, or gamma0 where that is 0
        cfg = paper_system()
        ch = paper_channels(cfg, 0)
        p_eq = cfg.total_power / cfg.num_scs
        for scheme, alpha in (("optimal", None), ("alpha05", 0.5),
                              ("noan", 0.0)):
            eng = dual._Engine(cfg, ch, SolverOptions(), alpha_fixed=alpha)
            level = np.mean(eng.kernel.marginal_rates(p_eq)[2])
            rep = solve(cfg, ch, scheme)
            if scheme == "noan":
                # no paper pair has h2 > b2, so no rate at split 0
                assert level == 0.0
                assert rep.metadata["gamma_init"] == eng.unit[-1]
            else:
                assert rep.metadata["gamma_init"] == pytest.approx(
                    level, rel=1e-15)
                assert rep.metadata["gamma_init"] != eng.unit[-1]

    def test_paper_draw_7_certified(self):
        # the step-size rule of a subgradient loop ran this draw to the cap
        cfg = paper_system()
        rep = solve(cfg, paper_channels(cfg, 7))
        assert rep.metadata["converged"] is True
        assert rep.iterations <= 200

    def test_newton_point_accepted_within_rounding(self):
        # at the optimum the cut model at the Newton point equals the best
        # dual value up to rounding; a strict test sent this row to the
        # master's point at evaluation 12, and it took 17 evaluations
        cfg = paper_system(qbar_uw=600.0)
        rep = solve(cfg, paper_channels(cfg, 7))
        assert rep.metadata["stop_reason"] == "gap closed"
        assert rep.iterations <= 12

    def test_newton_point_refused_on_non_finite_curvature(self):
        y, s_ = np.array([1.0, 0.5]), np.array([0.1, -0.2])
        for bad in (np.inf, np.nan):
            hess = np.array([[1.0, 0.0], [0.0, bad]])
            assert dual._newton_point(y, s_, hess) is None
        assert dual._newton_point(y, s_, np.eye(2)).tolist() == [0.9, 0.7]

    def test_newton_point_resolved_without_dropped_coordinates(self):
        # coordinates 0 and 1 sit at 0 with a negative gradient, so both are
        # free; on all three the step is (-1/4, 11/4, -5/4), and clipping it
        # alone would give (0, 11/4, 3/4). Coordinate 0 at 0 steps below
        # it, so it is dropped and the step re-solved on {1, 2}:
        # [[2, 1], [1, 2]] d = (4, 0) gives d = (8/3, -4/3)
        y = np.array([0.0, 0.0, 2.0])
        s_ = np.array([-1.0, -4.0, 0.0])
        hess = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]])
        clipped = np.maximum(y + np.linalg.solve(hess, -s_), 0.0)
        assert np.allclose(clipped, [0.0, 2.75, 0.75], rtol=1e-14, atol=0.0)
        point = dual._newton_point(y, s_, hess)
        assert np.allclose(point, [0.0, 8.0 / 3.0, 2.0 / 3.0], rtol=1e-14,
                           atol=0.0)

    def test_newton_point_stationary_on_its_free_set(self, rng):
        # on random SPD Hessians, with coordinates at 0 and far from it: the
        # point is >= 0, and the step solves the Newton system on the final
        # free set, the coordinates away from 0 or moved off it
        dropped = 0
        for _ in range(200):
            m = int(rng.integers(2, 6))
            a = rng.normal(size=(m, m))
            hess = a @ a.T + 0.1 * np.eye(m)
            y = np.where(rng.random(m) < 0.5, 0.0, 1e3)
            s_ = rng.normal(size=m)
            point = dual._newton_point(y, s_, hess)
            assert np.all(point >= 0.0)
            step = point - y
            free = (y > 0) | (point > 0)
            dropped += np.count_nonzero((y == 0) & (s_ < 0) & ~free)
            assert np.all(step[~free] == 0.0)
            resid = s_[free] + hess[np.ix_(free, free)] @ step[free]
            assert np.allclose(resid, 0.0,
                               atol=1e-9 * (1.0 + np.abs(s_).max()))
        assert dropped > 0

    def test_newton_point_unchanged_when_every_coordinate_drops(self):
        # both coordinates at 0 and free, and each steps below 0 (negative
        # curvature): both drop, y itself comes back, and the loop refuses
        # a point equal to the current one
        y, s_ = np.zeros(2), np.array([-1.0, -1.0])
        point = dual._newton_point(y, s_, -np.eye(2))
        assert np.array_equal(point, y)
        # no free coordinate to begin with
        assert np.array_equal(dual._newton_point(y, -s_, np.eye(2)), y)

    def test_newton_point_above_the_best_value_halved(self, monkeypatch):
        # the Newton point of evaluation 1 raises g from 157 to 842; the
        # loop steps halfway back twice (168, then 141), each counted as a
        # Newton step, and closes the gap without a master
        points = []
        evaluate = dual._Engine.evaluate

        def spy(eng, y):
            points.append(y.copy())
            return evaluate(eng, y)

        monkeypatch.setattr(dual._Engine, "evaluate", spy)
        cfg = paper_system(qbar_uw=600.0)
        rep = solve(cfg, paper_channels(cfg, 7))
        g = rep.trace["dual"]
        assert g[1] > g[0] and g[2] > g[0] and g[3] < g[0]
        for k in (2, 3):
            assert np.allclose(points[k], 0.5 * (points[k - 1] + points[0]),
                               rtol=1e-12, atol=0.0)
        m = rep.metadata
        assert m["master_solves"] == 0
        assert rep.iterations == m["newton_steps"] + 1

    def test_multipliers_stay_nonnegative(self):
        # one draw where harvesting binds (large lambda) and one where not;
        # on the noan draws the master LP returns a lambda a hair below 0
        cases = [("optimal", 100.0, 0), ("optimal", 400.0, 8),
                 ("noan", 100.0, 1), ("noan", 100.0, 2)]
        for scheme, qbar_uw, seed in cases:
            cfg = paper_system(qbar_uw=qbar_uw)
            rep = solve(cfg, paper_channels(cfg, seed), scheme)
            assert rep.metadata["converged"] is True
            assert np.all(np.asarray(rep.metadata["lambda"]) >= 0.0)
            assert rep.metadata["gamma"] >= 0.0


class TestModelSteps:
    """Newton steps on the last evaluation's winners, between two
    evaluations, on binding rows whose winners stay put."""

    @pytest.mark.parametrize("qbar_uw, seed, evaluations, parent", [
        (400.0, 8, 3, 6), (400.0, 9, 4, 7), (500.0, 8, 5, 7),
        (500.0, 11, 3, 5)])
    def test_binding_rows_take_model_steps(self, qbar_uw, seed, evaluations,
                                           parent):
        # ``parent``: the evaluations with a full evaluation per Newton
        # point; the rows converge quadratically on unchanged winners
        cfg = paper_system(qbar_uw=qbar_uw)
        rep = solve(cfg, paper_channels(cfg, seed))
        m = rep.metadata
        assert m["stop_reason"] == "gap closed"
        assert m["model_steps"] >= 1 and m["master_solves"] == 0
        assert rep.iterations == evaluations < parent
        assert rep.iterations == m["newton_steps"] + 1

    @pytest.mark.parametrize("qbar_uw, seed, evaluations", [
        (400.0, 10, 21), (500.0, 9, 9)])
    def test_master_rows_unchanged(self, qbar_uw, seed, evaluations):
        # these rows' winners switch until the master runs, after which
        # no model step is taken
        cfg = paper_system(qbar_uw=qbar_uw)
        rep = solve(cfg, paper_channels(cfg, seed))
        assert rep.metadata["master_solves"] >= 1
        assert rep.metadata["model_steps"] == 0
        assert rep.iterations == evaluations

    def test_none_on_paper_draws_closed_at_evaluation_2(self, reference_reports):
        # their first Newton point closes the gap; a model step needs two
        # evaluations with the same winners and a gap still open
        closed = [rep for qbar_uw, _, rep in reference_reports("optimal")
                  if qbar_uw == 100.0 and rep.iterations == 2]
        assert len(closed) == 15
        assert all(rep.metadata["model_steps"] == 0 for rep in closed)

    def test_follow_sets_no_bound_cut_or_primal(self):
        # the engine's follow is evaluate's subgradient and Hessian where
        # every winner is kept, to the bit, and changes nothing a full
        # evaluation sets
        cfg = paper_system(qbar_uw=400.0)
        eng = dual._Engine(cfg, paper_channels(cfg, 8), SolverOptions())
        y = np.append(np.zeros(cfg.num_ers), eng.y_start)
        eng.evaluate(y)
        state = (eng.n_evals, eng.g_min, eng.best_obj, eng.best_source,
                 len(eng.trace), len(eng.visited), eng.cand, eng.kept)
        y2 = y + np.append(np.full(cfg.num_ers, 1e-3), 1e-6 * eng.y_start)
        sub, hess = eng.follow(y2)
        assert (eng.n_evals, eng.g_min, eng.best_obj, eng.best_source,
                len(eng.trace), len(eng.visited), eng.cand, eng.kept) == state
        _, sub_ref, hess_ref = eng.evaluate(y2)
        assert eng.kept
        assert sub.tobytes() == sub_ref.tobytes()
        assert hess.tobytes() == hess_ref.tobytes()

    @pytest.mark.parametrize("scheme", ["optimal", "fsa", "alpha05"])
    def test_only_before_the_first_master_on_kept_winners(self, monkeypatch,
                                                          scheme):
        # on the binding rows: model steps are tried only before the first
        # master, and taken only after an evaluation that kept the winners
        # of the one before, where the first predicted decrease exceeds
        # sqrt(CONVERGENCE_TOL)
        seen = []
        model_steps = dual._Engine._model_steps

        def spy(eng, y, s_, y_newton):
            steps = eng.model_steps
            y_next = model_steps(eng, y, s_, y_newton)
            dec = -float(s_ @ (y_newton - y))
            seen.append((eng.master_solves, eng.model_steps > steps, eng.kept,
                         dec))
            return y_next

        monkeypatch.setattr(dual._Engine, "_model_steps", spy)
        steps = 0
        for qbar_uw in (400.0, 500.0, 700.0):
            cfg = paper_system(qbar_uw=qbar_uw)
            for seed in range(12):
                try:
                    rep = solve(cfg, paper_channels(cfg, seed), scheme)
                except InfeasibleProblemError:
                    continue
                steps += rep.metadata["model_steps"]
        assert steps > 0 and all(masters == 0 for masters, *_ in seen)
        taken = [(kept, dec) for _, moved, kept, dec in seen if moved]
        assert 0 < len(taken) <= steps
        assert all(kept and dec > np.sqrt(dual.CONVERGENCE_TOL)
                   for kept, dec in taken)


class TestStopReason:
    """Each way a cutting plane ends names itself in ``stop_reason``; the
    master-LP failure is in :class:`TestMasterFailure`."""

    def test_gap_closed(self):
        cfg = paper_system()
        rep = solve(cfg, paper_channels(cfg, 0))
        assert rep.metadata["stop_reason"] == "gap closed"
        assert rep.metadata["converged"] is True

    def test_bound_certified(self):
        # harvest binds: the gap of about 5e-3 stays open, so only the cut
        # model certifies the bound
        cfg = paper_system(qbar_uw=900.0)
        rep = solve(cfg, paper_channels(cfg, 0))
        assert rep.metadata["stop_reason"] == "bound certified"
        assert rep.metadata["converged"] is True
        assert rep.duality_gap > 1e-3

    def test_evaluation_cap(self):
        cfg = paper_system()
        rep = solve(cfg, paper_channels(cfg, 0),
                    options=SolverOptions(max_iterations=1))
        assert rep.metadata["stop_reason"] == "evaluation cap"
        assert rep.metadata["converged"] is False
        assert rep.iterations == 1


@pytest.mark.parametrize("scheme", ["optimal", "fsa", "alpha05"])
def test_gap_closed_reports_are_certified(scheme):
    # the stop on a closed gap ends the loop only where the best primal is
    # within CONVERGENCE_TOL of the best dual value; then no recovery runs
    cases = ([(paper_system(), seed) for seed in range(20)]
             + [(paper_system(p_max_dbm=p), seed)
                for p in (120.0, 150.0, 200.0, 230.0, 260.0, 300.0)
                for seed in range(3)])
    closed = 0
    for cfg, seed in cases:
        rep = solve(cfg, paper_channels(cfg, seed), scheme)
        if rep.metadata["stop_reason"] != "gap closed":
            continue
        closed += 1
        n = cfg.num_scs
        g = (rep.objective + rep.duality_gap) * n
        # g is rebuilt from the band averages: 4 ulps of it for rounding
        assert n * rep.duality_gap <= (dual.CONVERGENCE_TOL + 4.0 * np.finfo(
            float).eps) * abs(g), (cfg.total_power, seed)
        assert rep.duality_gap >= -rep.metadata["gap_floor"], (
            cfg.total_power, seed)
        assert rep.metadata["primal_source"] != "recovered"
    assert closed >= len(cases) // 2


class TestMasterLP:
    """The warm HiGHS master against a cold ``linprog`` on every master of a
    solve, built from the rows the cutting plane added and the current box."""

    @pytest.fixture
    def pinned(self, monkeypatch):
        cut, solve = dual._MasterLP.cut, dual._MasterLP.solve
        uppers = []

        def recording(self, s, b):
            self.__dict__.setdefault("rows", []).append((np.array(s), b))
            cut(self, s, b)

        def checked(self):
            upper = self.upper.copy()  # the box before this solve grows it
            out = solve(self)
            a_ub = np.array([np.append(s, -1.0) for s, _ in self.rows])
            b = np.array([b for _, b in self.rows])
            ref = linprog(c=np.append(np.zeros(upper.size), 1.0),
                          A_ub=a_ub, b_ub=b,
                          bounds=[(0.0, u) for u in upper] + [(None, None)],
                          method="highs",
                          options={"primal_feasibility_tolerance": 1e-10,
                                   "dual_feasibility_tolerance": 1e-10})
            assert ref.status == 0 and out is not None
            y, t, inside = out
            assert abs(t - ref.fun) <= 1e-9
            # degenerate masters have several optimal vertices, so the
            # point is checked against linprog's constraints, not its x
            assert np.all(a_ub @ np.append(y, t) <= b + 1e-9)
            assert np.all(y >= -1e-9) and np.all(y <= upper + 1e-9)
            # the box grew exactly on the faces the minimizer touches
            face = y >= upper * (1.0 - 1e-9)
            assert inside == (not face.any())
            assert np.array_equal(self.upper, np.where(face, 4.0 * upper,
                                                       upper))
            uppers.append(upper.max())
            return out

        monkeypatch.setattr(dual._MasterLP, "cut", recording)
        monkeypatch.setattr(dual._MasterLP, "solve", checked)
        return uppers

    @pytest.mark.parametrize("scheme, qbar_uw, seed, box", [
        ("noan", 100.0, 0, 16.0), ("noan", 100.0, 1, 16.0),
        ("fsa", 400.0, 10, 256.0)],
        ids=["paper-draw-0", "paper-draw-1", "400uW-draw-10-box-grows"])
    def test_matches_linprog_on_every_master(self, pinned, scheme, qbar_uw,
                                             seed, box):
        # the master runs only where the Newton point is refused; these
        # solves reach it: noan twice on each paper draw, fsa 15 times
        cfg = paper_system(qbar_uw=qbar_uw)
        rep = solve(cfg, paper_channels(cfg, seed), scheme)
        assert rep.metadata["converged"] is True
        assert len(pinned) == rep.metadata["master_solves"] >= 1
        # the box starts at 4 and is quadrupled on every face the master's
        # minimizer touches
        assert max(pinned) >= box

    def test_cut_store_grows_past_its_capacity(self):
        # the cuts live in one array whose capacity doubles from 8 rows: the
        # model is the stacked rows' maximum to the bit, and each solve adds
        # the cuts stored since the previous one, across the growth
        rng = np.random.default_rng(0)
        master = dual._MasterLP(np.full(3, 4.0))
        cuts = []
        for k in range(1, 21):
            cuts.append((rng.standard_normal(3), float(rng.standard_normal())))
            master.cut(*cuts[-1])
            y = rng.uniform(0.0, 4.0, 3)
            rows = np.array([np.append(s, -1.0) for s, _ in cuts])
            expect = float(np.max(rows[:, :-1] @ y - np.array([b for _, b in cuts])))
            assert master.model(y) == expect
            if k in (5, 20):
                # the box of this solve: the first grows it to (4, 16, 4)
                box = master.upper.copy()
                _, t, _ = master.solve()
                ref = linprog(c=np.append(np.zeros(3), 1.0), A_ub=rows,
                              b_ub=[b for _, b in cuts],
                              bounds=[(0.0, u) for u in box] + [(None, None)],
                              method="highs")
                assert ref.status == 0 and abs(t - ref.fun) <= 1e-9
                assert master._h.getNumRow() == k


class TestHarvestLP:
    """The per-SC LP over the full-power point alone, one column per SC at
    ``p_eff``, which ``recover_primal`` runs with no iterates while no
    primal has passed the screen, against a cold ``linprog`` of the same LP
    over per-SC powers in watts: the same verdict, and z * p_eff within
    1e-12 * P_max of linprog's powers."""

    @pytest.mark.parametrize("qbar_uw, seed", [
        (100.0, 0), (100.0, 1), (100.0, 2), (100.0, 3),
        *((q, s) for q in (400.0, 500.0, 900.0) for s in (8, 9, 10, 11))])
    def test_matches_linprog(self, monkeypatch, qbar_uw, seed):
        models = []
        make = dual._highs

        def recording(*args):
            models.append(make(*args))
            return models[-1]

        monkeypatch.setattr(dual, "_highs", recording)
        cfg = paper_system(qbar_uw=qbar_uw)
        ch = paper_channels(cfg, seed)
        n = cfg.num_scs
        # each column is worth max_k w_k R_k(p_eff, alpha*) per unit of z
        ref = linprog(c=-self._rates(cfg, ch).max(axis=0),
                      A_ub=np.vstack([np.ones(n),
                                      -cfg.harvest_eff[:, None] * ch.er_gains]),
                      b_ub=np.append(cfg.total_power, -cfg.harvest_target),
                      bounds=[(0.0, cfg.total_power)] * n, method="highs")
        eng = dual._Engine(cfg, ch, SolverOptions())
        if ref.status != 0:
            # 500 uW draw 10 and 900 uW draws 10-11
            with pytest.raises(InfeasibleProblemError, match="unreachable"):
                eng.recover_primal()
            return
        eng.recover_primal()
        assert len(models) == 1
        z = np.array(models[0].getSolution().col_value)
        assert np.max(np.abs(z * eng.p_eff - ref.x)) <= 1e-12 * cfg.total_power

    @staticmethod
    def _spy_mix(monkeypatch):
        """The (owner, rate) arguments of every ``_mix`` call."""
        calls = []
        mix = dual._Engine._mix

        def spy(eng, sc, power, rate, owner):
            calls.append((owner, rate))
            return mix(eng, sc, power, rate, owner)

        monkeypatch.setattr(dual._Engine, "_mix", spy)
        return calls

    @staticmethod
    def _rates(cfg, ch):
        """(K1, N) w_k R_k(p_eff, alpha*) of every pair, by ``model``."""
        p_eff = min(cfg.peak_power, cfg.total_power)
        H, B = ch.ir_gains, ch.eve_gains
        return cfg.weights[:, None] * secrecy_rate(
            p_eff, optimal_split(p_eff, H, B, cfg.noise_power), H, B,
            cfg.noise_power)

    def test_owners_are_first_best_weighted_rate(self, monkeypatch):
        # SC 0: IRs 0 and 1 tie in weight and gain, and IR 1's eavesdropper
        # is weaker, so the kernel's table drops IR 0; the mixture gives
        # each SC the first IR of its largest weighted secrecy rate at
        # p_eff in the table, so SC 0 goes to IR 1 and every other SC to
        # its strongest IR, each column worth that rate
        cfg = paper_system(n_sc=8, k1=3)
        ch = paper_channels(cfg, 0)
        ch.gains[:2, 0] = 2.0 * ch.ir_gains[:, 0].max()
        ch.eve_gains[1, 0] = 0.5 * ch.eve_gains[0, 0]
        eng = dual._Engine(cfg, ch, SolverOptions())
        assert 0 not in eng.kernel.table[:, 0]
        calls = self._spy_mix(monkeypatch)
        eng.recover_primal()
        expected = np.argmax(ch.ir_gains, axis=0)
        assert expected[0] == 0
        expected[0] = 1
        owners, rate = calls[0]
        assert owners.tolist() == expected.tolist()
        rates = self._rates(cfg, ch)
        assert np.array_equal(np.argmax(rates, axis=0), expected)
        assert rate == pytest.approx(rates.max(axis=0), rel=1e-12, abs=0.0)

    def test_pinned_columns_value_the_pinned_ir(self, monkeypatch):
        # FSA pins each SC's IR: the harvest LP's column on SC n is worth
        # w R of the pinned IR at p_eff, not the largest rate of any IR
        cfg = replace(paper_system(qbar_uw=400.0),
                      weights=np.array([1.0, 2.0, 0.5, 1.0]))
        ch = paper_channels(cfg, 8)
        pinned = round_robin_assignment(cfg)
        eng = dual._Engine(cfg, ch, SolverOptions(), fixed_assign=pinned)
        calls = self._spy_mix(monkeypatch)
        eng.recover_primal()
        owners, rate = calls[0]
        rates = self._rates(cfg, ch)
        assert owners.tolist() == pinned.tolist()
        assert rate == pytest.approx(rates[pinned, np.arange(cfg.num_scs)],
                                     rel=1e-12, abs=0.0)
        assert np.any(rate < 0.5 * rates.max(axis=0))


class TestMasterFailure:
    """A master that HiGHS does not solve to optimality ends the loop
    uncertified: the solve returns ``converged`` False and the CLI exits 4."""

    @pytest.fixture(autouse=True)
    def failing_master(self, monkeypatch):
        # the master's HiGHS model is created at its first solve; only that
        # model runs out of time, not the harvest LP's
        make, solve = dual._highs, dual._MasterLP.solve

        def out_of_time(*args):
            h = make(*args)
            h.setOptionValue("time_limit", 0.0)  # kTimeLimit at once
            return h

        def failing(self):
            with monkeypatch.context() as m:
                m.setattr(dual, "_highs", out_of_time)
                return solve(self)

        monkeypatch.setattr(dual._MasterLP, "solve", failing)

    # noan refuses the Newton point at its first evaluation on these draws,
    # so its loop reaches the master there; optimal's Newton points close
    # the gap before any master runs

    def test_solve_reports_not_converged(self):
        cfg = paper_system(n_sc=8)
        rep = solve(cfg, paper_channels(cfg, 0), "noan")
        assert rep.metadata["converged"] is False
        assert rep.metadata["stop_reason"] == "master LP failed"
        assert rep.iterations == 1

    def test_cli_exits_not_converged(self, capsys, tmp_path):
        paper = Path(__file__).parents[1] / "configs" / "paper.yaml"
        cfg = tmp_path / "noan.yaml"
        cfg.write_text(paper.read_text().replace("scheme: optimal",
                                                 "scheme: noan"))
        assert main(["solve", "--config", str(cfg)]) == EXIT_NOT_CONVERGED
        assert "Traceback" not in capsys.readouterr().err


@pytest.fixture
def lp_calls(monkeypatch):
    """The evaluation count at each per-SC LP whose pool the full-power
    point leads: each call of ``recover_primal`` while no primal has passed
    the screen."""
    calls = []
    lp = dual._Engine.recover_primal

    def spy(eng, iterates=()):
        if eng.best_alloc is None:
            calls.append(eng.n_evals)
        return lp(eng, iterates)

    monkeypatch.setattr(dual._Engine, "recover_primal", spy)
    return calls


class TestPrimalSource:
    def test_full_power_mixture_named(self, lp_calls):
        # every noan iterate scores 0: the first misses a target and its
        # Newton point is refused, so the LP runs before the first master,
        # right after that evaluation, and its primal, screened before any
        # other, stays
        cfg = paper_system()
        rep = solve(cfg, paper_channels(cfg, 1), "noan")
        assert lp_calls == [1]
        assert rep.metadata["lp_runs"] == 1
        assert rep.metadata["primal_source"] == "recovered"
        assert rep.objective == 0.0

    def test_overspending_iterate_scaled_onto_budget(self):
        # the screen scales a primal that spends above P_max onto it, its
        # harvest with it, and only then tests the harvest targets
        cfg = paper_system(qbar_uw=400.0)
        ch = paper_channels(cfg, 10)
        eng = dual._Engine(cfg, ch, SolverOptions())
        eng.recover_primal()
        lp = eng.best_alloc
        eng.best_obj = -np.inf
        over = Allocation(lp.owner, 1.5 * lp.sc_power, lp.sc_split,
                          cfg.num_irs)
        q, total, obj = eng._screen(lp.owner, over.sc_power, lp.sc_split, 7)
        assert np.array_equal(q, all_harvested_powers(over, ch, cfg))
        assert total == float(over.sc_power.sum())
        assert total > 1.4 * cfg.total_power
        assert eng.best_source == 7
        kept = eng.best_alloc
        assert kept.sc_power.sum() == pytest.approx(cfg.total_power, rel=1e-15)
        assert np.allclose(kept.power, over.power * cfg.total_power / total,
                           rtol=1e-15, atol=0.0)
        assert np.allclose(eng.best_q, q * cfg.total_power / total,
                           rtol=1e-15, atol=0.0)
        # the screen's score is the sum over SCs, before the division by N
        assert obj / cfg.num_scs == weighted_sum_secrecy(kept, ch, cfg)
        # more power on the SC that harvests least: the unscaled primal
        # meets every target, the scaled one does not, so it is rejected
        weak = int(np.argmin(eng.zg.sum(axis=0)))
        owner, p = lp.owner.copy(), lp.sc_power.copy()
        owner[weak], p[weak] = 0, lp.sc_power[weak] + cfg.total_power
        heavy = Allocation(owner, p, np.zeros_like(p), cfg.num_irs)
        q = all_harvested_powers(heavy, ch, cfg)
        assert np.all(q >= cfg.harvest_target)
        assert np.isnan(eng._screen(heavy.owner, p, heavy.sc_split, 8)[2])
        assert eng.best_source == 7
        # harvest binds hard on this draw: the harvest LP's allocation alone
        # scores 1.134 against a bound of 12.28
        rep = solve(cfg, ch)
        assert rep.objective >= 12.2
        assert 0.0 <= rep.duality_gap <= 1e-2

    def test_dual_iterate_named_by_index(self):
        cfg = paper_system()
        rep = solve(cfg, paper_channels(cfg, 0))
        source = rep.metadata["primal_source"]
        assert isinstance(source, int) and 1 <= source <= rep.iterations
        assert rep.trace[source - 1].primal == rep.objective


class TestNoPrimal:
    """A solve whose screen accepts no primal raises, with the evaluations
    it ran, and the CLI exits infeasible."""

    @pytest.fixture(autouse=True)
    def rejecting_screen(self, monkeypatch):
        evaluations = []
        screen, evaluate = dual._Engine._screen, dual._Engine.evaluate

        def reject(eng, *args):
            # the cut still needs the harvest and total; no primal is kept
            q, total, _ = screen(eng, *args)
            eng.best_obj, eng.best_alloc = -np.inf, None
            return q, total, np.nan

        def counted(eng, *args):
            evaluations.append(eng.n_evals)
            return evaluate(eng, *args)

        monkeypatch.setattr(dual._Engine, "_screen", reject)
        monkeypatch.setattr(dual._Engine, "evaluate", counted)
        return evaluations

    def test_raises_with_evaluations(self, rejecting_screen):
        cfg = paper_system(n_sc=8)
        with pytest.raises(InfeasibleProblemError,
                           match="no feasible allocation found") as err:
            solve(cfg, paper_channels(cfg, 0))
        assert err.value.evaluations == len(rejecting_screen) > 0

    def test_full_power_point_leads_each_pool_without_a_primal(
            self, rejecting_screen, lp_calls):
        # noan solves a master after each of its 3 evaluations here, each
        # without a primal; the loop's LP runs before the first of them
        # only, and as its mixture too is rejected, the full-power point
        # also leads the pool of the LP after the loop
        cfg = paper_system(n_sc=8)
        with pytest.raises(InfeasibleProblemError,
                           match="no feasible allocation found"):
            solve(cfg, paper_channels(cfg, 0), "noan")
        assert len(rejecting_screen) == 3
        assert lp_calls == [1, 3]

    @pytest.mark.xfail(strict=True, reason=(
        "Newton creep: on these draws each Newton point differs from the "
        "last only by rounding, so the loop takes 200 Newton steps and 0 "
        "masters and stops by the evaluation cap. Sending the loop to the "
        "master after a Newton point that lowers g_min by no more than "
        "CONVERGENCE_TOL |g| ends each by 'bound certified' in 2-3 "
        "evaluations, but raises the optimal and alpha05 binding-set "
        "totals to 797 and 996 evaluations (fsa 1078), above the 781 and "
        "983 of test_binding_set_evaluations_with_model_steps"))
    @pytest.mark.parametrize("seed", [1, 2, 5])
    def test_bound_certified_without_a_primal(self, seed):
        # with no primal the gap never closes, so only the master's model
        # can certify the bound; the fix tried took 2-3 evaluations
        cfg = paper_system()
        eng = dual._Engine(cfg, paper_channels(cfg, seed),
                           SolverOptions(max_iterations=200))
        assert eng.cutting_plane() == "bound certified"
        assert eng.n_evals <= 10

    def test_cli_exits_infeasible(self, capsys):
        paper = Path(__file__).parents[1] / "configs" / "paper.yaml"
        assert main(["solve", "--config", str(paper)]) == EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert err.startswith("infeasible: no feasible allocation found")
        assert "Traceback" not in err


class TestRecovery:
    """Where no visited iterate meets every target well, the rounded mixture
    of the visited iterates does."""

    @pytest.mark.parametrize("qbar_uw, kelley", [
        (700.0, 2.860242949380877), (900.0, 2.7529980498935642)])
    def test_binding_draw_0_keeps_its_objective(self, qbar_uw, kelley):
        # ``kelley``: the objective when every master argmin was evaluated,
        # the iterates the screen kept it from; at 700 uW a visited iterate
        # matches or beats the recovery mixture, at 900 uW none does
        cfg = paper_system(qbar_uw=qbar_uw)
        ch = paper_channels(cfg, 0)
        rep = solve(cfg, ch)
        source = rep.metadata["primal_source"]
        assert (source == "recovered") == (qbar_uw == 900.0), source
        assert rep.objective >= kelley - 2e-3
        assert 0.0 <= rep.duality_gap <= 1e-2
        rep.allocation.validate(cfg)
        q = all_harvested_powers(rep.allocation, ch, cfg)
        assert np.all(q >= cfg.harvest_target * (1.0 - dual.FEASIBILITY_TOL))

    @pytest.mark.parametrize("scheme, qbar_uw, seed, objective", [
        ("optimal", 900.0, 0, 2.751717110715327),
        ("fsa", 900.0, 5, 1.9057814424184798),
        ("fsa", 1000.0, 1, 2.944899844713837)],
        ids=["optimal-900uW-draw-0", "fsa-900uW-draw-5", "fsa-1000uW-draw-1"])
    def test_rate_free_scs_send_no_noise(self, scheme, qbar_uw, seed,
                                         objective):
        # the rounded mixture takes each SC's split from optimal_split, which
        # is 0 where the SC has no secrecy rate at its power; on these draws
        # one owned SC has none; the objectives rose from 2.7517168287,
        # 1.9057794265 and 2.9448952566 with the water-level start
        cfg = paper_system(qbar_uw=qbar_uw)
        ch = paper_channels(cfg, seed)
        rep = solve(cfg, ch, scheme)
        assert rep.metadata["primal_source"] == "recovered"
        assert rep.objective == objective
        alloc = rep.allocation
        on = np.flatnonzero(alloc.owner >= 0)
        rate = secrecy_rate(alloc.sc_power[on], alloc.sc_split[on],
                            ch.ir_gains[alloc.owner[on], on],
                            ch.eve_gains[alloc.owner[on], on], cfg.noise_power)
        assert np.count_nonzero(rate == 0.0) >= 1
        assert np.all(alloc.sc_split[on[rate == 0.0]] == 0.0)

    def test_not_run_once_gap_closed(self, monkeypatch):
        calls = []
        monkeypatch.setattr(dual._Engine, "recover_primal",
                            lambda eng, iterates=(): calls.append(eng))
        cfg = paper_system()
        rep = solve(cfg, paper_channels(cfg, 0))
        assert rep.duality_gap <= dual.CONVERGENCE_TOL * abs(
            rep.objective + rep.duality_gap)
        assert calls == []

    def test_lp_memory_linear_in_columns(self):
        # 20 iterates on 512 SCs give 5038 columns; a dense (SC, column)
        # matrix of the sum z <= 1 rows alone would take about 20 MiB
        cfg = paper_system(n_sc=512, qbar_uw=900.0)
        eng = dual._Engine(cfg, paper_channels(cfg, 0), SolverOptions())
        for y_gamma in np.linspace(0.5, 2.0, 20):
            eng.evaluate(np.append(np.zeros(cfg.num_ers), y_gamma))
        columns = sum(np.count_nonzero(p > 0) for _, p, _ in eng.visited)
        assert columns == 5038
        # no iterate passes the screen here, so the first LP is over
        # full-power columns and, once its mixture has passed, the next
        # over the visited iterates alone
        assert eng.best_alloc is None
        eng.recover_primal()
        tracemalloc.start()
        try:
            eng.recover_primal(eng.visited)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert eng.best_source == "recovered" and eng.lp_runs == 2
        assert peak < 4 * 2 ** 20, peak


class TestHarvestFeasibilityCheck:
    """Where an LP whose pool the full-power point leads runs, and its
    verdict on reachability."""

    def test_zero_targets_always_feasible(self, lp_calls):
        cfg = paper_system(n_sc=8, qbar_uw=0.0)
        solve(cfg, paper_channels(cfg, seed=0))
        assert lp_calls == []

    def test_unreachable_targets_detected(self, lp_calls):
        # just above what the whole budget on ER 0's best SC can deliver:
        # the first iterate misses it, and the LP then raises
        cfg = paper_system(n_sc=8, qbar_uw=0.0)
        ch = paper_channels(cfg, seed=0)
        reach = cfg.harvest_eff[0] * cfg.total_power * ch.er_gains[0].max()
        target = np.zeros(cfg.num_ers)
        for factor in (1.001, 1.0 + 1e-8):
            target[0] = factor * reach
            lp_calls.clear()
            with pytest.raises(InfeasibleProblemError, match="unreachable"):
                solve(replace(cfg, harvest_target=target), ch)
            assert lp_calls == [1]
        target[0] = 0.999 * reach
        cfg = replace(cfg, harvest_target=target)
        rep = solve(cfg, ch)
        rep.allocation.validate(cfg)
        q = all_harvested_powers(rep.allocation, ch, cfg)
        assert q[0] >= target[0] - 1e-9

    def test_reach_decided_within_screen_tolerance(self, lp_calls):
        # one SC: the first iterate spends P_max on it and harvests the
        # whole reach. A target above it by less than FEASIBILITY_TOL of
        # itself passes the screen, so the LP never runs; twice that share
        # above it is unreachable.
        cfg = paper_system(n_sc=1, qbar_uw=0.0)
        ch = paper_channels(cfg, seed=0)
        reach = cfg.harvest_eff[0] * cfg.total_power * ch.er_gains[0, 0]
        target = np.zeros(cfg.num_ers)
        target[0] = (1.0 + 0.5 * dual.FEASIBILITY_TOL) * reach
        rep = solve(replace(cfg, harvest_target=target), ch)
        assert lp_calls == []
        q = all_harvested_powers(rep.allocation, ch, cfg)
        assert target[0] > q[0] >= (1.0 - dual.FEASIBILITY_TOL) * target[0]
        target[0] = (1.0 + 2.0 * dual.FEASIBILITY_TOL) * reach
        with pytest.raises(InfeasibleProblemError, match="unreachable"):
            solve(replace(cfg, harvest_target=target), ch)
        assert lp_calls == [1]

    def test_not_run_on_paper_seeds(self, lp_calls):
        # every first iterate meets the 100 uW targets
        cfg = paper_system()
        for seed in range(20):
            solve(cfg, paper_channels(cfg, seed))
        assert lp_calls == []

    @pytest.mark.parametrize("qbar_uw, seed", [
        (400.0, 8), (400.0, 9), (500.0, 8), (500.0, 9), (500.0, 11)])
    def test_not_run_where_an_iterate_passes(self, lp_calls, qbar_uw, seed):
        # binding sweep rows whose first iterate misses a target: a later
        # iterate passes the screen before the loop needs a master, or the
        # loop never solves one, so no LP has to prove the targets reachable
        cfg = paper_system(qbar_uw=qbar_uw)
        rep = solve(cfg, paper_channels(cfg, seed))
        assert rep.trace[0].harvest_shortfall > 0.0
        assert lp_calls == []
        assert rep.metadata["lp_runs"] == 0

    def test_run_at_the_first_master_without_a_primal(self, lp_calls):
        # 400 uW draw 10: no iterate passes before the fourth evaluation,
        # whose Newton point is refused, so the LP runs there
        cfg = paper_system(qbar_uw=400.0)
        rep = solve(cfg, paper_channels(cfg, 10))
        assert lp_calls == [4]
        assert rep.metadata["lp_runs"] == 1
        assert rep.metadata["master_solves"] >= 1
        assert np.all(np.isnan(rep.trace["primal"][:4]))

    @pytest.mark.parametrize("cap, objective", [
        (1, 7.968216114134025), (2, 9.893832072661606)],
        ids=["cap-1", "cap-2"])
    def test_one_lp_after_the_cap_without_a_primal(self, monkeypatch, cap,
                                                   objective):
        # the cap ends the loop before any master, with no primal: one LP
        # after it mixes the full-power point, first on each SC, with every
        # visited iterate
        pools = []
        mix = dual._Engine._mix

        def spy(eng, sc, power, rate, owner):
            pools.append((eng, sc, power, rate, owner))
            return mix(eng, sc, power, rate, owner)

        monkeypatch.setattr(dual._Engine, "_mix", spy)
        cfg = paper_system(qbar_uw=400.0)
        rep = solve(cfg, paper_channels(cfg, 10),
                    options=SolverOptions(max_iterations=cap))
        m = rep.metadata
        assert (m["stop_reason"], m["master_solves"]) == ("evaluation cap", 0)
        assert m["lp_runs"] == 1 and m["primal_source"] == "recovered"
        assert rep.objective == objective
        [(eng, sc, power, rate, owner)] = pools
        assert len(eng.visited) == cap
        # the first column of each SC is the full-power point's
        n = cfg.num_scs
        lead = np.searchsorted(sc, np.arange(n))
        assert np.array_equal(sc[lead], np.arange(n))
        full_owner, full_rate, _ = eng.kernel.marginal_rates(eng.p_eff)
        assert np.all(power[lead] == eng.p_eff)
        assert np.array_equal(owner[lead], full_owner)
        assert np.array_equal(rate[lead], full_rate)
        # the rest are every visited iterate's columns of positive power
        rest = np.setdiff1d(np.arange(sc.size), lead)
        v_owner, v_power, v_rate = (np.array(v) for v in zip(*eng.visited))
        v_sc, it = np.nonzero(v_power.T > 0)
        assert v_sc.size > 0
        assert np.array_equal(sc[rest], v_sc)
        assert np.array_equal(power[rest], v_power[it, v_sc])
        assert np.array_equal(owner[rest], v_owner[it, v_sc])
        assert np.array_equal(rate[rest], v_rate[it, v_sc])


#: the reference rows: Qbar = 100 uW on paper draws 0-19 and 300, 400, ...,
#: 1000 uW on draws 0-11
REFERENCE_ROWS = ([(100.0, seed) for seed in range(20)]
                  + [(float(qbar_uw), seed) for qbar_uw in range(300, 1001, 100)
                     for seed in range(12)])


DUAL_SCHEMES = ["optimal", "fsa", "alpha05", "noan"]


@pytest.fixture(scope="module")
def reference_reports():
    """The reports of a scheme's feasible reference rows, as (Qbar in uW,
    seed, report), each scheme solved once for the tests below."""
    cache = {}

    def reports(scheme):
        if scheme not in cache:
            cache[scheme] = []
            for qbar_uw, seed in REFERENCE_ROWS:
                cfg = paper_system(qbar_uw=qbar_uw)
                try:
                    rep = solve(cfg, paper_channels(cfg, seed), scheme)
                except InfeasibleProblemError:
                    continue
                cache[scheme].append((qbar_uw, seed, rep))
        return cache[scheme]

    return reports


@pytest.mark.parametrize("scheme", DUAL_SCHEMES)
def test_harvest_lp_runs_at_most_once(scheme, lp_calls):
    # on every reference row, infeasible ones included: at most one LP's
    # pool has the full-power point, and no earlier evaluation passed the
    # screen. lp_runs adds the LP over the visited iterates, which runs
    # exactly where the loop ends with the gap open
    for qbar_uw, seed in REFERENCE_ROWS:
        cfg = paper_system(qbar_uw=qbar_uw)
        lp_calls.clear()
        try:
            rep = solve(cfg, paper_channels(cfg, seed), scheme)
        except InfeasibleProblemError as err:
            assert lp_calls == [err.evaluations], (qbar_uw, seed)
            continue
        m = rep.metadata
        assert len(lp_calls) <= 1, (qbar_uw, seed)
        assert m["lp_runs"] == len(lp_calls) + (
            m["stop_reason"] != "gap closed"), (qbar_uw, seed)
        if lp_calls:
            assert np.all(np.isnan(rep.trace["primal"][:lp_calls[0]])), (
                qbar_uw, seed)


@pytest.mark.parametrize("scheme, qbar_uw, seed", [
    ("optimal", 400.0, 10), ("noan", 100.0, 1), ("noan", 100.0, 2)])
def test_in_loop_lp_has_one_column_per_sc(monkeypatch, scheme, qbar_uw, seed):
    # the LP before the first master runs over the full-power point alone,
    # N columns; the visited iterates in that pool too cost 400 uW draw 10
    # about 1.9 ms per solve (ROADMAP, "One LP pool")
    calls = []
    mix = dual._Engine._mix

    def spy(eng, sc, *args):
        calls.append((eng.master_solves, sc.copy()))
        return mix(eng, sc, *args)

    monkeypatch.setattr(dual._Engine, "_mix", spy)
    cfg = paper_system(qbar_uw=qbar_uw)
    rep = solve(cfg, paper_channels(cfg, seed), scheme)
    assert rep.metadata["master_solves"] >= 1
    in_loop = [sc for masters, sc in calls if masters == 0]
    assert len(in_loop) == 1
    assert np.array_equal(in_loop[0], np.arange(cfg.num_scs))


@pytest.mark.parametrize("scheme", DUAL_SCHEMES)
def test_infeasible_exactly_where_linprog_is(scheme):
    # an independent verdict: a feasibility LP over per-SC powers in
    # [0, p_eff] with the budget row and the harvest rows. Unequal weights
    # leave an SC several undominated IRs, where the harvest LP's owner is
    # the one of largest weighted rate; at K2 = 1 the one target is 4 Qbar
    weights = np.array([1.0, 2.0, 0.5, 1.0])
    for k2, times, w in ((4, 1, None), (4, 1, weights), (1, 4, weights)):
        for qbar_uw in range(300, 1501, 200):
            cfg = paper_system(k2=k2, qbar_uw=float(times * qbar_uw))
            if w is not None:
                cfg = replace(cfg, weights=w)
            n, p_eff = cfg.num_scs, min(cfg.peak_power, cfg.total_power)
            for seed in range(12):
                case = (k2, w is not None, qbar_uw, seed)
                ch = paper_channels(cfg, seed)
                ref = linprog(c=np.zeros(n), A_ub=np.vstack(
                    [np.ones(n), -cfg.harvest_eff[:, None] * ch.er_gains]),
                    b_ub=np.append(cfg.total_power, -cfg.harvest_target),
                    bounds=[(0.0, p_eff)] * n, method="highs")
                assert ref.status in (0, 2), (case, ref.message)
                try:
                    solve(cfg, ch, scheme)
                except InfeasibleProblemError as err:
                    assert ref.status == 2, case
                    assert err.evaluations >= 1
                else:
                    assert ref.status == 0, case


@pytest.mark.parametrize("scheme", DUAL_SCHEMES)
def test_gap_above_its_floor(scheme, reference_reports):
    # a negative gap may only be rounding (see test_gap_floor_reported); the
    # binding rows of optimal and alpha05 come closest, at 39 % of it
    for qbar_uw, seed, rep in reference_reports(scheme):
        assert rep.duality_gap >= -rep.metadata["gap_floor"], (qbar_uw, seed)


def _solve_or_verdict(cfg, ch, scheme):
    """The report of a solve, or the InfeasibleProblemError it raised."""
    try:
        return solve(cfg, ch, scheme)
    except InfeasibleProblemError as err:
        return err


@pytest.mark.parametrize("scheme", DUAL_SCHEMES)
def test_weights_scaled_by_a_power_of_two(scheme):
    # scaling every weight by 2^k scales the problem's values and
    # multipliers by 2^k and nothing else: the same verdict, allocation,
    # harvest and counts, and the objective, gap, its floor, lambda, gamma,
    # the start and the trace's values exactly 2^k times those at factor 1.
    # The parent solved at the weights as given: 400 uW draw 10 at 2^-700
    # returned 1.05 w in place of 12.28 w, and at 2^300 it exited 3
    rows = [(100.0, 1), (400.0, 10), (900.0, 0), (500.0, 10)]
    for weights in (np.ones(4), np.array([1.0, 2.0, 0.5, 1.0])):
        for qbar_uw, seed in rows:
            cfg = replace(paper_system(qbar_uw=qbar_uw), weights=weights)
            ch = paper_channels(cfg, seed)
            ref = _solve_or_verdict(cfg, ch, scheme)
            for k in (-1000, -700, -300, 300, 500, 1000):
                case = (weights.tolist(), qbar_uw, seed, k)
                f = 2.0 ** k
                got = _solve_or_verdict(replace(cfg, weights=weights * f), ch,
                                        scheme)
                assert type(got) is type(ref), case
                if isinstance(ref, InfeasibleProblemError):
                    assert (str(got), got.evaluations) == (
                        str(ref), ref.evaluations), case
                    continue
                for a, b in ((got.allocation.owner, ref.allocation.owner),
                             (got.allocation.sc_power, ref.allocation.sc_power),
                             (got.allocation.sc_split, ref.allocation.sc_split),
                             (got.harvested, ref.harvested)):
                    assert np.array_equal(a, b), case
                m, m_ref = got.metadata, ref.metadata
                for key in ("stop_reason", "primal_source", "newton_steps",
                            "model_steps", "master_solves", "lp_runs"):
                    assert m[key] == m_ref[key], (case, key)
                assert got.iterations == ref.iterations, case
                assert got.objective == f * ref.objective, case
                assert got.duality_gap == f * ref.duality_gap, case
                for key in ("gap_floor", "gamma", "gamma_init"):
                    assert m[key] == f * m_ref[key], (case, key)
                assert m["lambda"] == [f * v for v in m_ref["lambda"]], case
                for name in ("dual", "primal"):
                    assert np.array_equal(got.trace[name],
                                          f * ref.trace[name],
                                          equal_nan=True), (case, name)
                for name in ("power_excess", "harvest_shortfall"):
                    assert np.array_equal(got.trace[name], ref.trace[name]), (
                        case, name)


@pytest.mark.parametrize("scheme", DUAL_SCHEMES)
def test_reference_reports_certified(scheme, reference_reports):
    # every feasible reference row ends by a stopping rule that certifies
    # its bound, never by the evaluation cap or a failed master
    for qbar_uw, seed, rep in reference_reports(scheme):
        m = rep.metadata
        assert m["converged"] is True, (qbar_uw, seed)
        assert m["stop_reason"] in ("gap closed", "bound certified"), (
            qbar_uw, seed)


def test_dark_subcarriers_have_no_owner(reference_reports):
    # one rule for every primal source, pinned owners (fsa) included: an SC
    # is owned exactly where it carries power
    sources = set()
    for scheme in DUAL_SCHEMES:
        for qbar_uw, seed, rep in reference_reports(scheme):
            a = rep.allocation
            assert np.array_equal(a.owner == -1, a.sc_power == 0), (
                scheme, qbar_uw, seed)
            source = rep.metadata["primal_source"]
            sources.add("evaluation" if isinstance(source, int) else source)
    assert sources == {"evaluation", "recovered"}


@pytest.mark.parametrize("qbar_uw, seed", [(100.0, 0), (900.0, 0), (700.0, 11)])
def test_gap_floor_reported(qbar_uw, seed):
    # 4 ulps of the bound g, plus what the screen's share FEASIBILITY_TOL of
    # each target is worth at lambda, band-averaged; lambda > 0 on the
    # binding rows
    cfg = paper_system(qbar_uw=qbar_uw)
    rep = solve(cfg, paper_channels(cfg, seed))
    n = cfg.num_scs
    g = (rep.objective + rep.duality_gap) * n
    lam = np.asarray(rep.metadata["lambda"])
    floor = (4.0 * np.finfo(float).eps * abs(g) + float(
        lam @ (dual.FEASIBILITY_TOL * cfg.harvest_target))) / n
    assert rep.metadata["gap_floor"] == pytest.approx(floor, rel=1e-12, abs=0.0)
    assert (qbar_uw == 100.0) == (rep.metadata["gap_floor"] < 1e-12)


@pytest.mark.parametrize("scheme", DUAL_SCHEMES)
def test_each_evaluation_ends_in_one_step(scheme, reference_reports):
    # after each evaluation the loop stops on a closed gap, takes the Newton
    # point, or solves the master, never the master as well as the Newton
    # point
    for qbar_uw, seed, rep in reference_reports(scheme):
        m = rep.metadata
        closed = m["stop_reason"] == "gap closed"
        assert rep.iterations == (m["newton_steps"] + m["master_solves"]
                                  + closed), (qbar_uw, seed)


def test_master_solved_only_where_newton_refused(reference_reports):
    # on paper seeds the Newton point is taken on 1.75 of 2.85 evaluations
    # (2.90 of 4.05 from gamma0); a master after every open evaluation made
    # 3.10 per solve
    paper = [rep for qbar_uw, _, rep in reference_reports("optimal")
             if qbar_uw == 100.0]
    assert len(paper) == 20
    assert np.mean([rep.iterations for rep in paper]) <= 3.0
    assert np.mean([rep.metadata["master_solves"] for rep in paper]) <= 0.5


def test_fsa_evaluation_budget_on_paper_seeds(reference_reports):
    # pinned owners: 7.30 evaluations per solve from gamma0
    paper = [rep for qbar_uw, _, rep in reference_reports("fsa")
             if qbar_uw == 100.0]
    assert len(paper) == 20
    assert np.mean([rep.iterations for rep in paper]) <= 5.6


@pytest.mark.parametrize("scheme, total", [
    ("optimal", 836), ("fsa", 1327), ("alpha05", 1046)])
def test_binding_set_evaluations_not_above_gamma0_start(scheme, total,
                                                         reference_reports):
    # the binding set: the 69 feasible reference rows at 300-1000 uW; the
    # start at gamma0 took ``total`` evaluations over them (12.12, 19.23
    # and 15.16 per solve), and the water-level start must take no more
    binding = [rep for qbar_uw, _, rep in reference_reports(scheme)
               if qbar_uw >= 300.0]
    assert len(binding) == 69
    assert sum(rep.iterations for rep in binding) <= total


@pytest.mark.parametrize("scheme, total", [
    ("optimal", 781), ("fsa", 1079), ("alpha05", 983)])
def test_binding_set_evaluations_with_model_steps(scheme, total,
                                                  reference_reports):
    # Newton steps on the last evaluation's winners cut the binding sets'
    # evaluations from 831, 1111 and 1046 with one evaluation per Newton
    # point to ``total``
    binding = [rep for qbar_uw, _, rep in reference_reports(scheme)
               if qbar_uw >= 300.0]
    assert len(binding) == 69
    assert sum(rep.iterations for rep in binding) <= total


def test_binding_harvest_rows_feasible():
    # Qbar where the harvest targets bind on these draws
    solved = 0
    for qbar_uw in (400.0, 600.0, 800.0, 1000.0):
        cfg = paper_system(qbar_uw=qbar_uw)
        for seed in (8, 9, 10, 11):
            ch = paper_channels(cfg, seed)
            try:
                rep = solve(cfg, ch)
            except InfeasibleProblemError:
                continue
            solved += 1
            rep.allocation.validate(cfg)
            q = all_harvested_powers(rep.allocation, ch, cfg)
            assert np.all(q >= cfg.harvest_target - dual.FEASIBILITY_TOL)
            assert rep.duality_gap >= -1e-9
    assert solved == 11  # the other 5 rows are LP-infeasible


class TestSolverOptions:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SolverOptions(max_iterations=0)

    @pytest.mark.parametrize("count", [2.5, np.nan, True],
                             ids=["fraction", "nan", "bool"])
    def test_rejects_a_count_that_is_not_an_integer(self, count):
        # at construction, not later by range() in the loop
        with pytest.raises(ValueError, match="must be an integer"):
            SolverOptions(max_iterations=count)

    def test_accepts_a_numpy_integer(self):
        cfg = paper_system(n_sc=8)
        rep = solve(cfg, paper_channels(cfg, 0),
                    options=SolverOptions(max_iterations=np.int64(1)))
        assert rep.iterations == 1


class TestHighsLoader:
    """``dual`` loads scipy's HiGHS binding from its file, without importing
    ``scipy.optimize``, under the binding's own module name."""

    @staticmethod
    def _run(code):
        src = Path(__file__).parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        subprocess.run([sys.executable, "-W", "error", "-c", code], env=env,
                       check=True)

    def test_cli_import_leaves_scipy_optimize_out(self):
        self._run(
            "import sys\n"
            "import ofdma_swipt.cli\n"
            "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize'\n"
            "from ofdma_swipt import dual\n"
            "from scipy.optimize import linprog\n"
            # a from-import: the import system binds a submodule on its
            # package only when it loads it, so _highspy has no _core
            # attribute here
            "from scipy.optimize._highspy import _core, _highs_wrapper\n"
            "assert _core._Highs is dual._Highs\n"
            "assert _highs_wrapper._h is dual._core\n"
            "assert linprog([1.0], bounds=[(2.0, 3.0)]).x[0] == 2.0\n")

    def test_reuses_a_loaded_scipy_optimize(self):
        self._run(
            "import sys\n"
            "import scipy.optimize\n"
            "core = sys.modules['scipy.optimize._highspy._core']\n"
            "from ofdma_swipt import dual\n"
            "assert dual._core is core and dual._Highs is core._Highs\n")

    def test_missing_binding_names_the_path(self, monkeypatch, tmp_path):
        monkeypatch.delitem(sys.modules, dual._HIGHS_CORE)
        spec = importlib.util.spec_from_file_location(
            "scipy", tmp_path / "scipy" / "__init__.py")
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: spec)
        stem = tmp_path / "scipy" / "optimize" / "_highspy" / "_core"
        with pytest.raises(ImportError, match=re.escape(f"tried {stem}")):
            dual._load_highs_core()
