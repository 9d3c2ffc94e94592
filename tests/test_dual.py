"""Outer dual loop: assignment rule, the cutting-plane stop rule, the master
and harvest LPs against linprog, primal recovery, duality-gap sanity and
small-instance optimality."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from ofdma_swipt import (ChannelRealization, InfeasibleProblemError,
                         SystemConfig, assign_subcarriers, dual, secrecy_rate,
                         solve)
from ofdma_swipt.cli import EXIT_NOT_CONVERGED, main
from ofdma_swipt.dual import SolverOptions
from ofdma_swipt.model import all_harvested_powers

from conftest import paper_channels, paper_system, synthetic_channels


class TestAssignSubcarriers:
    def test_argmax_wins(self):
        x = assign_subcarriers(np.array([[0.3], [0.7], [0.1]]))
        assert x[:, 0].tolist() == [0, 1, 0]

    def test_nonpositive_column_unassigned(self):
        x = assign_subcarriers(np.array([[0.0], [-0.2]]))
        assert x.sum() == 0

    def test_tie_breaks_to_lowest_index(self):
        x = assign_subcarriers(np.array([[0.5], [0.5]]))
        assert x[:, 0].tolist() == [1, 0]

    def test_exclusive_per_sc(self, rng):
        x = assign_subcarriers(rng.normal(size=(4, 16)))
        assert np.all(x.sum(axis=0) <= 1)


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
        dual_values = [row[0] for row in rep.trace]
        assert min(dual_values) >= rep.objective - 1e-9

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

    def test_matched_seed_gap_shrinks_with_bandwidth(self):
        # the reported gap never exceeds a loose ceiling at either size and
        # stays nonnegative up to numerical tolerance
        for n in (16, 64):
            cfg = paper_system(n_sc=n)
            rep = solve(cfg, paper_channels(cfg, seed=4))
            assert -1e-9 <= rep.duality_gap < 1e-4


class TestCuttingPlane:
    def test_paper_draw_7_certified(self):
        # the step-size rule of a subgradient loop ran this draw to the cap
        cfg = paper_system()
        rep = solve(cfg, paper_channels(cfg, 7))
        assert rep.metadata["converged"] is True
        assert rep.iterations <= 200

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
            out = solve(self)
            upper = self.upper
            a_ub = np.array([np.append(s, -1.0) for s, _ in self.rows])
            b = np.array([b for _, b in self.rows])
            ref = linprog(c=np.append(np.zeros(upper.size), 1.0),
                          A_ub=a_ub, b_ub=b,
                          bounds=[(0.0, u) for u in upper] + [(None, None)],
                          method="highs",
                          options={"primal_feasibility_tolerance": 1e-10,
                                   "dual_feasibility_tolerance": 1e-10})
            assert ref.status == 0 and out is not None
            y, t = out
            assert abs(t - ref.fun) <= 1e-9
            # degenerate masters have several optimal vertices, so the
            # point is checked against linprog's constraints, not its x
            assert np.all(a_ub @ np.append(y, t) <= b + 1e-9)
            assert np.all(y >= -1e-9) and np.all(y <= upper + 1e-9)
            uppers.append(upper.max())
            return out

        monkeypatch.setattr(dual._MasterLP, "cut", recording)
        monkeypatch.setattr(dual._MasterLP, "solve", checked)
        return uppers

    @pytest.mark.parametrize("qbar_uw, seed", [
        (100.0, 0), (100.0, 1), (400.0, 10)],
        ids=["paper-draw-0", "paper-draw-1", "400uW-draw-10-box-grows"])
    def test_matches_linprog_on_every_master(self, pinned, qbar_uw, seed):
        cfg = paper_system(qbar_uw=qbar_uw)
        rep = solve(cfg, paper_channels(cfg, seed))
        assert rep.metadata["converged"] is True
        assert len(pinned) == rep.iterations
        # the box starts at 4; it grows to 16 on the paper draws and to
        # 1024 on 400 uW draw 10, where harvest binds
        assert max(pinned) >= (1024.0 if qbar_uw == 400.0 else 16.0)


class TestHarvestLP:
    """The harvest LP on the HiGHS binding against a cold ``linprog`` of the
    same LP: the same per-SC powers to the bit, and the same verdict."""

    @pytest.mark.parametrize("qbar_uw, seed", [
        (100.0, 0), (100.0, 1), (100.0, 2), (100.0, 3),
        *((q, s) for q in (400.0, 500.0, 900.0) for s in (8, 9, 10, 11))])
    def test_matches_linprog(self, monkeypatch, qbar_uw, seed):
        models = []
        make = dual._highs

        def recording(**options):
            models.append(make(**options))
            return models[-1]

        monkeypatch.setattr(dual, "_highs", recording)
        cfg = paper_system(qbar_uw=qbar_uw)
        ch = paper_channels(cfg, seed)
        n = cfg.num_scs
        ref = linprog(c=-(ch.ir_gains.max(axis=0)),
                      A_ub=np.vstack([np.ones(n),
                                      -cfg.harvest_eff[:, None] * ch.er_gains]),
                      b_ub=np.append(cfg.total_power, -cfg.harvest_target),
                      bounds=[(0.0, cfg.total_power)] * n, method="highs")
        eng = dual._Engine(cfg, ch, SolverOptions())
        if ref.status != 0:
            # 500 uW draw 10 and 900 uW draws 10-11
            with pytest.raises(InfeasibleProblemError, match="unreachable"):
                eng.harvest_lp_primal()
            return
        eng.harvest_lp_primal()
        assert len(models) == 1
        x = np.array(models[0].getSolution().col_value)
        assert x.tobytes() == np.asarray(ref.x).tobytes()


class TestMasterFailure:
    """A master that HiGHS does not solve to optimality ends the loop
    uncertified: the solve returns ``converged`` False and the CLI exits 4."""

    @pytest.fixture(autouse=True)
    def failing_master(self, monkeypatch):
        init = dual._MasterLP.__init__

        def out_of_time(self, upper):
            init(self, upper)
            self._h.setOptionValue("time_limit", 0.0)  # kTimeLimit at once

        monkeypatch.setattr(dual._MasterLP, "__init__", out_of_time)

    def test_solve_reports_not_converged(self):
        cfg = paper_system(n_sc=8)
        rep = solve(cfg, paper_channels(cfg, 0))
        assert rep.metadata["converged"] is False
        assert rep.iterations == 1

    def test_cli_exits_not_converged(self, capsys):
        cfg = Path(__file__).parents[1] / "configs" / "paper.yaml"
        assert main(["solve", "--config", str(cfg)]) == EXIT_NOT_CONVERGED
        assert "Traceback" not in capsys.readouterr().err


class TestPrimalSource:
    def test_harvest_lp_fallback_named(self):
        # every noan iterate scores 0, so the first-screened LP primal stays
        cfg = paper_system()
        rep = solve(cfg, paper_channels(cfg, 1), "noan")
        assert rep.metadata["primal_source"] == "harvest LP"
        assert rep.objective == 0.0

    def test_overspending_iterate_scaled_onto_budget(self):
        # harvest binds hard on this draw; only an iterate that spends more
        # than P_max, scaled back onto it, meets every target (the harvest
        # LP's allocation alone scores 1.134 against a bound of 12.28)
        cfg = paper_system(qbar_uw=400.0)
        rep = solve(cfg, paper_channels(cfg, 10))
        source = rep.metadata["primal_source"]
        assert isinstance(source, int) and 1 <= source <= rep.iterations
        assert rep.trace[source - 1][2] > 0.01 * cfg.total_power  # overspend
        assert rep.objective >= 12.2
        assert 0.0 <= rep.duality_gap <= 0.07

    def test_dual_iterate_named_by_index(self):
        cfg = paper_system()
        rep = solve(cfg, paper_channels(cfg, 0))
        source = rep.metadata["primal_source"]
        assert isinstance(source, int) and 1 <= source <= rep.iterations
        assert rep.trace[source - 1][1] == rep.objective


class TestHarvestFeasibilityCheck:
    def test_zero_targets_always_feasible(self):
        cfg = paper_system(n_sc=8, qbar_uw=0.0)
        rep = solve(cfg, paper_channels(cfg, seed=0))
        assert rep.metadata["primal_source"] != "harvest LP"

    def test_unreachable_targets_detected(self):
        # just above what the whole budget on ER 0's best SC can deliver
        cfg = paper_system(n_sc=8, qbar_uw=0.0)
        ch = paper_channels(cfg, seed=0)
        reach = cfg.harvest_eff[0] * cfg.total_power * ch.er_gains[0].max()
        target = np.zeros(cfg.num_ers)
        target[0] = 1.001 * reach
        with pytest.raises(InfeasibleProblemError, match="unreachable"):
            solve(replace(cfg, harvest_target=target), ch)
        target[0] = 0.999 * reach
        cfg = replace(cfg, harvest_target=target)
        rep = solve(cfg, ch)
        q = all_harvested_powers(rep.allocation, ch, cfg)
        assert q[0] >= target[0] - 1e-9


def test_binding_harvest_rows_feasible():
    # Qbar where the harvest targets bind on these draws
    opts = SolverOptions()
    solved = 0
    for qbar_uw in (400.0, 600.0, 800.0, 1000.0):
        cfg = paper_system(qbar_uw=qbar_uw)
        for seed in (8, 9, 10, 11):
            ch = paper_channels(cfg, seed)
            try:
                rep = solve(cfg, ch, options=opts)
            except InfeasibleProblemError:
                continue
            solved += 1
            rep.allocation.validate(cfg)
            q = all_harvested_powers(rep.allocation, ch, cfg)
            assert np.all(q >= cfg.harvest_target - opts.feasibility_tol)
            assert rep.duality_gap >= -1e-9
    assert solved == 11  # the other 5 rows are LP-infeasible


class TestSolverOptions:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SolverOptions(max_iterations=0)
        with pytest.raises(ValueError):
            SolverOptions(convergence_tol=-1.0)
        for name in ("convergence_tol", "feasibility_tol"):
            for bad in (0.0, np.nan, np.inf):
                with pytest.raises(ValueError, match="positive and finite"):
                    SolverOptions(**{name: bad})
