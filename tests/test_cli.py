"""Command-line harness: exit codes, output formats, determinism."""

import json
import math
import os
from pathlib import Path

import numpy as np
import pytest
import yaml

from ofdma_swipt import cli
from ofdma_swipt.cli import (EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_NOT_CONVERGED,
                             EXIT_OK, main, run_scheme)
from ofdma_swipt.config import load_config, parse_config, read_config, with_axis
from ofdma_swipt.heuristics import SCHEMES


def write_config(tmp_path, name="cfg.yaml", **overrides):
    data = {
        "system": {"K1": 2, "K2": 2, "N": 8, "P_max_dBm": 37,
                   "sigma2_dBm": -83, "Qbar_uW": 100},
        "scheme": "optimal",
    }
    for section, value in overrides.items():
        if isinstance(value, dict) and section in data:
            data[section].update(value)
        else:
            data[section] = value
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return str(path)


class TestSolveCommand:
    def test_exit_ok_and_report_contents(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "report.json"
        assert main(["solve", "--config", cfg, "--seed", "1",
                     "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["seed"] == 1
        assert len(report["allocation"]["assign"][0]) == 8  # N
        assert report["duality_gap_bps_hz"] >= -1e-9
        assert len(report["harvested_w"]) == 2
        assert all(q >= 100e-6 - 1e-9 for q in report["harvested_w"])

    def test_infeasible_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, system={"Qbar_uW": 1e12})
        assert main(["solve", "--config", cfg]) == EXIT_INFEASIBLE

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("scheme: optimal\n")  # no system section
        assert main(["solve", "--config", str(bad)]) == EXIT_CONFIG

    @pytest.mark.parametrize("text", [
        b"system: [unclosed\n", b"system:\n\tK1: 2\n", b"a: 1\n---\nb: 2\n",
        b"system:\n  K1: \xff\xfe\n"],
        ids=["flow", "tab", "two-documents", "not-utf8"])
    def test_malformed_yaml_exit_code(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.yaml"
        bad.write_bytes(text)
        for argv in (["solve"], ["sweep", "--axis", "Qbar", "--values", "100"]):
            assert main(argv + ["--config", str(bad)]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith("config error: cannot read config")
            assert "Traceback" not in err

    def test_domain_error_exit_code(self, tmp_path):
        # parses, but one receiver leaves no eavesdropper to secure against
        cfg = write_config(tmp_path, system={"K1": 1, "K2": 0})
        assert main(["solve", "--config", cfg]) == EXIT_CONFIG

    def test_removed_solver_key_exit_code(self, tmp_path):
        # the tolerances are fixed constants of the dual loop, not settings
        for key in ("polish_rounds", "convergence_tol", "feasibility_tol"):
            cfg = write_config(tmp_path, solver={key: 2})
            assert main(["solve", "--config", cfg]) == EXIT_CONFIG

    def test_no_energy_receivers(self, tmp_path):
        cfg = write_config(tmp_path, system={"K2": 0})
        out = tmp_path / "r.json"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["harvested_w"] == []
        assert report["metadata"]["lambda"] == []
        assert report["metadata"]["converged"] is True

    def test_huge_budget_exit_ok(self, tmp_path):
        # 1e20 W is HiGHS's default infinite bound; the per-SC LP works in
        # units of the budget and the targets, so none of its bounds or
        # right-hand sides is above 1, and it must find the targets reachable
        cfg = write_config(tmp_path, system={"P_max_dBm": 230})
        out = tmp_path / "r.json"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["metadata"]["converged"] is True
        assert all(q >= 100e-6 for q in report["harvested_w"])

    def test_subnormal_weight_exit_ok(self, tmp_path, capsys):
        # the paper config at weight 1e-320: the dual loop's unit of gamma
        # underflowed to 0, and the start divided by it, a ZeroDivisionError
        # traceback; the solve runs at weights scaled into [1, 2)
        text = (Path(__file__).parents[1] / "configs" / "paper.yaml").read_text()
        assert "\n  weights: 1.0\n" in text
        cfg = tmp_path / "tiny.yaml"
        cfg.write_text(text.replace("\n  weights: 1.0\n",
                                    "\n  weights: 1e-320\n"))
        out = tmp_path / "r.json"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert "Traceback" not in capsys.readouterr().err
        assert json.loads(out.read_text())["metadata"]["converged"] is True

    def test_not_converged_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, solver={"max_iter": 2})
        assert main(["solve", "--config", cfg,
                     "--out", str(tmp_path / "r.json")]) == EXIT_NOT_CONVERGED
        assert main(["profile", "--config", cfg,
                     "--out", str(tmp_path / "p.csv")]) == EXIT_NOT_CONVERGED

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_report_names_configured_scheme(self, tmp_path, scheme):
        cfg = write_config(tmp_path, scheme=scheme)
        out = tmp_path / "r.json"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["metadata"]["scheme"] == scheme

    def test_suboptimal_report_shows_stage_counts(self, tmp_path):
        cfg = write_config(tmp_path, scheme="suboptimal")
        out = tmp_path / "r.json"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_OK
        meta = json.loads(out.read_text())["metadata"]
        assert meta["n1"] >= 1  # the 100 uW targets need stage one
        assert meta["n1"] + meta["n2"] == 8
        assert meta["equal_power"] > 0.0


@pytest.mark.parametrize("overrides, argv", [
    ({}, ["sweep", "--axis", "Qbar", "--values", "abc"]),
    ({}, ["sweep", "--axis", "N", "--values", "1e400"]),
    ({}, ["sweep", "--axis", "N", "--values", "8.5"]),
    ({}, ["sweep", "--axis", "K2", "--values", "2.5"]),
    ({}, ["sweep", "--axis", "K2", "--values", "nan"]),
    ({}, ["sweep", "--axis", "Pmax", "--values", "inf"]),
    ({}, ["sweep", "--axis", "Qbar", "--values", "inf"]),
    ({"system": {"P_max_dBm": math.inf}}, ["solve"]),
    ({"system": {"sigma2_dBm": math.inf}}, ["solve"]),
    ({"system": {"weights": math.inf}}, ["solve"]),
    ({"system": {"P_max_dBm": "abc"}}, ["solve"]),
    ({"system": {"weights": "abc"}}, ["solve"]),
    ({}, ["solve", "--seed", "-1"]),
    ({}, ["sweep", "--axis", "Qbar", "--values", "100", "--seed", "-1"]),
    ({}, ["profile", "--seed", "-1"]),
    ({}, ["sweep", "--axis", "Qbar", "--values", "100", "--trials", "0"]),
    ({}, ["sweep", "--axis", "Qbar", "--values", "100", "--trials", "-2"]),
    ({"system": {"K1": 2.7}}, ["solve"]),
    ({"system": {"K1": math.inf}}, ["solve"]),
    ({"system": {"K2": 1.5}}, ["solve"]),
    ({"system": {"N": 8.5}}, ["solve"]),
    ({"scenario": {"num_taps": 2.5}}, ["solve"]),
    ({"solver": {"max_iter": 2.5}}, ["solve"]),
    ({"solver": {"max_iter": math.inf}}, ["solve"]),
    ({"solver": {"convergence_tol": math.nan}}, ["solve"]),
    ({"solver": {"convergence_tol": math.inf}}, ["solve"]),
    ({"solver": {"feasibility_tol": math.nan}}, ["solve"]),
    ({"solver": {"feasibility_tol": math.inf}}, ["solve"]),
    ({"scenario": {"cell_radius": math.nan}}, ["solve"]),
    ({"scenario": {"er_radius": math.nan}}, ["solve"]),
    ({"scenario": {"cell_radius": math.inf}}, ["solve"]),
    ({"scenario": {"carrier": -1.0}}, ["solve"]),
    ({"system": {"P_max_dBm": 4000}}, ["solve"]),
    ({"system": {"P_peak_dBm": 4000}}, ["solve"]),
    ({"system": {"sigma2_dBm": 4000}}, ["solve"]),
    ({}, ["sweep", "--axis", "Pmax", "--values", "4000"]),
    ({"system": {"K1": True}}, ["solve"]),
    ({"system": {"P_max_dBm": True}}, ["solve"]),
    ({"system": {"weights": True}}, ["solve"]),
    ({"scenario": {"cell_radius": True}}, ["solve"]),
    # counts too big for a numpy index; these fail before any allocation
    ({"system": {"N": 1e20}}, ["solve"]),
    ({"system": {"N": 2 ** 63}}, ["solve"]),
    ({"scenario": {"num_taps": 1e20}}, ["solve"]),
    ({}, ["sweep", "--axis", "N", "--values", "1e20"]),
    ({"system": {"K2": -1}}, ["solve"]),
    ({}, ["sweep", "--axis", "K2", "--values", "-1"]),
    ({"scenario": {"er_radius": 0.5}}, ["solve"]),
], ids=["values-abc", "N-1e400", "N-8.5", "K2-2.5", "K2-nan", "Pmax-inf", "Qbar-inf",
        "P_max_dBm-inf", "sigma2_dBm-inf", "weights-inf", "P_max_dBm-abc",
        "weights-abc", "solve-seed-neg",
        "sweep-seed-neg", "profile-seed-neg", "sweep-trials-0", "sweep-trials-neg",
        "K1-2.7", "K1-inf", "K2-1.5", "N-8.5-config", "num_taps-2.5",
        "max_iter-2.5", "max_iter-inf", "convergence_tol-nan",
        "convergence_tol-inf", "feasibility_tol-nan", "feasibility_tol-inf",
        "cell_radius-nan", "er_radius-nan", "cell_radius-inf", "carrier-neg",
        "P_max_dBm-4000", "P_peak_dBm-4000", "sigma2_dBm-4000", "Pmax-4000",
        "K1-true", "P_max_dBm-true", "weights-true", "cell_radius-true",
        "N-1e20-config", "N-2to63-config", "num_taps-1e20", "N-1e20",
        "K2-neg-config", "K2-neg", "er_radius-0.5"])
def test_bad_numbers_exit_config(tmp_path, capsys, overrides, argv):
    cfg = write_config(tmp_path, **overrides)
    assert main(argv[:1] + ["--config", cfg] + argv[1:]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:")
    assert "Traceback" not in captured.err
    assert captured.out == ""  # no report and no header-only CSV


def _unwritable_outs(tmp_path):
    """--out paths that cannot be written: a directory, a path under a
    regular file and, unless running as root, a read-only file."""
    (tmp_path / "file").write_text("")
    outs = [tmp_path, tmp_path / "file" / "out"]
    if os.geteuid() != 0:  # root may write a read-only file
        read_only = tmp_path / "ro.json"
        read_only.write_text("kept\n")
        read_only.chmod(0o444)
        outs.append(read_only)
    return outs


@pytest.mark.parametrize("argv", [
    ["solve"],
    ["sweep", "--axis", "Qbar", "--values", "100", "--trials", "1"],
    ["profile"],
], ids=["solve", "sweep", "profile"])
def test_unwritable_out_exits_config(tmp_path, capsys, monkeypatch, argv):
    # the check comes before the first solve: no solve runs at all
    def no_solve(*args):
        raise AssertionError("solved before checking --out")

    monkeypatch.setattr(cli, "run_scheme", no_solve)
    cfg = write_config(tmp_path)
    for out in _unwritable_outs(tmp_path):
        assert main(argv[:1] + ["--config", cfg, "--out", str(out)]
                    + argv[1:]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: cannot write {out}")
        assert "Traceback" not in captured.err


def test_out_check_leaves_out_alone_when_nothing_is_written(tmp_path):
    # an infeasible solve writes nothing: an existing --out keeps its
    # contents and a missing one is not created
    cfg = write_config(tmp_path, system={"Qbar_uW": 1e12})
    kept, missing = tmp_path / "kept.json", tmp_path / "missing.json"
    kept.write_text("kept\n")
    for out in (kept, missing):
        assert main(["solve", "--config", cfg, "--out", str(out)]) \
            == EXIT_INFEASIBLE
    assert kept.read_text() == "kept\n"
    assert not missing.exists()


@pytest.mark.parametrize("scheme", SCHEMES)
def test_outputs_show_one_owner_per_sc(tmp_path, scheme):
    # the JSON's (K1, N) allocation and the profile's per-SC columns are
    # two views of the same owner, power and split per SC
    cfg = write_config(tmp_path, scheme=scheme)
    out_json, out_csv = tmp_path / "r.json", tmp_path / "p.csv"
    assert main(["solve", "--config", cfg, "--out", str(out_json)]) == EXIT_OK
    assert main(["profile", "--config", cfg, "--out", str(out_csv)]) == EXIT_OK
    alloc = run_scheme(load_config(cfg), 0).allocation
    x = np.array(json.loads(out_json.read_text())["allocation"]["assign"])
    assert x.shape == (2, 8)
    assert np.all((x == 0) | (x == 1)) and np.all(x.sum(axis=0) <= 1)
    assert x.tolist() == alloc.assign.tolist()
    body = [l.split(",") for l in out_csv.read_text().splitlines()
            if not l.startswith("#")][1:]
    assert [int(r[1]) for r in body] == alloc.owner.tolist()
    assert [float(r[2]) for r in body] == pytest.approx(
        alloc.sc_power.tolist(), rel=1e-8, abs=0.0)
    assert [float(r[3]) for r in body] == pytest.approx(
        alloc.sc_split.tolist(), rel=1e-8, abs=0.0)


class TestSweepCommand:
    def test_csv_schema_and_determinism(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["sweep", "--config", cfg, "--axis", "Qbar",
                "--values", "50,100", "--trials", "2", "--seed", "3"]
        assert main(argv + ["--out", str(out1)]) == EXIT_OK
        assert main(argv + ["--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().strip().splitlines()
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == ("axis_value,trial,scheme,objective,gap,"
                          "feasible,iterations,wallclock,converged,stop_reason")
        rows = [l.split(",") for l in lines if not l.startswith("#")][1:]
        assert len(rows) == 4
        assert all(r[7] == "0" for r in rows)  # no timing by default
        assert all(r[8] == "1" for r in rows)
        assert all(r[9] in ("gap closed", "bound certified") for r in rows)
        # timed: every row's wallclock is positive, every other column equal
        out3 = tmp_path / "t.csv"
        assert main(argv + ["--timing", "--out", str(out3)]) == EXIT_OK
        timed = [l.split(",") for l in out3.read_text().strip().splitlines()
                 if not l.startswith("#")][1:]
        assert all(float(r[7]) > 0 for r in timed)
        assert [r[:7] + r[8:] for r in timed] == [r[:7] + r[8:] for r in rows]

    def test_capped_rows_flagged_not_converged(self, tmp_path):
        cfg = write_config(tmp_path, solver={"max_iter": 2})
        out = tmp_path / "e.csv"
        assert main(["sweep", "--config", cfg, "--axis", "Qbar",
                     "--values", "100,1e12", "--trials", "1",
                     "--out", str(out)]) == EXIT_OK
        rows = [l.split(",") for l in out.read_text().splitlines()
                if not l.startswith("#")][1:]
        assert [(r[5], r[8]) for r in rows] == [("1", "0"), ("0", "0")]

    def test_infeasible_rows_recorded_not_fatal(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "c.csv"
        assert main(["sweep", "--config", cfg, "--axis", "Qbar",
                     "--values", "100,1e12", "--trials", "1",
                     "--out", str(out)]) == EXIT_OK
        rows = [l.split(",") for l in out.read_text().splitlines()
                if not l.startswith("#")][1:]
        assert rows[0][5] == "1" and rows[1][5] == "0"
        assert rows[1][3] == "nan"

    def test_infeasible_row_counts_its_evaluations(self, tmp_path):
        # the solve evaluates the dual, then the per-SC LP over full-power
        # columns proves the target unreachable; the row records that
        # evaluation
        paper = os.path.join(os.path.dirname(__file__), "..", "configs",
                             "paper.yaml")
        out = tmp_path / "inf.csv"
        assert main(["sweep", "--config", paper, "--axis", "Qbar",
                     "--values", "1e12", "--trials", "1",
                     "--out", str(out)]) == EXIT_OK
        rows = [l.split(",") for l in out.read_text().splitlines()
                if not l.startswith("#")][1:]
        assert [r[5] for r in rows] == ["0"]
        assert int(rows[0][6]) >= 1

    @pytest.mark.parametrize("axis, value, seed, base, written", [
        ("N", "8", 9, {}, {"N": 8}),
        ("Qbar", "250", 9, {"zeta": [0.5, 0.7], "Qbar_uW": [100, 300]},
         {"Qbar_uW": 250}),
        ("Pmax", "30", 9, {}, {"P_max_dBm": 30}),
        ("K2", "3", 9, {"zeta": [0.5, 0.7], "Qbar_uW": [100, 300]},
         {"K2": 3, "zeta": [0.5, 0.7, 0.5], "Qbar_uW": [100, 300, 100]}),
        # the file's scalar target holds for the ERs the sweep adds
        ("K2", "2", 0, {"K2": 0, "Qbar_uW": 900}, {"K2": 2}),
    ], ids=["N", "Qbar-per-er", "Pmax", "K2-per-er", "K2-from-0"])
    def test_objective_reproducible_by_solve(self, tmp_path, axis, value, seed,
                                             base, written):
        # a swept value reads as its key written in the file
        cfg = write_config(tmp_path, system=base)
        out_csv = tmp_path / "d.csv"
        assert main(["sweep", "--config", cfg, "--axis", axis, "--values", value,
                     "--trials", "1", "--seed", str(seed),
                     "--out", str(out_csv)]) == EXIT_OK
        row = [l.split(",") for l in out_csv.read_text().splitlines()
               if not l.startswith("#")][1]
        out_json = tmp_path / "d.json"
        file_cfg = write_config(tmp_path, "file.yaml", system={**base, **written})
        code = main(["solve", "--config", file_cfg, "--seed", str(seed),
                     "--out", str(out_json)])
        assert row[5] == ("0" if code == EXIT_INFEASIBLE else "1")
        if code != EXIT_INFEASIBLE:
            report = json.loads(out_json.read_text())
            assert float(row[3]) == pytest.approx(report["objective_bps_hz"],
                                                  rel=1e-8)

    def test_k2_axis_keeps_per_er_values(self, tmp_path):
        # configured ERs keep their own efficiency and target; an appended
        # ER copies ER 0's, as its channel stream is appended too
        data = read_config(write_config(
            tmp_path, system={"zeta": [0.5, 0.7], "Qbar_uW": [100, 300]}))
        swept = parse_config(with_axis(data, "K2", 2)).system
        assert swept.harvest_eff.tolist() == [0.5, 0.7]
        assert swept.harvest_target.tolist() == pytest.approx([100e-6, 300e-6])
        swept = parse_config(with_axis(data, "K2", 3)).system
        assert swept.num_ers == 3
        assert swept.harvest_eff.tolist() == [0.5, 0.7, 0.5]
        assert swept.harvest_target.tolist() == pytest.approx(
            [100e-6, 300e-6, 100e-6])

    def test_k2_axis_through_zero(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "k2.csv"
        assert main(["sweep", "--config", cfg, "--axis", "K2", "--values", "0,2",
                     "--trials", "3", "--out", str(out)]) == EXIT_OK
        rows = [l.split(",") for l in out.read_text().splitlines()
                if not l.startswith("#")][1:]
        assert [r[0] for r in rows] == ["0"] * 3 + ["2"] * 3
        assert all(r[8] == "1" and float(r[4]) >= -1e-9 for r in rows)

    def test_bad_axis_rejected(self, tmp_path):
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit):
            main(["sweep", "--config", cfg, "--axis", "bogus",
                  "--values", "1"])


class TestProfileCommand:
    def test_per_sc_rows(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "p.csv"
        assert main(["profile", "--config", cfg, "--seed", "1",
                     "--out", str(out)]) == EXIT_OK
        rows = [l.split(",") for l in out.read_text().splitlines()
                if not l.startswith("#")]
        assert rows[0] == ["sc", "assigned_ir", "power", "alpha", "info_power"]
        body = rows[1:]
        assert len(body) == 8
        for sc, ir, p, a, info in body:
            assert float(info) == pytest.approx(
                (1.0 - float(a)) * float(p), rel=1e-6, abs=1e-15)

    def test_pinned_split_shows_in_profile(self, tmp_path):
        cfg = write_config(tmp_path, scheme="alpha05")
        out = tmp_path / "p2.csv"
        main(["profile", "--config", cfg, "--out", str(out)])
        body = [l.split(",") for l in out.read_text().splitlines()
                if not l.startswith("#")][1:]
        assigned = [r for r in body if int(r[1]) >= 0 and float(r[2]) > 0]
        assert assigned
        assert all(float(r[3]) == 0.5 for r in assigned)

