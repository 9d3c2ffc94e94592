"""Command-line harness: exit codes, output formats, determinism."""

import json
import math

import numpy as np
import pytest
import yaml

from ofdma_swipt.cli import (EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_NOT_CONVERGED,
                             EXIT_OK, apply_axis, main)
from ofdma_swipt.config import load_config
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

    def test_domain_error_exit_code(self, tmp_path):
        # parses, but one receiver leaves no eavesdropper to secure against
        cfg = write_config(tmp_path, system={"K1": 1, "K2": 0})
        assert main(["solve", "--config", cfg]) == EXIT_CONFIG

    def test_removed_solver_key_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, solver={"polish_rounds": 2})
        assert main(["solve", "--config", cfg]) == EXIT_CONFIG

    def test_not_converged_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, solver={"max_iter": 2})
        assert main(["solve", "--config", cfg,
                     "--out", str(tmp_path / "r.json")]) == EXIT_NOT_CONVERGED

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
], ids=["values-abc", "N-1e400", "N-8.5", "K2-2.5", "K2-nan", "Pmax-inf", "Qbar-inf",
        "P_max_dBm-inf", "sigma2_dBm-inf", "weights-inf", "solve-seed-neg",
        "sweep-seed-neg", "profile-seed-neg", "sweep-trials-0", "sweep-trials-neg",
        "K1-2.7", "K1-inf", "K2-1.5", "N-8.5-config", "num_taps-2.5",
        "max_iter-2.5", "max_iter-inf", "convergence_tol-nan",
        "convergence_tol-inf", "feasibility_tol-nan", "feasibility_tol-inf",
        "cell_radius-nan", "er_radius-nan", "cell_radius-inf", "carrier-neg"])
def test_bad_numbers_exit_config(tmp_path, capsys, overrides, argv):
    cfg = write_config(tmp_path, **overrides)
    assert main(argv[:1] + ["--config", cfg] + argv[1:]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:")
    assert "Traceback" not in captured.err
    assert captured.out == ""  # no report and no header-only CSV


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
                          "feasible,iterations,wallclock,converged")
        rows = [l.split(",") for l in lines if not l.startswith("#")][1:]
        assert len(rows) == 4
        assert all(r[7] == "0" for r in rows)  # no timing by default
        assert all(r[8] == "1" for r in rows)

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

    def test_objective_reproducible_by_solve(self, tmp_path):
        cfg = write_config(tmp_path)
        out_csv = tmp_path / "d.csv"
        main(["sweep", "--config", cfg, "--axis", "N", "--values", "8",
              "--trials", "1", "--seed", "9", "--out", str(out_csv)])
        row = [l.split(",") for l in out_csv.read_text().splitlines()
               if not l.startswith("#")][1]
        out_json = tmp_path / "d.json"
        main(["solve", "--config", cfg, "--seed", "9", "--out", str(out_json)])
        report = json.loads(out_json.read_text())
        assert float(row[3]) == pytest.approx(report["objective_bps_hz"],
                                              rel=1e-8)

    def test_k2_axis_keeps_per_er_values(self, tmp_path):
        # configured ERs keep their own efficiency and target; an appended
        # ER copies ER 0's, as its channel stream is appended too
        exp = load_config(write_config(
            tmp_path, system={"zeta": [0.5, 0.7], "Qbar_uW": [100, 300]}))
        swept = apply_axis(exp, "K2", 2).system
        assert swept.harvest_eff.tolist() == [0.5, 0.7]
        assert swept.harvest_target.tolist() == pytest.approx([100e-6, 300e-6])
        swept = apply_axis(exp, "K2", 3).system
        assert swept.num_ers == 3
        assert swept.harvest_eff.tolist() == [0.5, 0.7, 0.5]
        assert swept.harvest_target.tolist() == pytest.approx(
            [100e-6, 300e-6, 100e-6])

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

