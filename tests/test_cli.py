import contextlib
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import hypothesis.strategies as st
import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings

import nmcollide.cli as cli
from nmcollide import MapStack, jc_maps, lambda_embedding
from nmcollide.cli import CSV_HEADER, main


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def read_rows(out_dir):
    lines = (out_dir / "results.csv").read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    return [line.split(",") for line in lines[1:]]


class TestRun:
    def test_closed_form_zero_rate(self, tmp_path):
        cfg = write_config(
            tmp_path, "cfg.json",
            {
                "mode": "jc_closed_form",
                "gamma_bar": 0.0,
                "tau_max": 2 * np.pi,
                "tau_points": 201,
                "output_path": str(tmp_path / "out"),
            },
        )
        assert main(["run", cfg]) == 0
        rows = read_rows(tmp_path / "out")
        taus = np.array([float(r[0]) for r in rows])
        b1 = np.array([float(r[2]) for r in rows])
        b2 = np.array([float(r[3]) for r in rows])
        assert np.max(np.abs(b1 - np.cos(taus))) < 1e-12
        assert np.max(np.abs(b2 - np.cos(taus) ** 2)) < 1e-12
        # columns without values stay empty
        assert all(r[4] == "" for r in rows)

    def test_manifest_contents(self, tmp_path):
        cfg = write_config(
            tmp_path, "cfg.json",
            {
                "mode": "jc_closed_form",
                "gamma_bar": 1.0,
                "tau_max": 1.0,
                "tau_points": 11,
                "output_path": str(tmp_path / "out"),
                "seed": 42,
            },
        )
        assert main(["run", cfg]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["mode"] == "jc_closed_form"
        assert manifest["seed"] == 42
        assert manifest["config"]["gamma_bar"] == 1.0
        assert sorted(manifest["versions"]) == ["nmcollide", "numpy", "python"]
        timings = manifest["timings"]
        assert sorted(timings) == ["run_seconds", "total_seconds", "write_seconds"]
        assert all(math.isfinite(value) and value >= 0 for value in timings.values())
        assert timings["run_seconds"] + timings["write_seconds"] <= timings["total_seconds"]

    def test_empty_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text("")
        assert main(["run", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert "mode" in err["error"]["message"]

    def test_deeply_nested_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "nested.json"
        path.write_text("[" * 200_000, encoding="utf-8")
        assert main(["run", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == 2
        assert "nests too deeply" in err["error"]["message"]

    def test_unknown_mode_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json", {"mode": "interpretive_dance"})
        assert main(["run", cfg]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == 2

    def test_missing_field_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json", {"mode": "jc_closed_form"})
        assert main(["run", cfg]) == 2
        err = json.loads(capsys.readouterr().err)
        assert "tau_max" in err["error"]["message"]

    def test_run_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(
            tmp_path, "cfg.json",
            {
                "mode": "jc_closed_form",
                "gamma_bar": [0.0, 2.0],
                "tau_max": 4.0,
                "tau_points": 101,
                "seed": 5,
                "output_path": str(tmp_path / "out"),
            },
        )
        assert main(["run", cfg]) == 0
        first = (tmp_path / "out" / "results.csv").read_bytes()
        assert main(["run", cfg]) == 0
        assert first == (tmp_path / "out" / "results.csv").read_bytes()

    def test_output_dir_override(self, tmp_path):
        cfg = write_config(
            tmp_path, "cfg.json",
            {"mode": "jc_closed_form", "gamma_bar": 0.0, "tau_max": 1.0, "tau_points": 5},
        )
        target = tmp_path / "elsewhere"
        assert main(["run", cfg, "--output-dir", str(target)]) == 0
        assert (target / "results.csv").exists()

    @pytest.mark.parametrize("via, named", [("option", "option '--output-dir'"),
                                            ("config", "field 'output_path'")])
    def test_empty_output_directory_exits_2(self, tmp_path, capsys, monkeypatch, via, named):
        # Path("") is the working directory, where the run would otherwise land
        monkeypatch.chdir(tmp_path)
        cfg = write_config(
            tmp_path, "cfg.json",
            {"mode": "jc_closed_form", "gamma_bar": 0.0, "tau_max": 1.0, "tau_points": 5,
             **({"output_path": ""} if via == "config" else {})},
        )
        assert main(["run", cfg] + (["--output-dir", ""] if via == "option" else [])) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert named in json.loads(lines[0])["error"]["message"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_discrete_mode(self, tmp_path):
        cfg = write_config(
            tmp_path, "cfg.json",
            {
                "mode": "discrete",
                "collision": {"t_c": 0.05, "p_s": 1.0, "n_steps": 40},
                "output_path": str(tmp_path / "out"),
            },
        )
        assert main(["run", cfg]) == 0
        rows = read_rows(tmp_path / "out")
        taus = np.array([float(r[0]) for r in rows])
        b2 = np.array([float(r[3]) for r in rows])
        assert np.max(np.abs(b2 - np.cos(taus) ** 2)) < 1e-12

    @pytest.mark.parametrize("collision", [{"t_c": 0.05, "p_s": 0.0, "n_steps": 40},
                                           {"t_c": 0.0, "p_s": 0.5, "n_steps": 40}],
                             ids=["p_s-0", "t_c-0"])
    def test_uncalibrated_collision_leaves_gamma_bar_empty(self, tmp_path, collision):
        # -ln(p_s) / t_c names no rate here, so gamma_bar is an empty cell and the betas are not
        cfg = write_config(tmp_path, "cfg.json", {"mode": "discrete", "collision": collision,
                                                  "output_path": str(tmp_path / "out")})
        assert main(["run", cfg]) == 0
        rows = read_rows(tmp_path / "out")
        assert len(rows) == 41
        assert {r[1] for r in rows} == {""}
        assert np.all(np.isfinite([[float(r[2]), float(r[3])] for r in rows]))

    @pytest.mark.parametrize("collision", [{"t_c": 0.05, "p_s": 0.0, "n_steps": 40},
                                           {"t_c": 0.0, "p_s": 0.5, "n_steps": 40}],
                             ids=["p_s-0", "t_c-0"])
    def test_uncalibrated_thermal_collision_names_both_conditions(self, tmp_path, capsys,
                                                                   collision):
        # the series needs the rate, so thermal mode refuses either case, naming both
        bath = {"kind": "thermal", "energies": [0.0, 1.0], "inverse_temperature": 0.8}
        cfg = write_config(tmp_path, "cfg.json", {"mode": "thermal",
                                                  "collision": dict(collision, bath=bath),
                                                  "output_path": str(tmp_path / "out")})
        assert main(["run", cfg]) == 2
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        assert "p_s > 0" in message and "t_c > 0" in message
        assert not (tmp_path / "out" / "results.csv").exists()

    @pytest.mark.parametrize(
        "override, field",
        [
            ({"bath": "hot"}, "bath"),
            ({"n_steps": "abc"}, "n_steps"),
            ({"n_steps": 2.5}, "n_steps"),
            ({"t_c": None}, "t_c"),
            ({"p_s": "0.5"}, "p_s"),
            ({"p_s": True}, "p_s"),
            ({"omega": "x"}, "omega"),
            ({"omega": 2.0}, "omega"),
            ({"system_dim": 2}, "system_dim"),
            ({"ancilla_dim": 4}, "ancilla_dim"),
            ({"bath": {"kind": "thermal", "energies": "ab", "inverse_temperature": 1.0}},
             "energies"),
            ({"bath": {"kind": "thermal", "energies": [0.0, 1.0], "inverse_temperature": "hot"}},
             "inverse_temperature"),
            ({"t_c": 1e-320}, "'t_c'"),
            ({"t_c": 1e-320}, "'p_s'"),
        ],
        ids=["bath-string", "n_steps-string", "n_steps-fraction", "t_c-null", "p_s-string",
             "p_s-bool", "omega-string", "omega-number", "system_dim", "ancilla_dim",
             "energies-string", "inverse_temperature-string", "rate-overflow-t_c",
             "rate-overflow-p_s"],
    )
    def test_malformed_collision_exits_2(self, tmp_path, capsys, override, field):
        collision = {"t_c": 0.05, "p_s": 0.5, "n_steps": 4, **override}
        cfg = write_config(
            tmp_path, "cfg.json",
            {"mode": "discrete", "collision": collision, "output_path": str(tmp_path / "out")},
        )
        assert main(["run", cfg]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == 2
        assert field in err["error"]["message"]
        assert not (tmp_path / "out" / "results.csv").exists()

    @pytest.mark.parametrize("field, bath", [
        ("energies", {"energies": [0.0, 1.0, 2.0], "inverse_temperature": 1.0}),
        ("weights", {"weights": [0.5, 0.25, 0.25]}),
    ], ids=["energies", "weights"])
    def test_thermal_bath_lists_one_number_per_qubit_level(self, tmp_path, capsys, field, bath):
        collision = {"t_c": 0.05, "p_s": 0.5, "n_steps": 4, "bath": {"kind": "thermal", **bath}}
        cfg = write_config(
            tmp_path, "cfg.json",
            {"mode": "discrete", "collision": collision, "output_path": str(tmp_path / "out")},
        )
        assert main(["run", cfg]) == 2
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        assert f"'{field}'" in message and "qubit" in message
        assert not (tmp_path / "out" / "results.csv").exists()

    def test_convergence_mode_writes_report(self, tmp_path):
        cfg = write_config(
            tmp_path, "cfg.json",
            {
                "mode": "convergence",
                "gamma_bar": 1.0,
                "tau_max": 1.0,
                "t_c_list": [0.1, 0.05],
                "output_path": str(tmp_path / "out"),
            },
        )
        assert main(["run", cfg]) == 0
        report = json.loads((tmp_path / "out" / "convergence_report.json").read_text())
        assert report["estimated_order"] is not None
        assert len(report["errors"]) == 2

    def test_series_mode_with_comparison(self, tmp_path):
        cfg = write_config(
            tmp_path, "cfg.json",
            {
                "mode": "series",
                "gamma_bar": 1.0,
                "tau_max": 1.0,
                "tau_points": 101,
                "compare_discrete": True,
                "t_c": 0.05,
                "output_path": str(tmp_path / "out"),
            },
        )
        assert main(["run", cfg]) == 0
        rows = read_rows(tmp_path / "out")
        distances = [float(r[4]) for r in rows if r[4] != ""]
        assert len(distances) == 21
        assert max(distances) < 5e-3

    def test_former_truncation_failure_matches_closed_form(self, tmp_path):
        # this config's k_max once cut the series short (exit 4); nothing is truncated now, and
        # the second-order error at dt = 0.04 and gamma_bar = 5 is 2.0e-4
        cfg = write_config(
            tmp_path, "cfg.json",
            {
                "mode": "series",
                "gamma_bar": 5.0,
                "tau_max": 4.0,
                "tau_points": 101,
                "k_max": 5,
                "tail_tol": 1e-8,
                "output_path": str(tmp_path / "out"),
            },
        )
        assert main(["run", cfg]) == 0
        rows = np.array(read_rows(tmp_path / "out"))[:, :4].astype(float)
        exact = jc_maps(rows[:, 0], 5.0).superops
        assert np.max(np.abs(rows[:, 2] - exact[:, 1, 1].real)) <= 5e-4
        assert np.max(np.abs(rows[:, 3] - exact[:, 3, 3].real)) <= 5e-4

    @pytest.mark.parametrize("payload", [
        # gamma_bar * t_max = 201: the peak order of the old series lay past k_max = 200
        pytest.param({"mode": "thermal", "collision": {
            "t_c": 0.01, "p_s": 0.99, "n_steps": 20000,
            "bath": {"kind": "thermal", "energies": [0.0, 1.0], "inverse_temperature": 1.0}}},
            id="thermal-gamma-t-201"),
        pytest.param({"mode": "series", "gamma_bar": 1e4, "tau_max": 5.0, "tau_points": 1001},
                     id="series-gamma-1e4"),
    ])
    def test_large_rate_series_exits_0_and_stays_cp(self, tmp_path, payload):
        cfg = write_config(tmp_path, "cfg.json", {**payload, "output_path": str(tmp_path / "out")})
        assert main(["run", cfg]) == 0
        assert min(float(r[5]) for r in read_rows(tmp_path / "out")) >= -1e-12

    @pytest.mark.parametrize("payload, report", [
        ({"mode": "series", "gamma_bar": 2.0, "tau_max": 3.0, "tau_points": 301},
         "series_gamma_2.json"),
        ({"mode": "thermal", "collision": {
            "t_c": 0.02, "p_s": 0.98, "n_steps": 150,
            "bath": {"kind": "thermal", "weights": [0.731, 0.269]}}},
         "series_thermal.json"),
    ], ids=["series", "thermal"])
    def test_series_report_holds_the_trace_defect(self, tmp_path, monkeypatch, payload, report):
        cfg = write_config(tmp_path, "cfg.json", {**payload, "output_path": str(tmp_path / "out")})
        assert main(["run", cfg]) == 0
        written = json.loads((tmp_path / "out" / report).read_text())
        assert sorted(written) == ["gamma_bar", "max_trace_defect"]
        assert written["max_trace_defect"] < 1e-12  # trace preserving by construction
        # maps scaled by 1 + 1e-6 give the field a defect to find; the trace row vec(1) S of
        # each scaled map, |Tr S(E_ab) - Tr E_ab| over the matrix units, recomputes it here
        seen = []

        def scaled(*args):
            maps = lambda_embedding(*args)
            seen.append(MapStack(maps.times, (1.0 + 1e-6) * maps.superops))
            return seen[-1]

        monkeypatch.setattr(cli, "lambda_embedding", scaled)
        assert main(["run", cfg]) == 3  # the defect fails the run's CPT verdict, once written
        written = json.loads((tmp_path / "out" / report).read_text())
        unit = np.eye(2).reshape(-1)
        defect = float(np.max(np.abs(unit @ seen[0].superops - unit)))
        assert 0.9e-6 < defect < 1.1e-6
        assert written["max_trace_defect"] == pytest.approx(defect, rel=1e-9)

    def test_thermal_mode(self, tmp_path):
        cfg = write_config(
            tmp_path, "cfg.json",
            {
                "mode": "thermal",
                "collision": {
                    "t_c": 0.05,
                    "p_s": 0.9,
                    "n_steps": 20,
                    "bath": {"kind": "thermal", "energies": [0.0, 1.0],
                             "inverse_temperature": 0.8},
                },
                "output_path": str(tmp_path / "out"),
            },
        )
        assert main(["run", cfg]) == 0
        rows = read_rows(tmp_path / "out")
        assert all(float(r[5]) >= -1e-8 for r in rows)

    def test_thermal_mode_at_unit_swap_probability_writes_zero_rate(self, tmp_path):
        # -log(1) is -0.0; the gamma_bar cells must read 0, not -0
        cfg = write_config(
            tmp_path, "cfg.json",
            {
                "mode": "thermal",
                "collision": {
                    "t_c": 0.05,
                    "p_s": 1.0,
                    "n_steps": 200,
                    "bath": {"kind": "thermal", "energies": [0.0, 1.0],
                             "inverse_temperature": 0.8},
                },
                "output_path": str(tmp_path / "out"),
            },
        )
        assert main(["run", cfg]) == 0
        assert {r[1] for r in read_rows(tmp_path / "out")} == {"0"}


class TestSweep:
    def test_four_point_sweep(self, tmp_path):
        cfg = write_config(
            tmp_path, "cfg.json",
            {
                "gamma_bar": [0.0, 1.0],
                "tau": [0.0, np.pi],
                "output_path": str(tmp_path / "out"),
            },
        )
        assert main(["sweep", cfg]) == 0
        rows = read_rows(tmp_path / "out")
        assert len(rows) == 4
        # row (gamma=0, tau=pi): beta1 = -1, beta2 = 1
        row = rows[1]
        assert float(row[1]) == 0.0
        assert abs(float(row[2]) + 1.0) < 1e-12
        assert abs(float(row[3]) - 1.0) < 1e-12

    def test_range_spec(self, tmp_path):
        cfg = write_config(
            tmp_path, "cfg.json",
            {
                "gamma_bar": {"start": 0.0, "stop": 2.0, "count": 3},
                "tau": {"start": 0.0, "stop": 1.0, "count": 5},
                "output_path": str(tmp_path / "out"),
            },
        )
        assert main(["sweep", cfg]) == 0
        assert len(read_rows(tmp_path / "out")) == 15

    def test_count_one_degenerates(self, tmp_path):
        cfg = write_config(
            tmp_path, "cfg.json",
            {
                "gamma_bar": {"start": 1.0, "stop": 1.0, "count": 1},
                "tau": {"start": 0.5, "stop": 0.5, "count": 1},
                "output_path": str(tmp_path / "out"),
            },
        )
        assert main(["sweep", cfg]) == 0
        rows = read_rows(tmp_path / "out")
        assert len(rows) == 1
        assert float(rows[0][0]) == 0.5

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(
            tmp_path, "cfg.json",
            {
                "gamma_bar": {"start": 0.0, "stop": 5.0, "count": 4},
                "tau": {"start": 0.0, "stop": 3.0, "count": 40},
                "seed": 3,
                "output_path": str(tmp_path / "out"),
            },
        )
        assert main(["sweep", cfg]) == 0
        first = (tmp_path / "out" / "results.csv").read_bytes()
        assert main(["sweep", cfg]) == 0
        second = (tmp_path / "out" / "results.csv").read_bytes()
        assert first == second

    def test_missing_tau_range(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json", {"gamma_bar": [0.0]})
        assert main(["sweep", cfg]) == 2
        err = json.loads(capsys.readouterr().err)
        assert "tau" in err["error"]["message"]


class TestCertify:
    def test_valid_family_exits_zero(self, tmp_path):
        cfg = write_config(
            tmp_path, "cfg.json",
            {
                "mode": "certify",
                "gamma_bar": [0.0, 1.0],
                "tau_max": 5.0,
                "tau_points": 26,
                "seed": 7,
                "output_path": str(tmp_path / "out"),
            },
        )
        assert main(["certify", cfg]) == 0
        report = json.loads((tmp_path / "out" / "cpt_report.json").read_text())
        assert report["verdict"] is True
        assert report["max_random_state_trace_defect"] < 1e-12

    def test_failed_certification_exits_3(self, tmp_path, capsys, monkeypatch):
        import nmcollide.cli as cli_mod

        def doomed(maps, tolerance):
            from nmcollide.verify import certify_cpt as real

            # maps that fail on their own: every trace inflated by 1e-6, past the tolerance
            return real(MapStack(maps.times, (1.0 + 1e-6) * maps.superops), tolerance)

        monkeypatch.setattr(cli_mod, "certify_cpt", doomed)
        cfg = write_config(
            tmp_path, "cfg.json",
            {
                "mode": "certify",
                "gamma_bar": 1.0,
                "tau_max": 1.0,
                "tau_points": 6,
                "output_path": str(tmp_path / "out"),
            },
        )
        assert main(["certify", cfg]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == 3
        report = json.loads((tmp_path / "out" / "cpt_report.json").read_text())
        assert report["verdict"] is False
        assert report["per_gamma"]["1.0"]["max_trace_defect"]["value"] > 1e-7

    def test_no_probe_states(self, tmp_path):
        # an empty probe stack: no state's trace defect to report
        cfg = write_config(
            tmp_path, "cfg.json",
            {"mode": "certify", "gamma_bar": 1.0, "tau_max": 1.0, "tau_points": 6,
             "probe_states": 0, "output_path": str(tmp_path / "out")},
        )
        assert main(["certify", cfg]) == 0
        report = json.loads((tmp_path / "out" / "cpt_report.json").read_text())
        assert report["max_random_state_trace_defect"] == 0.0

    # at 0 the closed form's rounding (Choi eigenvalues down to -2.7e-16 here) fails it
    @pytest.mark.parametrize("tolerance, code", [(0.0, 3), (1e-6, 0)])
    def test_tolerance_bounds_are_accepted(self, tmp_path, tolerance, code):
        cfg = write_config(
            tmp_path, "cfg.json",
            {"mode": "certify", "gamma_bar": [0.0, 1.0], "tau_max": 5.0, "tau_points": 26,
             "tolerance": tolerance, "output_path": str(tmp_path / "out")},
        )
        assert main(["certify", cfg]) == code
        report = json.loads((tmp_path / "out" / "cpt_report.json").read_text())
        assert report["tolerance"] == tolerance

    def test_certify_subcommand_requires_certify_mode(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "cfg.json",
            {"mode": "jc_closed_form", "gamma_bar": 0.0, "tau_max": 1.0, "tau_points": 5},
        )
        assert main(["certify", cfg]) == 2

    def test_run_also_accepts_certify_mode(self, tmp_path):
        cfg = write_config(
            tmp_path, "cfg.json",
            {
                "mode": "certify",
                "gamma_bar": 0.5,
                "tau_max": 1.0,
                "tau_points": 6,
                "output_path": str(tmp_path / "out"),
            },
        )
        assert main(["run", cfg]) == 0


class TestConfigNumbers:
    @pytest.mark.parametrize(
        "subcommand, payload, field",
        [
            ("run", {"mode": "jc_closed_form", "gamma_bar": 1.0, "tau_max": 1.0,
                     "tau_points": "abc"}, "tau_points"),
            ("run", {"mode": "jc_closed_form", "gamma_bar": ["x"], "tau_max": 1.0,
                     "tau_points": 5}, "gamma_bar"),
            ("run", {"mode": "jc_closed_form", "gamma_bar": 1.0, "tau_max": "2",
                     "tau_points": 5}, "tau_max"),
            ("run", {"mode": "jc_closed_form", "gamma_bar": 1.0, "tau_max": 1.0,
                     "tau_points": 4.5}, "tau_points"),
            ("sweep", {"gamma_bar": {"start": 0.0, "stop": 1.0, "count": "3"},
                       "tau": [0.5]}, "count"),
            ("sweep", {"gamma_bar": [0.5], "tau": {"start": "0", "stop": 1.0, "count": 3}},
             "start"),
            ("sweep", {"gamma_bar": [], "tau": [0.5]}, "gamma_bar"),
            ("certify", {"mode": "certify", "gamma_bar": 1.0, "tau_max": 1.0, "tau_points": 5,
                         "probe_states": "3"}, "probe_states"),
            ("certify", {"mode": "certify", "gamma_bar": 1.0, "tau_max": 1.0, "tau_points": 5,
                         "tolerance": "tight"}, "tolerance"),
            ("certify", {"mode": "certify", "gamma_bar": 1.0, "tau_max": 1.0, "tau_points": 5,
                         "tolerance": -1}, "tolerance"),
            ("certify", {"mode": "certify", "gamma_bar": 1.0, "tau_max": 1.0, "tau_points": 5,
                         "tolerance": 1e-5}, "tolerance"),
            ("certify", {"mode": "certify", "gamma_bar": 1.0, "tau_max": 1.0, "tau_points": 5,
                         "tolerance": 1e300}, "tolerance"),
            ("run", {"mode": "convergence", "gamma_bar": 1.0, "tau_max": 1.0,
                     "t_c_list": ["a"]}, "t_c_list"),
            ("run", {"mode": "convergence", "gamma_bar": -1, "tau_max": 1.0,
                     "t_c_list": [0.1]}, "'gamma_bar'"),
            ("run", {"mode": "convergence", "gamma_bar": 1.0, "tau_max": -1,
                     "t_c_list": [0.1]}, "'tau_max'"),
            ("run", {"mode": "convergence", "gamma_bar": 1.0, "tau_max": 0,
                     "t_c_list": [0.1]}, "'tau_max'"),
            ("run", {"mode": "series", "gamma_bar": 1.0, "tau_max": 1.0, "tau_points": 11,
                     "compare_discrete": "false"}, "compare_discrete"),
            ("run", {"mode": "jc_closed_form", "gamma_bar": 1.0, "tau_max": 1.0,
                     "tau_points": 5, "seed": True}, "seed"),
            ("run", {"mode": "jc_closed_form", "gamma_bar": 1.0, "tau_max": 1.0,
                     "tau_points": 5, "output_path": None}, "output_path"),
            # 10**400: an integer that no double holds, refused before a float function sees it
            ("run", {"mode": "jc_closed_form", "gamma_bar": 1, "tau_max": 1,
                     "tau_points": 10**400}, "'tau_points'"),
            ("run", {"mode": "jc_closed_form", "gamma_bar": 10**400, "tau_max": 1,
                     "tau_points": 5}, "'gamma_bar'"),
            ("run", {"mode": "discrete", "collision": {"t_c": 0.1, "p_s": 0.5,
                                                       "n_steps": 10**400}}, "'n_steps'"),
            ("sweep", {"gamma_bar": {"start": 0.0, "stop": 1.0, "count": 10**400},
                       "tau": [0.5]}, "'gamma_bar.count'"),
        ],
        ids=["tau_points-string", "gamma_bar-string", "tau_max-string", "tau_points-fraction",
             "count-string", "start-string", "gamma_bar-empty", "probe_states-string",
             "tolerance-string", "tolerance-negative", "tolerance-above-1e-6", "tolerance-1e300",
             "t_c_list-string", "convergence-gamma_bar-negative",
             "convergence-tau_max-negative", "convergence-tau_max-zero",
             "compare_discrete-string", "seed-boolean", "output_path-null",
             "tau_points-past-the-largest-double", "gamma_bar-past-the-largest-double",
             "n_steps-past-the-largest-double", "count-past-the-largest-double"],
    )
    def test_malformed_number_exits_2(self, tmp_path, capsys, subcommand, payload, field):
        cfg = write_config(tmp_path, "cfg.json", {"output_path": str(tmp_path / "out"), **payload})
        assert main([subcommand, cfg]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == 2
        assert field in err["error"]["message"]
        assert not (tmp_path / "out" / "results.csv").exists()

    def test_integer_too_long_to_parse_exits_2(self, tmp_path, capsys):
        # Python refuses to read an integer of more than 4300 digits from text
        path = tmp_path / "cfg.json"
        path.write_text('{"mode": "jc_closed_form", "gamma_bar": 1, "tau_max": 1, "tau_points": 1'
                        + "0" * 5000 + "}", encoding="utf-8")
        assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and "integer" in json.loads(lines[0])["error"]["message"]

    def test_seed_of_any_size_is_accepted(self, tmp_path):
        # the seed goes to numpy's generator, not through a double
        cfg = write_config(tmp_path, "cfg.json", {
            "mode": "certify", "gamma_bar": 1.0, "tau_max": 1.0, "tau_points": 5,
            "seed": 10**400, "output_path": str(tmp_path / "out")})
        assert main(["certify", cfg]) == 0


class TestUsageErrors:
    """A command line argparse refuses is a JSON error with exit code 2, like a bad config."""

    @pytest.mark.parametrize("argv", [["bogus", "x.json"], ["run"], ["run", "c.json", "--bad"],
                                      [], ["run", "--output-dir"]],
                             ids=["subcommand", "no-config", "unknown-option", "empty",
                                  "option-without-value"])
    def test_usage_error_is_one_json_line(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error["code"] == 2 and "usage: nmcollide" in error["message"]

    @pytest.mark.parametrize("argv, usage", [
        (["run", "c.json", "--bad"], "nmcollide run [-h] [--output-dir OUTPUT_DIR] config"),
        (["certify", "--bad", "c.json"], "nmcollide certify [-h] [--output-dir OUTPUT_DIR] config"),
        (["sweep", "c.json", "extra"], "nmcollide sweep [-h] [--output-dir OUTPUT_DIR] config"),
        (["--bad", "run", "c.json"], "nmcollide [-h] {run,sweep,certify} ..."),
    ], ids=["after-config", "before-config", "extra-positional", "before-subcommand"])
    def test_unknown_argument_names_its_parser_usage(self, capsys, argv, usage):
        # an argument a subcommand does not know is reported with the subcommand's usage line;
        # one before the subcommand, with the top-level one
        assert main(argv) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["message"].startswith("unrecognized arguments: ")
        assert error["message"].endswith(f"; usage: {usage}")

    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]])
    def test_help_still_prints_and_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: nmcollide") and captured.err == ""


class TestErrorMapping:
    # in a run, a ValidationError comes from computed data (config values raise
    # ConfigurationError), so it is a numerical failure
    @pytest.mark.parametrize(
        "error, code",
        [("ValidationError", 4), ("InternalConsistencyError", 4)],
    )
    def test_package_error_exits_with_json(self, tmp_path, capsys, monkeypatch, error, code):
        import nmcollide.jaynes_cummings as jc_mod
        import nmcollide.errors as errors

        def broken(taus, g):
            raise getattr(errors, error)("injected failure")

        monkeypatch.setattr(jc_mod, "beta_arrays", broken)
        cfg = write_config(
            tmp_path, "cfg.json",
            {"mode": "jc_closed_form", "gamma_bar": 1.0, "tau_max": 1.0, "tau_points": 5,
             "output_path": str(tmp_path / "out")},
        )
        assert main(["run", cfg]) == code
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == {"code": code, "message": "injected failure"}

    def test_linalg_failure_exits_4(self, tmp_path, capsys, monkeypatch):
        import nmcollide.jaynes_cummings as jc_mod

        def singular(taus, g):
            raise np.linalg.LinAlgError("Array must not contain infs or NaNs")

        monkeypatch.setattr(jc_mod, "beta_arrays", singular)
        cfg = write_config(
            tmp_path, "cfg.json",
            {"gamma_bar": [1.0], "tau": [1.0], "output_path": str(tmp_path / "out")},
        )
        assert main(["sweep", cfg]) == 4
        stderr = capsys.readouterr().err
        assert "Traceback" not in stderr
        err = json.loads(stderr)
        assert err["error"]["code"] == 4
        assert err["error"]["message"].startswith("LinAlgError: ")

    def test_floating_point_error_exits_4(self, tmp_path, capsys, monkeypatch):
        import nmcollide.jaynes_cummings as jc_mod

        def overflowing(taus, g):
            raise FloatingPointError("overflow encountered")

        monkeypatch.setattr(jc_mod, "beta_arrays", overflowing)
        cfg = write_config(
            tmp_path, "cfg.json",
            {"gamma_bar": [1.0], "tau": [1.0], "output_path": str(tmp_path / "out")},
        )
        assert main(["sweep", cfg]) == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == {"code": 4, "message": "FloatingPointError: overflow encountered"}

    @pytest.mark.parametrize("payload, code", [
        # gamma_bar * dt = 5e308 is past the largest double, which the exact step refuses
        pytest.param({"mode": "series", "gamma_bar": 1e303, "tau_max": 1e6, "tau_points": 3}, 4,
                     id="series-overflow"),
        # now refused by the closed form's domain check before any arithmetic
        pytest.param({"mode": "jc_closed_form", "gamma_bar": 1e300, "tau_max": 1.0,
                      "tau_points": 5}, 2, id="closed-form-1e300"),
    ])
    def test_numpy_warning_becomes_one_json_line(self, tmp_path, capsys, payload, code):
        cfg = write_config(tmp_path, "cfg.json", {**payload, "output_path": str(tmp_path / "out")})
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning escaping the CLI fails the test
            assert main(["run", cfg]) == code
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["code"] == code

    def test_largest_finite_series_rate_exits_0(self, tmp_path, capsys):
        # gamma_bar * dt = 7e307: the 1-norm of L dt, 1.4e308, is still finite, and the step's
        # scaling neither overflows nor raises; the maps are the gamma -> infinity limit, the
        # identity, within rounding
        cfg = write_config(tmp_path, "cfg.json", {"mode": "series", "gamma_bar": 7e307,
                                                  "tau_max": 2, "tau_points": 3,
                                                  "output_path": str(tmp_path / "out")})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", cfg]) == 0
        assert capsys.readouterr().err == ""
        betas = np.array([row[2:4] for row in read_rows(tmp_path / "out")], dtype=float)
        assert np.max(np.abs(betas - 1.0)) < 1e-14

    def test_extreme_rate_sweep_ends_with_a_code(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "cfg.json",
            {"gamma_bar": [1e80], "tau": [0.0, 1e-81, 1.0], "output_path": str(tmp_path / "out")},
        )
        code = main(["sweep", cfg])  # an uncaught exception here is exit 1
        assert code in (0, 4)
        if code == 4:
            assert json.loads(capsys.readouterr().err)["error"]["code"] == 4

    def test_large_rate_sweep_and_certify_exit_zero(self, tmp_path):
        sweep = write_config(
            tmp_path, "sweep.json",
            {"gamma_bar": [1e6, 3e8, 1e10, 1e12], "tau": [0.0, 1e-9, 19.6],
             "output_path": str(tmp_path / "sweep")},
        )
        assert main(["sweep", sweep]) == 0
        certify = write_config(
            tmp_path, "certify.json",
            {"mode": "certify", "gamma_bar": [1e6], "tau_max": 20.0, "tau_points": 201,
             "output_path": str(tmp_path / "certify")},
        )
        assert main(["certify", certify]) == 0


class TestCptVerdict:
    """Every mode that builds maps returns their certify_cpt reports, and _execute judges them
    once, after every output is written, at the run's tolerance: a failure exits 3 naming the
    mode, and the gamma_bar and tau of the map farthest from CPT."""

    RATE = -np.log(0.9) / 0.05  # the rate that the collisions below calibrate
    COLLISION = {"t_c": 0.05, "p_s": 0.9, "n_steps": 4}
    GRID = {"gamma_bar": [0.5, 2.0], "tau_max": 0.2, "tau_points": 5}
    # mode: (subcommand, the name under which the CLI takes its maps, config, the gamma_bar of
    # the corrupted map); every map stack here has times 0, 0.05, ..., 0.2
    CASES = {
        "certify": ("certify", "jc_maps", {"mode": "certify", **GRID}, 2.0),
        "sweep": ("sweep", "jc_maps", {"gamma_bar": [0.5, 2.0],
                                       "tau": [0.0, 0.05, 0.1, 0.15, 0.2]}, 2.0),
        "discrete": ("run", "discrete_maps", {"mode": "discrete", "collision": COLLISION}, RATE),
        "series": ("run", "lambda_embedding", {"mode": "series", **GRID}, 0.5),
        "thermal": ("run", "lambda_embedding", {"mode": "thermal", "collision": {
            **COLLISION, "bath": {"kind": "thermal", "weights": [0.7, 0.3]}}}, RATE),
    }

    @pytest.mark.parametrize("mode", list(CASES))
    def test_a_corrupted_map_exits_3_naming_it(self, tmp_path, capsys, monkeypatch, mode):
        subcommand, route, payload, gamma = self.CASES[mode]
        real, built = getattr(cli, route), []

        def corrupted(*args):
            # in the first stack built (the one gamma_bar-major grid, or the first gamma_bar's
            # maps), the map three from the end gets its coherence inflated by 5 %, at tau = 0.1
            stack = real(*args)
            built.append(stack)
            if len(built) > 1:
                return stack
            superops = stack.superops.copy()
            superops[-3, 1, 1] *= 1.05
            superops[-3, 2, 2] *= 1.05
            return MapStack(stack.times, superops)

        monkeypatch.setattr(cli, route, corrupted)
        out = tmp_path / "out"
        cfg = write_config(tmp_path, "cfg.json", {**payload, "output_path": str(out)})
        assert main([subcommand, cfg]) == 3
        error = json.loads(capsys.readouterr().err)["error"]
        assert (error["code"], error["mode"], error["tau"]) == (3, mode, 0.1)
        assert error["gamma_bar"] == pytest.approx(gamma, rel=1e-15)
        assert error["min_choi_eigenvalue"] < -0.04 and error["tolerance"] == 1e-9
        assert len(read_rows(out)) == sum(map(len, built))  # every output is written first
        assert ("report" in error) == (mode == "certify")

    def test_found_87_series_at_the_phase_bound_exits_3(self, tmp_path, capsys):
        # a one-step series at PHASE_BOUND: beta1^2 = cos^2 tau exceeds beta2 by 1.2e-9, which
        # leaves a Choi eigenvalue of -1.1e-9, past CPT_TOLERANCE
        out = tmp_path / "out"
        cfg = write_config(tmp_path, "cfg.json", {
            "mode": "series", "gamma_bar": [0.0], "tau_max": 22517998.136852481,
            "tau_points": 2, "output_path": str(out)})
        assert main(["run", cfg]) == 3
        error = json.loads(capsys.readouterr().err)["error"]
        assert (error["mode"], error["gamma_bar"], error["tau"]) == ("series", 0.0,
                                                                     22517998.136852481)
        assert error["min_choi_eigenvalue"] == float(read_rows(out)[-1][5]) < -1e-9

    def test_a_deficit_within_the_tolerance_passes(self, tmp_path, monkeypatch):
        # beta1^2 - beta2 = 5e-10 at gamma_bar = 3 leaves a Choi eigenvalue of ~ -2.5e-10:
        # inside the one tolerance, so the sweep writes it and exits 0
        import nmcollide.jaynes_cummings as jc_mod

        def nearly_cp(taus, g):
            excess = np.where(np.asarray(g) == 3.0, 5e-10, -1e-3)
            return np.sqrt(0.999 + excess) * np.ones(len(taus)), np.full(len(taus), 0.999)

        monkeypatch.setattr(jc_mod, "beta_arrays", nearly_cp)
        cfg = write_config(
            tmp_path, "cfg.json",
            {"gamma_bar": [1.0, 3.0], "tau": [0.5, 1.0], "output_path": str(tmp_path / "out")},
        )
        assert main(["sweep", cfg]) == 0
        eigs = [float(row[5]) for row in read_rows(tmp_path / "out")]
        assert -1e-9 < min(eigs) == eigs[2] < -2e-10


SRC = Path(cli.__file__).resolve().parent.parent
COLD_BATH = {"mode": "thermal", "collision": {"t_c": 0.1, "p_s": 0.5, "n_steps": 3, "bath": {
    "kind": "thermal", "energies": [0, 1e308], "inverse_temperature": 10}}}


def _with_bath(**bath):
    return {**COLD_BATH, "collision": {**COLD_BATH["collision"],
                                       "bath": {"kind": "thermal", **bath}}}


class TestNumericsPolicyCoversConfigReading:
    """The config is read under the run's numerics policy, so no numpy warning reaches stderr:
    each case runs in a fresh interpreter with Python's own warning filters, as a user runs it."""

    @pytest.mark.parametrize("subcommand, payload, code, field", [
        pytest.param("run", COLD_BATH, 0, None, id="cold-bath"),
        pytest.param("run", _with_bath(energies=[-1e308, 1e308], inverse_temperature=10), 0,
                     None, id="cold-bath-span-past-the-largest-double"),
        pytest.param("sweep", {"gamma_bar": {"start": -1e308, "stop": 1e308, "count": 3},
                               "tau": [1.0]}, 2, "'gamma_bar'", id="sweep-range-overflow"),
        pytest.param("run", _with_bath(weights=[1e308, 1e308]), 2, "weights",
                     id="weights-overflow"),
    ])
    def test_stderr_is_empty_or_one_json_line(self, tmp_path, subcommand, payload, code, field):
        cfg = write_config(tmp_path, "cfg.json", {**payload, "output_path": str(tmp_path / "out")})
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
        done = subprocess.run([sys.executable, "-m", "nmcollide.cli", subcommand, cfg], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == code
        if code == 0:
            assert done.stderr == ""
        else:
            lines = done.stderr.splitlines()
            assert len(lines) == 1
            error = json.loads(lines[0])["error"]
            assert error["code"] == code and field in error["message"]


class TestBatchedClosedForm:
    """certify and sweep evaluate whole tau arrays; rows match the per-point route."""

    GAMMAS = [0.0, 2.0, 75.0]

    def _run(self, tmp_path, subcommand):
        taus = np.linspace(0.0, 20.0, 41)
        if subcommand == "certify":
            payload = {"mode": "certify", "gamma_bar": self.GAMMAS, "tau_max": 20.0,
                       "tau_points": 41}
        else:
            payload = {"gamma_bar": self.GAMMAS, "tau": list(taus)}
        out = tmp_path / subcommand
        cfg = write_config(tmp_path, f"{subcommand}.json", {**payload, "output_path": str(out)})
        assert main([subcommand, cfg]) == 0
        return read_rows(out)

    @pytest.mark.parametrize("subcommand", ["certify", "sweep"])
    def test_rows_match_per_point_route(self, tmp_path, subcommand):
        from nmcollide import beta1, beta2, choi_of, jc_maps, kraus_from_choi

        rows = self._run(tmp_path, subcommand)
        assert len(rows) == len(self.GAMMAS) * 41
        for row in rows:
            tau, gamma = float(row[0]), float(row[1])
            assert float(row[2]) == beta1(tau, gamma)
            assert float(row[3]) == beta2(tau, gamma)
            per_point = np.linalg.eigvalsh(choi_of(kraus_from_choi(jc_maps(tau, gamma).choi()[0])))[0]
            assert abs(float(row[5]) - per_point) < 1e-14

    def test_no_per_point_kraus_route(self, tmp_path, monkeypatch):
        # the per-point object of a Kraus route (KrausChannel, hence kraus_from_choi) now
        # raises on construction
        from nmcollide.quantum import KrausChannel

        def forbidden(self):
            raise AssertionError(f"per-point {type(self).__name__} built by the CLI")

        monkeypatch.setattr(KrausChannel, "__post_init__", forbidden)
        for subcommand in ("certify", "sweep"):
            assert len(self._run(tmp_path, subcommand)) == len(self.GAMMAS) * 41
        cfg = write_config(
            tmp_path, "jc.json",
            {"mode": "jc_closed_form", "gamma_bar": self.GAMMAS, "tau_max": 20.0,
             "tau_points": 41, "output_path": str(tmp_path / "jc")},
        )
        assert main(["run", cfg]) == 0

    @staticmethod
    def _counted_calls(monkeypatch) -> dict:
        """The CLI's calls of jc_maps and of certify_cpt, counted from here on. certify_cpt hands
        each exact block of a stack's Choi matrices to hermitian_spectra, so its spectra solves
        are counted per block: the stacks are counted as certify_cpt calls."""
        import nmcollide.cli as cli_mod

        calls = {"jc_maps": 0, "certify_cpt": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(cli_mod, name, counted(name, getattr(cli_mod, name)))
        return calls

    def test_sweep_is_one_grid(self, tmp_path, monkeypatch):
        # a per-gamma_bar loop would call jc_maps and certify_cpt once per gamma_bar
        calls = self._counted_calls(monkeypatch)
        cfg = write_config(
            tmp_path, "cfg.json",
            {"gamma_bar": {"start": 0.0, "stop": 6.0, "count": 7}, "tau": [0.0, 1.0, 2.5],
             "output_path": str(tmp_path / "out")},
        )
        assert main(["sweep", cfg]) == 0
        assert calls == {"jc_maps": 1, "certify_cpt": 1}
        assert len(read_rows(tmp_path / "out")) == 21

    # a repeated gamma_bar and a last gamma_bar = 0 exercise the slice arithmetic of the grid;
    # certify refuses the repeat
    GRID_GAMMAS = [1.0, 5.0, 1.0, 0.0]

    def test_jc_closed_form_is_one_grid(self, tmp_path, monkeypatch):
        from nmcollide import jc_maps

        calls = self._counted_calls(monkeypatch)
        cfg = write_config(
            tmp_path, "cfg.json",
            {"mode": "jc_closed_form", "gamma_bar": self.GRID_GAMMAS, "tau_max": 4.0,
             "tau_points": 9, "output_path": str(tmp_path / "out")},
        )
        assert main(["run", cfg]) == 0
        assert calls == {"jc_maps": 1, "certify_cpt": 0}
        taus = np.linspace(0.0, 4.0, 9)
        per_gamma = np.concatenate([jc_maps(taus, g).superops for g in self.GRID_GAMMAS])
        rows = read_rows(tmp_path / "out")
        assert [float(row[2]) for row in rows] == list(per_gamma[:, 1, 1].real)
        assert [float(row[3]) for row in rows] == list(per_gamma[:, 3, 3].real)

    def test_certify_is_one_grid_certified_per_gamma(self, tmp_path, monkeypatch, capsys):
        # one jc_maps grid, certified one gamma_bar slice at a time: one certify_cpt call per
        # gamma_bar, and the report of each slice is that of its own one-gamma_bar stack. A
        # repeated gamma_bar would share one cpt_report.json entry: it is refused before the grid
        from nmcollide import certify_cpt, jc_maps

        calls = self._counted_calls(monkeypatch)
        out = tmp_path / "out"
        payload = {"mode": "certify", "tau_max": 4.0, "tau_points": 9, "output_path": str(out)}
        cfg = write_config(tmp_path, "repeat.json", {**payload, "gamma_bar": self.GRID_GAMMAS})
        assert main(["certify", cfg]) == 2
        assert calls == {"jc_maps": 0, "certify_cpt": 0}
        assert "entries 0 and 2" in json.loads(capsys.readouterr().err)["error"]["message"]
        gammas = [1.0, 5.0, 2.5, 0.0]  # still ends in gamma_bar = 0
        cfg = write_config(tmp_path, "cfg.json", {**payload, "gamma_bar": gammas})
        assert main(["certify", cfg]) == 0
        assert calls == {"jc_maps": 1, "certify_cpt": len(gammas)}
        taus = np.linspace(0.0, 4.0, 9)
        reports = {g: certify_cpt(jc_maps(taus, g)) for g in gammas}
        expected = {g: {"gamma_bar": g, **report.summary(taus)} for g, report in reports.items()}
        written = json.loads((out / "cpt_report.json").read_text())["per_gamma"]
        assert written == json.loads(json.dumps(expected))
        min_eigs = np.concatenate([reports[g].min_choi_eigenvalue for g in gammas])
        assert [float(row[5]) for row in read_rows(out)] == list(min_eigs)


# min_choi_eig solves each exact block of a Choi stack (quantum.hermitian_spectra), so it
# agrees with a per-map eigvalsh to rounding, not bit for bit
SPECTRUM_ROUNDING = 1e-15


def assert_min_choi_eigs(rows, stacks):
    """Column min_choi_eig of rows within SPECTRUM_ROUNDING of eigvalsh on each map's Choi
    matrix, the maps taken in order from stacks."""
    per_map = [np.linalg.eigvalsh(mp.choi())[0, 0] for stack in stacks for mp in stack]
    assert len(rows) == len(per_map)
    assert max(abs(float(row[5]) - e) for row, e in zip(rows, per_map)) <= SPECTRUM_ROUNDING


class TestBatchedChoiSpectra:
    """series and thermal take min_choi_eig from certify_cpt's one spectra solve over a Choi
    stack."""

    CONFIGS = {
        "series": {"mode": "series", "gamma_bar": [0.0, 1.0, 4.0], "tau_max": 2.0,
                   "tau_points": 201, "compare_discrete": True, "t_c": 0.05},
        "thermal": {"mode": "thermal",
                    "collision": {"t_c": 0.05, "p_s": 0.9, "n_steps": 40,
                                  "bath": {"kind": "thermal", "energies": [0.0, 1.0],
                                           "inverse_temperature": 0.8}}},
    }

    @pytest.mark.parametrize("mode", sorted(CONFIGS))
    def test_matches_per_map_choi(self, tmp_path, monkeypatch, mode):
        import nmcollide.cli as cli_mod

        lambda_embedding, results = cli_mod.lambda_embedding, []

        def recording(*args, **kwargs):
            results.append(lambda_embedding(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(cli_mod, "lambda_embedding", recording)
        cfg = write_config(
            tmp_path, "cfg.json", {**self.CONFIGS[mode], "output_path": str(tmp_path / "out")}
        )
        assert main(["run", cfg]) == 0
        monkeypatch.undo()
        assert_min_choi_eigs(read_rows(tmp_path / "out"), results)


class TestClosedFormDomain:
    """gamma_bar, tau and gamma_bar * tau beyond the bound exit 2 and name it."""

    @pytest.mark.parametrize("subcommand, payload", [
        pytest.param("sweep", {"gamma_bar": [1e200], "tau": [1.0]}, id="sweep-1e200"),
        pytest.param("run", {"mode": "jc_closed_form", "gamma_bar": 1e300, "tau_max": 1.0,
                             "tau_points": 5}, id="closed-form-1e300"),
        # a tau past the domain is past PHASE_BOUND too (TestPhaseBound); inside it, tau times
        # a large gamma_bar still reaches the domain bound
        pytest.param("run", {"mode": "jc_closed_form", "gamma_bar": 1e150, "tau_max": 1e7,
                             "tau_points": 5}, id="closed-form-long-tau"),
    ])
    def test_beyond_the_bound_exits_2(self, tmp_path, capsys, subcommand, payload):
        from nmcollide.jaynes_cummings import DOMAIN_BOUND

        cfg = write_config(tmp_path, "cfg.json", {**payload, "output_path": str(tmp_path / "out")})
        assert main([subcommand, cfg]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["code"] == 2
        assert "gamma_bar = " in err["message"] and "tau = " in err["message"]
        assert f"{DOMAIN_BOUND:.4g}" in err["message"]
        assert not (tmp_path / "out" / "results.csv").exists()

    @pytest.mark.parametrize("subcommand, payload", [
        pytest.param("sweep", {"tau": [0.0, 5e4, 1e5]}, id="sweep"),
        pytest.param("run", {"mode": "jc_closed_form", "tau_max": 1e5, "tau_points": 3},
                     id="jc_closed_form"),
        pytest.param("certify", {"mode": "certify", "tau_max": 1e5, "tau_points": 3},
                     id="certify"),
    ])
    def test_the_first_pair_of_the_grid_is_named(self, tmp_path, capsys, subcommand, payload):
        # only gamma_bar * tau is past the bound at the first gamma_bar, and gamma_bar itself at
        # the second: the pair named is the first past it in gamma_bar-major order
        cfg = write_config(tmp_path, "cfg.json", {**payload, "gamma_bar": [1e150, 1e154],
                                                  "output_path": str(tmp_path / "out")})
        assert main([subcommand, cfg]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["message"].startswith("gamma_bar = 1e+150, tau = 50000:")

    def test_at_the_bound_exits_0(self, tmp_path):
        from nmcollide.jaynes_cummings import DOMAIN_BOUND

        # gamma_bar and gamma_bar * tau both equal the bound
        cfg = write_config(
            tmp_path, "cfg.json",
            {"gamma_bar": [DOMAIN_BOUND], "tau": [0.0, 1.0], "output_path": str(tmp_path / "out")},
        )
        assert main(["sweep", cfg]) == 0
        rows = read_rows(tmp_path / "out")
        assert float(rows[1][1]) == DOMAIN_BOUND
        assert all(np.isfinite(float(v)) for row in rows for v in row[2:4] + row[5:])


class TestDiscreteMapMode:
    """The discrete mode reads the betas and the Choi spectrum off one discrete_maps stack."""

    BATHS = {
        "pure": {"kind": "pure_ground"},
        "thermal": {"kind": "thermal", "energies": [0.0, 1.0], "inverse_temperature": 0.8},
    }

    @pytest.mark.parametrize("bath", sorted(BATHS))
    def test_columns_come_from_the_stack(self, tmp_path, monkeypatch, bath):
        import nmcollide.cli as cli_mod
        from nmcollide import DensityOperator

        discrete_maps, stacks = cli_mod.discrete_maps, []

        def recording(collision):
            stacks.append(discrete_maps(collision))
            return stacks[-1]

        monkeypatch.setattr(cli_mod, "discrete_maps", recording)
        collision = {"t_c": 0.05, "p_s": 0.95, "n_steps": 200, "bath": self.BATHS[bath]}
        cfg = write_config(
            tmp_path, "cfg.json",
            {"mode": "discrete", "collision": collision, "output_path": str(tmp_path / "out")},
        )
        assert main(["run", cfg]) == 0
        monkeypatch.undo()
        (stack,) = stacks
        rows = read_rows(tmp_path / "out")
        assert_min_choi_eigs(rows, [stack])
        assert min(float(row[5]) for row in rows) > -1e-14
        # beta2 is the excited population of the trajectory from |1>, beta1 twice the
        # coherence of the one from |+>
        col = cli_mod._collision(collision, "collision")
        excited = discrete_maps(col).apply(DensityOperator.basis(2, 1))
        plus = discrete_maps(col).apply(DensityOperator(np.full((2, 2), 0.5)))
        b1 = np.array([float(row[2]) for row in rows])
        b2 = np.array([float(row[3]) for row in rows])
        assert np.max(np.abs(b2 - excited[:, 1, 1].real)) < 1e-14
        assert np.max(np.abs(b1 - 2.0 * plus[:, 0, 1].real)) < 1e-14


def _forbid_series_and_protocol(monkeypatch):
    import nmcollide.cli as cli_mod

    def forbidden(*args, **kwargs):
        raise AssertionError("a refused config reached a series or the protocol")

    for name in ("lambda_embedding", "discrete_maps"):
        monkeypatch.setattr(cli_mod, name, forbidden)


class TestSeriesVsProtocol:
    """series and thermal build the series from the collision's own H and rho_A."""

    THERMAL_BATH = {"kind": "thermal", "energies": [0.0, 1.0], "inverse_temperature": 0.8}

    @pytest.mark.parametrize("mode", ["discrete", "thermal"])
    @pytest.mark.parametrize("override", [
        pytest.param({"omega": 2.0}, id="omega"),
        pytest.param({"system_dim": 1, "ancilla_dim": 4}, id="1x4"),
        pytest.param({"system_dim": 4, "ancilla_dim": 1}, id="4x1"),
        pytest.param({"t_c": 1e-320}, id="rate-overflow"),
    ])
    def test_refused_collision_fields_exit_2_first(self, tmp_path, capsys, monkeypatch, mode,
                                                   override):
        _forbid_series_and_protocol(monkeypatch)
        collision = {"t_c": 0.05, "p_s": 0.9, "n_steps": 20, "bath": self.THERMAL_BATH,
                     **override}
        cfg = write_config(tmp_path, "cfg.json", {"mode": mode, "collision": collision,
                                                  "output_path": str(tmp_path / "out")})
        assert main(["run", cfg]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        message = json.loads(lines[0])["error"]["message"]
        assert any(f"'{key}'" in message for key in override)
        assert not (tmp_path / "out" / "results.csv").exists()

    def test_t_c_off_the_grid_exits_2_before_any_series(self, tmp_path, capsys, monkeypatch):
        _forbid_series_and_protocol(monkeypatch)
        cfg = write_config(tmp_path, "cfg.json", {
            "mode": "series", "gamma_bar": [1.0, 2.0], "tau_max": 1.0, "tau_points": 101,
            "compare_discrete": True, "t_c": 0.015, "output_path": str(tmp_path / "out")})
        assert main(["run", cfg]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and "t_c" in json.loads(lines[0])["error"]["message"]

    def test_t_c_without_comparison_exits_2(self, tmp_path, capsys, monkeypatch):
        # t_c is the comparison's collision time; with no comparison it would be dropped
        _forbid_series_and_protocol(monkeypatch)
        cfg = write_config(tmp_path, "cfg.json", {
            "mode": "series", "gamma_bar": 1.0, "tau_max": 1.0, "tau_points": 11,
            "compare_discrete": False, "t_c": 0.1, "output_path": str(tmp_path / "out")})
        assert main(["run", cfg]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1

        message = json.loads(lines[0])["error"]["message"]
        assert "'t_c'" in message and "'compare_discrete'" in message
        assert not (tmp_path / "out" / "results.csv").exists()

    # at tau_max = 2.2e7 the grid spacing rounds by ~4e-9, so the comparison's t_c is checked to
    # within 1e-9 of itself: an exact multiple runs, one off by 1e-6 of itself is refused
    LONG = {"mode": "series", "gamma_bar": [0.5], "tau_max": 22000000.0, "tau_points": 70,
            "compare_discrete": True}

    def test_exact_multiple_at_a_large_tau_max_runs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json", {**self.LONG, "t_c": 22000000.0,
                                                  "output_path": str(tmp_path / "out")})
        assert main(["run", cfg]) == 0
        assert capsys.readouterr().err == ""
        distances = [row[4] for row in read_rows(tmp_path / "out")]
        assert distances[0] != "" and distances[-1] != "" and set(distances[1:-1]) == {""}

    def test_t_c_off_by_a_relative_1e_6_at_a_large_tau_max_exits_2(self, tmp_path, capsys,
                                                                    monkeypatch):
        _forbid_series_and_protocol(monkeypatch)
        cfg = write_config(tmp_path, "cfg.json", {**self.LONG, "t_c": 22000000.0 * (1 + 1e-6),
                                                  "output_path": str(tmp_path / "out")})
        assert main(["run", cfg]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and "t_c" in json.loads(lines[0])["error"]["message"]

    @pytest.mark.parametrize("payload, named", [
        pytest.param({"compare_discrete": True, "t_c": 1e308}, ["'t_c'"], id="t_c-ratio-overflows"),
        pytest.param({"tau_max": 5e-324}, ["tau_max", "tau_points"], id="spacing-rounds-to-0"),
    ])
    def test_t_c_that_no_whole_stride_fits_exits_2(self, tmp_path, capsys, monkeypatch, payload,
                                                    named):
        # t_c / spacing past the largest double, and a spacing 5e-324 / 10 that rounds to 0, are
        # refused before the ratio is rounded or taken
        _forbid_series_and_protocol(monkeypatch)
        cfg = write_config(tmp_path, "cfg.json", {
            "mode": "series", "gamma_bar": [0.5], "tau_max": 1.0, "tau_points": 11, **payload,
            "output_path": str(tmp_path / "out")})
        assert main(["run", cfg]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        message = json.loads(lines[0])["error"]["message"]
        assert all(name in message for name in named)
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("gammas, named", [
        pytest.param([1.0, 1.0000001], "1.0 and 1.0000001 both name the report "
                     "'series_gamma_1.json'", id="same-name"),
        pytest.param([2.0, 0.5, 2.0], "2.0 and 2.0 both name the report 'series_gamma_2.json'",
                     id="duplicate"),
    ])
    def test_gamma_bar_values_naming_one_report_exit_2(self, tmp_path, capsys, monkeypatch,
                                                      gammas, named):
        # each gamma_bar writes series_gamma_{gamma_bar:g}.json: a shared name would keep
        # only the later report
        _forbid_series_and_protocol(monkeypatch)
        cfg = write_config(tmp_path, "cfg.json", {
            "mode": "series", "gamma_bar": gammas, "tau_max": 1.0, "tau_points": 11,
            "output_path": str(tmp_path / "out")})
        assert main(["run", cfg]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert named in json.loads(lines[0])["error"]["message"]
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("name", ["series_vs_discrete", "thermal"])
    def test_shipped_continuum_configs_run_on_the_generator_alone(self, tmp_path, monkeypatch,
                                                                    name):
        # series and thermal take their maps from e^{L dt}; the convolution series and its
        # kernel are the paper's form, kept as a reference, and no mode calls them
        import nmcollide.continuum as continuum

        def forbidden(*args, **kwargs):
            raise AssertionError("a CLI mode called the convolution series")

        for function in ("lambda_series", "build_kernel_map"):
            assert not hasattr(cli, function)
            monkeypatch.setattr(continuum, function, forbidden)
        assert main(["run", str(CONFIG_DIR / f"{name}.json"), "--output-dir", str(tmp_path)]) == 0
        rows = np.array(read_rows(tmp_path), dtype=object)
        assert len(rows) == (1001 if name == "series_vs_discrete" else 251)
        if name == "series_vs_discrete":  # largest difference 3.7e-14
            taus, gammas = rows[:, 0].astype(float), rows[:, 1].astype(float)
            expected = jc_maps(taus, gammas).superops
            assert np.max(np.abs(rows[:, 2].astype(float) - expected[:, 1, 1].real)) < 1e-12
            assert np.max(np.abs(rows[:, 3].astype(float) - expected[:, 3, 3].real)) < 1e-12

    @pytest.mark.parametrize("tau_max", [9.0, 11.0])
    def test_series_betas_meet_the_closed_form_on_the_benchmark_grid(self, tmp_path, tau_max):
        # the benchmark's series slots: 4001 points, gamma_bar * tau_max = 5, 10 and 20;
        # largest difference 1.4e-13 (tau_max = 9)
        gammas = [gt / tau_max for gt in (5.0, 10.0, 20.0)]
        cfg = write_config(tmp_path, "cfg.json", {
            "mode": "series", "gamma_bar": gammas, "tau_max": tau_max, "tau_points": 4001,
            "output_path": str(tmp_path / "out")})
        assert main(["run", cfg]) == 0
        rows = np.array(read_rows(tmp_path / "out"), dtype=object)
        taus, column = rows[:, 0].astype(float), rows[:, 1].astype(float)
        expected = jc_maps(taus, column).superops
        assert np.max(np.abs(rows[:, 2].astype(float) - expected[:, 1, 1].real)) < 1e-12
        assert np.max(np.abs(rows[:, 3].astype(float) - expected[:, 3, 3].real)) < 1e-12

    @pytest.mark.parametrize("beta", [0.5, 3.0])
    def test_full_swap_series_is_the_sampled_kernel(self, tmp_path, beta):
        # p_s = 1 gives gamma = 0: the continuum map is the kernel itself and the protocol
        # samples the same kernel at n t_c, so only a shared H and rho_A make them agree
        collision = {"t_c": 0.05, "p_s": 1.0, "n_steps": 200,
                     "bath": {**self.THERMAL_BATH, "inverse_temperature": beta}}
        cfg = write_config(tmp_path, "cfg.json", {"mode": "thermal", "collision": collision,
                                                  "output_path": str(tmp_path / "out")})
        assert main(["run", cfg]) == 0
        rows = read_rows(tmp_path / "out")
        assert len(rows) == 201
        assert max(float(row[4]) for row in rows) <= 1e-13


class TestPhaseBound:
    """A last time past PHASE_BOUND exits 2 naming its field: a collision block's
    n_steps * t_c, the tau_max of a closed-form grid, a series or a convergence study, and a
    sweep's largest tau."""

    @pytest.mark.parametrize("mode", ["discrete", "thermal"])
    def test_beyond_the_bound_exits_2(self, tmp_path, capsys, monkeypatch, mode):
        from nmcollide.cli import PHASE_BOUND

        _forbid_series_and_protocol(monkeypatch)
        collision = {"t_c": 1e300, "p_s": 0.5, "n_steps": 3,
                     "bath": TestSeriesVsProtocol.THERMAL_BATH}
        cfg = write_config(tmp_path, "cfg.json", {"mode": mode, "collision": collision,
                                                  "output_path": str(tmp_path / "out")})
        assert main(["run", cfg]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        message = json.loads(lines[0])["error"]["message"]
        assert "'n_steps' * 't_c' = 3e+300" in message
        assert f"PHASE_BOUND = {PHASE_BOUND:.4g}" in message
        assert not (tmp_path / "out" / "results.csv").exists()

    def test_at_the_bound_exits_0(self, tmp_path):
        from nmcollide.cli import PHASE_BOUND

        collision = {"t_c": PHASE_BOUND / 4, "p_s": 0.5, "n_steps": 4}
        cfg = write_config(tmp_path, "cfg.json", {"mode": "discrete", "collision": collision,
                                                  "output_path": str(tmp_path / "out")})
        assert main(["run", cfg]) == 0
        rows = read_rows(tmp_path / "out")
        assert float(rows[-1][0]) == PHASE_BOUND
        assert all(np.isfinite(float(v)) for row in rows for v in row[1:4] + row[5:])


    @pytest.mark.parametrize("subcommand, payload, field", [
        pytest.param("run", {"mode": "jc_closed_form", "gamma_bar": [0.0], "tau_max": 1e150,
                             "tau_points": 3}, "'tau_max' = 1e+150", id="jc_closed_form"),
        pytest.param("certify", {"mode": "certify", "gamma_bar": [0.0], "tau_max": 1e150,
                                 "tau_points": 3}, "'tau_max' = 1e+150", id="certify"),
        pytest.param("run", {"mode": "series", "gamma_bar": [0.0], "tau_max": 1e150,
                             "tau_points": 3}, "'tau_max' = 1e+150", id="series"),
        pytest.param("sweep", {"gamma_bar": [0.0], "tau": [1.0, 1e150]}, "'tau' = 1e+150",
                     id="sweep"),
        pytest.param("run", {"mode": "convergence", "gamma_bar": 1.0, "tau_max": 1e150,
                             "t_c_list": [1e147]}, "'tau_max' = 1e+150", id="convergence"),
    ])
    def test_tau_beyond_the_bound_exits_2(self, tmp_path, capsys, monkeypatch, subcommand,
                                          payload, field):
        from nmcollide.cli import PHASE_BOUND

        _forbid_series_and_protocol(monkeypatch)
        monkeypatch.setattr(cli, "jc_maps", lambda *a: pytest.fail("closed form evaluated"))
        monkeypatch.setattr(cli, "convergence_study", lambda *a: pytest.fail("study ran"))
        cfg = write_config(tmp_path, "cfg.json", {**payload, "output_path": str(tmp_path / "out")})
        assert main([subcommand, cfg]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        message = json.loads(lines[0])["error"]["message"]
        assert field in message and f"PHASE_BOUND = {PHASE_BOUND:.4g}" in message
        assert not (tmp_path / "out" / "results.csv").exists()

    def test_series_at_the_bound_keeps_eight_digits(self, tmp_path, capsys):
        # at gamma_bar = 0 one generator step of length tau_max rotates undamped, and _expm's
        # squarings round its angle: 2.6e-8 off cos tau at 4 PHASE_BOUND, which exits 2, and
        # 6.9e-9 at PHASE_BOUND
        from nmcollide.cli import PHASE_BOUND

        series = {"mode": "series", "gamma_bar": [0.0], "tau_points": 2}
        cfg = write_config(tmp_path, "far.json", {**series, "tau_max": 90071992.54740992,
                                                  "output_path": str(tmp_path / "far")})
        assert main(["run", cfg]) == 2
        message = json.loads(capsys.readouterr().err.splitlines()[0])["error"]["message"]
        assert "'tau_max' = 9.0072e+07" in message
        assert f"PHASE_BOUND = {PHASE_BOUND:.4g}" in message
        cfg = write_config(tmp_path, "cfg.json", {**series, "tau_max": PHASE_BOUND,
                                                  "output_path": str(tmp_path / "out")})
        assert main(["run", cfg]) == 3  # written, but the CPT verdict refuses them (below)
        tau, _, beta1 = map(float, read_rows(tmp_path / "out")[-1][:3])
        with mpmath.workdps(30):
            cosine = float(mpmath.cos(mpmath.mpf(tau)))
        assert tau == PHASE_BOUND and abs(beta1 - cosine) <= 1e-8

    def test_closed_form_at_the_bound_exits_0(self, tmp_path):
        from nmcollide.cli import PHASE_BOUND

        cfg = write_config(tmp_path, "cfg.json",
                           {"mode": "jc_closed_form", "gamma_bar": [0.0], "tau_max": PHASE_BOUND,
                            "tau_points": 3, "output_path": str(tmp_path / "out")})
        assert main(["run", cfg]) == 0
        assert float(read_rows(tmp_path / "out")[-1][0]) == PHASE_BOUND


class TestSizeCaps:
    """Counts past MAX_POINTS exit 2, naming the field and the bound, before any allocation."""

    PROBES = [
        pytest.param("run", {"mode": "jc_closed_form", "gamma_bar": 1.0, "tau_max": 1.0,
                             "tau_points": 1e12}, "'tau_points'", id="tau_points"),
        pytest.param("run", {"mode": "discrete", "collision": {
            "t_c": 0.01, "p_s": 0.9, "n_steps": 1e12}}, "'n_steps'", id="n_steps"),
        pytest.param("sweep", {"gamma_bar": {"start": 0.0, "stop": 1.0, "count": 1e12},
                               "tau": [1.0]}, "'gamma_bar.count'", id="count"),
        pytest.param("certify", {"mode": "certify", "gamma_bar": 1.0, "tau_max": 1.0,
                                 "tau_points": 11, "probe_states": 1e12},
                     "'probe_states'", id="probe_states"),
        pytest.param("run", {"mode": "series", "gamma_bar": [0.5, 1.0, 2.0], "tau_max": 1.0,
                             "tau_points": 100_000}, "row count", id="rows"),
        pytest.param("sweep", {"gamma_bar": {"start": 0.0, "stop": 1.0, "count": 1000},
                               "tau": {"start": 0.0, "stop": 1.0, "count": 1000}},
                     "row count", id="sweep-rows"),
        pytest.param("run", {"mode": "convergence", "gamma_bar": 1.0, "tau_max": 1e6,
                             "t_c_list": [1e-6]}, "tau_max / t_c", id="convergence-steps"),
    ]

    @pytest.mark.parametrize("subcommand, payload, field", PROBES)
    def test_rejected_before_allocation(self, tmp_path, capsys, monkeypatch, subcommand,
                                        payload, field):
        import nmcollide.cli as cli_mod

        def forbidden(*args, **kwargs):
            raise AssertionError("a count past the bound reached an allocation")

        def small_linspace(start, stop, num, **kwargs):
            assert num <= cli_mod.MAX_POINTS, "a grid past the bound reached np.linspace"
            return real_linspace(start, stop, num, **kwargs)

        real_linspace = np.linspace
        monkeypatch.setattr(np, "linspace", small_linspace)
        for name in ("discrete_maps", "random_density_stack", "convergence_study",
                     "lambda_embedding", "jc_maps"):
            monkeypatch.setattr(cli_mod, name, forbidden)
        cfg = write_config(tmp_path, "cfg.json", {**payload, "output_path": str(tmp_path / "out")})
        assert main([subcommand, cfg]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        message = json.loads(lines[0])["error"]["message"]
        assert field in message and str(cli_mod.MAX_POINTS) in message
        assert not (tmp_path / "out" / "results.csv").exists()

    def test_one_past_the_bound_is_refused(self, tmp_path, capsys, monkeypatch):
        from nmcollide.cli import MAX_POINTS

        monkeypatch.setattr(np, "linspace", lambda *a: pytest.fail("allocated"))
        cfg = write_config(tmp_path, "cfg.json",
                           {"mode": "jc_closed_form", "gamma_bar": 1.0, "tau_max": 1.0,
                            "tau_points": MAX_POINTS + 1, "output_path": str(tmp_path / "out")})
        assert main(["run", cfg]) == 2
        assert f"= {MAX_POINTS + 1} exceeds" in capsys.readouterr().err

    def test_nonpositive_collision_time_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json",
                           {"mode": "convergence", "gamma_bar": 1.0, "tau_max": 1.0,
                            "t_c_list": [0.1, 0.0], "output_path": str(tmp_path / "out")})
        assert main(["run", cfg]) == 2  # was a ZeroDivisionError traceback
        assert "t_c_list" in json.loads(capsys.readouterr().err)["error"]["message"]

    @pytest.mark.parametrize("config", sorted(
        (Path(__file__).resolve().parent.parent / "configs").glob("*.json")), ids=lambda p: p.stem)
    def test_shipped_configs_are_far_below_the_bound(self, config):
        from nmcollide.cli import MAX_POINTS

        raw = json.loads(config.read_text())
        counts = [raw.get("probe_states", 0), raw.get("collision", {}).get("n_steps", 0)]
        gammas = raw.get("gamma_bar", [])
        if "tau_points" in raw:
            counts.append(raw["tau_points"] * (len(gammas) if isinstance(gammas, list) else 1))
        if isinstance(gammas, dict):
            counts.append(gammas["count"] * raw["tau"]["count"])
        if "t_c_list" in raw:
            counts.append(raw["tau_max"] / min(raw["t_c_list"]))
        assert 10 * max(counts) < MAX_POINTS


class TestCptReport:
    def test_each_gamma_keeps_its_worst_point(self, tmp_path):
        cfg = write_config(
            tmp_path, "cfg.json",
            {"mode": "certify", "gamma_bar": [0.0, 2.0, 75.0], "tau_max": 20.0,
             "tau_points": 201, "output_path": str(tmp_path / "out")},
        )
        assert main(["certify", cfg]) == 0
        report = json.loads((tmp_path / "out" / "cpt_report.json").read_text())
        assert set(report) == {"tolerance", "verdict", "per_gamma",
                               "max_random_state_trace_defect"}
        rows = read_rows(tmp_path / "out")
        for key, entry in report["per_gamma"].items():
            assert entry["gamma_bar"] == float(key)
            mine = [row for row in rows if float(row[1]) == float(key)]
            eigs = [float(row[5]) for row in mine]
            # the first tau within the tolerance of the worst: rounding alone picks no place
            j = next(i for i, e in enumerate(eigs) if e <= min(eigs) + report["tolerance"])
            assert entry["min_choi_eigenvalue"] == {"value": min(eigs), "tau": float(mine[j][0])}
            assert entry["max_trace_defect"]["value"] <= 1e-15
            assert entry["verdict"] is True


# Cells that repeat within a column: both zeros, NaNs of three payloads (quiet, negative quiet,
# signalling), subnormals, +-1e+-300 and ordinary values
POOL = np.concatenate([
    [0.0, -0.0, 1.0, -3.0, 0.1, 2.5, 1e300, -1e300, 1e-300, -1e-300, 5e-324, -2.2250738585072e-308],
    np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001], dtype=np.uint64)
    .view(np.float64),
])
ORACLE_ROW = ",".join(["%.17g"] * len(cli.CSV_COLUMNS)) + "\n"


def oracle_csv(rows) -> bytes:
    """results.csv as one "%.17g" row template prints it, every NaN cell blanked."""
    body = "".join(ORACLE_ROW % tuple(row) for row in rows.tolist())
    return (CSV_HEADER + "\n" + body.replace("nan", "")).encode()


class TestCsvWriter:
    def test_rows_print_17_digits_with_nan_cells_empty(self, tmp_path):
        # gamma_bar and the distance are all-NaN columns; one more NaN sits in the last column
        rows = np.array([[0.1, np.nan, -0.0, 1.0, np.nan, 2.5],
                         [1e-300, np.nan, 0.25, -3.0, np.nan, np.nan]])
        cli._write_csv(tmp_path / "results.csv", rows)
        assert (tmp_path / "results.csv").read_text() == (
            CSV_HEADER + "\n"
            "0.10000000000000001,,-0,1,,2.5\n"
            "1e-300,,0.25,-3,,\n"
        )

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.integers(0, len(POOL) - 1), min_size=6, max_size=6), max_size=40))
    @example([])
    @example([[0, 1, 2, 3, 4, 5]])
    @example([[0] * 6, [1] * 6, [0] * 6])  # 0.0 and -0.0 in every column
    def test_rows_match_the_row_template_oracle(self, tmp_path_factory, picks):
        rows = POOL[np.array(picks, dtype=np.intp).reshape(-1, 6)]
        path = tmp_path_factory.mktemp("csv") / "results.csv"
        cli._write_csv(path, rows)
        assert path.read_bytes() == oracle_csv(rows)


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("config", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_shipped_config_runs_and_reruns_identically(tmp_path, config):
    mode = json.loads(config.read_text()).get("mode", "sweep")
    subcommand = mode if mode in ("sweep", "certify") else "run"
    out = tmp_path / "out"
    assert main([subcommand, str(config), "--output-dir", str(out)]) == 0
    first = (out / "results.csv").read_bytes()
    header, body = first.decode().split("\n", 1)
    assert header == CSV_HEADER
    assert re.search("nan|inf", body) is None  # an empty cell is empty, and no value overflowed
    assert main([subcommand, str(config), "--output-dir", str(out)]) == 0
    assert (out / "results.csv").read_bytes() == first
    cells = [[float(c) if c else np.nan for c in line.split(",")] for line in body.splitlines()]
    assert oracle_csv(np.array(cells).reshape(-1, len(cli.CSV_COLUMNS))) == first


@pytest.mark.parametrize("name", ["discrete", "series_vs_discrete"])
def test_first_row_is_the_identity_map(tmp_path, name):
    # the engine's S_0 is the identity bit for bit, so tau = 0 writes beta1 = 1 and a Choi
    # spectrum whose least eigenvalue is exactly 0
    assert main(["run", str(CONFIG_DIR / f"{name}.json"), "--output-dir", str(tmp_path)]) == 0
    tau, _, beta1, beta2, _, min_choi_eig = read_rows(tmp_path)[0]
    assert (tau, beta1, beta2, min_choi_eig) == ("0", "1", "1", "0")


SHIPPED = {p.stem: json.loads(p.read_text()) for p in sorted(CONFIG_DIR.glob("*.json"))}
ROOT = CONFIG_DIR.parent


def _with(name, path, /, **fields):
    """The shipped config name with fields set in its object at path, a None value deleting."""
    config = json.loads(json.dumps(SHIPPED[name]))
    target = config
    for key in path:
        target = target[key]
    for key, value in fields.items():
        if value is None:
            del target[key]
        else:
            target[key] = value
    return config


def _run_config(tmp_path, config) -> tuple:
    """Exit code and stderr lines of the config run through its mode's subcommand."""
    mode = config.get("mode", "sweep")
    subcommand = mode if mode in ("sweep", "certify") else "run"
    cfg = write_config(tmp_path, "cfg.json", {**config, "output_path": str(tmp_path / "out")})
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([subcommand, cfg])
    return code, err.getvalue().splitlines()


def _objects(config: dict, path=()):
    """The path of config's every JSON object, itself included."""
    yield path
    for key, value in config.items():
        if isinstance(value, dict):
            yield from _objects(value, path + (key,))


OBJECTS = [(name, path) for name, config in SHIPPED.items() for path in _objects(config)]
KNOWN_FIELDS = set(cli.COMMON) | set(cli.COLLISION) | set(cli.RANGE) | {
    key for table in cli.BATHS.values() for key in table} | {
    key for _, table in cli.SCHEMA.values() for key in table}


class TestSchema:
    """Each mode reads exactly the fields of its SCHEMA table; any other field exits 2."""

    @pytest.mark.parametrize("config, key", [
        pytest.param(_with("discrete", ("collision", "bath"), temperature=3), "temperature",
                     id="pure_ground-temperature"),
        pytest.param(_with("certify", (), tolerence=-1), "tolerence", id="tolerence"),
        pytest.param(_with("series_vs_discrete", (), tail_tool=1e-300), "tail_tool",
                     id="tail_tool"),
        pytest.param(_with("discrete", ("collision",), omgea=2), "omgea", id="omgea"),
        pytest.param(_with("series_vs_discrete", (), compare_discrete=None), "t_c",
                     id="t_c-without-compare_discrete"),
        pytest.param(_with("convergence", (), k_max=10), "k_max", id="k_max-in-convergence"),
        pytest.param(_with("sweep", (), tau_max=5.0), "tau_max", id="tau_max-in-sweep"),
        pytest.param(_with("thermal", (), tolerance=1e-9), "tolerance",
                     id="tolerance-in-thermal"),
        pytest.param(_with("thermal", ("collision", "bath"), weights=[0.7, 0.3],
                           inverse_temperature=5.0), "weights", id="mixed-thermal-bath"),
    ])
    def test_unread_field_exits_2_naming_it(self, tmp_path, config, key):
        code, lines = _run_config(tmp_path, config)
        assert code == 2
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error["code"] == 2 and repr(key) in error["message"]
        assert not (tmp_path / "out" / "results.csv").exists()

    @pytest.mark.parametrize("name", ["series_vs_discrete", "thermal"])
    @pytest.mark.parametrize("fields", [{"k_max": 0}, {"k_max": 2.5}, {"tail_tol": 0.0},
                                        {"tail_tol": -1e-8}, {"tail_tol": "1e-8"}],
                             ids=["k_max-0", "k_max-fraction", "tail_tol-0", "tail_tol-negative",
                                  "tail_tol-string"])
    def test_bad_policy_field_exits_2(self, tmp_path, name, fields):
        # the series truncates nothing, yet k_max and tail_tol are still checked
        code, lines = _run_config(tmp_path, _with(name, (), **fields))
        assert code == 2 and len(lines) == 1
        assert next(iter(fields)) in json.loads(lines[0])["error"]["message"]

    @pytest.mark.parametrize("name", ["series_vs_discrete", "thermal"])
    def test_policy_fields_change_nothing(self, tmp_path, name):
        runs = []
        for i, config in enumerate([SHIPPED[name], _with(name, (), k_max=1, tail_tol=1e30)]):
            (tmp_path / str(i)).mkdir()
            assert _run_config(tmp_path / str(i), config)[0] == 0
            runs.append((tmp_path / str(i) / "out" / "results.csv").read_bytes())
        assert runs[0] == runs[1]

    def test_every_nested_object_is_drawn(self):
        assert {path for _, path in OBJECTS} == {
            (), ("collision",), ("collision", "bath"), ("gamma_bar",), ("tau",)}

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(OBJECTS), st.text(max_size=8).filter(lambda k: k not in KNOWN_FIELDS),
           st.sampled_from([1, "x", [], {}]))
    def test_random_unknown_key_exits_2_naming_it(self, tmp_path_factory, where, key, value):
        name, path = where
        config = _with(name, path, **{key: value})
        code, lines = _run_config(tmp_path_factory.mktemp("unknown"), config)
        assert code == 2 and len(lines) == 1
        # a sweep range names its fields after the range: 'gamma_bar.count'
        named = f"{path[-1]}.{key}" if path and name == "sweep" else key
        assert json.loads(lines[0])["error"]["message"].startswith(f"unknown field {named!r};")

    def test_readme_table_lists_every_field(self):
        text = (ROOT / "README.md").read_text(encoding="utf-8")
        table = re.search(r"^(\|.*\|\n)+", text.split("### Config fields", 1)[1], re.M)
        listed = {}
        for row in table.group(0).splitlines()[2:]:  # below the header and its rule
            blocks, field = (cell.strip() for cell in row.split("|")[1:3])
            for block in blocks.split(","):
                listed.setdefault(block.strip().strip("`"), set()).add(field.strip("`"))
        tables = {"every mode": cli.COMMON, "collision": cli.COLLISION, "range": cli.RANGE,
                  **{f"bath {kind}": table for kind, table in cli.BATHS.items()},
                  **{mode: table for mode, (_, table) in cli.SCHEMA.items()}}
        assert listed == {block: set(table) for block, table in tables.items()}

    def test_benchmark_configs_are_read(self, tmp_path, monkeypatch):
        # bench/ changes only with the benchmark, so a config the schema refused would
        # otherwise show up only as a failed benchmark run
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        spec = importlib.util.spec_from_file_location("bench_workloads",
                                                      ROOT / "bench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        calls = [call for workload in workloads.WORKLOADS for seed in range(20)
                 for call in workloads.build(workload, seed)]
        assert len(calls) >= 20 * len(workloads.WORKLOADS) >= 60
        for call in calls:
            path = write_config(tmp_path, "cfg.json", call.config)
            cfg, raw = cli.load_config(
                path, default_mode="sweep" if call.subcommand == "sweep" else None)
            assert raw == call.config and call.subcommand in ("run", cfg["mode"])
