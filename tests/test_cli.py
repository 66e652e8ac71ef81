import json
from pathlib import Path

import numpy as np
import pytest

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
        assert "nmcollide" in manifest["versions"]
        assert "total_seconds" in manifest["timings"]

    def test_empty_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text("")
        assert main(["run", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert "mode" in err["error"]["message"]

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
            ({"bath": {"kind": "thermal", "energies": "ab", "inverse_temperature": 1.0}},
             "energies"),
            ({"bath": {"kind": "thermal", "energies": [0.0, 1.0], "inverse_temperature": "hot"}},
             "inverse_temperature"),
        ],
        ids=["bath-string", "n_steps-string", "n_steps-fraction", "t_c-null", "p_s-string",
             "p_s-bool", "omega-string", "energies-string", "inverse_temperature-string"],
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

    def test_series_truncation_failure_exits_4(self, tmp_path, capsys):
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
        assert main(["run", cfg]) == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == 4
        assert "residual" in err["error"]["message"]

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

        def doomed(maps, tolerance, **kwargs):
            from nmcollide.verify import certify_cpt as real

            report = real(maps, tolerance, **kwargs)
            object.__setattr__(report, "verdict", False)
            return report

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
            ("run", {"mode": "convergence", "gamma_bar": 1.0, "tau_max": 1.0,
                     "t_c_list": ["a"]}, "t_c_list"),
        ],
        ids=["tau_points-string", "gamma_bar-string", "tau_max-string", "tau_points-fraction",
             "count-string", "start-string", "gamma_bar-empty", "probe_states-string",
             "tolerance-string", "t_c_list-string"],
    )
    def test_malformed_number_exits_2(self, tmp_path, capsys, subcommand, payload, field):
        cfg = write_config(tmp_path, "cfg.json", {**payload, "output_path": str(tmp_path / "out")})
        assert main([subcommand, cfg]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == 2
        assert field in err["error"]["message"]
        assert not (tmp_path / "out" / "results.csv").exists()


class TestErrorMapping:
    @pytest.mark.parametrize(
        "error, code",
        [("ValidationError", 2), ("InternalConsistencyError", 4)],
    )
    def test_package_error_exits_with_json(self, tmp_path, capsys, monkeypatch, error, code):
        import nmcollide.cli as cli_mod
        import nmcollide.errors as errors

        def broken(taus, g):
            raise getattr(errors, error)("injected failure")

        monkeypatch.setattr(cli_mod, "beta_arrays", broken)
        cfg = write_config(
            tmp_path, "cfg.json",
            {"mode": "jc_closed_form", "gamma_bar": 1.0, "tau_max": 1.0, "tau_points": 5,
             "output_path": str(tmp_path / "out")},
        )
        assert main(["run", cfg]) == code
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == {"code": code, "message": "injected failure"}

    def test_sweep_rejects_indefinite_choi_within_beta_slack(self, tmp_path, capsys, monkeypatch):
        import nmcollide.cli as cli_mod

        # beta1^2 - beta2 = 5e-10 passes BETA_SLACK, but the Choi matrix has
        # min eigenvalue ~ -2.5e-10, below -choi_positivity
        def nearly_cp(taus, g):
            return np.full(len(taus), np.sqrt(0.999 + 5e-10)), np.full(len(taus), 0.999)

        monkeypatch.setattr(cli_mod, "beta_arrays", nearly_cp)
        cfg = write_config(
            tmp_path, "cfg.json",
            {"gamma_bar": [1.0], "tau": [0.5, 1.0], "output_path": str(tmp_path / "out")},
        )
        assert main(["sweep", cfg]) == 4
        err = json.loads(capsys.readouterr().err)
        assert "not positive semidefinite" in err["error"]["message"]

    def test_linalg_failure_exits_4(self, tmp_path, capsys):
        # gamma_bar^2 + 4 overflows in the closed form's cubic and np.roots
        # raises LinAlgError
        cfg = write_config(
            tmp_path, "cfg.json",
            {"gamma_bar": [1e200], "tau": [1.0], "output_path": str(tmp_path / "out")},
        )
        assert main(["sweep", cfg]) == 4
        stderr = capsys.readouterr().err
        assert "Traceback" not in stderr
        err = json.loads(stderr)
        assert err["error"]["code"] == 4
        assert err["error"]["message"].startswith("LinAlgError: ")

    def test_floating_point_error_exits_4(self, tmp_path, capsys, monkeypatch):
        import nmcollide.cli as cli_mod

        def overflowing(taus, g):
            raise FloatingPointError("overflow encountered")

        monkeypatch.setattr(cli_mod, "beta_arrays", overflowing)
        cfg = write_config(
            tmp_path, "cfg.json",
            {"gamma_bar": [1.0], "tau": [1.0], "output_path": str(tmp_path / "out")},
        )
        assert main(["sweep", cfg]) == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == {"code": 4, "message": "FloatingPointError: overflow encountered"}

    def test_large_rate_sweep_and_certify_exit_zero(self, tmp_path):
        sweep = write_config(
            tmp_path, "sweep.json",
            {"gamma_bar": [1e6], "tau": [19.6], "output_path": str(tmp_path / "sweep")},
        )
        assert main(["sweep", sweep]) == 0
        certify = write_config(
            tmp_path, "certify.json",
            {"mode": "certify", "gamma_bar": [1e6], "tau_max": 20.0, "tau_points": 201,
             "output_path": str(tmp_path / "certify")},
        )
        assert main(["certify", certify]) == 0


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
        from nmcollide import beta_pair, choi_of, lambda_jc_channel

        rows = self._run(tmp_path, subcommand)
        assert len(rows) == len(self.GAMMAS) * 41
        for row in rows:
            tau, gamma = float(row[0]), float(row[1])
            pair = beta_pair(tau, gamma)
            assert float(row[2]) == pair.beta1
            assert float(row[3]) == pair.beta2
            per_point = choi_of(lambda_jc_channel(tau, gamma)).min_eigenvalue()
            assert abs(float(row[5]) - per_point) < 1e-14

    def test_no_per_point_kraus_route(self, tmp_path, monkeypatch):
        # every per-point object of the old route (BetaPair, ChoiMatrix,
        # KrausChannel, hence kraus_from_choi) now raises on construction
        from nmcollide.jaynes_cummings import BetaPair
        from nmcollide.quantum import ChoiMatrix, KrausChannel

        def forbidden(self):
            raise AssertionError(f"per-point {type(self).__name__} built by the CLI")

        for cls in (BetaPair, ChoiMatrix, KrausChannel):
            monkeypatch.setattr(cls, "__post_init__", forbidden)
        for subcommand in ("certify", "sweep"):
            assert len(self._run(tmp_path, subcommand)) == len(self.GAMMAS) * 41
        cfg = write_config(
            tmp_path, "jc.json",
            {"mode": "jc_closed_form", "gamma_bar": self.GAMMAS, "tau_max": 20.0,
             "tau_points": 41, "output_path": str(tmp_path / "jc")},
        )
        assert main(["run", cfg]) == 0


class TestBatchedChoiSpectra:
    """series and thermal take min_choi_eig from one batched eigvalsh over a Choi stack."""

    CONFIGS = {
        "series": {"mode": "series", "gamma_bar": [0.0, 1.0, 4.0], "tau_max": 2.0,
                   "tau_points": 201, "compare_discrete": True, "t_c": 0.05},
        "thermal": {"mode": "thermal",
                    "collision": {"t_c": 0.05, "p_s": 0.9, "n_steps": 40,
                                  "bath": {"kind": "thermal", "energies": [0.0, 1.0],
                                           "inverse_temperature": 0.8}}},
    }

    @pytest.mark.parametrize("mode", sorted(CONFIGS))
    def test_bitwise_equal_to_per_map_choi(self, tmp_path, monkeypatch, mode):
        import nmcollide.cli as cli_mod
        from nmcollide.quantum import ChoiMatrix

        lambda_series, results = cli_mod.lambda_series, []

        def recording(*args, **kwargs):
            results.append(lambda_series(*args, **kwargs))
            return results[-1]

        def forbidden(self):
            raise AssertionError("per-map ChoiMatrix built by the CLI")

        monkeypatch.setattr(cli_mod, "lambda_series", recording)
        monkeypatch.setattr(ChoiMatrix, "__post_init__", forbidden)
        cfg = write_config(
            tmp_path, "cfg.json", {**self.CONFIGS[mode], "output_path": str(tmp_path / "out")}
        )
        assert main(["run", cfg]) == 0
        monkeypatch.undo()
        per_map = [f"{mp.choi().min_eigenvalue():.17g}" for r in results for mp in r.maps]
        assert [row[5] for row in read_rows(tmp_path / "out")] == per_map


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("config", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_shipped_config_runs_and_reruns_identically(tmp_path, config):
    mode = json.loads(config.read_text()).get("mode", "sweep")
    subcommand = mode if mode in ("sweep", "certify") else "run"
    out = tmp_path / "out"
    assert main([subcommand, str(config), "--output-dir", str(out)]) == 0
    first = (out / "results.csv").read_bytes()
    assert first.decode().split("\n", 1)[0] == CSV_HEADER
    assert main([subcommand, str(config), "--output-dir", str(out)]) == 0
    assert (out / "results.csv").read_bytes() == first
