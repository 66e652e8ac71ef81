"""Command-line front end: config parsing, orchestration, machine-readable output.

Experiments are described by a single declarative JSON config; the CLI adds
nothing beyond the config path and an optional output-directory override,
so archived configs reproduce runs exactly.

    nmcollide run <config.json>          one experiment
    nmcollide sweep <config.json>        closed-form map over parameter ranges
    nmcollide certify <config.json>      CPT certification sweep (exit 3 on failure)

Every run writes ``results.csv`` with the fixed header
``tau,gamma_bar,beta1,beta2,trace_distance_vs_discrete,min_choi_eig``
(absent columns left empty, floats printed with 17 significant digits) and
``manifest.json`` echoing the config, library versions, and timings.
Identical config and seed give byte-identical CSV output.

Exit codes: 0 success, 2 unparseable or invalid config, 3 certification
failure, 4 numerical divergence.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
import scipy

from . import __version__
from .collisions import BathSpec, CollisionConfig, run_discrete, run_discrete_thermal
from .continuum import (
    SeriesPolicy,
    TimeGrid,
    build_kernel_map,
    build_thermal_kernel_map,
    lambda_series,
)
from .errors import ConfigurationError, DivergenceError, TruncationError
from .jaynes_cummings import beta_pair, jc_hamiltonian, lambda_jc_channel
from .quantum import DensityOperator, apply_channel, choi_of, trace_distance
from .verify import certify_cpt, convergence_study, random_density_operator

CSV_HEADER = "tau,gamma_bar,beta1,beta2,trace_distance_vs_discrete,min_choi_eig"
MODES = ("discrete", "series", "jc_closed_form", "thermal", "convergence", "certify")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CERTIFICATION = 3
EXIT_DIVERGENCE = 4


@dataclass
class ExperimentConfig:
    """Validated experiment description."""

    mode: str
    raw: dict
    output_path: Path
    seed: int = 0

    def require(self, key: str, kind=None):
        if key not in self.raw:
            raise ConfigurationError(f"missing required field '{key}' for mode '{self.mode}'")
        value = self.raw[key]
        if kind is not None and not isinstance(value, kind):
            raise ConfigurationError(f"field '{key}' has the wrong type")
        return value

    def optional(self, key: str, default=None):
        return self.raw.get(key, default)


def _fmt(value) -> str:
    if value is None:
        return ""
    return f"{float(value):.17g}"


def _write_csv(path: Path, rows) -> None:
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(
            ",".join(
                _fmt(row.get(col))
                for col in ("tau", "gamma_bar", "beta1", "beta2",
                            "trace_distance_vs_discrete", "min_choi_eig")
            )
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_config(path: str, *, default_mode: Optional[str] = None) -> ExperimentConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigurationError(f"config file {path!r} does not exist")
    text = p.read_text(encoding="utf-8")
    if not text.strip():
        raise ConfigurationError("config file is empty; missing required field 'mode'")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError("config must be a JSON object")
    mode = raw.get("mode", default_mode)
    if mode is None:
        raise ConfigurationError("missing required field 'mode'")
    if mode not in MODES and mode != "sweep":
        raise ConfigurationError(f"unknown mode {mode!r}; expected one of {MODES}")
    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or seed < 0:
        raise ConfigurationError("field 'seed' must be a nonnegative integer")
    return ExperimentConfig(
        mode=mode,
        raw=raw,
        output_path=Path(raw.get("output_path", ".")),
        seed=seed,
    )


def _tau_grid(cfg: ExperimentConfig):
    tau_max = float(cfg.require("tau_max"))
    n = int(cfg.require("tau_points"))
    if tau_max <= 0 or n < 2:
        raise ConfigurationError("need tau_max > 0 and tau_points >= 2")
    return np.linspace(0.0, tau_max, n)


def _gamma_list(cfg: ExperimentConfig):
    g = cfg.require("gamma_bar")
    values = g if isinstance(g, list) else [g]
    out = []
    for v in values:
        v = float(v)
        if v < 0:
            raise ConfigurationError("gamma_bar must be nonnegative")
        out.append(v)
    return out


def _range_values(spec, name: str):
    if isinstance(spec, list):
        return [float(v) for v in spec]
    if isinstance(spec, dict):
        for key in ("start", "stop", "count"):
            if key not in spec:
                raise ConfigurationError(f"range '{name}' is missing field '{key}'")
        count = int(spec["count"])
        if count < 1:
            raise ConfigurationError(f"range '{name}' needs count >= 1")
        if count == 1:
            return [float(spec["start"])]
        return list(np.linspace(float(spec["start"]), float(spec["stop"]), count))
    raise ConfigurationError(f"field '{name}' must be a list or a start/stop/count object")


def _number(value, name: str):
    """A finite JSON number (not a string or a boolean), else a config error."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not np.isfinite(value):
        raise ConfigurationError(f"field '{name}' must be a finite number, got {value!r}")
    return value


def _numbers(value, name: str) -> tuple:
    if not isinstance(value, list) or not value:
        raise ConfigurationError(f"field '{name}' must be a nonempty list of numbers")
    return tuple(_number(v, name) for v in value)


def _collision_from_config(spec: dict) -> CollisionConfig:
    for key in ("t_c", "p_s", "n_steps"):
        if key not in spec:
            raise ConfigurationError(f"collision config is missing field '{key}'")
    t_c, p_s, n_steps = (_number(spec[key], key) for key in ("t_c", "p_s", "n_steps"))
    if n_steps != int(n_steps):
        raise ConfigurationError("field 'n_steps' must be an integer")
    bath_spec = spec.get("bath", {"kind": "pure_ground"})
    if not isinstance(bath_spec, dict):
        raise ConfigurationError("field 'bath' must be an object with a 'kind' field")
    kind = bath_spec.get("kind")
    if kind == "pure_ground":
        bath = BathSpec(kind="pure_ground")
    elif kind == "thermal":
        if "weights" in bath_spec:
            bath = BathSpec(kind="thermal", weights=_numbers(bath_spec["weights"], "weights"))
        else:
            for key in ("energies", "inverse_temperature"):
                if key not in bath_spec:
                    raise ConfigurationError(f"thermal bath is missing field '{key}'")
            bath = BathSpec(
                kind="thermal",
                energies=_numbers(bath_spec["energies"], "energies"),
                inverse_temperature=float(
                    _number(bath_spec["inverse_temperature"], "inverse_temperature")
                ),
            )
    else:
        raise ConfigurationError(f"unknown bath kind {kind!r}")
    omega = float(_number(spec.get("omega", 1.0), "omega"))
    return CollisionConfig(
        system_dim=int(_number(spec.get("system_dim", 2), "system_dim")),
        ancilla_dim=int(_number(spec.get("ancilla_dim", 2), "ancilla_dim")),
        hamiltonian=jc_hamiltonian(omega),
        t_c=float(t_c),
        p_s=float(p_s),
        n_steps=int(n_steps),
        bath=bath,
    )


def _probe_states(seed: int, count: int):
    rng = np.random.default_rng(seed)
    return [random_density_operator(2, rng) for _ in range(count)]


def _calibrated_gamma(collision: CollisionConfig) -> Optional[float]:
    if collision.p_s <= 0 or collision.t_c <= 0:
        return None
    return float(-np.log(collision.p_s) / collision.t_c)


# --- mode implementations ----------------------------------------------------


def _mode_jc_closed_form(cfg: ExperimentConfig):
    taus = _tau_grid(cfg)
    rows = []
    for g in _gamma_list(cfg):
        for tau in taus:
            pair = beta_pair(float(tau), g)
            rows.append(
                {"tau": tau, "gamma_bar": g, "beta1": pair.beta1, "beta2": pair.beta2}
            )
    return rows, {}, None


def _mode_certify(cfg: ExperimentConfig):
    taus = _tau_grid(cfg)
    tolerance = float(cfg.optional("tolerance", 1e-9))
    probes = _probe_states(cfg.seed, int(cfg.optional("probe_states", 3)))

    def one_gamma(g: float):
        rows = []
        channels = []
        for tau in taus:
            ch = lambda_jc_channel(float(tau), g)
            channels.append(ch)
            pair = beta_pair(float(tau), g)
            rows.append(
                {
                    "tau": tau,
                    "gamma_bar": g,
                    "beta1": pair.beta1,
                    "beta2": pair.beta2,
                    "min_choi_eig": choi_of(ch).min_eigenvalue(),
                }
            )
        report = certify_cpt(channels, tolerance, gamma_bar=g)
        probe_defect = 0.0
        for ch in channels[:: max(1, len(channels) // 16)]:
            for rho in probes:
                out = apply_channel(ch, rho)
                probe_defect = max(probe_defect, abs(float(np.trace(out.data).real) - 1.0))
        return rows, report, probe_defect

    gammas = _gamma_list(cfg)
    results = [one_gamma(g) for g in gammas]
    rows = [row for chunk, _, _ in results for row in chunk]
    reports = {g: rep.as_dict() for g, (_, rep, _) in zip(gammas, results)}
    verdict = all(rep[1].verdict for rep in results)
    extras = {
        "cpt_report.json": {
            "tolerance": tolerance,
            "verdict": verdict,
            "per_gamma": reports,
            "max_random_state_trace_defect": max(r[2] for r in results),
        }
    }
    return rows, extras, verdict


def _mode_discrete(cfg: ExperimentConfig):
    collision = _collision_from_config(cfg.require("collision", dict))
    if collision.system_dim != 2:
        raise ConfigurationError("beta extraction requires a qubit system")
    excited = DensityOperator.basis(2, 1)
    plus = DensityOperator(np.full((2, 2), 0.5))
    runner = run_discrete_thermal if collision.bath.kind == "thermal" else run_discrete
    traj_pop = runner(collision, excited)
    traj_coh = runner(collision, plus)
    gamma = _calibrated_gamma(collision)
    rows = []
    for n, tau in enumerate(traj_pop.times):
        rows.append(
            {
                "tau": tau,
                "gamma_bar": gamma,
                "beta2": traj_pop.states[n].data[1, 1].real,
                "beta1": 2.0 * traj_coh.states[n].data[0, 1].real,
            }
        )
    return rows, {}, None


def _series_policy(cfg: ExperimentConfig) -> SeriesPolicy:
    return SeriesPolicy(
        k_max=int(cfg.optional("k_max", 200)),
        tail_tol=float(cfg.optional("tail_tol", 1e-8)),
    )


def _mode_series(cfg: ExperimentConfig):
    taus = _tau_grid(cfg)
    grid = TimeGrid(t_max=float(taus[-1]), n_points=len(taus))
    kernel = build_kernel_map(jc_hamiltonian())
    policy = _series_policy(cfg)
    compare = bool(cfg.optional("compare_discrete", False))
    rows = []
    extras = {}
    for g in _gamma_list(cfg):
        result = lambda_series(kernel, g, grid, policy)
        discrete_states = None
        if compare and g > 0:
            t_c = float(cfg.optional("t_c", grid.dt))
            stride = round(t_c / grid.dt)
            if stride < 1 or abs(stride * grid.dt - t_c) > 1e-9:
                raise ConfigurationError("t_c must be a multiple of the tau grid spacing")
            collision = CollisionConfig(
                system_dim=2,
                ancilla_dim=2,
                hamiltonian=jc_hamiltonian(),
                t_c=t_c,
                p_s=float(np.exp(-g * t_c)),
                n_steps=(len(taus) - 1) // stride,
                bath=BathSpec(kind="pure_ground"),
            )
            probe = DensityOperator(np.array([[0.4, 0.25 + 0.2j], [0.25 - 0.2j, 0.6]]))
            traj = run_discrete(collision, probe)
            discrete_states = {round(stride * i): (traj.states[i], probe) for i in range(len(traj))}
        for j, mp in enumerate(result.maps):
            row = {
                "tau": mp.time,
                "gamma_bar": g,
                "beta1": mp.superop[1, 1].real,
                "beta2": mp.superop[3, 3].real,
                "min_choi_eig": mp.choi().min_eigenvalue(),
            }
            if discrete_states and j in discrete_states:
                state, probe = discrete_states[j]
                row["trace_distance_vs_discrete"] = trace_distance(mp.apply(probe), state)
            rows.append(row)
        extras[f"series_gamma_{g:g}.json"] = {
            "gamma_bar": g,
            "truncation_order": result.truncation_order,
            "tail_norm": result.tail_norm,
        }
    return rows, extras, None


def _mode_thermal(cfg: ExperimentConfig):
    collision = _collision_from_config(cfg.require("collision", dict))
    if collision.bath.kind != "thermal":
        raise ConfigurationError("thermal mode needs a thermal bath")
    gamma = _calibrated_gamma(collision)
    if gamma is None:
        raise ConfigurationError("thermal mode needs p_s > 0 to calibrate the rate")
    kernel = build_thermal_kernel_map(
        jc_hamiltonian(),
        energies=collision.bath.energies,
        inverse_temperature=collision.bath.inverse_temperature,
        weights=collision.bath.weights,
        ancilla_dim=collision.ancilla_dim,
    )
    grid = TimeGrid(
        t_max=collision.n_steps * collision.t_c, n_points=collision.n_steps + 1
    )
    result = lambda_series(kernel, gamma, grid, _series_policy(cfg))
    probe = DensityOperator(np.array([[0.4, 0.25 + 0.2j], [0.25 - 0.2j, 0.6]]))
    traj = run_discrete_thermal(collision, probe)
    rows = []
    for mp, state in zip(result.maps, traj.states):
        rows.append(
            {
                "tau": mp.time,
                "gamma_bar": gamma,
                "trace_distance_vs_discrete": trace_distance(mp.apply(probe), state),
                "min_choi_eig": mp.choi().min_eigenvalue(),
            }
        )
    extras = {
        "series_thermal.json": {
            "gamma_bar": gamma,
            "truncation_order": result.truncation_order,
            "tail_norm": result.tail_norm,
        }
    }
    return rows, extras, None


def _mode_convergence(cfg: ExperimentConfig):
    gamma = float(cfg.require("gamma_bar"))
    tau_max = float(cfg.require("tau_max"))
    t_c_list = cfg.require("t_c_list", list)
    report = convergence_study(gamma, tau_max, [float(t) for t in t_c_list])
    rows = [
        {"tau": t_c, "gamma_bar": gamma, "trace_distance_vs_discrete": err}
        for t_c, err in zip(report.t_c_values, report.errors)
    ]
    return rows, {"convergence_report.json": report.as_dict()}, None


def _mode_sweep(cfg: ExperimentConfig):
    gammas = _range_values(cfg.require("gamma_bar"), "gamma_bar")
    taus = _range_values(cfg.require("tau"), "tau")
    for g in gammas:
        if g < 0:
            raise ConfigurationError("gamma_bar must be nonnegative")
    if any(t < 0 for t in taus):
        raise ConfigurationError("tau must be nonnegative")

    rows = []
    for g in gammas:
        for tau in taus:
            pair = beta_pair(float(tau), float(g))
            ch = lambda_jc_channel(float(tau), float(g))
            rows.append(
                {
                    "tau": tau,
                    "gamma_bar": g,
                    "beta1": pair.beta1,
                    "beta2": pair.beta2,
                    "min_choi_eig": choi_of(ch).min_eigenvalue(),
                }
            )
    return rows, {}, None


# --- orchestration -----------------------------------------------------------


def _emit_error(code: int, message: str, **details) -> int:
    payload = {"error": {"code": code, "message": message, **details}}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return code


_MODE_RUNNERS = {
    "jc_closed_form": _mode_jc_closed_form,
    "certify": _mode_certify,
    "discrete": _mode_discrete,
    "series": _mode_series,
    "thermal": _mode_thermal,
    "convergence": _mode_convergence,
    "sweep": _mode_sweep,
}


def _execute(cfg: ExperimentConfig, output_dir: Optional[str]) -> int:
    started = time.perf_counter()
    out_dir = Path(output_dir) if output_dir else cfg.output_path
    out_dir.mkdir(parents=True, exist_ok=True)

    rows, extras, verdict = _MODE_RUNNERS[cfg.mode](cfg)

    _write_csv(out_dir / "results.csv", rows)
    outputs = ["results.csv"]
    for name, payload in extras.items():
        (out_dir / name).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        outputs.append(name)

    manifest = {
        "config": cfg.raw,
        "mode": cfg.mode,
        "seed": cfg.seed,
        "outputs": sorted(outputs),
        "versions": {
            "nmcollide": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
        "timings": {"total_seconds": time.perf_counter() - started},
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    if verdict is False:
        return _emit_error(
            EXIT_CERTIFICATION,
            "CPT certification failed",
            report=str(out_dir / "cpt_report.json"),
        )
    return EXIT_OK


def _dispatch(subcommand: str, config_path: str, output_dir: Optional[str]) -> int:
    try:
        if subcommand == "sweep":
            cfg = load_config(config_path, default_mode="sweep")
            if cfg.mode != "sweep":
                raise ConfigurationError(
                    "the sweep subcommand needs a config without a mode field "
                    "(or with mode 'sweep') and range fields 'gamma_bar' and 'tau'"
                )
        else:
            cfg = load_config(config_path)
            if cfg.mode == "sweep":
                raise ConfigurationError("mode 'sweep' runs through the sweep subcommand")
            if subcommand == "certify" and cfg.mode != "certify":
                raise ConfigurationError(
                    "the certify subcommand needs a config with mode 'certify'"
                )
        return _execute(cfg, output_dir)
    except ConfigurationError as exc:
        return _emit_error(EXIT_CONFIG, str(exc))
    except (TruncationError, DivergenceError) as exc:
        return _emit_error(EXIT_DIVERGENCE, str(exc))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nmcollide",
        description="Collision-model simulator for non-Markovian qubit dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("run", "run one experiment from a config file"),
        ("sweep", "evaluate the closed-form map over parameter ranges"),
        ("certify", "run a CPT certification sweep (exit 3 on failure)"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("config", help="path to the JSON experiment config")
        p.add_argument("--output-dir", default=None, help="override the config output path")
    args = parser.parse_args(argv)
    return _dispatch(args.command, args.config, args.output_dir)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
