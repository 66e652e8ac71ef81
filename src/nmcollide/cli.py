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

The closed-form modes (``jc_closed_form``, ``certify``, ``sweep``) take one
gamma_bar at a time over its whole tau array: vector betas, one (n, 4, 4)
Choi stack, and one batched Hermitian eigensolve for its spectra. The
``series`` and ``thermal`` modes likewise take every Choi spectrum and every
trace distance to the discrete trajectory from one batched eigensolve.

Exit codes, each failure with a JSON error on stderr: 0 success, 2
unparseable or invalid config, 3 certification failure, 4 numerical failure
(a series that did not converge, a diverged quadrature, a provably bounded
quantity out of range, or a numpy linear-algebra or floating-point error).
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
    choi_stack_from_superops,
    lambda_series,
)
from .errors import (
    ConfigurationError,
    DivergenceError,
    InternalConsistencyError,
    TruncationError,
    ValidationError,
)
from .jaynes_cummings import beta_arrays, choi_stack, jc_hamiltonian
from .quantum import DensityOperator, trace_distances
from .tolerances import DEFAULT_TOLERANCES
from .verify import certify_cpt, convergence_study, random_density_operator

CSV_HEADER = "tau,gamma_bar,beta1,beta2,trace_distance_vs_discrete,min_choi_eig"
MODES = ("discrete", "series", "jc_closed_form", "thermal", "convergence", "certify")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CERTIFICATION = 3
EXIT_NUMERICAL = 4


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
    tau_max = float(_number(cfg.require("tau_max"), "tau_max"))
    n = _integer(cfg.require("tau_points"), "tau_points", minimum=2)
    if tau_max <= 0:
        raise ConfigurationError("need tau_max > 0")
    return np.linspace(0.0, tau_max, n)


def _gamma_list(cfg: ExperimentConfig):
    g = cfg.require("gamma_bar")
    values = [float(v) for v in _numbers(g if isinstance(g, list) else [g], "gamma_bar")]
    if min(values) < 0:
        raise ConfigurationError("gamma_bar must be nonnegative")
    return values


def _range_values(spec, name: str):
    if isinstance(spec, list):
        return [float(v) for v in _numbers(spec, name)]
    if isinstance(spec, dict):
        for key in ("start", "stop", "count"):
            if key not in spec:
                raise ConfigurationError(f"range '{name}' is missing field '{key}'")
        start, stop = (float(_number(spec[key], f"{name}.{key}")) for key in ("start", "stop"))
        return list(np.linspace(start, stop, _integer(spec["count"], f"{name}.count", minimum=1)))
    raise ConfigurationError(f"field '{name}' must be a list or a start/stop/count object")


def _number(value, name: str):
    """A finite JSON number (not a string or a boolean), else a config error."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not np.isfinite(value):
        raise ConfigurationError(f"field '{name}' must be a finite number, got {value!r}")
    return value


def _integer(value, name: str, minimum: int) -> int:
    value = _number(value, name)
    if value != int(value) or value < minimum:
        raise ConfigurationError(f"field '{name}' must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _numbers(value, name: str) -> tuple:
    if not isinstance(value, list) or not value:
        raise ConfigurationError(f"field '{name}' must be a nonempty list of numbers")
    return tuple(_number(v, name) for v in value)


def _collision_from_config(spec: dict) -> CollisionConfig:
    for key in ("t_c", "p_s", "n_steps"):
        if key not in spec:
            raise ConfigurationError(f"collision config is missing field '{key}'")
    t_c, p_s = (_number(spec[key], key) for key in ("t_c", "p_s"))
    n_steps = _integer(spec["n_steps"], "n_steps", minimum=1)
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
        n_steps=n_steps,
        bath=bath,
    )


def _probe_states(seed: int, count: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.array([random_density_operator(2, rng).data for _ in range(count)]).reshape(-1, 2, 2)


def _calibrated_gamma(collision: CollisionConfig) -> Optional[float]:
    if collision.p_s <= 0 or collision.t_c <= 0:
        return None
    return float(-np.log(collision.p_s) / collision.t_c)


# --- mode implementations ----------------------------------------------------


def _closed_form_rows(taus, g: float, b1, b2, min_eigs=()):
    rows = [{"tau": t, "gamma_bar": g, "beta1": x, "beta2": y} for t, x, y in zip(taus, b1, b2)]
    for row, e in zip(rows, min_eigs):
        row["min_choi_eig"] = e
    return rows


def _mode_jc_closed_form(cfg: ExperimentConfig):
    taus = _tau_grid(cfg)
    rows = []
    for g in _gamma_list(cfg):
        rows += _closed_form_rows(taus, g, *beta_arrays(taus, g))
    return rows, {}, None


def _mode_certify(cfg: ExperimentConfig):
    taus = _tau_grid(cfg)
    tolerance = float(_number(cfg.optional("tolerance", 1e-9), "tolerance"))
    n_probes = _integer(cfg.optional("probe_states", 3), "probe_states", minimum=0)
    probes = _probe_states(cfg.seed, n_probes)
    rows, reports, verdict, probe_defect = [], {}, True, 0.0
    for g in _gamma_list(cfg):
        b1, b2 = beta_arrays(taus, g)
        choi = choi_stack(b1, b2)
        report = certify_cpt(choi, tolerance, gamma_bar=g)
        rows += _closed_form_rows(taus, g, b1, b2, report.min_choi_eigenvalue)
        reports[g] = report.as_dict()
        verdict = verdict and report.verdict
        # ~16 evenly spaced maps on each probe: out[n,p,a,b] = sum_ij C[n,ia,jb] rho_p[i,j]
        sampled = choi[:: max(1, len(choi) // 16)].reshape(-1, 2, 2, 2, 2)
        out = np.einsum("niajb,pij->npab", sampled, probes)
        traces = np.trace(out, axis1=2, axis2=3).real
        probe_defect = max(probe_defect, float(np.max(np.abs(traces - 1.0), initial=0.0)))
    extras = {
        "cpt_report.json": {
            "tolerance": tolerance,
            "verdict": verdict,
            "per_gamma": reports,
            "max_random_state_trace_defect": probe_defect,
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
    beta2 = traj_pop.matrices[:, 1, 1].real
    beta1 = 2.0 * traj_coh.matrices[:, 0, 1].real
    rows = [
        {"tau": tau, "gamma_bar": gamma, "beta2": y, "beta1": x}
        for tau, x, y in zip(traj_pop.times, beta1, beta2)
    ]
    return rows, {}, None


# the state the series and thermal modes send through both the series and the protocol
_PROBE = DensityOperator(np.array([[0.4, 0.25 + 0.2j], [0.25 - 0.2j, 0.6]]))


def _apply_stack(superops: np.ndarray, rho: DensityOperator) -> np.ndarray:
    """Each qubit map of an (n, 4, 4) superoperator stack applied to rho, as (n, 2, 2)."""
    return (superops @ rho.data.reshape(-1)).reshape(-1, 2, 2)


def _min_choi_eigenvalues(superops: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(choi_stack_from_superops(superops, 2))[:, 0]


def _series_policy(cfg: ExperimentConfig) -> SeriesPolicy:
    return SeriesPolicy(
        k_max=_integer(cfg.optional("k_max", 200), "k_max", minimum=1),
        tail_tol=float(_number(cfg.optional("tail_tol", 1e-8), "tail_tol")),
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
        superops = result.superops()
        distances = {}
        if compare and g > 0:
            t_c = float(_number(cfg.optional("t_c", grid.dt), "t_c"))
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
            traj = run_discrete(collision, _PROBE)
            sampled = stride * np.arange(len(traj))
            applied = _apply_stack(superops[sampled], _PROBE)
            distances = dict(zip(sampled.tolist(), trace_distances(applied, traj.matrices)))
        min_eigs = _min_choi_eigenvalues(superops)
        for j, mp in enumerate(result.maps):
            row = {
                "tau": mp.time,
                "gamma_bar": g,
                "beta1": mp.superop[1, 1].real,
                "beta2": mp.superop[3, 3].real,
                "min_choi_eig": min_eigs[j],
            }
            if j in distances:
                row["trace_distance_vs_discrete"] = distances[j]
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
    traj = run_discrete_thermal(collision, _PROBE)
    superops = result.superops()
    distances = trace_distances(_apply_stack(superops, _PROBE), traj.matrices)
    rows = [
        {"tau": mp.time, "gamma_bar": gamma, "trace_distance_vs_discrete": td, "min_choi_eig": e}
        for mp, td, e in zip(result.maps, distances, _min_choi_eigenvalues(superops))
    ]
    extras = {
        "series_thermal.json": {
            "gamma_bar": gamma,
            "truncation_order": result.truncation_order,
            "tail_norm": result.tail_norm,
        }
    }
    return rows, extras, None


def _mode_convergence(cfg: ExperimentConfig):
    gamma, tau_max = (float(_number(cfg.require(key), key)) for key in ("gamma_bar", "tau_max"))
    t_c_list = [float(t) for t in _numbers(cfg.require("t_c_list"), "t_c_list")]
    report = convergence_study(gamma, tau_max, t_c_list)
    rows = [
        {"tau": t_c, "gamma_bar": gamma, "trace_distance_vs_discrete": err}
        for t_c, err in zip(report.t_c_values, report.errors)
    ]
    return rows, {"convergence_report.json": report.as_dict()}, None


def _mode_sweep(cfg: ExperimentConfig):
    gammas = _range_values(cfg.require("gamma_bar"), "gamma_bar")
    taus = np.array(_range_values(cfg.require("tau"), "tau"))
    if min(gammas) < 0 or taus.min() < 0:
        raise ConfigurationError("gamma_bar and tau must be nonnegative")
    rows = []
    for g in gammas:
        b1, b2 = beta_arrays(taus, g)
        min_eigs = np.linalg.eigvalsh(choi_stack(b1, b2))[:, 0]
        j = int(np.argmin(min_eigs))
        if min_eigs[j] < -DEFAULT_TOLERANCES.choi_positivity:
            raise InternalConsistencyError(
                f"Choi matrix is not positive semidefinite: min eigenvalue {min_eigs[j]:.3e} "
                f"at tau={taus[j]}, gamma_bar={g}"
            )
        rows += _closed_form_rows(taus, g, b1, b2, min_eigs)
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
    except (ConfigurationError, ValidationError) as exc:
        return _emit_error(EXIT_CONFIG, str(exc))
    except (TruncationError, DivergenceError, InternalConsistencyError) as exc:
        return _emit_error(EXIT_NUMERICAL, str(exc))
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        return _emit_error(EXIT_NUMERICAL, f"{type(exc).__name__}: {exc}")


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
