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

Every map family is one MapStack: the closed form's, one stack for the
whole gamma_bar x tau grid in ``sweep`` and one per gamma_bar over its
whole tau array in the tau-dense ``jc_closed_form`` and ``certify``, the
series' (``series``, ``thermal``) and the protocol's own (``discrete``).
The series and thermal modes share one comparison through ``discrete_maps``.
A collision is always jc_hamiltonian() on qubit (x) qubit, times in units
of 1/Omega; the fields ``omega``, ``system_dim`` and ``ancilla_dim`` are refused.
Each mode returns column tables, one CSV column to a sequence with None for
an empty cell. One function makes them from a stack: beta1 = S[1,1],
beta2 = S[3,3], and the minimum Choi eigenvalues of one batched eigensolve
(or of the CPT report, in ``certify``).

Exit codes, each failure with a JSON error on stderr: 0 success, 2
unparseable or invalid config (a closed-form gamma_bar or tau past the
bound where its intermediates stay finite, a collision past PHASE_BOUND or
with a rate that is not finite, or a count past MAX_POINTS, checked before
anything is allocated, included), 3 certification failure, 4 numerical
failure (a series that did not converge, a diverged quadrature, a
provably bounded quantity out of range, or a numpy linear-algebra or
floating-point error).
A run treats numpy overflow, division by zero and invalid operations as
errors rather than warnings, so stderr carries nothing but the JSON error.
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

from . import __version__
from .collisions import BathSpec, CollisionConfig
from .continuum import (
    MapStack,
    SeriesPolicy,
    TimeGrid,
    build_kernel_map,
    discrete_maps,
    lambda_series,
)
from .errors import (
    ConfigurationError,
    DivergenceError,
    InternalConsistencyError,
    TruncationError,
    ValidationError,
)
from .jaynes_cummings import jc_hamiltonian, jc_maps
from .quantum import density_stack, trace_distances
from .tolerances import DEFAULT_TOLERANCES
from .verify import (_PROBE, calibrated_swap_probability, certify_cpt, convergence_study,
                     random_density_operator)

CSV_HEADER = "tau,gamma_bar,beta1,beta2,trace_distance_vs_discrete,min_choi_eig"
CSV_COLUMNS = tuple(CSV_HEADER.split(","))
MODES = ("discrete", "series", "jc_closed_form", "thermal", "convergence", "certify")

# Point, step and probe-state counts, and the rows of a run, stay at or below
# MAX_POINTS. The series mode peaks at ~1.7 kB per point (tracemalloc, 20 001
# points), the most of any mode; the one-grid sweep at ~1.05 kB per row
# (tracemalloc, a whole 256 x 256 sweep run). POINT_BYTES rounds that up.
MEMORY_BUDGET = 2**30  # bytes
POINT_BYTES = 4096
MAX_POINTS = MEMORY_BUDGET // POINT_BYTES  # 262 144

# A phase Omega * tau is known to about tau * 2^-53: the rounding of tau itself, or of
# the step angle t_c compounded over a run. Up to PHASE_BOUND that error stays below
# 1e-8, so a collision block's last time n_steps * t_c keeps 8 decimal digits of its phase.
PHASE_BOUND = 2.0**53 * 1e-8  # ~9.007e7

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


_FMT = "{:.17g}".format


def _cells(column, n: int) -> list:
    """A column's CSV cells: 17 significant digits, empty for None or an absent column."""
    if column is None:
        return [""] * n
    return ["" if v is None else _FMT(v) for v in np.asarray(column).tolist()]


def _write_csv(path: Path, tables) -> None:
    """The rows of each column table in turn."""
    lines = [CSV_HEADER]
    for table in tables:
        n = len(table["tau"])
        lines += map(",".join, zip(*(_cells(table.get(name), n) for name in CSV_COLUMNS)))
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
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigurationError("field 'seed' must be a nonnegative integer")
    output_path = raw.get("output_path", ".")
    if not isinstance(output_path, str):
        raise ConfigurationError(f"field 'output_path' must be a string, got {output_path!r}")
    return ExperimentConfig(mode=mode, raw=raw, output_path=Path(output_path), seed=seed)


def _tau_gamma_grid(cfg: ExperimentConfig):
    """The tau grid and the gamma_bar list, checked before the grid is allocated."""
    tau_max = float(_number(cfg.require("tau_max"), "tau_max"))
    n = _count(cfg.require("tau_points"), "tau_points", minimum=2)
    if tau_max <= 0:
        raise ConfigurationError("need tau_max > 0")
    g = cfg.require("gamma_bar")
    gammas = [float(v) for v in _numbers(g if isinstance(g, list) else [g], "gamma_bar")]
    if min(gammas) < 0:
        raise ConfigurationError("gamma_bar must be nonnegative")
    _within_budget(len(gammas) * n, "the row count (gamma_bar values x tau points)")
    return np.linspace(0.0, tau_max, n), gammas


def _range_values(spec, name: str):
    if isinstance(spec, list):
        return [float(v) for v in _numbers(spec, name)]
    if isinstance(spec, dict):
        for key in ("start", "stop", "count"):
            if key not in spec:
                raise ConfigurationError(f"range '{name}' is missing field '{key}'")
        start, stop = (float(_number(spec[key], f"{name}.{key}")) for key in ("start", "stop"))
        return list(np.linspace(start, stop, _count(spec["count"], f"{name}.count", minimum=1)))
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


def _count(value, name: str, minimum: int) -> int:
    """A point, step or probe-state count: an integer from minimum to MAX_POINTS."""
    return _within_budget(_integer(value, name, minimum), f"field '{name}'")


def _within_budget(count, what: str):
    if count > MAX_POINTS:
        raise ConfigurationError(
            f"{what} = {count} exceeds {MAX_POINTS}, the point and step bound "
            f"that keeps a run within its {MEMORY_BUDGET >> 20} MiB memory budget"
        )
    return count


def _numbers(value, name: str) -> tuple:
    if not isinstance(value, list) or not value:
        raise ConfigurationError(f"field '{name}' must be a nonempty list of numbers")
    return tuple(_number(v, name) for v in value)


def _collision_from_config(spec: dict) -> CollisionConfig:
    for key in ("omega", "system_dim", "ancilla_dim"):
        if key in spec:
            raise ConfigurationError(
                f"collision field '{key}' is not accepted: the Hamiltonian is the qubit-qubit "
                "exchange coupling jc_hamiltonian(), with times in units of 1/Omega"
            )
    for key in ("t_c", "p_s", "n_steps"):
        if key not in spec:
            raise ConfigurationError(f"collision config is missing field '{key}'")
    t_c, p_s = (_number(spec[key], key) for key in ("t_c", "p_s"))
    n_steps = _count(spec["n_steps"], "n_steps", minimum=1)
    if not n_steps * t_c <= PHASE_BOUND:
        raise ConfigurationError(
            f"collision 'n_steps' * 't_c' = {n_steps * t_c:g} exceeds PHASE_BOUND = "
            f"{PHASE_BOUND:.4g}, the last time whose phase keeps 8 decimal digits"
        )
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
    return CollisionConfig(2, 2, jc_hamiltonian(), t_c=float(t_c), p_s=float(p_s),
                           n_steps=n_steps, bath=bath)


def _probe_states(seed: int, count: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.array([random_density_operator(2, rng).data for _ in range(count)]).reshape(-1, 2, 2)


def _calibrated_gamma(collision: CollisionConfig) -> Optional[float]:
    """-ln(p_s) / t_c, or None at p_s = 0 or t_c = 0; a rate past the largest double is refused."""
    if collision.p_s <= 0 or collision.t_c <= 0:
        return None
    rate = (0.0 - float(np.log(collision.p_s))) / collision.t_c  # +0.0 at p_s = 1; inf past max
    if not np.isfinite(rate):
        raise ConfigurationError(
            f"collision 't_c' = {collision.t_c!r} and 'p_s' = {collision.p_s!r} calibrate a "
            "rate -ln(p_s) / t_c that is not a finite double"
        )
    return rate


# --- mode implementations ----------------------------------------------------


def _min_choi_eigs(stack: MapStack) -> np.ndarray:
    return np.linalg.eigvalsh(stack.choi())[:, 0]


def _map_table(stack: MapStack, gamma, min_eigs) -> dict:
    """CSV columns of a qubit map stack, gamma one gamma_bar for every row or a column of them;
    the beta columns are copies, so the stack can be freed."""
    s = stack.superops
    gammas = gamma if np.ndim(gamma) else [gamma] * len(stack)
    return {"tau": stack.times, "gamma_bar": gammas, "beta1": s[:, 1, 1].real.copy(),
            "beta2": s[:, 3, 3].real.copy(), "min_choi_eig": min_eigs}


def _mode_jc_closed_form(cfg: ExperimentConfig):
    taus, gammas = _tau_gamma_grid(cfg)
    return [_map_table(jc_maps(taus, g), g, None) for g in gammas], {}, None


def _mode_certify(cfg: ExperimentConfig):
    tolerance = float(_number(cfg.optional("tolerance", 1e-9), "tolerance"))
    if not 0.0 <= tolerance <= 1e-6:
        raise ConfigurationError(f"field 'tolerance' = {tolerance!r} must lie in [0, 1e-6]: below "
                                 "0 it fails exact CPT maps, above 1e-6 it passes maps far from "
                                 "CPT (the closed form is exact to ~1e-15)")
    n_probes = _count(cfg.optional("probe_states", 3), "probe_states", minimum=0)
    taus, gammas = _tau_gamma_grid(cfg)
    probes = _probe_states(cfg.seed, n_probes)
    tables, reports, verdict, probe_defect = [], {}, True, 0.0
    for g in gammas:
        stack = jc_maps(taus, g)
        choi = stack.choi()
        report = certify_cpt(choi, tolerance, gamma_bar=g)
        tables.append(_map_table(stack, g, report.min_choi_eigenvalue))
        reports[g] = report.summary(taus)
        verdict = verdict and report.verdict
        # ~16 evenly spaced maps on each probe: out[n,p,a,b] = sum_ij C[n,ia,jb] rho_p[i,j]
        sampled = choi[:: max(1, len(choi) // 16)].reshape(-1, 2, 2, 2, 2)
        out = np.einsum("niajb,pij->npab", sampled, probes)
        traces = np.trace(out, axis1=2, axis2=3).real
        probe_defect = max(probe_defect, float(np.max(np.abs(traces - 1.0), initial=0.0)))
    report = {"tolerance": tolerance, "verdict": verdict, "per_gamma": reports,
              "max_random_state_trace_defect": probe_defect}
    return tables, {"cpt_report.json": report}, verdict


def _mode_discrete(cfg: ExperimentConfig):
    collision = _collision_from_config(cfg.require("collision", dict))
    gamma = _calibrated_gamma(collision)
    stack = discrete_maps(collision)
    return [_map_table(stack, gamma, _min_choi_eigs(stack))], {}, None


def _series_policy(cfg: ExperimentConfig) -> SeriesPolicy:
    return SeriesPolicy(
        k_max=_integer(cfg.optional("k_max", 200), "k_max", minimum=1),
        tail_tol=float(_number(cfg.optional("tail_tol", 1e-8), "tail_tol")),
    )


def _series_report(gamma: float, result) -> dict:
    return {"gamma_bar": gamma, "truncation_order": result.truncation_order,
            "tail_norm": result.tail_norm}


def _series_vs_protocol(collision: CollisionConfig, gamma: float, grid: TimeGrid,
                        policy: SeriesPolicy, stride: Optional[int]):
    """The series of the collision's H and bath and, given a stride, its trace distances on
    _PROBE from the validated discrete_maps(collision) trajectory every stride points."""
    kernel = build_kernel_map(collision.hamiltonian,
                              collision.bath.weight_vector(collision.ancilla_dim))
    result = lambda_series(kernel, gamma, grid, policy)
    if stride is None:
        return result, None
    protocol = density_stack(discrete_maps(collision).apply(_PROBE))
    distances = [None] * len(result.maps)
    distances[::stride] = trace_distances(result.maps[::stride].apply(_PROBE), protocol)
    return result, distances


def _mode_series(cfg: ExperimentConfig):
    taus, gammas = _tau_gamma_grid(cfg)
    grid = TimeGrid(t_max=float(taus[-1]), n_points=len(taus))
    policy = _series_policy(cfg)
    compare = cfg.optional("compare_discrete", False)
    if not isinstance(compare, bool):
        raise ConfigurationError(f"field 'compare_discrete' must be true or false, got {compare!r}")
    t_c = float(_number(cfg.optional("t_c", grid.dt), "t_c")) if compare else grid.dt
    stride = round(t_c / grid.dt)
    if stride < 1 or abs(stride * grid.dt - t_c) > 1e-9:
        raise ConfigurationError("t_c must be a multiple of the tau grid spacing")
    tables, extras = [], {}
    for g in gammas:
        collision = CollisionConfig(
            2, 2, jc_hamiltonian(), t_c=t_c, p_s=calibrated_swap_probability(g, t_c),
            n_steps=(len(taus) - 1) // stride, bath=BathSpec(kind="pure_ground"),
        )
        result, distances = _series_vs_protocol(collision, g, grid, policy,
                                                stride if compare and g > 0 else None)
        table = _map_table(result.maps, g, _min_choi_eigs(result.maps))
        table["trace_distance_vs_discrete"] = distances
        tables.append(table)
        extras[f"series_gamma_{g:g}.json"] = _series_report(g, result)
    return tables, extras, None


def _mode_thermal(cfg: ExperimentConfig):
    collision = _collision_from_config(cfg.require("collision", dict))
    if collision.bath.kind != "thermal":
        raise ConfigurationError("thermal mode needs a thermal bath")
    gamma = _calibrated_gamma(collision)
    if gamma is None:
        raise ConfigurationError("thermal mode needs p_s > 0 to calibrate the rate")
    grid = TimeGrid(t_max=collision.n_steps * collision.t_c, n_points=collision.n_steps + 1)
    result, distances = _series_vs_protocol(collision, gamma, grid, _series_policy(cfg), 1)
    table = {
        "tau": result.maps.times,
        "gamma_bar": [gamma] * len(result.maps),
        "trace_distance_vs_discrete": distances,
        "min_choi_eig": _min_choi_eigs(result.maps),
    }
    return [table], {"series_thermal.json": _series_report(gamma, result)}, None


def _mode_convergence(cfg: ExperimentConfig):
    gamma, tau_max = (float(_number(cfg.require(key), key)) for key in ("gamma_bar", "tau_max"))
    t_c_list = [float(t) for t in _numbers(cfg.require("t_c_list"), "t_c_list")]
    if min(t_c_list) <= 0:
        raise ConfigurationError("every entry of 't_c_list' must be positive")
    _within_budget(tau_max / min(t_c_list), "the step count tau_max / t_c")
    report = convergence_study(gamma, tau_max, t_c_list)
    table = {"tau": report.t_c_values, "gamma_bar": [gamma] * len(t_c_list),
             "trace_distance_vs_discrete": report.errors}
    return [table], {"convergence_report.json": report.as_dict()}, None


def _mode_sweep(cfg: ExperimentConfig):
    gammas = _range_values(cfg.require("gamma_bar"), "gamma_bar")
    taus = np.array(_range_values(cfg.require("tau"), "tau"))
    if min(gammas) < 0 or taus.min() < 0:
        raise ConfigurationError("gamma_bar and tau must be nonnegative")
    _within_budget(len(gammas) * len(taus), "the row count (gamma_bar values x tau points)")
    # one gamma_bar-major grid: row i * len(taus) + j is (taus[j], gammas[i])
    gamma_column = np.repeat(gammas, len(taus))
    stack = jc_maps(np.tile(taus, len(gammas)), gamma_column)
    min_eigs = _min_choi_eigs(stack)
    failing = min_eigs < -DEFAULT_TOLERANCES.choi_positivity
    if np.any(failing):
        i = int(np.argmax(failing)) // len(taus)
        own = min_eigs[i * len(taus):(i + 1) * len(taus)]
        j = int(np.argmin(own))
        raise InternalConsistencyError(
            f"Choi matrix is not positive semidefinite: min eigenvalue {own[j]:.3e} "
            f"at tau={taus[j]}, gamma_bar={gammas[i]}"
        )
    return [_map_table(stack, gamma_column, min_eigs)], {}, None


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

    tables, extras, verdict = _MODE_RUNNERS[cfg.mode](cfg)

    _write_csv(out_dir / "results.csv", tables)
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
        with np.errstate(over="raise", divide="raise", invalid="raise"):
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
