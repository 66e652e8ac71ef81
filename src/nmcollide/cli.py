"""Command-line front end: config parsing, orchestration, machine-readable output.

Experiments are described by a single declarative JSON config; the CLI adds
nothing beyond the config path and an optional output-directory override,
so archived configs reproduce runs exactly. One table, ``SCHEMA``, gives
each mode's runner and the fields it reads, each with its reader and its
default; nested tables do the same for a collision block, each bath kind
and a sweep range. A config is read in full, and any field its table lacks
refused, before a mode runs.

    nmcollide run <config.json>          one experiment
    nmcollide sweep <config.json>        closed-form map over parameter ranges
    nmcollide certify <config.json>      CPT certification sweep (exit 3 on failure)

Every run writes ``results.csv`` with the fixed header
``tau,gamma_bar,beta1,beta2,trace_distance_vs_discrete,min_choi_eig``
(absent columns left empty, floats printed with 17 significant digits) and
``manifest.json`` echoing the config, library versions, and timings: the mode runner's
(``run_seconds``), the writing of ``results.csv`` and the JSON reports' (``write_seconds``) and
the whole run's (``total_seconds``).
Identical config and seed give byte-identical CSV output.

Every map family is one MapStack: the closed form's, one stack for the
whole gamma_bar-major gamma_bar x tau grid in every closed-form mode
(``sweep``, ``jc_closed_form``, and ``certify``, which certifies it one
gamma_bar slice at a time), the continuum maps Tr_A e^{L t}(rho (x) rho_A)
of the collision's generator
L = -i[H, .] + gamma_bar (R - 1) (``series``, ``thermal``), and the
protocol's own (``discrete``). Both come from the engine's two map routes:
the continuum maps from ``Window.lambda_embedding``, one exact step e^{L dt}
stepped through the engine's window loop, and the protocol's from
``Window.discrete_maps`` (``collisions.discrete_maps`` in the discrete mode).
A run builds one ``collisions.Window`` of its H and bath, and steps every
route in it: the series mode one for all its gamma_bar values, each
compared with the protocol when asked (gamma_bar = 0 too), and the thermal
mode one for both routes, in one comparison that the two modes share. The
convolution series, the paper's form of the
continuum maps, is ``continuum.lambda_series``: no mode runs it, and the
CLI does not import it.
A collision is always jc_hamiltonian() on qubit (x) qubit, times in units
of 1/Omega, so ``omega``, ``system_dim`` and ``ancilla_dim`` are not fields.
Each mode returns its rows as one (n, 6) float array in CSV column order,
NaN marking an empty cell. Two functions make every row: ``_rows`` stacks
the columns it is given, and ``_map_rows`` reads a stack's beta1 = S[1,1]
and beta2 = S[3,3] beside the minimum Choi eigenvalues it is given. The CLI
solves no spectrum itself: every Choi spectrum and trace defect comes from
one ``verify.certify_cpt`` call per stack (per gamma_bar slice of the grid
in ``certify``), every probe distance from
``verify.probe_distances``, and certify's probe-state trace defect from
``verify.probe_trace_defect``. Each mode that builds maps (all but
``jc_closed_form`` and ``convergence``) returns its certify_cpt reports, each
with the gamma_bar and tau of its maps, and ``_execute`` judges them once,
after writing every output, at the run's tolerance: certify's ``tolerance``,
else ``tolerances.CPT_TOLERANCE``.

Exit codes, each failure with a JSON error on stderr: 0 success, 2 a
command line the parser refuses (``--help`` still exits 0), an unreadable,
unparseable or invalid config, or an output directory that is empty or
cannot be created (an unknown field at any level, named with the accepted
fields, every missing required field, a number that no finite double holds
(an integer included), a closed-form gamma_bar or tau past the bound where
its intermediates stay finite, a collision, tau_max or sweep tau
past PHASE_BOUND, a collision with a rate that is not finite, a thermal bath
whose energies or weights do not list two numbers, a convergence gamma_bar
below 0 or tau_max not above 0, two series gamma_bar values that name one
report file, two equal certify gamma_bar values, which would share one
cpt_report.json entry, or a count past MAX_POINTS, checked before anything is
allocated, included), 3 a map of a certifying mode that fails the run's CPT
verdict (the error names the mode, and the gamma_bar, tau, minimum Choi
eigenvalue and trace defect of the map farthest from CPT), 4 numerical
failure (a provably bounded quantity out of range, computed states that
fail validation, or a numpy linear-algebra or floating-point error, such
as a series gamma_bar times its step past the largest double; every finite
product runs).
A run, the reading of its config included, treats numpy overflow, division
by zero and invalid operations as errors rather than warnings, so stderr
carries nothing but the JSON error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import partial
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .collisions import (BathSpec, CollisionConfig, MapStack, TimeGrid, Window, _whole_steps,
                         discrete_maps)
from .errors import ConfigurationError, InternalConsistencyError, ValidationError
from .jaynes_cummings import jc_hamiltonian, jc_maps
from .tolerances import CPT_TOLERANCE
from .verify import (calibrated_swap_probability, certify_cpt, convergence_study,
                     probe_distances, probe_trace_defect, random_density_stack)

CSV_HEADER = "tau,gamma_bar,beta1,beta2,trace_distance_vs_discrete,min_choi_eig"
CSV_COLUMNS = tuple(CSV_HEADER.split(","))

# Point, step and probe-state counts, and the rows of a run, stay at or below
# MAX_POINTS. The series mode compared with the protocol at every point, and the thermal mode,
# peak at ~0.86 kB per point (tracemalloc, 20 001 points), the most of any mode; the one-grid
# sweep at ~0.79 kB per row (tracemalloc, a whole 256 x 256 sweep run), and certify's one grid
# at ~0.80 kB per row (tracemalloc, a whole certify run of MAX_POINTS rows as 1 x 262 144;
# 0.51-0.54 kB as 4, 64 or 512 gamma_bar values). POINT_BYTES rounds that up.
MEMORY_BUDGET = 2**30  # bytes
POINT_BYTES = 4096
MAX_POINTS = MEMORY_BUDGET // POINT_BYTES  # 262 144

# A phase Omega * tau is known to about tau * 2^-53: the rounding of tau itself, or of
# the step angle t_c compounded over a run. The continuum maps take up to ~3 times that: one
# long step of collisions._expm rounds its angle once more in each squaring. A factor 4 covers
# both, so up to PHASE_BOUND the error stays below 1e-8, and a last time (a collision block's
# n_steps * t_c, or a tau_max) keeps 8 decimal digits of its phase. At the bound, a one-step
# series (tau_points = 2) writes min_choi_eig = -1.1e-9, just below CPT_TOLERANCE: the phase
# holds, but the run's CPT verdict refuses those maps, and the run exits 3 after writing them.
PHASE_BOUND = 2.0**51 * 1e-8  # ~2.252e7

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CERTIFICATION = 3
EXIT_NUMERICAL = 4

# "%.17g" prints any double so that it reads back to the same bits. Most cells repeat: tau across
# every gamma_bar block, gamma_bar within one, the empty cells and rounding-level Choi eigenvalues.
# So each column is formatted once per distinct bit pattern, and its cells are gathered from that
# table; the bench workloads closed_form_grid and continuum_series format 35 % and 41 % of their
# cells. Bits, not values, keep -0.0 printing "-0" beside a 0. NaN marks an empty cell, written "",
# because no computed column brings one to a row: beta_arrays counts NaN as a violation, the
# spectra of certify_cpt and probe_distances (quantum.hermitian_spectra) refuse a NaN or an
# infinite entry, a run sits under np.errstate(invalid="raise"), and the config readers refuse
# non-finite numbers.


def _write_csv(path: Path, rows: np.ndarray) -> None:
    """The header, then one line per row of the (n, 6) float array rows, NaN cells left empty."""
    columns = []
    for column in rows.T:
        bits, index = np.unique(column.view(np.int64), return_inverse=True)
        values = bits.view(np.float64)
        text = np.array(list(map("%.17g".__mod__, values.tolist())), dtype=object)
        text[np.isnan(values)] = ""
        columns.append(text[index].tolist())
    lines = [CSV_HEADER, *map(",".join, zip(*columns))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _rows(tau, gamma, beta1=np.nan, beta2=np.nan, distance=np.nan, min_eig=np.nan) -> np.ndarray:
    """CSV rows from columns and scalars broadcast against each other; NaN is an empty cell."""
    return np.column_stack(np.broadcast_arrays(tau, gamma, beta1, beta2, distance, min_eig))


def _map_rows(stack: MapStack, gamma, min_eigs=np.nan, distances=np.nan) -> np.ndarray:
    """CSV rows of a qubit map stack: beta1 = S[1,1] and beta2 = S[3,3] at each of its times."""
    s = stack.superops
    return _rows(stack.times, gamma, s[:, 1, 1].real, s[:, 3, 3].real, distances, min_eigs)


# --- config reading ----------------------------------------------------------

REQUIRED = object()  # the default of a field that a config must give


def _fields(raw: dict, table: dict, prefix: str = "") -> dict:
    """Every field of table, read from the JSON object raw or set to its default; each field is
    named prefix + key. The first key of raw that table lacks is refused, naming the accepted
    fields, and so are the required fields that raw lacks, every one of them named."""
    for key in raw:
        if key not in table:
            raise ConfigurationError(
                f"unknown field {prefix + key!r}; accepted fields: {', '.join(table)}")
    missing = [prefix + key for key, (_, default) in table.items()
               if default is REQUIRED and key not in raw]
    if missing:
        raise ConfigurationError(f"missing required field(s) {', '.join(map(repr, missing))}")
    return {key: reader(raw[key], prefix + key) if key in raw else default
            for key, (reader, default) in table.items()}


def _tag(raw: dict, key: str, tables: dict, default: Optional[str] = None) -> str:
    """The field of raw that picks its table among tables (default where raw lacks it)."""
    tag = raw.get(key, default)
    if tag is None:
        raise ConfigurationError(f"missing required field {key!r}")
    if not isinstance(tag, str) or tag not in tables:
        raise ConfigurationError(f"field {key!r} must be one of {', '.join(tables)}, got {tag!r}")
    return tag


def load_config(path: str, *, default_mode: Optional[str] = None) -> tuple:
    """(fields, raw): the fields of a JSON config file as its mode's SCHEMA table reads them,
    and the parsed JSON itself, which the manifest echoes."""
    p = Path(path)
    if not p.exists():
        raise ConfigurationError(f"config file {path!r} does not exist")
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:  # a directory, say, or bytes that are not UTF-8
        raise ConfigurationError(f"config file {path!r} cannot be read: {exc}") from exc
    if not text.strip():
        raise ConfigurationError("config file is empty; missing required field 'mode'")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
    except ValueError as exc:  # an integer with more digits than Python converts from text
        raise ConfigurationError("config holds an integer too long to read") from exc
    except RecursionError as exc:  # each nested array or object takes one interpreter frame
        raise ConfigurationError(f"config nests too deeply to parse: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError("config must be a JSON object")
    mode = _tag(raw, "mode", SCHEMA, default_mode)
    return {**_fields(raw, {**COMMON, **SCHEMA[mode][1]}), "mode": mode}, raw


def _number(value, name: str):
    """A JSON number that a finite double holds (not a string, a boolean or an integer past the
    largest double), else a config error. The comparison is exact for an integer of any size."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):  # a NaN fails too
        raise ConfigurationError(f"field '{name}' must be a finite number within the range of a "
                                 f"double, got {value!r}")
    return value


def _float(value, name: str) -> float:
    return float(_number(value, name))


def _positive(value, name: str) -> float:
    if not _float(value, name) > 0:
        raise ConfigurationError(f"field '{name}' must be positive, got {value!r}")
    return float(value)


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
            f"{what} = {count:g} exceeds {MAX_POINTS}, the point and step bound "
            f"that keeps a run within its {MEMORY_BUDGET >> 20} MiB memory budget"
        )
    return count


def _within_phase_bound(last_time: float, what: str) -> None:
    if not last_time <= PHASE_BOUND:
        raise ConfigurationError(
            f"{what} = {last_time:g} exceeds PHASE_BOUND = {PHASE_BOUND:.4g}, the last time "
            "whose phase keeps 8 decimal digits"
        )


def _numbers(value, name: str) -> tuple:
    if not isinstance(value, list) or not value:
        raise ConfigurationError(f"field '{name}' must be a nonempty list of numbers")
    return tuple(_number(v, name) for v in value)


def _qubit_levels(value, name: str) -> tuple:
    """One number per level of a bath ancilla, which in the CLI is always a qubit."""
    numbers = _numbers(value, name)
    if len(numbers) != 2:
        raise ConfigurationError(f"field '{name}' must list 2 numbers, one per level of the "
                                 f"qubit ancilla, got {len(numbers)}")
    return numbers


def _floats(value, name: str) -> list:
    return [float(v) for v in _numbers(value, name)]


def _gammas(value, name: str) -> list:
    """One gamma_bar or a list of them."""
    return _floats(value if isinstance(value, list) else [value], name)


def _flag(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigurationError(f"field '{name}' must be true or false, got {value!r}")
    return value


def _string(value, name: str) -> str:
    if not isinstance(value, str):
        raise ConfigurationError(f"field '{name}' must be a string, got {value!r}")
    return value


def _seed(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ConfigurationError(f"field '{name}' must be a nonnegative integer")
    return value


def _range(value, name: str) -> list:
    """A sweep range: a list of numbers, or a RANGE object of evenly spaced ones."""
    if isinstance(value, list):
        return _floats(value, name)
    if isinstance(value, dict):
        spec = _fields(value, RANGE, f"{name}.")
        if not np.isfinite(spec["stop"] - spec["start"]):  # Python floats: inf, no warning
            raise ConfigurationError(f"field '{name}' spans {spec['start']!r} to {spec['stop']!r}, "
                                     "a width that is not a finite double")
        return list(np.linspace(spec["start"], spec["stop"], spec["count"]))
    raise ConfigurationError(f"field '{name}' must be a list or a start/stop/count object")


def _bath(value, name: str) -> BathSpec:
    """A bath block, read by the BATHS table of its kind."""
    if not isinstance(value, dict):
        raise ConfigurationError(f"field '{name}' must be an object with a 'kind' field")
    return BathSpec(**_fields(value, BATHS[_tag(value, "kind", BATHS)]))


def _collision(value, name: str) -> CollisionConfig:
    """A collision block: jc_hamiltonian() on qubit (x) qubit, its last time within PHASE_BOUND."""
    if not isinstance(value, dict):
        raise ConfigurationError(f"field '{name}' must be an object")
    spec = _fields(value, COLLISION)
    _within_phase_bound(spec["n_steps"] * spec["t_c"], "collision 'n_steps' * 't_c'")
    return CollisionConfig(2, 2, jc_hamiltonian(), **spec)


def _tau_gamma_grid(cfg: dict):
    """The tau grid and the gamma_bar list, checked before the grid is allocated."""
    n, gammas = cfg["tau_points"], cfg["gamma_bar"]
    if cfg["tau_max"] <= 0:
        raise ConfigurationError("need tau_max > 0")
    _within_phase_bound(cfg["tau_max"], "field 'tau_max'")
    if min(gammas) < 0:
        raise ConfigurationError("gamma_bar must be nonnegative")
    _within_budget(len(gammas) * n, "the row count (gamma_bar values x tau points)")
    return np.linspace(0.0, cfg["tau_max"], n), gammas


def _one_report_each(gammas, keys, what: str) -> None:
    """Refuse two gamma_bar values whose keys are equal: each key names one report, which would
    hold only the later value's. The error names the key, both values and both entries."""
    first = {}
    for i, key in enumerate(keys):
        j = first.setdefault(key, i)
        if j < i:
            raise ConfigurationError(f"gamma_bar values {gammas[j]!r} and {gammas[i]!r} both name "
                                     f"{what} {key!r} (entries {j} and {i} of 'gamma_bar')")


def _calibrated_gamma(collision: CollisionConfig) -> float:
    """-ln(p_s) / t_c, or NaN at p_s = 0 or t_c = 0; a rate past the largest double is refused."""
    if collision.p_s <= 0 or collision.t_c <= 0:
        return np.nan
    rate = (0.0 - float(np.log(collision.p_s))) / collision.t_c  # +0.0 at p_s = 1; inf past max
    if not np.isfinite(rate):
        raise ConfigurationError(
            f"collision 't_c' = {collision.t_c!r} and 'p_s' = {collision.p_s!r} calibrate a "
            "rate -ln(p_s) / t_c that is not a finite double"
        )
    return rate


# --- mode implementations ----------------------------------------------------


def _closed_form_grid(taus: np.ndarray, gammas) -> tuple:
    """(stack, gamma_column): the closed-form maps of one gamma_bar-major grid, whose row
    i * len(taus) + j is (taus[j], gammas[i]), and the grid's gamma_bar column."""
    gamma_column = np.repeat(gammas, len(taus))
    return jc_maps(np.tile(taus, len(gammas)), gamma_column), gamma_column


def _mode_jc_closed_form(cfg: dict):
    stack, gamma_column = _closed_form_grid(*_tau_gamma_grid(cfg))
    return _map_rows(stack, gamma_column), {}, []


def _mode_certify(cfg: dict):
    tolerance = cfg["tolerance"]
    if not 0.0 <= tolerance <= 1e-6:
        raise ConfigurationError(f"field 'tolerance' = {tolerance!r} must lie in [0, 1e-6]: below "
                                 "0 it fails exact CPT maps, above 1e-6 it passes maps far from "
                                 "CPT (the closed form is exact to ~1e-15)")
    taus, gammas = _tau_gamma_grid(cfg)
    _one_report_each(gammas, gammas, "the cpt_report.json entry")
    grid, gamma_column = _closed_form_grid(taus, gammas)
    probes = random_density_stack(2, cfg["probe_states"], np.random.default_rng(cfg["seed"]))
    n, reports, summaries, probe_defect = len(taus), [], {}, 0.0
    for i, g in enumerate(gammas):
        # one gamma_bar's slice, a view of the grid: the Choi temporaries stay that size
        stack = grid[i * n:(i + 1) * n]
        report = certify_cpt(stack, tolerance)
        reports.append((g, taus, report))
        summaries[g] = {"gamma_bar": g, **report.summary(taus)}
        probe_defect = max(probe_defect, probe_trace_defect(stack, probes))
    rows = _map_rows(grid, gamma_column,
                     np.concatenate([r.min_choi_eigenvalue for _, _, r in reports]))
    cpt_report = {"tolerance": tolerance, "per_gamma": summaries,
                  "verdict": all(s["verdict"] for s in summaries.values()),
                  "max_random_state_trace_defect": probe_defect}
    return rows, {"cpt_report.json": cpt_report}, reports


def _mode_discrete(cfg: dict):
    collision = cfg["collision"]
    gamma = _calibrated_gamma(collision)  # refuses an overflowing rate before the protocol runs
    stack = discrete_maps(collision)
    report = certify_cpt(stack)
    rows = _map_rows(stack, gamma, report.min_choi_eigenvalue)
    return rows, {}, [(gamma, rows[:, 0], report)]


def _series_vs_protocol(window: Window, gamma: float, grid: TimeGrid, protocol: Optional[tuple]):
    """The rows, the series JSON (gamma_bar and the largest trace defect) and the certify_cpt
    report of the continuum maps Tr_A e^{L t} in the window (``Window.lambda_embedding``), the
    first two read from the third. The distance column is NaN, or given protocol =
    (t_c, p_s, stride), ``probe_distances`` from the protocol's maps at t_c and p_s in the same
    window (``Window.discrete_maps``) at every stride-th point. The maps do not outlive the call,
    so no caller holds one gamma_bar's maps while the next is built."""
    maps = window.lambda_embedding(gamma, grid)
    report = certify_cpt(maps)
    distances = np.full(len(maps), np.nan)
    if protocol is not None:
        t_c, p_s, stride = protocol
        distances[::stride] = probe_distances(
            maps[::stride], window.discrete_maps(t_c, p_s, (len(maps) - 1) // stride))
    series = {"gamma_bar": gamma, "max_trace_defect": float(report.max_trace_defect.max())}
    return _map_rows(maps, gamma, report.min_choi_eigenvalue, distances), series, report


def _mode_series(cfg: dict):
    taus, gammas = _tau_gamma_grid(cfg)
    grid = TimeGrid(t_max=float(taus[-1]), n_points=len(taus))
    compare = cfg["compare_discrete"]
    if cfg["t_c"] is not None and not compare:
        raise ConfigurationError("field 't_c' is the collision time of the discrete comparison; "
                                 "it needs 'compare_discrete': true")
    t_c = grid.dt if cfg["t_c"] is None else cfg["t_c"]
    stride = _whole_steps(t_c, grid.dt, "field 't_c'",
                          "the tau grid spacing tau_max / (tau_points - 1)")
    names = [f"series_gamma_{g:g}.json" for g in gammas]
    _one_report_each(gammas, names, "the report")
    if stride > len(taus) - 1:
        raise ConfigurationError(f"field 't_c' = {t_c!r} exceeds 'tau_max' = {cfg['tau_max']!r}: "
                                 "the discrete comparison needs at least one step")
    window = Window(jc_hamiltonian(), (1.0, 0.0))  # the pure bath, one window for every gamma_bar
    rows, extras, reports = [], {}, []
    for g, name in zip(gammas, names):
        protocol = (t_c, calibrated_swap_probability(g, t_c), stride) if compare else None
        series_rows, extras[name], report = _series_vs_protocol(window, g, grid, protocol)
        rows.append(series_rows)
        reports.append((g, taus, report))  # grid.times() is taus, bit for bit
    return np.concatenate(rows), extras, reports


def _mode_thermal(cfg: dict):
    collision = cfg["collision"]
    if collision.bath.kind != "thermal":
        raise ConfigurationError("thermal mode needs a thermal bath")
    gamma = _calibrated_gamma(collision)
    if np.isnan(gamma):
        raise ConfigurationError("thermal mode needs p_s > 0 and t_c > 0 to calibrate the rate")
    grid = TimeGrid(t_max=collision.n_steps * collision.t_c, n_points=collision.n_steps + 1)
    window = Window(collision.hamiltonian, collision.bath.weight_vector(collision.ancilla_dim))
    rows, series, report = _series_vs_protocol(window, gamma, grid,
                                               (collision.t_c, collision.p_s, 1))
    rows[:, 2:4] = np.nan  # thermal rows leave beta1 and beta2 empty
    return rows, {"series_thermal.json": series}, [(gamma, rows[:, 0], report)]


def _mode_convergence(cfg: dict):
    gamma, tau_max, t_c_list = cfg["gamma_bar"], cfg["tau_max"], cfg["t_c_list"]
    if gamma < 0:
        raise ConfigurationError(f"field 'gamma_bar' = {gamma!r} must be nonnegative")
    if tau_max <= 0:
        raise ConfigurationError(f"field 'tau_max' = {tau_max!r} must be positive")
    _within_phase_bound(tau_max, "field 'tau_max'")
    steps = _whole_steps(tau_max, min(t_c_list), "field 'tau_max'",
                         "the smallest entry of 't_c_list'")
    _within_budget(steps, "the step count tau_max / t_c")
    report = convergence_study(gamma, tau_max, t_c_list)
    rows = _rows(report.t_c_values, gamma, distance=report.errors)
    return rows, {"convergence_report.json": report.as_dict()}, []


def _mode_sweep(cfg: dict):
    gammas, taus = cfg["gamma_bar"], np.array(cfg["tau"])
    if min(gammas) < 0 or taus.min() < 0:
        raise ConfigurationError("gamma_bar and tau must be nonnegative")
    _within_phase_bound(taus.max(), "the largest value of field 'tau'")
    _within_budget(len(gammas) * len(taus), "the row count (gamma_bar values x tau points)")
    stack, gamma_column = _closed_form_grid(taus, gammas)
    report = certify_cpt(stack)
    return (_map_rows(stack, gamma_column, report.min_choi_eigenvalue), {},
            [(gamma_column, stack.times, report)])


# --- config schema -----------------------------------------------------------
# Each table maps a field to (reader, default): reader(value, name) checks the JSON value and
# returns what a run uses; a default is used as it stands. A mode accepts COMMON's fields and
# its own, and nothing else; cross-field checks stay in the mode's runner.

COMMON = {"mode": (_string, None), "seed": (_seed, 0), "output_path": (_string, ".")}
GRID = {"gamma_bar": (_gammas, REQUIRED), "tau_max": (_float, REQUIRED),
        "tau_points": (partial(_count, minimum=2), REQUIRED)}
# k_max and tail_tol are read and checked (a bad value exits 2) and change nothing: no mode runs a
# truncated series, so nothing reads them and they default to None. They stay only while bench/
# still sends them (ROADMAP.md, benchmark upkeep).
POLICY = {"k_max": (partial(_integer, minimum=1), None), "tail_tol": (_positive, None)}
RANGE = {"start": (_float, REQUIRED), "stop": (_float, REQUIRED),
         "count": (partial(_count, minimum=1), REQUIRED)}
BATHS = {
    "pure_ground": {"kind": (_string, REQUIRED)},
    "thermal": {"kind": (_string, REQUIRED), "energies": (_qubit_levels, None),
                "inverse_temperature": (_float, None), "weights": (_qubit_levels, None)},
}
COLLISION = {"t_c": (_float, REQUIRED), "p_s": (_float, REQUIRED),
             "n_steps": (partial(_count, minimum=1), REQUIRED),
             "bath": (_bath, BathSpec(kind="pure_ground"))}
SCHEMA = {
    "discrete": (_mode_discrete, {"collision": (_collision, REQUIRED)}),
    "series": (_mode_series, {**GRID, **POLICY, "compare_discrete": (_flag, False),
                              "t_c": (_float, None)}),
    "jc_closed_form": (_mode_jc_closed_form, GRID),
    "thermal": (_mode_thermal, {"collision": (_collision, REQUIRED), **POLICY}),
    "convergence": (_mode_convergence, {"gamma_bar": (_float, REQUIRED),
                                        "tau_max": (_float, REQUIRED),
                                        "t_c_list": (_floats, REQUIRED)}),
    "certify": (_mode_certify, {**GRID, "tolerance": (_float, CPT_TOLERANCE),
                                "probe_states": (partial(_count, minimum=0), 3)}),
    "sweep": (_mode_sweep, {"gamma_bar": (_range, REQUIRED), "tau": (_range, REQUIRED)}),
}
MODES = tuple(mode for mode in SCHEMA if mode != "sweep")  # the modes of the run subcommand


# --- orchestration -----------------------------------------------------------


def _emit_error(code: int, message: str, **details) -> int:
    payload = {"error": {"code": code, "message": message, **details}}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return code


def _execute(cfg: dict, raw: dict, output_dir: Optional[str]) -> int:
    started = time.perf_counter()
    path = cfg["output_path"] if output_dir is None else output_dir
    if not path:  # Path("") is the working directory
        where = "field 'output_path'" if output_dir is None else "option '--output-dir'"
        raise ConfigurationError(f"{where} is empty; name a directory ('.' for the working one)")
    out_dir = Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # an existing file, or a path below one
        raise ConfigurationError(
            f"output directory {str(out_dir)!r} cannot be created: {exc}") from exc

    run_started = time.perf_counter()
    rows, extras, reports = SCHEMA[cfg["mode"]][0](cfg)
    write_started = time.perf_counter()

    _write_csv(out_dir / "results.csv", rows)
    outputs = ["results.csv"]
    for name, payload in extras.items():
        (out_dir / name).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        outputs.append(name)
    written = time.perf_counter()

    manifest = {
        "config": raw,
        "mode": cfg["mode"],
        "seed": cfg["seed"],
        "outputs": sorted(outputs),
        "versions": {
            "nmcollide": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "timings": {"run_seconds": write_started - run_started,
                    "write_seconds": written - write_started,
                    "total_seconds": time.perf_counter() - started},
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    if not all(report.verdict for _, _, report in reports):
        details = {"mode": cfg["mode"], **_worst_map(reports)}
        if "cpt_report.json" in extras:
            details["report"] = str(out_dir / "cpt_report.json")
        return _emit_error(EXIT_CERTIFICATION, "CPT certification failed", **details)
    return EXIT_OK


def _worst_map(reports) -> dict:
    """Where the maps of a run come farthest from CPT: the gamma_bar (None where it is NaN) and
    tau of the map with the largest Choi deficit or trace defect, among the (gamma_bar, times,
    CptReport) triples reports, its two values, and the run's tolerance."""
    gammas, times, eigs, defects = map(np.concatenate, zip(*(
        (np.broadcast_to(gamma, t.shape), t, r.min_choi_eigenvalue, r.max_trace_defect)
        for gamma, t, r in reports)))
    j = int(np.argmax(np.maximum(-eigs, defects)))
    return {"gamma_bar": None if np.isnan(gammas[j]) else float(gammas[j]),
            "tau": float(times[j]), "min_choi_eigenvalue": float(eigs[j]),
            "max_trace_defect": float(defects[j]), "tolerance": reports[0][2].tolerance}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ConfigurationError, so that they exit 2 with
    a JSON error like a bad config."""

    def error(self, message: str):
        raise ConfigurationError(f"{message}; {self.format_usage().strip()}")


class _SubcommandParser(_Parser):
    """A subcommand's parser, which refuses an argument it does not know itself, so that the
    error carries the subcommand's usage line: argparse would hand the argument back to the
    top-level parser, which reports its own."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _dispatch(parser: _Parser, argv) -> int:
    try:
        args = parser.parse_args(argv)
        subcommand = args.command
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            # a sweep config may leave its mode out; sweep and certify run their own mode alone
            cfg, raw = load_config(args.config,
                                   default_mode="sweep" if subcommand == "sweep" else None)
            accepted = MODES if subcommand == "run" else (subcommand,)
            if cfg["mode"] not in accepted:
                raise ConfigurationError(f"the {subcommand} subcommand takes mode "
                                         f"{' or '.join(map(repr, accepted))}, not {cfg['mode']!r}")
            return _execute(cfg, raw, args.output_dir)
    except ConfigurationError as exc:
        return _emit_error(EXIT_CONFIG, str(exc))
    except (InternalConsistencyError, ValidationError) as exc:
        return _emit_error(EXIT_NUMERICAL, str(exc))
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        return _emit_error(EXIT_NUMERICAL, f"{type(exc).__name__}: {exc}")


def main(argv=None) -> int:
    parser = _Parser(
        prog="nmcollide",
        description="Collision-model simulator for non-Markovian qubit dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_SubcommandParser)
    for name, text in (
        ("run", "run one experiment from a config file"),
        ("sweep", "evaluate the closed-form map over parameter ranges"),
        ("certify", "run a CPT certification sweep (exit 3 on failure)"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("config", help="path to the JSON experiment config")
        p.add_argument("--output-dir", default=None, help="override the config output path")
    return _dispatch(parser, argv)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
