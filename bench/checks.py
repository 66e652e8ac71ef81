"""Output checks for the benchmark's CLI invocations.

Two kinds of check, both run outside the timed interval:

* ``check_invocation`` runs on every invocation: exit code, CSV header,
  row count, the verdict of ``certify``, and the CPT inequalities on every
  closed-form row. It returns a list of failure messages.
* ``reference_errors`` runs once per benchmark run on the first iteration's
  outputs. It compares them with a reference that does not share the code
  path under test and returns the largest deviation together with the
  checks whose deviation exceeds its tolerance.

Tolerances are those the repository's acceptance criteria pin.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

CSV_HEADER = ["tau", "gamma_bar", "beta1", "beta2", "trace_distance_vs_discrete", "min_choi_eig"]
BETA_SLACK = 1e-9  # the closed form's documented excursion on the CPT inequalities
TALBOT_TOL = 1e-8  # closed form vs the Talbot oracle (criterion 03)
SERIES_TOL = 1e-4  # series vs closed form (criterion 04)
BRUTE_FORCE_TOL = 1e-12  # sliding window vs brute-force chain (criterion 07)
BRUTE_FORCE_STEPS = {"pure_ground": 6, "thermal": 4}  # a thermal chain of 6 needs ~1 GB per matrix
SERIES_DISCRETE_GAP = 0.05  # trace distance of the t_c-stepped protocol to the series
CLOSED_FORM_LABELS = ("certify", "sweep", "jc_closed_form")
TALBOT_SAMPLES_PER_GAMMA = 4
# At gamma_bar = 0, beta2 = cos(tau)^2 has poles on the imaginary axis, and
# 64 Talbot nodes are off by 0.1 at tau = 19.9; 128 nodes agree with the
# closed form to ~1e-14 over the whole certify grid.
TALBOT_NODES = 128


class CheckFailed(Exception):
    """An output deviates from its reference beyond tolerance."""

    def __init__(self, message: str, deviation: float = 0.0):
        super().__init__(message)
        self.deviation = deviation


def read_csv(path: Path):
    """Header and columns of a results.csv; empty cells become NaN."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = rows[0] if rows else []
    body = rows[1:]
    if any(len(r) != len(header) for r in body):
        raise ValueError("rows differ in length from the header")
    cols = {
        name: np.array([float(r[i]) if r[i] else np.nan for r in body])
        for i, name in enumerate(header)
    }
    return header, len(body), cols


def _closed_form_failures(cols: dict, tolerance: float) -> list:
    out = []
    b1, b2 = cols["beta1"], cols["beta2"]
    if np.any(np.isnan(b1)) or np.any(np.isnan(b2)):
        return ["closed-form row without beta1 or beta2"]
    if np.any(b2 < -BETA_SLACK) or np.any(b2 > 1.0 + BETA_SLACK):
        out.append("beta2 outside [0, 1]")
    if np.any(b1 * b1 > b2 + BETA_SLACK):
        out.append("beta1^2 exceeds beta2 + slack")
    eig = cols["min_choi_eig"]
    present = ~np.isnan(eig)
    if np.any(eig[present] < -tolerance):
        out.append(f"min_choi_eig below -{tolerance:g}")
    return out


def check_invocation(inv, exit_code: int, out_dir: Path) -> list:
    """Failure messages for one CLI invocation; empty when it passed."""
    if exit_code != 0:
        return [f"{inv.label}: exit code {exit_code}"]
    path = out_dir / "results.csv"
    if not path.exists():
        return [f"{inv.label}: results.csv missing"]
    try:
        header, n_rows, cols = read_csv(path)
    except ValueError as exc:
        return [f"{inv.label}: malformed results.csv: {exc}"]
    failures = []
    if header != CSV_HEADER:
        failures.append(f"{inv.label}: header {header}")
    elif n_rows != inv.rows:
        failures.append(f"{inv.label}: {n_rows} rows, expected {inv.rows}")
    elif inv.label in CLOSED_FORM_LABELS:
        tolerance = float(inv.config.get("tolerance", 1e-9))
        failures += [f"{inv.label}: {m}" for m in _closed_form_failures(cols, tolerance)]
    if inv.label == "certify" and not failures:
        report = out_dir / "cpt_report.json"
        if not report.exists() or json.loads(report.read_text())["verdict"] is not True:
            failures.append("certify: verdict is not true")
    return failures


# --- references ---------------------------------------------------------------


def _talbot_error(inv, cols, seed: int) -> float:
    from nmcollide.jaynes_cummings import beta_laplace
    from nmcollide.verify import inverse_laplace

    rng = np.random.default_rng(seed)
    tau, gamma = cols["tau"], cols["gamma_bar"]
    worst = 0.0
    for g in inv.config["gamma_bar"]:
        idx = np.flatnonzero((gamma == g) & (tau > 0))
        for j in rng.choice(idx, size=TALBOT_SAMPLES_PER_GAMMA, replace=False):
            t = float(tau[j])
            for ell, column in ((1, "beta1"), (2, "beta2")):
                ref = inverse_laplace(lambda s: beta_laplace(ell, s, g), t, n_nodes=TALBOT_NODES)
                worst = max(worst, abs(float(cols[column][j]) - ref))
    if worst > TALBOT_TOL:
        raise CheckFailed(f"beta vs Talbot oracle: {worst:.3e} > {TALBOT_TOL:g}", worst)
    return worst


def _brute_force_error(inv, cols) -> float:
    from nmcollide.collisions import BathSpec, CollisionConfig
    from nmcollide.jaynes_cummings import jc_hamiltonian
    from nmcollide.quantum import DensityOperator
    from nmcollide.verify import brute_force_chain

    spec = inv.config["collision"]
    bath = dict(spec["bath"])
    kind = bath.pop("kind")
    n = BRUTE_FORCE_STEPS[kind]
    if "energies" in bath:
        bath["energies"] = tuple(bath["energies"])
    cfg = CollisionConfig(
        system_dim=2, ancilla_dim=2, hamiltonian=jc_hamiltonian(), t_c=spec["t_c"],
        p_s=spec["p_s"], n_steps=n, bath=BathSpec(kind=kind, **bath),
    )
    excited = brute_force_chain(cfg, DensityOperator.basis(2, 1), n_max=n)
    plus = brute_force_chain(cfg, DensityOperator(np.full((2, 2), 0.5)), n_max=n)
    ref_b2 = np.array([s.data[1, 1].real for s in excited.states])
    ref_b1 = np.array([2.0 * s.data[0, 1].real for s in plus.states])
    worst = float(max(np.max(np.abs(cols["beta2"][: n + 1] - ref_b2)),
                      np.max(np.abs(cols["beta1"][: n + 1] - ref_b1))))
    if worst > BRUTE_FORCE_TOL:
        raise CheckFailed(f"beta vs brute-force chain: {worst:.3e} > {BRUTE_FORCE_TOL:g}", worst)
    return worst


def _check_convergence(cols) -> None:
    errors = cols["trace_distance_vs_discrete"]
    # rows are ordered by decreasing t_c; first-order convergence halves the error
    if not (np.all(np.isfinite(errors)) and np.all(np.diff(errors) < 0)):
        raise CheckFailed(f"convergence errors do not decrease with t_c: {errors}")
    if np.max(errors) > SERIES_DISCRETE_GAP:
        raise CheckFailed(f"convergence error {np.max(errors):.3e} > {SERIES_DISCRETE_GAP}")


def _series_error(inv, cols) -> float:
    from nmcollide.jaynes_cummings import beta1, beta2

    worst = 0.0
    for g in inv.config["gamma_bar"]:
        sel = cols["gamma_bar"] == g
        t = cols["tau"][sel]
        worst = max(worst,
                    float(np.max(np.abs(cols["beta1"][sel] - beta1(t, g)))),
                    float(np.max(np.abs(cols["beta2"][sel] - beta2(t, g)))))
    if worst > SERIES_TOL:
        raise CheckFailed(f"beta vs closed form: {worst:.3e} > {SERIES_TOL:g}", worst)
    _check_gap(cols)
    return worst


def _check_gap(cols) -> None:
    gap = cols["trace_distance_vs_discrete"]
    gap = gap[~np.isnan(gap)]
    if gap.size == 0 or np.max(gap) > SERIES_DISCRETE_GAP:
        raise CheckFailed(f"series-to-discrete gap missing or above {SERIES_DISCRETE_GAP}")


def reference_errors(invocations, out_dirs, seed: int):
    """Largest deviation from the workload's references, and (label, message) per failed check."""
    worst = 0.0
    failures = []
    for inv, out_dir in zip(invocations, out_dirs):
        try:
            _, _, cols = read_csv(out_dir / "results.csv")
            if inv.label == "certify":
                worst = max(worst, _talbot_error(inv, cols, seed))
            elif inv.label in ("discrete_pure", "discrete_thermal"):
                worst = max(worst, _brute_force_error(inv, cols))
            elif inv.label == "convergence":
                _check_convergence(cols)
            elif inv.label == "series":
                worst = max(worst, _series_error(inv, cols))
            elif inv.label == "thermal":
                _check_gap(cols)
        except (CheckFailed, OSError, ValueError, KeyError) as exc:
            # a missing or malformed output fails its reference too
            worst = max(worst, getattr(exc, "deviation", 0.0))
            failures.append((inv.label, f"{type(exc).__name__}: {exc}"))
    return worst, failures
