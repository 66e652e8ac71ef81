"""Seeded workload definitions for the nmcollide benchmark.

A workload is an ordered list of CLI invocations (subcommand plus JSON
config). The seed draws physical parameters from fixed bands; point
counts, step counts and gamma_bar * tau_max of every series slot do not
depend on it, so two seeds do the same amount of work.

Each invocation also carries the number of CSV rows it must produce, which
the output checks compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("closed_form_grid", "discrete_chain", "continuum_series")

# closed_form_grid sizes
CERTIFY_TAU_POINTS = 1000
CERTIFY_TAU_MAX = 20.0
SWEEP_GAMMA_COUNT = 500
SWEEP_TAU_COUNT = 4
JC_TAU_POINTS = 629

# discrete_chain sizes
DISCRETE_T_C = 0.01
DISCRETE_STEPS = 2000
CONVERGENCE_TAU_MAX = 10.0
CONVERGENCE_T_C = (0.02, 0.01, 0.005)

# continuum_series sizes
SERIES_TAU_POINTS = 4001
SERIES_GAMMA_TAU = (5.0, 10.0, 20.0)  # gamma_bar * tau_max per series slot
SERIES_STRIDE = 20  # discrete comparison every SERIES_STRIDE grid points
THERMAL_STEPS = 1000
THERMAL_GAMMA_TAU = 10.0


@dataclass(frozen=True)
class Invocation:
    """One CLI call: ``nmcollide <subcommand> <config>`` and its expected row count."""

    label: str
    subcommand: str
    config: dict
    rows: int


def _closed_form_grid(rng: np.random.Generator) -> list:
    # 0, the gamma_bar = 2 degeneracy, and one value above 50, where
    # beta1 takes its split-exponential branch
    certify_gammas = [
        0.0,
        float(rng.uniform(0.3, 1.5)),
        2.0,
        float(rng.uniform(3.0, 8.0)),
        float(rng.uniform(10.0, 30.0)),
        float(rng.uniform(60.0, 120.0)),
    ]
    certify = {
        "mode": "certify",
        "gamma_bar": certify_gammas,
        "tau_max": CERTIFY_TAU_MAX,
        "tau_points": CERTIFY_TAU_POINTS,
        "tolerance": 1e-9,
        "seed": int(rng.integers(0, 2**31)),
        "probe_states": 3,
    }
    sweep = {
        "gamma_bar": {
            "start": float(rng.uniform(0.0, 0.5)),
            "stop": float(rng.uniform(8.0, 12.0)),
            "count": SWEEP_GAMMA_COUNT,
        },
        "tau": {"start": 0.0, "stop": float(rng.uniform(5.0, 15.0)), "count": SWEEP_TAU_COUNT},
        "seed": int(rng.integers(0, 2**31)),
    }
    jc = {
        "mode": "jc_closed_form",
        "gamma_bar": [0.0, float(rng.uniform(0.5, 1.5)), float(rng.uniform(3.0, 6.0))],
        "tau_max": 4.0 * math.pi,
        "tau_points": JC_TAU_POINTS,
    }
    return [
        Invocation("certify", "certify", certify, len(certify_gammas) * CERTIFY_TAU_POINTS),
        Invocation("sweep", "sweep", sweep, SWEEP_GAMMA_COUNT * SWEEP_TAU_COUNT),
        Invocation("jc_closed_form", "run", jc, 3 * JC_TAU_POINTS),
    ]


def _collision(gamma_bar: float, t_c: float, n_steps: int, bath: dict) -> dict:
    return {"t_c": t_c, "p_s": math.exp(-gamma_bar * t_c), "n_steps": n_steps, "bath": bath}


def _discrete_chain(rng: np.random.Generator) -> list:
    pure = {
        "mode": "discrete",
        "collision": _collision(
            float(rng.uniform(0.5, 3.0)), DISCRETE_T_C, DISCRETE_STEPS, {"kind": "pure_ground"}
        ),
    }
    thermal_bath = {
        "kind": "thermal",
        "energies": [0.0, 1.0],
        "inverse_temperature": float(rng.uniform(0.5, 3.0)),
    }
    thermal = {
        "mode": "discrete",
        "collision": _collision(
            float(rng.uniform(0.5, 3.0)), DISCRETE_T_C, DISCRETE_STEPS, thermal_bath
        ),
    }
    convergence = {
        "mode": "convergence",
        "gamma_bar": float(rng.uniform(0.5, 3.0)),
        "tau_max": CONVERGENCE_TAU_MAX,
        "t_c_list": list(CONVERGENCE_T_C),
    }
    return [
        Invocation("discrete_pure", "run", pure, DISCRETE_STEPS + 1),
        Invocation("discrete_thermal", "run", thermal, DISCRETE_STEPS + 1),
        Invocation("convergence", "run", convergence, len(CONVERGENCE_T_C)),
    ]


def _continuum_series(rng: np.random.Generator) -> list:
    # tau_max varies with the seed; gamma_bar follows so that gamma_bar *
    # tau_max, which sets the truncation order, stays fixed per slot
    tau_max = float(rng.uniform(9.0, 11.0))
    series = {
        "mode": "series",
        "gamma_bar": [gt / tau_max for gt in SERIES_GAMMA_TAU],
        "tau_max": tau_max,
        "tau_points": SERIES_TAU_POINTS,
        "k_max": 200,
        "tail_tol": 1e-8,
        "compare_discrete": True,
        "t_c": SERIES_STRIDE * tau_max / (SERIES_TAU_POINTS - 1),
    }
    t_c = float(rng.uniform(0.008, 0.012))
    thermal = {
        "mode": "thermal",
        "collision": _collision(
            THERMAL_GAMMA_TAU / (THERMAL_STEPS * t_c),
            t_c,
            THERMAL_STEPS,
            {
                "kind": "thermal",
                "energies": [0.0, 1.0],
                "inverse_temperature": float(rng.uniform(0.5, 3.0)),
            },
        ),
        "k_max": 300,
        "tail_tol": 1e-8,
    }
    return [
        Invocation("series", "run", series, len(SERIES_GAMMA_TAU) * SERIES_TAU_POINTS),
        Invocation("thermal", "run", thermal, THERMAL_STEPS + 1),
    ]


_BUILDERS = {
    "closed_form_grid": _closed_form_grid,
    "discrete_chain": _discrete_chain,
    "continuum_series": _continuum_series,
}


def build(workload: str, seed: int) -> list:
    """The invocations of one workload; the same seed gives the same configs."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _BUILDERS[workload](rng)
