"""Independent oracles and certification.

Nothing here shares code with the paths it checks: the inverse Laplace
transform is a fixed-Talbot contour quadrature in arbitrary precision,
the brute-force chain simulator holds every ancilla in memory instead of
the sliding window, and the certifier recomputes Choi spectra from
scratch for whatever maps it is handed.

Only the oracle purifies: where the engine starts each thermal ancilla in
its mixed Boltzmann state, the brute-force chain holds every ancilla as a
pure entangled pair whose first half couples to the system, and swaps
whole pairs. The pair marginal is the thermal state, so both must agree.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .collisions import BathSpec, CollisionConfig, TrajectoryRecord
from .continuum import MapStack, TimeGrid, discrete_maps
from .errors import ConfigurationError, DivergenceError, ValidationError
from .jaynes_cummings import jc_hamiltonian, jc_maps
from .quantum import (
    DensityOperator,
    KrausChannel,
    _partial_trace_matrix,
    choi_of,
    density_stack,
    embed_operator,
    ket,
    swap_operator,
    trace_distances,
    unitary_evolution,
)
from .tolerances import DEFAULT_TOLERANCES

__all__ = [
    "CptReport",
    "ConvergenceReport",
    "inverse_laplace",
    "brute_force_chain",
    "purified_pair_ket",
    "certify_cpt",
    "convergence_study",
    "calibrated_swap_probability",
    "random_density_operator",
    "corrupted_beta_maps",
]


# --- numerical inverse Laplace transform ------------------------------------


def inverse_laplace(transform: Callable, t: float, n_nodes: int = 64) -> float:
    """Invert a Laplace transform at one time by fixed-Talbot quadrature.

    The contour is the parabola-like fixed Talbot path with base abscissa
    r = 2M/(5t); the transform must be analytic to the right of all its
    singularities and is called with ``mpmath`` numbers, so it has to be
    written in plain arithmetic. Evaluation runs at working precision
    proportional to the node count, which keeps the documented 1e-9
    target comfortably for the rational transforms arising here.
    """
    import mpmath  # only the oracle needs it; no CLI mode calls this

    if t <= 0:
        raise ConfigurationError("inversion time must be positive")
    if n_nodes < 4:
        raise ConfigurationError("need at least 4 contour nodes")
    m = n_nodes
    with mpmath.workdps(max(30, m)):
        tt = mpmath.mpf(t)
        r = mpmath.mpf(2) * m / (5 * tt)
        total = mpmath.exp(r * tt) * transform(r) / 2
        for k in range(1, m):
            theta = mpmath.pi * k / m
            cot = mpmath.cot(theta)
            s = r * theta * (cot + 1j)
            sigma = theta + (theta * cot - 1) * cot
            term = mpmath.exp(s * tt) * transform(s) * (1 + 1j * sigma)
            total += term.real
        total = total * r / m
        if not mpmath.isfinite(total):
            raise DivergenceError(
                f"Talbot quadrature diverged at t={t} with {m} nodes "
                f"(contour base r={float(r):.6g})"
            )
        return float(total)


# --- brute-force chain oracle ------------------------------------------------


def purified_pair_ket(weights) -> np.ndarray:
    """|psi> = sum_k sqrt(w_k) |k>|k>, whose first-half marginal is the mixture w."""
    w = np.asarray(weights, dtype=float)
    d = w.shape[0]
    psi = np.zeros(d * d, dtype=np.complex128)
    for k in range(d):
        psi[k * d + k] = np.sqrt(w[k])
    return psi


def _bath_unit(cfg: CollisionConfig):
    """Initial state of one bath unit and the Hamiltonian acting on S + unit.

    Pure/ground bath: the unit is a single ancilla in |0>. Thermal bath:
    the unit is a purified ancilla pair; the coupling acts on the first
    half only, and AA swaps exchange whole units.
    """
    da = cfg.ancilla_dim
    if cfg.bath.kind != "thermal":
        v = ket(da, 0)
        return np.outer(v, v.conj()), da, cfg.hamiltonian.data
    psi = purified_pair_ket(cfg.bath.weight_vector(da))
    h_pair = np.kron(cfg.hamiltonian.data, np.eye(da, dtype=np.complex128))
    return np.outer(psi, psi.conj()), da * da, h_pair


def brute_force_chain(cfg: CollisionConfig, rho0: DensityOperator,
                      n_max: int = 6) -> TrajectoryRecord:
    """Literal protocol simulation holding the system and every ancilla.

    Exponential in the step count; usable only for small chains, where it
    is the ground truth for the sliding-window engine.
    """
    if cfg.n_steps > n_max:
        raise ConfigurationError(
            f"brute-force chain capped at {n_max} steps, got {cfg.n_steps}"
        )
    if rho0.dim != cfg.system_dim:
        raise ConfigurationError("initial state dimension mismatch")
    unit, u_dim, h_full = _bath_unit(cfg)
    n = cfg.n_steps
    ds = cfg.system_dim
    dims = [ds] + [u_dim] * n

    sigma = rho0.data
    for _ in range(n):
        sigma = np.kron(sigma, unit)

    u_pair = unitary_evolution(h_full, cfg.t_c)
    swap = swap_operator(u_dim)
    states = [rho0.data]
    for step in range(1, n + 1):
        if step >= 2:
            s_emb = embed_operator(swap, dims, [step - 1, step])
            sigma = (1.0 - cfg.p_s) * sigma + cfg.p_s * (s_emb @ sigma @ s_emb.conj().T)
        u_emb = embed_operator(u_pair, dims, [0, step])
        sigma = u_emb @ sigma @ u_emb.conj().T
        states.append(_partial_trace_matrix(sigma, dims, (0,)))
    times = tuple(k * cfg.t_c for k in range(n + 1))
    return TrajectoryRecord(np.array(states), times)


# --- CPT certification --------------------------------------------------------


@dataclass(frozen=True)
class CptReport:
    """Per-point Choi spectra and trace defects for a family of maps."""

    min_choi_eigenvalue: tuple
    max_trace_defect: tuple
    tolerance: float
    verdict: bool
    grid: Optional[TimeGrid] = None
    gamma_bar: Optional[float] = None

    def as_dict(self) -> dict:
        return {
            "grid": None
            if self.grid is None
            else {"t_max": self.grid.t_max, "n_points": self.grid.n_points, "dt": self.grid.dt},
            "gamma_bar": self.gamma_bar,
            "min_choi_eigenvalue": list(self.min_choi_eigenvalue),
            "max_trace_defect": list(self.max_trace_defect),
            "tolerance": self.tolerance,
            "verdict": self.verdict,
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.as_dict(), **kwargs)

    def summary(self, times) -> dict:
        """as_dict, each per-point list replaced by its worst value and the tau where it sits."""
        i = int(np.argmin(self.min_choi_eigenvalue))
        k = int(np.argmax(self.max_trace_defect))
        return {
            **self.as_dict(),
            "min_choi_eigenvalue": {"value": self.min_choi_eigenvalue[i], "tau": float(times[i])},
            "max_trace_defect": {"value": self.max_trace_defect[k], "tau": float(times[k])},
        }


def certify_cpt(maps, tolerance: float = 1e-9, *,
                grid: Optional[TimeGrid] = None,
                gamma_bar: Optional[float] = None) -> CptReport:
    """Certify complete positivity and trace preservation of each map.

    Accepts a sequence of Kraus channels, a MapStack, or the Choi matrices
    themselves as an (n, d^2, d^2) array; a stack that is not Hermitian
    within the hermiticity tolerance is rejected. The spectra come from one
    batched Hermitian eigensolve and the trace defects from the Choi
    output-trace marginal. The verdict is true iff every Choi minimum
    eigenvalue is >= -tolerance and every trace defect is <= tolerance.
    """
    if len(maps) == 0:
        raise ConfigurationError("cannot certify an empty map family")
    if isinstance(maps, np.ndarray):
        stack = maps
    elif isinstance(maps, MapStack):
        stack = maps.choi()
    else:
        stack = np.stack([_choi_data(mp) for mp in maps])
    n, d2 = stack.shape[0], stack.shape[-1]
    d = math.isqrt(d2)
    if stack.shape != (n, d2, d2) or d * d != d2:
        raise ConfigurationError(f"expected an (n, d^2, d^2) Choi stack, got shape {stack.shape}")
    herm = float(np.max(np.abs(stack - stack.conj().transpose(0, 2, 1))))
    if herm > DEFAULT_TOLERANCES.hermiticity:
        raise ValidationError(f"Choi stack not Hermitian: deviation {herm:.3e}")
    min_eigs = np.linalg.eigvalsh(stack)[:, 0]
    marginal = np.einsum("niaja->nij", stack.reshape(n, d, d, d, d))
    defects = np.max(np.abs(marginal - np.eye(d)), axis=(1, 2))
    verdict = bool(np.all(min_eigs >= -tolerance) and np.all(defects <= tolerance))
    return CptReport(
        min_choi_eigenvalue=tuple(min_eigs.tolist()),
        max_trace_defect=tuple(defects.tolist()),
        tolerance=tolerance,
        verdict=verdict,
        grid=grid,
        gamma_bar=gamma_bar,
    )


def _choi_data(mp) -> np.ndarray:
    if isinstance(mp, KrausChannel):
        return choi_of(mp).data
    raise ConfigurationError(f"cannot certify object of type {type(mp)!r}")


def corrupted_beta_maps(gamma_bar: float, taus, inflation: float = 1.05) -> MapStack:
    """Closed-form map family with the coherence factor inflated.

    The inflation breaks the beta1^2 <= beta2 inequality (already at
    tau = 0, where both factors equal 1), producing a non-CP family. Used
    as the mandatory negative control for the certifier.
    """
    maps = jc_maps(taus, gamma_bar)
    maps.superops[:, 1, 1] *= inflation
    maps.superops[:, 2, 2] *= inflation
    return maps


# --- discrete/continuous convergence ------------------------------------------


def calibrated_swap_probability(gamma_bar: float, t_c: float) -> float:
    """Swap probability reproducing memory-loss rate gamma_bar at collision time t_c.

    p_s = e^{-gamma_bar * t_c} (rescaled time units) is the exact coefficient
    of the reset semigroup: e^{B t_c} = p_s 1 + (1 - p_s) R for
    B = gamma_bar (R - 1), since R^2 = R. With it the protocol step is the
    splitting e^{A t_c} e^{B t_c} of the generator of the continuous limit
    (``collisions.reset_generator``), which the protocol approaches at
    second order in t_c.
    """
    return float(np.exp(-gamma_bar * t_c))


@dataclass(frozen=True)
class ConvergenceReport:
    """Max trajectory error against the closed-form map per collision time."""

    t_c_values: tuple
    errors: tuple
    estimated_order: Optional[float]

    def __post_init__(self):
        tc = list(self.t_c_values)
        if any(b >= a for a, b in zip(tc, tc[1:])):
            raise ConfigurationError("collision times must be strictly decreasing")
        if any(e < 0 for e in self.errors):
            raise ConfigurationError("errors must be nonnegative")

    def as_dict(self) -> dict:
        return {
            "t_c_values": list(self.t_c_values),
            "errors": list(self.errors),
            "estimated_order": self.estimated_order,
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.as_dict(), **kwargs)


# the state a protocol run and its reference are compared on, here and in the CLI's series modes
_PROBE = DensityOperator(np.array([[0.4, 0.25 + 0.2j], [0.25 - 0.2j, 0.6]]))


def convergence_study(gamma_bar: float, tau_max: float, t_c_list,
                      probe: DensityOperator = _PROBE) -> ConvergenceReport:
    """Measure how fast the discrete protocol approaches the closed-form map.

    For each collision time, the swap probability is calibrated to
    gamma_bar, ``discrete_maps`` runs out to tau_max, and the error is the
    maximum trace distance from ``jc_maps`` along the probe's whole
    trajectory, validated as a density-matrix stack (endpoint-only checks
    miss transients). The order estimate is the log-log slope.
    """
    t_c_values = sorted((float(t) for t in t_c_list), reverse=True)
    if len(t_c_values) != len(set(t_c_values)):
        raise ConfigurationError("collision times must be distinct")
    h = jc_hamiltonian()
    errors = []
    for t_c in t_c_values:
        n_steps = round(tau_max / t_c)
        if abs(n_steps * t_c - tau_max) > 1e-9 * max(1.0, tau_max):
            raise ConfigurationError(
                f"collision time {t_c} does not divide tau_max {tau_max}"
            )
        cfg = CollisionConfig(
            system_dim=2,
            ancilla_dim=2,
            hamiltonian=h,
            t_c=t_c,
            p_s=calibrated_swap_probability(gamma_bar, t_c),
            n_steps=n_steps,
            bath=BathSpec(kind="pure_ground"),
        )
        stack = discrete_maps(cfg)
        reference = jc_maps(stack.times, gamma_bar).apply(probe)
        errors.append(float(np.max(trace_distances(density_stack(stack.apply(probe)), reference))))
    if len(t_c_values) >= 2:
        slope = np.polyfit(np.log(t_c_values), np.log(np.maximum(errors, 1e-300)), 1)[0]
        estimated_order = float(slope)
    else:
        estimated_order = None
    return ConvergenceReport(
        t_c_values=tuple(t_c_values), errors=tuple(errors), estimated_order=estimated_order
    )


# --- random-state utilities ----------------------------------------------------


def random_density_operator(dim: int, rng: np.random.Generator) -> DensityOperator:
    """Full-rank random state from a complex Gaussian square root."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = g @ g.conj().T + 1e-6 * np.eye(dim)
    return DensityOperator(mat / np.trace(mat).real)
