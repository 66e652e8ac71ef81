"""Exact simulation of the discrete collision protocol.

The protocol alternates unitary system-ancilla (SA) collisions with
incoherent partial-swap ancilla-ancilla (AA) collisions: after the S-1
collision, a 1-2 swap collision precedes S-2, then 2-3 precedes S-3, and
so on. Step 1 ends after S-1; step n >= 2 ends once both the (n-1)-n and
the S-n collisions are over.

The engine exploits the fact that ancilla i never interacts again after
the i-(i+1) swap: it is traced out immediately, so the simulation carries
only the joint state of the system and the single upcoming ancilla (the
sliding window). With the fresh ancilla state rho_A, one step is

    W <- U (p_s W + (1 - p_s) Tr_A(W) (x) rho_A) U^dag:

the swap branch carries the window onto the fresh ancilla, the identity
branch leaves the fresh ancilla beside the reduced system state. Cost is
linear in the step count instead of exponential. The literal full-chain
simulation lives in :mod:`nmcollide.verify` as the oracle for this
reduction.

Finite bath temperature needs no extra machinery: every ancilla simply
starts in the mixed Boltzmann state rho_A = diag(w) instead of |0><0|,
and the same window loop runs for both baths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .quantum import (
    DensityOperator,
    HermitianOperator,
    KrausChannel,
    _partial_trace_matrix,
    swap_operator,
    unitary_evolution,
)

__all__ = [
    "BathSpec",
    "CollisionConfig",
    "TrajectoryRecord",
    "partial_swap_channel",
    "sa_collision",
    "run_discrete",
    "run_discrete_thermal",
    "thermal_weights",
]


def thermal_weights(energies, inverse_temperature: float) -> np.ndarray:
    """Boltzmann weights e^{-beta e_k} / Z, computed stably for large beta."""
    e = np.asarray(energies, dtype=float)
    if inverse_temperature < 0:
        raise ConfigurationError("inverse temperature must be nonnegative")
    logw = -inverse_temperature * (e - e.min())
    w = np.exp(logw)
    return w / w.sum()


@dataclass(frozen=True)
class BathSpec:
    """Initial single-ancilla state of the bath.

    ``pure_ground`` starts every ancilla in |0>. ``thermal`` starts every
    ancilla in the Boltzmann mixture of the given level energies; the
    zero-temperature endpoint can be expressed directly through an explicit
    ``weights`` vector such as (1, 0), which beta alone cannot reach.
    """

    kind: str
    energies: Optional[tuple] = None
    inverse_temperature: Optional[float] = None
    weights: Optional[tuple] = None

    def __post_init__(self):
        if self.kind == "pure_ground":
            if self.energies is not None or self.inverse_temperature is not None or self.weights is not None:
                raise ConfigurationError("pure_ground bath takes no thermal parameters")
        elif self.kind == "thermal":
            if self.weights is not None:
                w = np.asarray(self.weights, dtype=float)
                if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
                    raise ConfigurationError("explicit weights must be a probability vector")
            elif self.energies is None or self.inverse_temperature is None:
                raise ConfigurationError(
                    "thermal bath needs energies and inverse_temperature, or explicit weights"
                )
            elif self.inverse_temperature < 0:
                raise ConfigurationError("inverse temperature must be nonnegative")
        else:
            raise ConfigurationError(f"unknown bath kind {self.kind!r}")

    def weight_vector(self, ancilla_dim: int) -> np.ndarray:
        if self.kind == "pure_ground":
            w = np.zeros(ancilla_dim)
            w[0] = 1.0
            return w
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
        else:
            w = thermal_weights(self.energies, self.inverse_temperature)
        if w.shape != (ancilla_dim,):
            raise ConfigurationError(
                f"bath weight vector has length {w.shape[0]}, ancilla dim is {ancilla_dim}"
            )
        return w / w.sum()


@dataclass(frozen=True)
class CollisionConfig:
    """Full parametrization of the discrete protocol."""

    system_dim: int
    ancilla_dim: int
    hamiltonian: HermitianOperator
    t_c: float
    p_s: float
    n_steps: int
    bath: BathSpec

    def __post_init__(self):
        if self.system_dim < 1 or self.ancilla_dim < 1:
            raise ConfigurationError("dimensions must be positive")
        expected = self.system_dim * self.ancilla_dim
        if self.hamiltonian.dim != expected:
            raise ConfigurationError(
                f"hamiltonian dim {self.hamiltonian.dim} != system*ancilla = {expected}"
            )
        if not 0.0 <= self.p_s <= 1.0:
            raise ConfigurationError(f"swap probability {self.p_s} outside [0, 1]")
        # t_c = 0 is allowed as a degenerate no-dynamics case
        if self.t_c < 0:
            raise ConfigurationError("collision time must be nonnegative")
        if self.n_steps < 1:
            raise ConfigurationError("need at least one step")


@dataclass(frozen=True)
class TrajectoryRecord:
    """System states rho_n for n = 0..n_steps and the times n * t_c."""

    states: tuple
    times: tuple

    def __post_init__(self):
        if len(self.states) != len(self.times):
            raise ConfigurationError("states and times must have equal length")
        times = tuple(float(t) for t in self.times)
        if any(b < a for a, b in zip(times, times[1:])):
            raise ConfigurationError("times must be nondecreasing")
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "times", times)

    def __len__(self) -> int:
        return len(self.states)

    def populations(self, level: int = 1) -> np.ndarray:
        return np.array([s.data[level, level].real for s in self.states])

    def coherences(self) -> np.ndarray:
        return np.array([s.data[0, 1] for s in self.states])


def partial_swap_channel(d: int, p_s: float) -> KrausChannel:
    """Incoherent partial swap on d (x) d: identity branch plus swap branch."""
    if not 0.0 <= p_s <= 1.0:
        raise ConfigurationError(f"swap probability {p_s} outside [0, 1]")
    eye = np.eye(d * d, dtype=np.complex128)
    ops = (np.sqrt(1.0 - p_s) * eye, np.sqrt(p_s) * swap_operator(d))
    return KrausChannel(ops, dim_in=d * d, dim_out=d * d)


def sa_collision(rho_joint: DensityOperator, h: HermitianOperator, t_c: float) -> DensityOperator:
    """One unitary collision: conjugation by e^{-i H t_c}."""
    if rho_joint.dim != h.dim:
        raise ConfigurationError(f"state dim {rho_joint.dim} != hamiltonian dim {h.dim}")
    u = unitary_evolution(h, t_c)
    return DensityOperator(u @ rho_joint.data @ u.conj().T)


def _window_run(cfg: CollisionConfig, rho0: DensityOperator) -> TrajectoryRecord:
    if rho0.dim != cfg.system_dim:
        raise ConfigurationError(f"initial state dim {rho0.dim} != system dim {cfg.system_dim}")
    dims = [cfg.system_dim, cfg.ancilla_dim]
    fresh = np.diag(cfg.bath.weight_vector(cfg.ancilla_dim)).astype(np.complex128)
    u_sa = unitary_evolution(cfg.hamiltonian, cfg.t_c)
    u_sa_dag = u_sa.conj().T

    window = u_sa @ np.kron(rho0.data, fresh) @ u_sa_dag
    rho_s = _partial_trace_matrix(window, dims, (0,))
    states = [rho0, DensityOperator(rho_s)]

    for _ in range(2, cfg.n_steps + 1):
        window = cfg.p_s * window + (1.0 - cfg.p_s) * np.kron(rho_s, fresh)
        window = u_sa @ window @ u_sa_dag
        # the exact dynamics preserves Hermiticity and trace; restore both each
        # step so rounding cannot drift systematically over long runs
        window = 0.5 * (window + window.conj().T)
        window = window / np.trace(window).real
        rho_s = _partial_trace_matrix(window, dims, (0,))
        states.append(DensityOperator(rho_s))

    times = tuple(n * cfg.t_c for n in range(cfg.n_steps + 1))
    return TrajectoryRecord(tuple(states), times)


def run_discrete(cfg: CollisionConfig, rho0: DensityOperator) -> TrajectoryRecord:
    """Run the protocol with every ancilla initially in the pure ground state."""
    if cfg.bath.kind != "pure_ground":
        raise ConfigurationError("run_discrete expects a pure_ground bath; see run_discrete_thermal")
    return _window_run(cfg, rho0)


def run_discrete_thermal(cfg: CollisionConfig, rho0: DensityOperator) -> TrajectoryRecord:
    """Run the protocol with every ancilla initially in the thermal mixture."""
    if cfg.bath.kind != "thermal":
        raise ConfigurationError("run_discrete_thermal expects a thermal bath")
    return _window_run(cfg, rho0)
