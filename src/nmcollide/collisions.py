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
branch leaves the fresh ancilla beside the reduced system state. This is
one fixed linear map on the window, so it is built once as the transfer
matrix (U (x) U*)(p_s 1 + (1 - p_s) R) acting on the row-major vec(W),
with the reset R(W) = Tr_A(W) (x) rho_A, and each step is one mat-vec.
Cost is linear in the step count instead of exponential. The literal
full-chain simulation lives in :mod:`nmcollide.verify` as the oracle for
this reduction.

After each mat-vec the window is made Hermitian again and renormalized
to unit trace. The exact map preserves both, but rounding does not: over
2000 steps at t_c = 0.01 the repair keeps the reduced states within
~1e-14 of a long-double recursion, against 1e-13 to 3e-13 without it.
The reduced states are collected as one (n_steps + 1, d, d) stack and
validated once, by the same check a single DensityOperator goes through.

Finite bath temperature needs no extra machinery: every ancilla simply
starts in the mixed Boltzmann state rho_A = diag(w) instead of |0><0|,
and the same window loop runs for both baths.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .quantum import (
    DensityOperator,
    HermitianOperator,
    KrausChannel,
    density_stack,
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
    """System states rho_n for n = 0..n_steps and the times n * t_c.

    ``matrices`` is the (n_steps + 1, d, d) stack of states, validated once
    as a whole; ``states`` gives the same states as DensityOperator objects,
    built on first use.
    """

    matrices: np.ndarray
    times: tuple

    def __post_init__(self):
        matrices = density_stack(self.matrices)
        if len(matrices) != len(self.times):
            raise ConfigurationError("states and times must have equal length")
        times = tuple(float(t) for t in self.times)
        if any(b < a for a, b in zip(times, times[1:])):
            raise ConfigurationError("times must be nondecreasing")
        object.__setattr__(self, "matrices", matrices)
        object.__setattr__(self, "times", times)

    @cached_property
    def states(self) -> tuple:
        return tuple(DensityOperator(m) for m in self.matrices)

    def __len__(self) -> int:
        return len(self.matrices)

    def populations(self, level: int = 1) -> np.ndarray:
        return self.matrices[:, level, level].real.copy()

    def coherences(self) -> np.ndarray:
        return self.matrices[:, 0, 1].copy()


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


def _transfer_matrix(u: np.ndarray, fresh: np.ndarray, p_s: float) -> np.ndarray:
    """(U (x) U*)(p_s 1 + (1 - p_s) R) on row-major vec(W), R(W) = Tr_A(W) (x) rho_A."""
    ds = u.shape[0] // fresh.shape[0]
    # R[(s,a,t,b), (s',c,t',c')] = delta_ss' delta_tt' delta_cc' rho_A[a,b]
    reset = np.einsum(
        "sS,tT,cC,ab->satbScTC", np.eye(ds), np.eye(ds), np.eye(fresh.shape[0]), fresh
    ).reshape(u.size, u.size)
    return np.kron(u, u.conj()) @ (p_s * np.eye(u.size) + (1.0 - p_s) * reset)


def _window_run(cfg: CollisionConfig, rho0: DensityOperator) -> TrajectoryRecord:
    if rho0.dim != cfg.system_dim:
        raise ConfigurationError(f"initial state dim {rho0.dim} != system dim {cfg.system_dim}")
    ds, da, n = cfg.system_dim, cfg.ancilla_dim, cfg.n_steps
    d = ds * da
    fresh = np.diag(cfg.bath.weight_vector(da)).astype(np.complex128)
    step = _transfer_matrix(unitary_evolution(cfg.hamiltonian, cfg.t_c), fresh, cfg.p_s)
    dagger = np.arange(d * d).reshape(d, d).T.reshape(-1)  # vec(W^T) = vec(W)[dagger]
    diagonal = np.arange(0, d * d, d + 1)

    windows = np.empty((n + 1, d * d), dtype=np.complex128)
    windows[0] = np.kron(rho0.data, fresh).reshape(-1)
    for k in range(1, n + 1):
        w = step @ windows[k - 1]
        # the exact map preserves Hermiticity and trace; restoring both each
        # step keeps rounding from drifting systematically over long runs
        w = 0.5 * (w + w[dagger].conj())
        windows[k] = w / w[diagonal].sum().real
    reduced = np.einsum("nsata->nst", windows[1:].reshape(n, ds, da, ds, da))

    times = tuple(k * cfg.t_c for k in range(n + 1))
    return TrajectoryRecord(np.concatenate([rho0.data[None], reduced]), times)


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
