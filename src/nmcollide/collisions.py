"""Exact simulation of the discrete collision protocol.

The protocol alternates unitary system-ancilla (SA) collisions with
incoherent partial-swap ancilla-ancilla (AA) collisions: after the S-1
collision, a 1-2 swap collision precedes S-2, then 2-3 precedes S-3, and
so on. Step 1 ends after S-1; step n >= 2 ends once both the (n-1)-n and
the S-n collisions are over.

Ancilla i never interacts again after the i-(i+1) swap, so it is traced
out at once and the engine carries only the window W: the joint state of
the system and the one upcoming ancilla. With the fresh ancilla state
rho_A = diag(bath.weight_vector) (|0><0|, or a thermal bath's Boltzmann
mixture), one step is W <- U (p_s W + (1 - p_s) Tr_A(W) (x) rho_A) U^dag.
The system (x) ancilla bookkeeping is written once, as two matrices:
``attach_superop`` (vec rho -> vec(rho (x) rho_A)) and
``trace_ancilla_superop`` (vec W -> vec Tr_A W); the reset
R = attach Tr_A, the first windows and the reduced states come from them.
Cost is linear in the step count; the literal full-chain simulation lives
in :mod:`nmcollide.verify` as the oracle for this reduction.

The step is the Lie-Trotter splitting e^{A t_c} e^{B t_c} of L = A + B
(``reset_generator``), A = -i[H, .], B = gamma (R - 1): e^{A t_c} = U (x) U*,
and R^2 = R makes e^{B t_c} = p_s 1 + (1 - p_s) R at p_s = e^{-gamma t_c}.
It converges at second order in t_c, like the Strang splitting
e^{B t_c/2} e^{A t_c} e^{B t_c/2}, whose half resets at the ends of a run
change nothing: R fixes W_0 = rho (x) rho_A, and Tr_A R = Tr_A.

One loop, ``propagate_maps``, propagates windows under any fixed step
matrix: d_s^2 system inputs at once, each window as its real
coefficients in an orthonormal Hermitian basis, so every window is
Hermitian by construction. After each step every column is
renormalized to unit trace: the exact map preserves it, rounding does
not, and over 2000 steps at t_c = 0.01 the repair keeps the reduced
states within 1e-14 of a long-double recursion, against 3e-14 to 3e-13
without it. It solves for the maps themselves; the discrete maps and the
continuum embedding of :mod:`nmcollide.continuum` both come from it, and
a trajectory from rho_0 is ``discrete_maps(cfg).apply(rho_0)``.
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
    _hermitian_basis,
    _hermitian_real,
    density_stack,
    swap_operator,
    unitary_evolution,
)

__all__ = [
    "BathSpec",
    "CollisionConfig",
    "TrajectoryRecord",
    "attach_superop",
    "partial_swap_channel",
    "propagate_maps",
    "protocol_step",
    "reset_generator",
    "reset_superop",
    "sa_collision",
    "thermal_weights",
    "trace_ancilla_superop",
]


def thermal_weights(energies, inverse_temperature: float) -> np.ndarray:
    """Boltzmann weights e^{-beta e_k} / Z, computed stably for large beta."""
    e = np.asarray(energies, dtype=float)
    if not np.all(np.isfinite(e)):
        raise ConfigurationError("level energies must be finite")
    if not inverse_temperature >= 0:  # a NaN inverse temperature fails too
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
                if not (np.all(w >= 0) and abs(w.sum() - 1.0) <= 1e-12):  # NaN fails too
                    raise ConfigurationError("explicit weights must be a probability vector")
            elif self.energies is None or self.inverse_temperature is None:
                raise ConfigurationError(
                    "thermal bath needs energies and inverse_temperature, or explicit weights"
                )
            else:  # the checks of thermal_weights, which weight_vector calls
                thermal_weights(self.energies, self.inverse_temperature)
        else:
            raise ConfigurationError(f"unknown bath kind {self.kind!r}")

    def weight_vector(self, ancilla_dim: int) -> np.ndarray:
        if self.kind == "pure_ground":
            w = np.zeros(ancilla_dim)
            w[0] = 1.0
            return w
        if self.weights is None:  # thermal_weights normalizes already
            w = thermal_weights(self.energies, self.inverse_temperature)
        else:  # explicit weights are validated only to 1e-12, so they are renormalized
            w = np.asarray(self.weights, dtype=float) / np.sum(self.weights)
        if w.shape != (ancilla_dim,):
            raise ConfigurationError(
                f"bath weight vector has length {w.shape[0]}, ancilla dim is {ancilla_dim}"
            )
        return w


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
        if not self.t_c >= 0:  # a NaN t_c fails too
            raise ConfigurationError("collision time must be nonnegative")
        if self.n_steps < 1:
            raise ConfigurationError("need at least one step")


@dataclass(frozen=True)
class TrajectoryRecord:
    """System states rho_n for n = 0..n_steps and the times n * t_c, as the brute-force chain
    of :mod:`nmcollide.verify` returns them.

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


def attach_superop(rho_a: np.ndarray, system_dim: int) -> np.ndarray:
    """vec rho -> vec(rho (x) rho_A), row-major, (d^2, d_s^2): columns vec(E_st (x) rho_A)."""
    units = np.eye(system_dim * system_dim).reshape(-1, system_dim, system_dim)
    return np.kron(units, rho_a).reshape(system_dim * system_dim, -1).T


def trace_ancilla_superop(system_dim: int, ancilla_dim: int) -> np.ndarray:
    """vec W -> vec(Tr_A W), row-major, (d_s^2, d^2): the adjoint of attaching 1."""
    return attach_superop(np.eye(ancilla_dim), system_dim).T


def reset_superop(rho_a: np.ndarray, system_dim: int) -> np.ndarray:
    """R(W) = Tr_A(W) (x) rho_A as a matrix on row-major vec(W) of system (x) ancilla."""
    return attach_superop(rho_a, system_dim) @ trace_ancilla_superop(system_dim, rho_a.shape[0])


def reset_generator(h: HermitianOperator, weights):
    """(A, R, rho_A) of L = A + gamma (R - 1) on row-major vec(W) of system (x) ancilla: the
    commutator A = -i[H, .], the reset R(W) = Tr_A(W) (x) rho_A and rho_A = diag(weights)."""
    rho_a = np.diag(weights).astype(np.complex128)
    eye = np.eye(h.dim)
    commutator = -1j * (np.kron(h.data, eye) - np.kron(eye, h.data.T))
    return commutator, reset_superop(rho_a, h.dim // len(rho_a)), rho_a


def protocol_step(cfg: CollisionConfig):
    """The transfer matrix e^{A t_c} e^{B t_c} = (U (x) U*)(p_s 1 + (1 - p_s) R), and rho_A."""
    _, reset, fresh = reset_generator(cfg.hamiltonian, cfg.bath.weight_vector(cfg.ancilla_dim))
    u = unitary_evolution(cfg.hamiltonian, cfg.t_c)
    return np.kron(u, u.conj()) @ (cfg.p_s * np.eye(u.size) + (1.0 - cfg.p_s) * reset), fresh


def propagate_maps(step: np.ndarray, fresh: np.ndarray, system_dim: int, n_steps: int):
    """Superoperators of rho -> Tr_A W_j, W_j = step W_{j-1} from W_0 = rho (x) rho_A, for
    j = 0..n_steps, as an (n_steps + 1, d_s^2, d_s^2) array.

    The step acts as T = Q step Q^dagger on real coefficients in the basis Q of
    ``quantum._hermitian_basis``; a T with an imaginary part above ``imaginary_residue`` raises
    InternalConsistencyError. The inputs X are the system's basis matrices G_b, plus |0><0|
    where Tr G_b = 0, so every window has unit trace and is renormalized to it after each
    step; with Y their reduced states, each map is S = Y X^{-1}, brought back to the vec basis.
    """
    ds, d = system_dim, system_dim * fresh.shape[0]
    q, qs = _hermitian_basis(d), _hermitian_basis(ds)
    t = _hermitian_real(q @ step @ q.conj().T, "the step").copy()
    trace_row = (q @ np.eye(d).reshape(-1)).real  # Tr G_a, so Tr W = trace_row @ w
    eye = np.eye(ds * ds)
    x = eye + np.outer(eye[0], 1.0 - (qs @ np.eye(ds).reshape(-1)).real)
    history = np.empty((n_steps + 1, d * d, ds * ds))
    history[0] = (q @ attach_superop(fresh, ds) @ qs.conj().T).real @ x
    for j in range(1, n_steps + 1):
        w = np.matmul(t, history[j - 1], out=history[j])
        w /= trace_row @ w
    reduced = (qs @ trace_ancilla_superop(ds, fresh.shape[0]) @ q.conj().T).real
    maps = (reduced @ history @ np.linalg.inv(x)).reshape(n_steps + 1, -1)
    back = np.kron(qs.conj().T, qs.T)  # vec(Qs^dagger M Qs) = (Qs^dagger (x) Qs^T) vec M
    superops = np.empty(maps.shape, dtype=np.complex128)  # filled by parts: no complex copy of maps
    superops.real = maps @ back.real.T
    superops.imag = maps @ back.imag.T
    return superops.reshape(n_steps + 1, ds * ds, ds * ds)
