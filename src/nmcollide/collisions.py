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

The exact step of the same L is ``generator_step``: e^{L dt} from a numpy
scaling-and-squaring exponential, ``_expm``, taken in a basis where the
reset R has entries that are exactly 0 or 1. It holds at any finite
gamma dt for either bath. The continuum maps of :mod:`nmcollide.continuum`
come from it, and ``_expm`` is the package's one general matrix
exponential: ``LindbladGenerator.semigroup`` takes it too.

One loop, ``propagate_maps``, propagates windows under any fixed step
matrix: d_s^2 system inputs at once, each window as its real
coefficients in an orthonormal Hermitian basis, so every window is
Hermitian by construction. It reads b = ceil(sqrt(n_steps)) reduced
states per numpy call: the stacked rows Tr_A T, Tr_A T^2, ..., Tr_A T^b,
built once, times the block's first window, which T^b carries to the
next block. So a run makes O(sqrt(n_steps)) calls and keeps no window
per step. Every reduced state is then divided by its own trace: the
exact map preserves it, rounding does not, and since the step is linear
this is the same as renormalizing after every step. Over 2000 steps at
t_c = 0.01 the repair keeps the reduced states within 1.1e-14 of a
long-double recursion, against 3e-14 to 3e-13 without it. It solves for
the maps themselves; the discrete maps and the continuum maps both come
from it, and a trajectory from rho_0 is ``discrete_maps(cfg).apply(rho_0)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .quantum import (HermitianOperator, _hermitian_basis, _hermitian_real, _hermitian_to_vec,
                      unitary_evolution)

__all__ = [
    "BathSpec",
    "CollisionConfig",
    "attach_superop",
    "generator_step",
    "propagate_maps",
    "protocol_step",
    "reset_generator",
    "reset_superop",
    "thermal_weights",
    "trace_ancilla_superop",
]


def thermal_weights(energies, inverse_temperature: float) -> np.ndarray:
    """Boltzmann weights e^{-beta e_k} / Z, computed stably for large beta."""
    e = np.asarray(energies, dtype=float)
    if not np.all(np.isfinite(e)):
        raise ConfigurationError("level energies must be finite")
    if not 0 <= inverse_temperature < np.inf:  # a NaN inverse temperature fails too
        raise ConfigurationError("inverse_temperature must be nonnegative and finite")
    logw = -inverse_temperature * (e - e.min())
    w = np.exp(logw)
    return w / w.sum()


@dataclass(frozen=True)
class BathSpec:
    """Initial single-ancilla state of the bath.

    ``pure_ground`` starts every ancilla in |0>. ``thermal`` starts every
    ancilla in the Boltzmann mixture of the given level energies; the
    zero-temperature endpoint can be expressed directly through an explicit
    ``weights`` vector such as (1, 0), which beta alone cannot reach. A
    thermal bath takes either ``weights`` or both ``energies`` and
    ``inverse_temperature``, never a mixture.
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
                if self.energies is not None or self.inverse_temperature is not None:
                    raise ConfigurationError(
                        "thermal bath takes 'weights' or 'energies' and "
                        "'inverse_temperature', not both"
                    )
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
        if not 0 <= self.t_c < np.inf:  # a NaN t_c fails too
            raise ConfigurationError("collision time t_c must be nonnegative and finite")
        if self.n_steps < 1:
            raise ConfigurationError("need at least one step")


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
    fresh = np.diag(cfg.bath.weight_vector(cfg.ancilla_dim)).astype(np.complex128)
    reset = reset_superop(fresh, cfg.system_dim)
    u = unitary_evolution(cfg.hamiltonian, cfg.t_c)
    return np.kron(u, u.conj()) @ (cfg.p_s * np.eye(u.size) + (1.0 - cfg.p_s) * reset), fresh


_TAYLOR_DEGREE = 18


def _expm(x: np.ndarray) -> np.ndarray:
    """e^X of a finite complex square matrix, by scaling and squaring of F = e^X - 1.

    X is scaled by 2^-s (``np.ldexp``, exact, and free of overflow at any finite X) to
    ||X 2^-s||_1 <= 1/4, where the degree-18 Taylor sum of F leaves out less than 1e-28 of
    ||F||; s squarings F <- 2F + F^2 = (1 + F)^2 - 1 then give e^X = 1 + F. Carrying F instead
    of 1 + F keeps the digits of a step near the identity, which squaring e^X itself loses."""
    parts = np.ascontiguousarray(x, dtype=np.complex128).view(np.float64)
    top = int(np.frexp(np.max(np.abs(parts)))[1])  # every real and imaginary part below 2^top
    norm = np.max(np.abs(np.ldexp(parts, -top).view(np.complex128)).sum(axis=0))
    scale = max(0, top + int(np.frexp(norm)[1]) + 2)  # ||X||_1 < 2^(scale - 2)
    y, eye = np.ldexp(parts, -scale).view(np.complex128), np.eye(len(x))
    f = eye
    for k in range(_TAYLOR_DEGREE, 1, -1):  # Horner: F = X (1 + X/2 (1 + X/3 (1 + ...)))
        f = eye + (y @ f) / k
    f = y @ f
    for _ in range(scale):
        f = 2.0 * f + f @ f
    return eye + f


def generator_step(h: HermitianOperator, weights, gamma: float, dt: float):
    """e^{L dt} of L = -i[H, .] + gamma (R - 1) on row-major vec(W) (``reset_generator``), and
    rho_A = diag(weights).

    ``_expm`` runs in the basis E_st (x) B_m of system matrix units E_st and ancilla operators
    B_m: the matrix units, with the one on the largest weight replaced by rho_A. There
    R(E_st (x) B_m) = Tr(B_m) E_st (x) rho_A, so R and R - 1 have entries that are exactly 0, 1
    or -1, and gamma dt multiplies no rounding. The step is then within 2e-15 of a 60-digit
    exponential for either bath at any gamma from 0 to 1e20; the same ``_expm`` of L dt in the
    vec basis, where R holds the rounded weights, is 4.6e-14 off for a thermal bath at
    gamma dt = 2500 and 1.1e-11 at 2.5e5 (w = 0.269, dt = 0.0025). A gamma dt past the largest
    double raises FloatingPointError.
    """
    rate = gamma * dt
    if not math.isfinite(rate):  # a product past the largest double is a numerical failure
        raise FloatingPointError(f"gamma * dt = {gamma:g} * {dt:g} overflows")
    commutator, _, rho_a = reset_generator(h, weights)
    da, ds = len(rho_a), h.dim // len(rho_a)
    top = int(np.argmax(np.diagonal(rho_a).real)) * (da + 1)  # B_top = rho_A
    units = np.eye(da * da, dtype=np.complex128).reshape(-1, da, da)
    units[top] = rho_a
    basis = np.kron(np.eye(ds * ds).reshape(-1, 1, ds, ds), units).reshape(-1, h.dim ** 2).T
    inverse = np.linalg.inv(basis)
    reset = np.kron(np.eye(ds * ds), np.outer(np.eye(da * da)[top], np.eye(da).reshape(-1)))
    generator = (inverse @ commutator @ basis) * dt + rate * (reset - np.eye(len(reset)))
    return basis @ _expm(generator) @ inverse, rho_a


def propagate_maps(step: np.ndarray, fresh: np.ndarray, system_dim: int, n_steps: int):
    """Superoperators of rho -> Tr_A W_j, W_j = step W_{j-1} from W_0 = rho (x) rho_A, for
    j = 0..n_steps, as an (n_steps + 1, d_s^2, d_s^2) array.

    The step acts as T = Q step Q^dagger on real coefficients in the basis Q of
    ``quantum._hermitian_basis``; a T with an imaginary part above ``imaginary_residue`` raises
    InternalConsistencyError. The inputs X are the system's basis matrices G_b, plus |0><0|
    where Tr G_b = 0, so every window has unit trace. The reduced states Y_{j+i} = Tr_A T^i W_j,
    i = 1..b, b = ceil(sqrt(n_steps)), of a block come from one product of the stacked rows
    Tr_A T, ..., Tr_A T^b with the block's first window W_j, which T^b then carries to the
    next block; no window is kept per step. Each reduced state is divided by its own trace,
    which for a linear step equals renormalizing the window after every step. Each map is
    S = Y X^{-1}, brought back to the vec basis by ``quantum._hermitian_to_vec``.
    """
    ds, d = system_dim, system_dim * fresh.shape[0]
    q, qs = _hermitian_basis(d), _hermitian_basis(ds)
    t = _hermitian_real(q @ step @ q.conj().T, "the step").copy()
    trace_row = (qs @ np.eye(ds).reshape(-1)).real  # Tr G_b, so Tr Y = trace_row @ y
    eye = np.eye(ds * ds)
    x = eye + np.outer(eye[0], 1.0 - trace_row)
    reduced = (qs @ trace_ancilla_superop(ds, fresh.shape[0]) @ q.conj().T).real
    window = (q @ attach_superop(fresh, ds) @ qs.conj().T).real @ x
    block = max(1, math.ceil(math.sqrt(n_steps)))
    powers = t[None]  # T, T^2, ..., T^block by doubling: T^m T^i is T^{m+i}
    while len(powers) < block:
        powers = np.concatenate((powers, powers[-1] @ powers[:block - len(powers)]))
    readout = (reduced @ powers).reshape(-1, d * d)  # Tr_A T^i, i = 1..block, stacked
    states = np.empty((n_steps + 1, ds * ds, ds * ds))
    states[0] = reduced @ window
    for j in range(0, n_steps, block):
        y = states[j + 1:j + 1 + block]  # the last block may be short
        np.matmul(readout[:y.size // (ds * ds)], window, out=y.reshape(-1, ds * ds))
        y /= (trace_row @ y)[:, None, :]
        window = powers[-1] @ window
    return _hermitian_to_vec((states @ np.linalg.inv(x)).reshape(n_steps + 1, -1), ds)
