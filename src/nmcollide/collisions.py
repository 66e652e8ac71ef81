"""Exact simulation of the discrete collision protocol, and the engine's two map routes.

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
Cost is linear in the step count; the literal full-chain simulation lives
in :mod:`nmcollide.verify` as the oracle for this reduction.

The engine works in one real basis of system (x) ancilla, the window
coordinates P_b (x) B_m: the system's Hermitian units P_b
(``quantum._hermitian_units``: E_ii, E_ij + E_ji and i(E_ij - E_ji)) and
the ancilla's, B_m, with the unit on the largest weight, B_top, replaced
by rho_A. There attaching rho_A is the coefficient of B_top, Tr_A sums the
diagonal units, the reset R(W) = Tr_A(W) (x) rho_A is a matrix of 0 and 1
for either bath, and a Hermitian window has real coefficients. One
function, ``_window_coordinates``, builds them for one rho_A: the change of
basis M, attach, Tr_A, R and the loop's readout of the maps through the
system's units. A vec-basis operator enters them through
``_in_window(op, M)``, which checks that it preserves Hermiticity: the
commutator A = -i[H, .] of the exact step, and U (x) U* of the protocol's.
A run builds each of these once. ``window_operators`` builds the
coordinates, A and, for a collision time, U (x) U*, and a run that steps
the routes more than once (the CLI's series and thermal modes,
``verify.convergence_study``) passes them to each; a step builder called
alone builds what it is not given. Each step builder returns the
coordinates with its step, and the window loop reads them from there.

The step is the Lie-Trotter splitting e^{A t_c} e^{B t_c} of
L = A + B, A = -i[H, .], B = gamma (R - 1): e^{A t_c} = U (x) U*, and
R^2 = R makes e^{B t_c} = p_s 1 + (1 - p_s) R at p_s = e^{-gamma t_c}
(``protocol_step``). It converges at second order in t_c, like the Strang
splitting e^{B t_c/2} e^{A t_c} e^{B t_c/2}, whose half resets at the ends
of a run change nothing: R fixes W_0 = rho (x) rho_A, and Tr_A R = Tr_A.

The exact step of the same L is ``generator_step``: e^{L dt} from a numpy
scaling-and-squaring exponential, ``_expm``, taken in window coordinates,
where gamma dt multiplies no rounding. It holds at any finite gamma dt for
either bath. ``_expm`` is the package's one general matrix exponential:
``continuum.LindbladGenerator.semigroup`` takes it too.

One loop, ``propagate_maps``, propagates windows under either step: d_s^2
system inputs at once, each window as its real coefficients, so every
window is Hermitian by construction. It splits a run into blocks of
b = ceil(sqrt(n_steps)) steps. One small product per block carries the
block's first window by T^b to the next block's, and one stacked product
of the rows Tr_A T, Tr_A T^2, ..., Tr_A T^b, built once, with all those
block starts gives every reduced state. So a run makes O(sqrt(n_steps))
small products plus a fixed number of other numpy calls, and keeps no
window per step. Every reduced state is then divided by its own trace, all
in one pass: the exact map preserves it, rounding does not, and since the
step is linear this is the same as renormalizing after every step. Over
2000 steps at t_c = 0.01 the repair keeps the reduced states within 1.1e-14
of a long-double recursion, against 3e-14 to 3e-13 without it. The maps
leave the window coordinates through the system's units, whose change of
basis rounds nothing, so the map at step 0 is the identity bit for bit.

Both map routes wrap that loop and return one MapStack, an (n, d^2, d^2)
superoperator array on row-major vectorized density matrices with its
times; every index of a MapStack is a MapStack, one map included:

* ``discrete_maps(cfg)``: the protocol's own maps at the times n t_c, from
  ``protocol_step``. A trajectory from rho_0 is
  ``discrete_maps(cfg).apply(rho_0)``.
* ``lambda_embedding(h, weights, gamma, grid)``: the continuum maps
  Lambda(t) rho = Tr_A e^{L t}(rho (x) rho_A) on a TimeGrid, from
  ``generator_step``. The step is exact in double precision at any finite
  gamma dt, for a pure and a thermal bath, so the maps are within 1e-13 of
  the closed form over thousands of steps. The CLI's series and thermal
  modes take their maps from it.

The CLI compares the two as the exact step against the splitting step on
one loop. The paper's form of the continuum maps, the convolution series,
is :mod:`nmcollide.continuum`, which no CLI mode runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .quantum import (DensityOperator, HermitianOperator, _hermitian_real, _hermitian_units,
                      unitary_evolution)

__all__ = [
    "BathSpec",
    "CollisionConfig",
    "MapStack",
    "TimeGrid",
    "discrete_maps",
    "generator_step",
    "lambda_embedding",
    "propagate_maps",
    "protocol_step",
    "thermal_weights",
    "window_operators",
]


def thermal_weights(energies, inverse_temperature: float) -> np.ndarray:
    """Boltzmann weights e^{-beta e_k} / Z, computed stably for large beta: relative to the
    lowest level, so the largest weight is e^0. A level whose beta (e_k - e_min) lies past the
    largest double weighs 0, and beta = 0 weighs every level alike, however far apart."""
    e = np.asarray(energies, dtype=float)
    if not np.all(np.isfinite(e)):
        raise ConfigurationError("level energies must be finite")
    if not 0 <= inverse_temperature < np.inf:  # a NaN inverse temperature fails too
        raise ConfigurationError("inverse_temperature must be nonnegative and finite")
    if inverse_temperature == 0:  # 0 * (e - e_min) is NaN where the difference overflows
        return np.full(e.shape, 1.0 / len(e))
    with np.errstate(over="ignore"):  # past the largest double: -inf, a weight e^-inf = 0
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
                with np.errstate(over="ignore"):  # a sum past the largest double is inf: fails
                    total = w.sum()
                if not (np.all(w >= 0) and abs(total - 1.0) <= 1e-12):  # NaN fails too
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


def _window_coordinates(weights, system_dim: int) -> tuple:
    """(M, attach, Tr_A, R, readout), the window coordinates of rho_A = diag(weights): the basis
    P_b (x) B_m of system (x) ancilla, the system's Hermitian units P_b
    (``quantum._hermitian_units``, the columns of P) times the ancilla's, B_m, with the unit on
    the largest weight, B_top, replaced by rho_A. M's column (b, m) is row-major
    vec(P_b (x) B_m). Attaching rho_A puts a system coefficient on B_top, and Tr_A sums the
    diagonal units, Tr B_m = 1, so both are matrices of 0 and 1, (d^2, d_s^2) and (d_s^2, d^2),
    and so is the reset R = attach Tr_A. The readout (P (x) P^-T)^T takes a row of a map's
    coefficients C on the system's units to vec(P C P^-1), the map ``propagate_maps`` writes; it
    is kept as the real (d_s^4, 2 d_s^4) array of its columns' real and imaginary parts
    interleaved, so that the product lands in the map's float64 view."""
    da, ds = len(weights), system_dim
    top = int(np.argmax(weights)) * (da + 1)
    units = _hermitian_units(da)[0].T.reshape(-1, da, da)  # B_m
    units[top] = np.diag(weights)
    system, inverse = _hermitian_units(ds)
    basis = np.kron(system.T.reshape(-1, 1, ds, ds), units)
    attach = np.kron(np.eye(ds * ds), np.eye(da * da)[top][:, None])
    trace = np.kron(np.eye(ds * ds), np.eye(da).reshape(-1))
    return (basis.reshape(len(attach), -1).T, attach, trace, attach @ trace,
            np.kron(system.T, inverse).view(np.float64))


def _in_window(op: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """A row-major vec-basis operator on system (x) ancilla in window coordinates: M^-1 op M, M
    the basis of ``_window_coordinates``. Every P_b (x) B_m is Hermitian, so the result is real
    iff op preserves Hermiticity; an imaginary part above ``imaginary_residue`` raises
    InternalConsistencyError (``quantum._hermitian_real``)."""
    return _hermitian_real(np.linalg.solve(basis, op @ basis), "the operator")


def _commutator(h: HermitianOperator, coords: tuple) -> np.ndarray:
    """A = -i[H, .] in the window coordinates coords (``_in_window``)."""
    eye = np.eye(h.dim)
    return _in_window(-1j * (np.kron(h.data, eye) - np.kron(eye, h.data.T)), coords[0])


def _unitary(h: HermitianOperator, t_c: float, coords: tuple) -> np.ndarray:
    """e^{A t_c} = U (x) U*, U = e^{-iH t_c}, in the window coordinates coords (``_in_window``)."""
    u = unitary_evolution(h, t_c)
    return _in_window(np.kron(u, u.conj()), coords[0])


def window_operators(h: HermitianOperator, weights, t_c: Optional[float] = None) -> tuple:
    """(coords, commutator, unitary): what the map routes of one run share, each built once, for
    H on system (x) len(weights)-level ancilla and rho_A = diag(weights). coords are the window
    coordinates (``_window_coordinates``), commutator is A = -i[H, .] in them, which
    ``generator_step`` takes, and unitary is U (x) U* at the collision time t_c in them, which
    ``protocol_step`` takes, or None without a t_c. ``lambda_embedding`` takes coords and
    commutator, ``discrete_maps`` coords and unitary; nothing keeps them beyond the run that
    built them."""
    coords = _window_coordinates(weights, h.dim // len(weights))
    unitary = None if t_c is None else _unitary(h, t_c, coords)
    return coords, _commutator(h, coords), unitary


def protocol_step(cfg: CollisionConfig, coords: Optional[tuple] = None,
                  unitary: Optional[np.ndarray] = None):
    """The transfer matrix e^{A t_c} e^{B t_c} = (U (x) U*)(p_s 1 + (1 - p_s) R) in window
    coordinates, and those coordinates (``_window_coordinates``). A run that shares them passes
    the coordinates of cfg's bath and U (x) U* at cfg's t_c (``window_operators``); whatever it
    does not pass is built here."""
    if coords is None:
        coords = _window_coordinates(cfg.bath.weight_vector(cfg.ancilla_dim), cfg.system_dim)
    if unitary is None:
        unitary = _unitary(cfg.hamiltonian, cfg.t_c, coords)
    return unitary @ (cfg.p_s * np.eye(len(unitary)) + (1.0 - cfg.p_s) * coords[3]), coords


_TAYLOR_DEGREE = 18


def _expm(x: np.ndarray) -> np.ndarray:
    """e^X of a finite real or complex square matrix, by scaling and squaring of F = e^X - 1, in
    X's own arithmetic: a real X gives a real e^X.

    X is scaled by 2^-s (``np.ldexp``, exact, and free of overflow at any finite X) to
    ||X 2^-s||_1 <= 1/4, where the degree-18 Taylor sum of F leaves out less than 1e-28 of
    ||F||; s squarings F <- 2F + F^2 = (1 + F)^2 - 1 then give e^X = 1 + F. Carrying F instead
    of 1 + F keeps the digits of a step near the identity, which squaring e^X itself loses."""
    x = np.ascontiguousarray(x, dtype=np.result_type(x, np.float64))
    parts = x.view(np.float64)  # the real and imaginary parts of a complex X
    top = int(np.frexp(np.max(np.abs(parts)))[1])  # every part below 2^top
    norm = np.max(np.abs(np.ldexp(parts, -top).view(x.dtype)).sum(axis=0))
    scale = max(0, top + int(np.frexp(norm)[1]) + 2)  # ||X||_1 < 2^(scale - 2)
    y, eye = np.ldexp(parts, -scale).view(x.dtype), np.eye(len(x))
    f = eye
    for k in range(_TAYLOR_DEGREE, 1, -1):  # Horner: F = X (1 + X/2 (1 + X/3 (1 + ...)))
        f = eye + (y @ f) / k
    f = y @ f
    for _ in range(scale):
        f = 2.0 * f + f @ f
    return eye + f


def generator_step(h: HermitianOperator, weights, gamma: float, dt: float,
                   coords: Optional[tuple] = None, commutator: Optional[np.ndarray] = None):
    """e^{L dt} of L = -i[H, .] + gamma (R - 1), R(W) = Tr_A(W) (x) rho_A, rho_A = diag(weights),
    in window coordinates, and those coordinates (``_window_coordinates``). A run that shares
    them passes the coordinates and the commutator A = -i[H, .] in them
    (``window_operators``); whatever it does not pass is built here.

    ``_expm`` runs in those coordinates, where R and R - 1 have entries that are exactly 0, 1
    or -1, so gamma dt multiplies no rounding; the commutator enters them once
    (``_in_window``). At dt <= 0.1 the step is then within 2e-15 of a 60-digit exponential for
    either bath at any gamma from 0 to 1e20; the same ``_expm`` of L dt in the vec basis, where
    R holds the rounded weights, is 4.6e-14 off for a thermal bath at gamma dt = 2500 and
    1.1e-11 at 2.5e5 (w = 0.269, dt = 0.0025). A longer step keeps a phase dt only to about
    dt 2^-53, the rounding that ``cli.PHASE_BOUND`` budgets: each squaring rounds the rotation
    angle. Where nothing damps the rotation the error shows. At gamma = 0 one step is
    1.7e-14 off the closed form at dt = 100, 1.7e-12 at 1e4, 6.9e-9 at PHASE_BOUND and 2.6e-8
    at 4 PHASE_BOUND; at gamma = 0.5 it is 1.1e-16 at each. A gamma dt past the largest double
    raises FloatingPointError.
    """
    rate = gamma * dt
    if not math.isfinite(rate):  # a product past the largest double is a numerical failure
        raise FloatingPointError(f"gamma * dt = {gamma:g} * {dt:g} overflows")
    if coords is None:
        coords = _window_coordinates(weights, h.dim // len(weights))
    if commutator is None:
        commutator = _commutator(h, coords)
    return _expm(commutator * dt + rate * (coords[3] - np.eye(h.dim ** 2))), coords


def propagate_maps(step: np.ndarray, coords: tuple, n_steps: int):
    """Superoperators of rho -> Tr_A W_j, W_j = step W_{j-1} from W_0 = rho (x) rho_A, for
    j = 0..n_steps, as an (n_steps + 1, d_s^2, d_s^2) array.

    The step is a real matrix in the window coordinates of rho_A, coords, which both step
    builders return with it (``_window_coordinates``); the loop reads attach, Tr_A, d_s and the
    readout of the system's units P from them, all built once per run. There every window is
    Hermitian by construction and attaching rho_A, Tr_A and the system's trace are sums of
    coefficients. The inputs X are the system's units P_b, plus E_00 where Tr P_b = 0, so every
    window has unit trace. With b = ceil(sqrt(n_steps)) and T the step, the loop

    * carries each block's first window to the next, W_{jb} = T^b W_{(j-1)b}: one product per
      block, (d^2 x d^2) times (d^2 x d_s^2), into a preallocated stack of block starts; no
      window is kept per step;
    * reads every reduced state Y_{jb+i} = Tr_A T^i W_{jb}, i = 1..b, from one stacked product
      of the rows Tr_A T, ..., Tr_A T^b with that stack: per block, (b d_s^2 x d^2) times
      (d^2 x d_s^2). The last block may run past n_steps; its surplus states are not read;
    * divides each reduced state by its own trace, the sum of its rows on the diagonal units
      added in index order, which for a linear step equals renormalizing the window after
      every step;
    * applies X^-1 = 1 - e_0 (1 - Tr P)^T in place: input column 0 is subtracted from the
      traceless units' columns;
    * reads each map out as S = P Y X^-1 P^-1, one real product a row chunk into the output's
      float64 view, (rows x d_s^4) times the readout (d_s^4 x 2 d_s^4), whose entries are 0,
      +-1, +-1/2 (``_window_coordinates``): S_0 is the identity bit for bit.

    Each BLAS call stays at or below 2^18 multiply-adds, so OpenBLAS keeps it on one thread. The
    readout's chunks are cut to that size. For qubit (x) qubit (d = 4, d_s = 2) up to
    ``cli.MAX_POINTS`` steps, b <= 512: a block start is 16 x 16 x 4 = 1024, a block's reduced
    states 256 b <= 2^17, and a product of the doubling 16^3. Every sum keeps the order of a
    loop of one product and one normalization a block, which the tests keep as the reference:
    for qubit (x) qubit the maps are the same doubles. At d_s = 3 a last block that runs past
    n_steps can move a map by an ulp, because OpenBLAS computes its surplus rows with the rest.
    """
    _, attach, reduced, _, readout = coords
    d2, ds = len(step), math.isqrt(len(reduced))
    trace_row, eye = np.eye(ds).reshape(-1), np.eye(ds * ds)  # Tr P_b
    diagonal, traceless = np.flatnonzero(trace_row), np.flatnonzero(trace_row == 0)
    x = eye + np.outer(eye[0], 1.0 - trace_row)
    block = max(1, math.ceil(math.sqrt(n_steps)))
    powers = step[None]  # T, T^2, ..., T^block by doubling: T^m T^i is T^{m+i}
    while len(powers) < block:
        powers = np.concatenate((powers, powers[-1] @ powers[:block - len(powers)]))
    rows = (reduced @ powers).reshape(-1, d2)  # Tr_A T^i, i = 1..block, stacked
    starts = np.empty((-(-n_steps // block), d2, ds * ds))
    np.dot(attach, x, out=starts[0])
    for previous, start in zip(starts, starts[1:]):
        np.dot(powers[-1], previous, out=start)
    states = np.empty((len(starts) * block + 1, ds * ds, ds * ds))
    states[0] = x  # Tr_A (X (x) rho_A)
    np.matmul(rows, starts, out=states[1:].reshape(len(starts), -1, ds * ds))
    states = states[:n_steps + 1]  # the surplus of the last block is not read
    trace = states[1:, diagonal[0]].copy()
    for unit in diagonal[1:]:
        trace += states[1:, unit]
    states[1:] /= trace[:, None, :]
    for unit in traceless:
        states[..., unit] -= states[..., 0]
    coeffs = states.reshape(n_steps + 1, -1)
    out = np.empty((n_steps + 1, len(readout)), dtype=np.complex128)
    parts = out.view(np.float64)  # Re and Im interleaved, as the readout's columns
    chunk = max(1, 2**18 // readout.size)
    for j in range(0, n_steps + 1, chunk):
        np.dot(coeffs[j:j + chunk], readout, out=parts[j:j + chunk])
    return out.reshape(n_steps + 1, ds * ds, ds * ds)


def _vec(rho) -> np.ndarray:
    """Row-major vec of a state or matrix."""
    return (rho.data if isinstance(rho, DensityOperator) else np.asarray(rho)).reshape(-1)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, t_max] with n_points samples."""

    t_max: float
    n_points: int

    def __post_init__(self):
        if not 0 < self.t_max < math.inf:  # a NaN t_max fails too
            raise ConfigurationError("t_max must be positive and finite")
        if self.n_points < 2:
            raise ConfigurationError("need at least two grid points")

    @property
    def dt(self) -> float:
        return self.t_max / (self.n_points - 1)

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.n_points)


def _whole_steps(span: float, step: float, span_name: str, step_name: str) -> int:
    """The number n >= 1 of steps that span holds: n = round(span / step), with n * step within
    1e-9 * max(1, span) of span, a check relative to the span. A step that is not positive, a
    ratio that is not a finite double and any other misfit raise ConfigurationError, naming
    span_name and step_name; nothing is divided or rounded that could raise on its own."""
    if not step > 0:  # a NaN step fails too
        raise ConfigurationError(f"{step_name} = {step!r} must be positive")
    ratio = span / step
    n = round(ratio) if math.isfinite(ratio) else 0
    if n < 1 or abs(n * step - span) > 1e-9 * max(1.0, span):
        raise ConfigurationError(f"{span_name} = {span!r} is not a whole number of steps of "
                                 f"{step_name} = {step!r} (at least 1, and a finite double)")
    return n


@dataclass(frozen=True)
class MapStack:
    """Dynamical maps at a sequence of times, as one (n, d^2, d^2) superoperator array; the
    dimension d is read from its shape.

    Every index gives a MapStack: an int j the one-map stack at that time
    (``slice(j, j + 1)``, sharing the array; an int past either end raises
    IndexError), a slice or an index array the maps it selects. Construction
    performs no positivity check: a stack also carries candidate maps that
    certification is meant to reject.
    """

    times: np.ndarray
    superops: np.ndarray

    @property
    def dim(self) -> int:
        return math.isqrt(self.superops.shape[-1])

    def __len__(self) -> int:
        return len(self.superops)

    def __getitem__(self, idx):
        if isinstance(idx, (int, np.integer)):
            j = idx + len(self) if idx < 0 else idx
            if not 0 <= j < len(self):
                raise IndexError(f"map index {idx} out of range for {len(self)} maps")
            idx = slice(j, j + 1)
        return MapStack(self.times[idx], self.superops[idx])

    def choi(self) -> np.ndarray:
        """The (n, d^2, d^2) stack of Choi matrices: each superoperator reshuffled, then
        symmetrized in place to remove rounding noise: 0.5 (C + C^dag) bit for bit, with at most
        two Choi-sized arrays live. ``verify.certify_cpt`` does not build it: it gathers only the
        exact blocks of these matrices, with this arithmetic, and this dense stack is the
        reference it is tested against (and the input of the Kraus route)."""
        n, d = len(self.superops), self.dim
        t = self.superops.reshape(n, d, d, d, d)
        choi = np.array(t.transpose(0, 3, 1, 4, 2), order="C").reshape(n, d * d, d * d)
        choi += choi.conj().transpose(0, 2, 1)
        choi *= 0.5
        return choi

    def apply(self, rho) -> np.ndarray:
        """Each map applied to rho, as an (n, d, d) array."""
        return (self.superops @ _vec(rho)).reshape(-1, self.dim, self.dim)


def _system_dim_and_weights(h: HermitianOperator, weights):
    """The system dimension of H on system (x) len(weights)-level ancilla, and rho_A's diagonal:
    the weights as given, once BathSpec has checked them as a probability vector. They are not
    renormalized: a second w / w.sum() moves the bits of thermal_weights' output."""
    w = np.asarray(BathSpec(kind="thermal", weights=tuple(weights)).weights, dtype=float)
    if h.dim % len(w) != 0:
        raise ConfigurationError(f"hamiltonian dim {h.dim} is not divisible by "
                                 f"ancilla dim {len(w)}")
    return h.dim // len(w), w


def lambda_embedding(h: HermitianOperator, weights, gamma: float, grid: TimeGrid,
                     coords: Optional[tuple] = None,
                     commutator: Optional[np.ndarray] = None) -> MapStack:
    """Dynamical maps Lambda(t) rho = Tr_A e^{L t}(rho (x) rho_A) on the grid.

    L = -i[H, .] + gamma (R - 1) acts on system (x) one ancilla, with
    rho_A = diag(weights). One step e^{L dt} (``generator_step``, exact in double precision at
    any finite gamma dt) is stepped through the window loop, ``propagate_maps``, never an
    eigendecomposition: for the exchange coupling L is defective at gamma = 2. The CLI's series
    and thermal modes take their maps from it, passing the window coordinates and the
    commutator that their run built once (``window_operators``).
    """
    if not 0 <= gamma < math.inf:  # a NaN rate fails too
        raise ConfigurationError("memory-loss rate gamma must be nonnegative and finite")
    w = _system_dim_and_weights(h, weights)[1]
    step = generator_step(h, w, gamma, grid.dt, coords, commutator)
    return MapStack(grid.times(), propagate_maps(*step, grid.n_points - 1))


def discrete_maps(cfg: CollisionConfig, coords: Optional[tuple] = None,
                  unitary: Optional[np.ndarray] = None) -> MapStack:
    """The protocol's maps rho_0 -> rho_n at times n * t_c, n = 0..n_steps, for either bath,
    from ``propagate_maps``: ``discrete_maps(cfg).apply(rho_0)`` is the trajectory. A run that
    shares them passes the window coordinates of cfg's bath and U (x) U* at cfg's t_c
    (``protocol_step``)."""
    superops = propagate_maps(*protocol_step(cfg, coords, unitary), cfg.n_steps)
    return MapStack(np.arange(cfg.n_steps + 1) * cfg.t_c, superops)
