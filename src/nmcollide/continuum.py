"""Continuous-limit dynamical maps from the memory-kernel channel family.

The exact map at memory-loss rate Gamma is a weighted series of
auto-convolutions of the kernel channel E(t),

    Lambda(t) = e^{-Gamma t} * sum_{k>=1} Gamma^{k-1} (E^{*k})(t),

where * is convolution of superoperator-valued functions of time with
composition as the product, and E(t) rho = Tr_A e^{-iHt}(rho (x) rho_A)e^{iHt}.
The series is the Dyson expansion, in the reset term, of one generator
on system (x) a single ancilla, L = -i[H, .] + Gamma (R - 1) with
R(W) = Tr_A(W) (x) rho_A, so that Lambda(t) rho = Tr_A e^{L t}(rho (x) rho_A).
Every route takes one H and rho_A = diag(bath.weight_vector), the
protocol's own. The kernel's modes take the collision engine's attach and
trace matrices on row-major vecs; the embedding and the protocol run in
the engine's window coordinates, where attaching rho_A, Tr_A and the reset
are exact.
The kernel has one constructor, ``build_kernel_map(h, weights)``: E(t) as
its exponential modes on H and rho_A = diag(weights), which
``MemoryKernelMap.maps(times)`` samples. It and the routes below return
one MapStack, an (n, d^2, d^2) superoperator array on row-major
vectorized density matrices with its times:

* ``lambda_embedding``: the generator L itself, Lambda(t) rho =
  Tr_A e^{L t}(rho (x) rho_A), with one step e^{L dt} from
  ``collisions.generator_step`` stepped through the engine's window loop.
  The step is exact in double precision at any finite Gamma dt, for a
  pure and a thermal bath, so the maps are within 1e-13 of the closed
  form over thousands of steps, and the map at t = 0 is the identity bit
  for bit. The CLI's series and thermal modes take their maps from it.
* ``lambda_series``: the paper's form, the whole series on a uniform grid,
  as the solution of its Volterra equation
  X(t) = B1(t) + Gamma int_0^t B1(s) X(t - s) ds, B1 = e^{-Gamma t} E(t),
  by product integration: X is linear between nodes, and each distinct
  rate's mode of B1 is integrated exactly against the hat functions.
  Every weight operator is an integral of CP maps against a nonnegative
  function, and the weights integrate e^{-Gamma s} exactly, so the maps
  are CP and trace preserving at every Gamma and step, and the error is
  second order in the step (~1e-6 on the shipped configs' grids). E(t) is a finite
  sum of exponentials, so each rate's running convolution sum has a
  one-step recurrence: with the geometric forcing, the solve is the orbit
  of one fixed transfer matrix on 2 R d_s^2 rows (R distinct rates; 40
  rows for the exchange coupling), read out in blocks of about sqrt(n)
  points per numpy call. Nothing is truncated, and the cost is linear in
  the grid and independent of Gamma. No CLI mode runs it: it is kept as
  the series form the paper writes, checked against the closed form and
  the generator, and shares no code with ``propagate_maps``.
* ``discrete_maps``: the protocol's own maps at the times n t_c. Its step
  is the splitting e^{A t_c} e^{B t_c} of L = A + B, A = -i[H, .] and
  B = Gamma (R - 1), with the Strang splitting's O(t_c^2) error: R fixes
  rho (x) rho_A and Tr_A R = Tr_A, so half resets at both ends change
  nothing. It shares the engine's one window loop with the embedding, so
  the CLI's comparison of the two is the exact step against the
  splitting step on one loop.

The closed form for the exchange coupling (``jaynes_cummings.jc_maps``)
returns a MapStack too; it imports this module, never the reverse.

``lindblad_limit`` gives the memoryless semigroup of the kernel's
short-time derivative (the infinite-rate regime). Every index of a MapStack
is a MapStack, one map included. A map's Kraus form is
``quantum.kraus_from_choi`` of its row of ``MapStack.choi()``; the routes
stay superoperators, since the series adds maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .collisions import (BathSpec, CollisionConfig, _expm, attach_superop, generator_step,
                         propagate_maps, protocol_step, trace_ancilla_superop)
from .errors import ConfigurationError, InternalConsistencyError
from .quantum import DensityOperator, HermitianOperator, _hermitian_units
from .tolerances import DEFAULT_TOLERANCES

__all__ = [
    "TimeGrid",
    "SeriesPolicy",
    "MemoryKernelMap",
    "MapStack",
    "LambdaSeriesResult",
    "LindbladGenerator",
    "build_kernel_map",
    "adc_decay_kernel",
    "lambda_series",
    "lambda_embedding",
    "discrete_maps",
    "lindblad_limit",
]


# --- vectorization conventions ---------------------------------------------


def _vec(rho) -> np.ndarray:
    """Row-major vec of a state or matrix."""
    return (rho.data if isinstance(rho, DensityOperator) else np.asarray(rho)).reshape(-1)


# --- grids and policies -----------------------------------------------------


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


@dataclass(frozen=True)
class SeriesPolicy:
    """The truncation control of the series before it was solved exactly: an order cap and a
    tail threshold. Still checked on construction, and read by nothing: ``lambda_series``
    truncates nothing. It stays only while ``bench/`` still builds one (ROADMAP.md, benchmark
    upkeep)."""

    k_max: int = 200
    tail_tol: float = 1e-8

    def __post_init__(self):
        if self.k_max < 1:
            raise ConfigurationError("k_max must be at least 1")
        if not self.tail_tol > 0:  # a NaN tail_tol fails too
            raise ConfigurationError("tail_tol must be positive")


# --- kernel maps -------------------------------------------------------------


@dataclass(frozen=True)
class MemoryKernelMap:
    """Time-parametrized CPT channel family E(t) on the system, as its exponential modes.

    The superoperator is S(t) = sum_p e^{rates[p] t} mats[p]: Hamiltonian-generated
    kernels always admit it (rates are i * eigenvalue differences), and it
    samples a whole grid at once.
    """

    system_dim: int
    rates: np.ndarray  # (P,) complex
    mats: np.ndarray  # (P, d^2, d^2) complex

    def maps(self, times) -> MapStack:
        """E(t) at each time as one MapStack (one map for a scalar time)."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        phases = np.exp(np.outer(self.rates, times))  # (P, n)
        return MapStack(times, np.einsum("pj,pab->jab", phases, self.mats), self.system_dim)


def _system_dim_and_weights(h: HermitianOperator, weights):
    """The system dimension of H on system (x) len(weights)-level ancilla, and rho_A's diagonal:
    the weights as given, once BathSpec has checked them as a probability vector. They are not
    renormalized: a second w / w.sum() moves the bits of thermal_weights' output."""
    w = np.asarray(BathSpec(kind="thermal", weights=tuple(weights)).weights, dtype=float)
    if h.dim % len(w) != 0:
        raise ConfigurationError(f"hamiltonian dim {h.dim} is not divisible by "
                                 f"ancilla dim {len(w)}")
    return h.dim // len(w), w


def build_kernel_map(h: HermitianOperator, weights=(1.0, 0.0)) -> MemoryKernelMap:
    """E(t) rho = Tr_A e^{-iHt} (rho (x) rho_A) e^{iHt}, rho_A = diag(weights): a unitary
    dilation, CPT at every t. (1, 0) is the ground-state ancilla; a bath passes its
    ``BathSpec.weight_vector``.

    With U = e^{-iHt} = V e^{-i lambda t} V^dag, U (x) U* is diagonal in the basis V (x) V*
    with entries e^{-i(lambda_a - lambda_b) t}: mode (a, b) is column ab of Tr_A (V (x) V*)
    times row ab of (V (x) V*)^dag attach.
    """
    system_dim, w = _system_dim_and_weights(h, weights)
    evals, evecs = np.linalg.eigh(h.data)
    rates = (-1j * (evals[:, None] - evals[None, :])).reshape(-1)
    basis = np.kron(evecs, evecs.conj())
    left = trace_ancilla_superop(system_dim, len(w)) @ basis  # (d_s^2, modes)
    right = basis.conj().T @ attach_superop(np.diag(w), system_dim)  # (modes, d_s^2)
    mats = np.einsum("xp,py->pxy", left, right, order="C")  # maps() keeps this layout
    return MemoryKernelMap(system_dim, rates, mats)


def adc_decay_kernel(rate: float) -> MemoryKernelMap:
    """Synthetic exponential-damping kernel: amplitude transmission e^{-rate t}.

    Its short-time derivative is a genuine Lindblad generator, which makes
    it the reference case for the memoryless-limit extraction.
    """
    if not 0 <= rate < math.inf:  # a NaN rate fails too
        raise ConfigurationError("decay rate must be nonnegative and finite")
    e03 = np.zeros((4, 4), dtype=np.complex128)
    e03[0, 3] = 1.0
    m0 = np.diag([1.0, 0.0, 0.0, 0.0]).astype(np.complex128) + e03
    m1 = np.diag([0.0, 1.0, 1.0, 0.0]).astype(np.complex128)
    m2 = np.diag([0.0, 0.0, 0.0, 1.0]).astype(np.complex128) - e03
    return MemoryKernelMap(
        system_dim=2,
        rates=np.array([0.0, -rate, -2.0 * rate], dtype=np.complex128),
        mats=np.stack([m0, m1, m2]),
    )


# --- dynamical maps ----------------------------------------------------------


@dataclass(frozen=True)
class MapStack:
    """Dynamical maps at a sequence of times, as one (n, d^2, d^2) superoperator array.

    Every index gives a MapStack: an int j the one-map stack at that time
    (``slice(j, j + 1)``, sharing the array; an int past either end raises
    IndexError), a slice or an index array the maps it selects. Construction
    performs no positivity check: a stack also carries candidate maps that
    certification is meant to reject.
    """

    times: np.ndarray
    superops: np.ndarray
    dim: int

    def __len__(self) -> int:
        return len(self.superops)

    def __getitem__(self, idx):
        if isinstance(idx, (int, np.integer)):
            j = idx + len(self) if idx < 0 else idx
            if not 0 <= j < len(self):
                raise IndexError(f"map index {idx} out of range for {len(self)} maps")
            idx = slice(j, j + 1)
        return MapStack(self.times[idx], self.superops[idx], self.dim)

    def choi(self) -> np.ndarray:
        """The (n, d^2, d^2) stack of Choi matrices: each superoperator reshuffled, then
        symmetrized in place to remove rounding noise: 0.5 (C + C^dag) bit for bit, with at most
        two Choi-sized arrays live."""
        n, d = len(self.superops), self.dim
        t = self.superops.reshape(n, d, d, d, d)
        choi = np.array(t.transpose(0, 3, 1, 4, 2), order="C").reshape(n, d * d, d * d)
        choi += choi.conj().transpose(0, 2, 1)
        choi *= 0.5
        return choi

    def apply(self, rho) -> np.ndarray:
        """Each map applied to rho, as an (n, d, d) array."""
        return (self.superops @ _vec(rho)).reshape(-1, self.dim, self.dim)


@dataclass(frozen=True)
class LambdaSeriesResult:
    """Grid-indexed dynamical maps. The solve truncates nothing, so ``truncation_order`` and
    ``tail_norm`` are always 0; they stay only while ``bench/`` still reads them (ROADMAP.md,
    benchmark upkeep)."""

    maps: MapStack
    truncation_order: int = 0
    tail_norm: float = 0.0


# 1 / (k + 2)!, k = 0..19: the Taylor coefficients of phi2 below; the first dropped term is below
# 1/22! ~ 9e-22 where |x| < 1
_TAYLOR = 1.0 / np.cumprod(np.arange(2.0, 22.0))
# |x| past which psi(x) ~ 1/x^2 leaves the normal doubles and the weights lose their digits
_X_BOUND = 1e150


def _hat_integrals(x: np.ndarray) -> tuple:
    """phi2(x) = int_0^1 (1 - v) e^{xv} dv and psi(x) = int_0^1 v e^{xv} dv, elementwise for
    complex x: e^{xv} against the falling and the rising half of a hat function. A Taylor series
    where |x| < 1, where the closed forms (e^x - 1 - x)/x^2 and (1 - e^x (1 - x))/x^2 cancel;
    the closed forms, through expm1, elsewhere, divided by x twice so that x^2 never overflows.
    Neither overflows where Re x <= 0."""
    small = np.abs(x) < 1.0
    powers = np.where(small, x, 0.0)[:, None] ** np.arange(len(_TAYLOR))
    big = np.where(small, 1.0, x)  # a stand-in 1 where the series is used: nothing divides by 0
    phi2 = np.where(small, powers @ _TAYLOR, (np.expm1(big) - big) / big / big)
    psi = np.where(small, powers @ (_TAYLOR * np.arange(1, len(_TAYLOR) + 1)),
                   (1.0 - np.exp(big) * (1.0 - big)) / big / big)
    return phi2, psi


def _distinct_modes(kernel: MemoryKernelMap) -> tuple:
    """(rates, mats): the kernel's modes with equal rates summed, each rate once.

    Raises InternalConsistencyError unless E(t) preserves Hermiticity: its coefficients
    P^-1 E(t) P on the Hermitian units of ``quantum._hermitian_units`` are real at every t iff
    the mode of each rate r is the conjugate of the mode of r* (zero where r* is no rate), since
    distinct exponentials are independent. Half the largest mismatch bounds the imaginary part
    the modes give E(t). Raises ConfigurationError unless E(0) = 1, where every solve starts."""
    rates, which = np.unique(kernel.rates, return_inverse=True)
    mats = np.zeros((len(rates),) + kernel.mats.shape[1:], dtype=np.complex128)
    np.add.at(mats, which, kernel.mats)
    units, inverse = _hermitian_units(kernel.system_dim)
    coeffs = inverse @ mats @ units
    partner = rates[:, None] == rates.conj()[None, :]  # at most one partner: the rates differ
    residue = 0.5 * float(np.max(np.abs(coeffs - np.einsum("rs,sab->rab", partner, coeffs.conj()))))
    if not residue <= DEFAULT_TOLERANCES.imaginary_residue:
        raise InternalConsistencyError(f"the kernel does not preserve Hermiticity: imaginary part "
                                       f"{residue:.3e} in a Hermitian basis")
    start = float(np.max(np.abs(mats.sum(axis=0) - np.eye(len(units)))))
    if not start <= DEFAULT_TOLERANCES.kernel_identity:
        raise ConfigurationError(f"the kernel's E(0) is not the identity map: max entry "
                                 f"difference {start:.3e}")
    return rates, mats


def lambda_series(kernel: MemoryKernelMap, gamma: float, grid: TimeGrid,
                  policy: Optional[SeriesPolicy] = None) -> LambdaSeriesResult:
    """Solve X(t) = B1(t) + gamma int_0^t B1(s) X(t - s) ds on the grid, B1 = e^{-gamma t} E(t),
    by product integration: the whole convolution series, with no truncation.

    X is interpolated linearly between nodes, and each distinct rate's mode e^{(r - gamma) s} M_r
    of B1 is integrated exactly against the hat functions. With x = (r - gamma) dt, the node at
    s = m dt weighs dt phi2(x) at m = 0, dt e^{x(m-1)} (e^x phi2(x) + psi(x)) inside and
    dt e^{x(j-1)} psi(x) at m = j (``_hat_integrals``). So each weight operator is an integral of
    CP maps against a nonnegative function, and the weights integrate e^{-gamma s} exactly: the
    maps are CP and trace preserving at every gamma and dt, up to rounding.

    Each rate's running sum S_r(j) = sum_{m=1}^{j-1} e^{x(m-1)} X_{j-m} obeys
    S_r(j + 1) = X_j + e^x S_r(j), and the forcing G_r(j) = e^{x(j-1)} is geometric. Solving
    the implicit m = 0 term, X_j = K Z_j with Z_j = (S_1..S_R, G_1..G_R)(j), 2 R d_s^2 rows,
    and Z_{j+1} = T Z_j for one fixed T. K = A [w_r M_r .., c_r M_r ..] with
    w_r = gamma dt (e^x phi2 + psi) and c_r = e^x + gamma dt psi, and A the inverse of
    1 - gamma dt sum_r phi2(x_r) M_r = sum_r (phi1(x_r) - r dt phi2(x_r)) M_r, phi1 = phi2 + psi:
    the right side uses E(0) = sum_r M_r = 1 and cancels nothing at large gamma dt. The grid is
    read out b = ceil(sqrt(n - 2)) points per numpy call: the stack K T, .., K T^b, built once
    row by row, times the block's first state gives the block's maps, written in place, and the
    next state is the running sums advanced over the block's maps. No state is kept per point.

    ``kernel`` must preserve Hermiticity and start at E(0) = 1 (``_distinct_modes``), and
    gamma dt and every |r dt| stay within 1e150, where the weights keep their digits (else
    ConfigurationError). A result that is not finite raises InternalConsistencyError. ``policy``
    is checked and not read: nothing is truncated. It stays only while ``bench/`` still passes
    one (ROADMAP.md, benchmark upkeep).
    """
    if not 0 <= gamma < math.inf:  # a NaN rate fails too
        raise ConfigurationError("memory-loss rate gamma must be nonnegative and finite")
    if policy is not None and not isinstance(policy, SeriesPolicy):
        raise ConfigurationError(f"policy must be a SeriesPolicy, got {policy!r}")
    rates, mats = _distinct_modes(kernel)
    n, d2, dt = grid.n_points, kernel.system_dim ** 2, grid.dt
    x = (rates - gamma) * dt
    if not np.max(np.abs(x)) <= _X_BOUND:
        raise ConfigurationError(f"gamma = {gamma:g} on a step dt = {dt:g} puts a weight's "
                                 f"exponent past {_X_BOUND:g}, where the weights lose their digits")
    phi2, psi = _hat_integrals(x)
    decay, gdt = np.exp(x), gamma * dt
    implicit = np.tensordot(phi2 + psi - rates * dt * phi2, mats, 1)
    weights = np.concatenate([gdt * (decay * phi2 + psi), decay + gdt * psi])  # w_r, then c_r
    k = np.linalg.solve(implicit, np.hstack(weights[:, None, None] * np.concatenate([mats, mats])))
    block = max(1, math.ceil(math.sqrt(n - 2)))
    readout = np.empty((block,) + k.shape, dtype=np.complex128)  # K T^i, i = 1..block
    row, sums, diagonal = k, len(rates) * d2, np.tile(decay, 2).repeat(d2)
    for i in range(block):  # row T = row diag(e^x) + (row's S columns summed) K
        row = row * diagonal + row[:, :sums].reshape(d2, -1, d2).sum(1) @ k
        readout[i] = row
    z = np.zeros((2, len(rates), d2, d2), dtype=np.complex128)
    z[1] = np.eye(d2)  # S_r(1) = 0, G_r(1) = 1
    out = np.empty((n, d2, d2), dtype=np.complex128)
    out[0] = np.eye(d2)
    out[1] = k @ z.reshape(-1, d2)
    lags = np.exp(np.outer(x, np.arange(block - 1, -1, -1)))  # e^{x (block - 1 - i)}
    readout = readout.reshape(block * d2, -1)  # one product per block: (b d2, m) @ (m, d2)
    for j in range(1, n - 1, block):
        size = min(block, n - 1 - j)  # the last block may be short
        maps = out[j + 1:j + 1 + size].reshape(-1, d2)  # a view: the product writes in place
        np.matmul(readout[:size * d2], z.reshape(-1, d2), out=maps)
        z *= np.exp(x * size)[:, None, None]  # Z_j -> Z_{j + size}, over X_j .. X_{j+size-1}
        z[0] += (lags[:, block - size:] @ out[j:j + size].reshape(size, -1)).reshape(z[0].shape)
    if not np.all(np.isfinite(out)):
        raise InternalConsistencyError(f"the series at gamma = {gamma:g} on {n} points over "
                                       f"[0, {grid.t_max:g}] is not finite")
    return LambdaSeriesResult(MapStack(grid.times(), out, kernel.system_dim))


# --- Markovian embedding ------------------------------------------------------


def lambda_embedding(h: HermitianOperator, weights, gamma: float, grid: TimeGrid) -> MapStack:
    """Dynamical maps Lambda(t) rho = Tr_A e^{L t}(rho (x) rho_A) on the grid.

    L = -i[H, .] + gamma (R - 1) acts on system (x) one ancilla, with
    rho_A = diag(weights). One step e^{L dt} (``collisions.generator_step``, exact in
    double precision at any finite gamma dt) is stepped through the engine's window loop,
    ``collisions.propagate_maps``, never an eigendecomposition: for the exchange coupling L is
    defective at gamma = 2. The CLI's series and thermal modes take their maps from it.
    """
    if not 0 <= gamma < math.inf:  # a NaN rate fails too
        raise ConfigurationError("memory-loss rate gamma must be nonnegative and finite")
    ds, w = _system_dim_and_weights(h, weights)
    superops = propagate_maps(*generator_step(h, w, gamma, grid.dt), ds, grid.n_points - 1)
    return MapStack(grid.times(), superops, ds)


def discrete_maps(cfg: CollisionConfig) -> MapStack:
    """The protocol's maps rho_0 -> rho_n at times n * t_c, n = 0..n_steps, for either bath,
    from ``collisions.propagate_maps``: ``discrete_maps(cfg).apply(rho_0)`` is the trajectory."""
    superops = propagate_maps(*protocol_step(cfg), cfg.system_dim, cfg.n_steps)
    return MapStack(np.arange(cfg.n_steps + 1) * cfg.t_c, superops, cfg.system_dim)


# --- memoryless limit --------------------------------------------------------


@dataclass(frozen=True)
class LindbladGenerator:
    """Finite-difference generator of the memoryless semigroup e^{G t}."""

    generator: np.ndarray
    dim: int
    step: float

    def norm(self) -> float:
        return float(np.max(np.abs(self.generator)))

    def semigroup(self, t: float) -> MapStack:
        """e^{G t} as a one-map MapStack."""
        return MapStack(np.array([float(t)]), _expm(self.generator * t)[None], self.dim)


def lindblad_limit(kernel: MemoryKernelMap, h: float, *, order: int = 1) -> LindbladGenerator:
    """Extract the short-time generator G ~ dE/dt(0) by finite differences.

    order=1 uses [E(h) - 1]/h; order=2 adds an E(2h) sample for the
    second-order one-sided difference. Both annihilate the trace
    functional exactly, so e^{G t} is trace preserving.
    """
    if not 0 < h < math.inf:  # a NaN step fails too
        raise ConfigurationError("finite-difference step h must be positive and finite")
    eye = np.eye(kernel.system_dim ** 2, dtype=np.complex128)
    s1, s2 = kernel.maps([h, 2.0 * h]).superops
    if order == 1:
        gen = (s1 - eye) / h
    elif order == 2:
        gen = (4.0 * s1 - s2 - 3.0 * eye) / (2.0 * h)
    else:
        raise ConfigurationError("difference order must be 1 or 2")
    return LindbladGenerator(generator=gen, dim=kernel.system_dim, step=h)
