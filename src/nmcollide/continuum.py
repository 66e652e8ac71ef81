"""The paper's series form of the continuous-limit maps, and their memoryless limit.

The exact map at memory-loss rate Gamma is a weighted series of
auto-convolutions of the kernel channel E(t),

    Lambda(t) = e^{-Gamma t} * sum_{k>=1} Gamma^{k-1} (E^{*k})(t),

where * is convolution of superoperator-valued functions of time with
composition as the product, and E(t) rho = Tr_A e^{-iHt}(rho (x) rho_A)e^{iHt}.
The series is the Dyson expansion, in the reset term, of one generator
on system (x) a single ancilla, L = -i[H, .] + Gamma (R - 1) with
R(W) = Tr_A(W) (x) rho_A, so that Lambda(t) rho = Tr_A e^{L t}(rho (x) rho_A).
That generator is the runtime route: ``collisions.lambda_embedding`` steps
e^{L dt} through the engine's window loop, and the CLI's series and
thermal modes take their maps from the same route of their run's one
window, ``collisions.Window.lambda_embedding``. No CLI mode runs this
module and no module on the CLI's path imports it; it is kept as the form
the paper writes, checked against the closed form and the generator, and
the benchmark imports it.

The kernel has one constructor, ``build_kernel_map(h, weights)``: E(t) as
its exponential modes on H and rho_A = diag(weights), the modes attaching
rho_A and taking Tr_A as contractions of H's eigenvectors. Its (H, weights)
pass the engine's one check, a ``collisions.Window`` built from them; none
of the window's operators is read here.
``MemoryKernelMap.maps(times)`` samples it as one ``collisions.MapStack``.

``lambda_series`` is the whole series on a uniform grid, as the solution of
its Volterra equation X(t) = B1(t) + Gamma int_0^t B1(s) X(t - s) ds,
B1 = e^{-Gamma t} E(t), by product integration: X is linear between nodes,
and each distinct rate's mode of B1 is integrated exactly against the hat
functions. Every weight operator is an integral of CP maps against a
nonnegative function, and the weights integrate e^{-Gamma s} exactly, so
the maps are CP and trace preserving at every Gamma and step, and the
error is second order in the step (~1e-6 on the shipped configs' grids).
E(t) is a finite sum of exponentials, so each rate's running convolution
sum has a one-step recurrence: with the geometric forcing, the solve is the
orbit of one fixed transfer matrix on 2 R d_s^2 rows (R distinct rates; 40
rows for the exchange coupling), read out in blocks of about sqrt(n)
points per numpy call. Nothing is truncated, and the cost is linear in the
grid and independent of Gamma. It shares no code with
``collisions.propagate_maps``.

``lindblad_limit`` gives the memoryless semigroup of the kernel's
short-time derivative (the infinite-rate regime). The routes stay
superoperators, since the series adds maps; a map's Kraus form is
``quantum.kraus_from_choi`` of its row of ``MapStack.choi()``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .collisions import MapStack, TimeGrid, Window, _expm
from .errors import ConfigurationError, InternalConsistencyError
from .quantum import HermitianOperator, _hermitian_units
from .tolerances import IMAGINARY_RESIDUE, KERNEL_IDENTITY

__all__ = [
    "SeriesPolicy",
    "MemoryKernelMap",
    "LambdaSeriesResult",
    "LindbladGenerator",
    "build_kernel_map",
    "adc_decay_kernel",
    "lambda_series",
    "lindblad_limit",
]


# --- policies ----------------------------------------------------------------


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

    rates: np.ndarray  # (P,) complex
    mats: np.ndarray  # (P, d^2, d^2) complex

    @property
    def system_dim(self) -> int:
        return math.isqrt(self.mats.shape[-1])

    def maps(self, times) -> MapStack:
        """E(t) at each time as one MapStack (one map for a scalar time)."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        phases = np.exp(np.outer(self.rates, times))  # (P, n)
        return MapStack(times, np.einsum("pj,pab->jab", phases, self.mats))


def build_kernel_map(h: HermitianOperator, weights=(1.0, 0.0)) -> MemoryKernelMap:
    """E(t) rho = Tr_A e^{-iHt} (rho (x) rho_A) e^{iHt}, rho_A = diag(weights): a unitary
    dilation, CPT at every t. (1, 0) is the ground-state ancilla; a bath passes its
    ``BathSpec.weight_vector``.

    With U = e^{-iHt} = V e^{-i lambda t} V^dag, U (x) U* is diagonal in the basis V (x) V*
    with entries e^{-i(lambda_a - lambda_b) t}: mode (a, b) is Tr_A |v_a><v_b| times
    <v_a|rho (x) rho_A|v_b>. With the eigenvectors' entries v_a[s, m] on system (x) ancilla,
    the first is sum_m v_a[s, m] v_b*[t, m] at (s, t), and the second
    sum_{s,t,m} v_a*[s, m] w_m v_b[t, m] rho[s, t]: two contractions of V.
    """
    w = Window(h, weights).weights  # checked, as every route's weights are
    system_dim = h.dim // len(w)
    evals, evecs = np.linalg.eigh(h.data)
    rates = (-1j * (evals[:, None] - evals[None, :])).reshape(-1)
    v = evecs.reshape(system_dim, len(w), -1)  # v[s, m, a] = v_a[s, m]
    left = np.einsum("sma,tmb->stab", v, v.conj()).reshape(system_dim ** 2, -1)
    right = np.einsum("sma,m,tmb->abst", v.conj(), w, v).reshape(-1, system_dim ** 2)
    mats = np.einsum("xp,py->pxy", left, right, order="C")  # maps() keeps this layout
    return MemoryKernelMap(rates, mats)


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
        rates=np.array([0.0, -rate, -2.0 * rate], dtype=np.complex128),
        mats=np.stack([m0, m1, m2]),
    )


# --- the series form ---------------------------------------------------------


@dataclass(frozen=True)
class LambdaSeriesResult:
    """Grid-indexed dynamical maps. The solve truncates nothing, so ``truncation_order`` is
    always 0; it stays only while ``bench/`` still reads it (ROADMAP.md, benchmark upkeep)."""

    maps: MapStack
    truncation_order: int = 0


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
    if not residue <= IMAGINARY_RESIDUE:
        raise InternalConsistencyError(f"the kernel does not preserve Hermiticity: imaginary part "
                                       f"{residue:.3e} in a Hermitian basis")
    start = float(np.max(np.abs(mats.sum(axis=0) - np.eye(len(units)))))
    if not start <= KERNEL_IDENTITY:
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
    return LambdaSeriesResult(MapStack(grid.times(), out))


# --- memoryless limit --------------------------------------------------------


@dataclass(frozen=True)
class LindbladGenerator:
    """Finite-difference generator of the memoryless semigroup e^{G t}."""

    generator: np.ndarray

    @property
    def dim(self) -> int:
        return math.isqrt(self.generator.shape[-1])

    def norm(self) -> float:
        return float(np.max(np.abs(self.generator)))

    def semigroup(self, t: float) -> MapStack:
        """e^{G t} as a one-map MapStack."""
        return MapStack(np.array([float(t)]), _expm(self.generator * t)[None])


def lindblad_limit(kernel: MemoryKernelMap, h: float) -> LindbladGenerator:
    """Extract the short-time generator G = [E(h) - 1]/h ~ dE/dt(0) by a first-order
    difference. It annihilates the trace functional exactly, so e^{G t} is trace preserving.
    """
    if not 0 < h < math.inf:  # a NaN step fails too
        raise ConfigurationError("finite-difference step h must be positive and finite")
    eye = np.eye(kernel.system_dim ** 2, dtype=np.complex128)
    return LindbladGenerator((kernel.maps(h).superops[0] - eye) / h)
