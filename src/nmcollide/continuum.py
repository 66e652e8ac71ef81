"""Continuous-limit dynamical maps from the memory-kernel channel family.

The exact map at memory-loss rate Gamma is a weighted series of
auto-convolutions of the kernel channel E(t),

    Lambda(t) = e^{-Gamma t} * sum_{k>=1} Gamma^{k-1} (E^{*k})(t),

where * is convolution of superoperator-valued functions of time with
composition as the product. The series is the Dyson expansion, in the
reset term, of one generator on system (x) a single ancilla,
L = -i[H, .] + Gamma (R - 1) with R(W) = Tr_A(W) (x) rho_A, so that
Lambda(t) rho = Tr_A e^{L t}(rho (x) rho_A). Three evaluation routes are
provided:

* ``lambda_series``: the convolution series on a uniform grid. Each term
  is a positively weighted sum of compositions of CPT maps, so every
  truncation is completely positive by construction; the recursion runs
  on exponentially damped terms B_k = e^{-Gamma t} Gamma^{k-1} E^{*k},
  which stay O(1) for any Gamma (no overflow at large rates).
* ``lambda_embedding``: the generator L itself, stepped with one matrix
  exponential; the double-precision cross-check of the series.
* ``lindblad_limit``: the memoryless semigroup generated by the kernel's
  short-time derivative, for the infinite-rate regime.

During convolution, maps are carried as d^2 x d^2 matrices acting on
row-major vectorized density matrices (convolution needs linear-map
addition, which Kraus lists do not support); Kraus form is recovered on
demand through the Choi eigendecomposition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.fft
import scipy.linalg

from .collisions import reset_superop, thermal_weights
from .errors import ConfigurationError, TruncationError
from .quantum import (
    ChoiMatrix,
    DensityOperator,
    HermitianOperator,
    KrausChannel,
    kraus_from_choi,
)
from .tolerances import DEFAULT_TOLERANCES, ToleranceProfile

__all__ = [
    "TimeGrid",
    "SeriesPolicy",
    "KernelModes",
    "MemoryKernelMap",
    "DynamicalMap",
    "LambdaSeriesResult",
    "LindbladGenerator",
    "kraus_to_superop",
    "choi_from_superop",
    "choi_stack_from_superops",
    "build_kernel_map",
    "build_thermal_kernel_map",
    "adc_decay_kernel",
    "lambda_series",
    "lambda_embedding",
    "lindblad_limit",
]


# --- vectorization conventions ---------------------------------------------


def kraus_to_superop(ch: KrausChannel) -> np.ndarray:
    """Channel as a matrix on row-major vectorized density matrices."""
    return sum(np.kron(k, k.conj()) for k in ch.kraus)


def choi_from_superop(superop: np.ndarray, dim: int) -> ChoiMatrix:
    """Reshuffle a superoperator matrix into the corresponding Choi matrix."""
    return ChoiMatrix(choi_stack_from_superops(superop[None], dim)[0], dim=dim)


def choi_stack_from_superops(superops: np.ndarray, dim: int) -> np.ndarray:
    """Choi matrices of an (n, d^2, d^2) superoperator stack, as an (n, d^2, d^2) array."""
    n = superops.shape[0]
    t = superops.reshape(n, dim, dim, dim, dim)
    choi = t.transpose(0, 3, 1, 4, 2).reshape(n, dim * dim, dim * dim)
    return 0.5 * (choi + choi.conj().transpose(0, 2, 1))  # symmetrize away rounding noise


def apply_superop(superop: np.ndarray, mat: np.ndarray) -> np.ndarray:
    d = mat.shape[0]
    return (superop @ mat.reshape(-1)).reshape(d, d)


# --- grids and policies -----------------------------------------------------


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, t_max] with n_points samples."""

    t_max: float
    n_points: int

    def __post_init__(self):
        if self.t_max <= 0:
            raise ConfigurationError("t_max must be positive")
        if self.n_points < 2:
            raise ConfigurationError("need at least two grid points")

    @property
    def dt(self) -> float:
        return self.t_max / (self.n_points - 1)

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.n_points)


@dataclass(frozen=True)
class SeriesPolicy:
    """Truncation control: hard order cap and tail threshold on the term sup-norm."""

    k_max: int = 200
    tail_tol: float = 1e-8

    def __post_init__(self):
        if self.k_max < 1:
            raise ConfigurationError("k_max must be at least 1")
        if self.tail_tol <= 0:
            raise ConfigurationError("tail_tol must be positive")


# --- kernel maps -------------------------------------------------------------


@dataclass(frozen=True)
class KernelModes:
    """Exponential-mode decomposition of the kernel superoperator.

    S(t) = sum_p e^{rates[p] * t} mats[p]. Hamiltonian-generated kernels
    always admit this form (rates are i * eigenvalue differences); it gives
    vectorized grid sampling.
    """

    rates: np.ndarray  # (P,) complex
    mats: np.ndarray  # (P, d^2, d^2) complex

    def superop_grid(self, times: np.ndarray) -> np.ndarray:
        phases = np.exp(np.outer(self.rates, times))  # (P, n)
        return np.einsum("pj,pab->jab", phases, self.mats)

    def superop(self, t: float) -> np.ndarray:
        return np.einsum("p,pab->ab", np.exp(self.rates * t), self.mats)


@dataclass(frozen=True)
class MemoryKernelMap:
    """Time-parametrized CPT channel family E(t) on the system.

    ``builder`` returns the Kraus channel at a given time; ``modes`` is the
    equivalent superoperator decomposition that every evaluation path uses.
    """

    builder: Callable[[float], KrausChannel]
    system_dim: int
    ancilla_dim: int
    description: str
    modes: KernelModes

    def channel(self, t: float) -> KrausChannel:
        return self.builder(t)

    def superop(self, t: float) -> np.ndarray:
        return self.modes.superop(t)

    def superop_grid(self, times: np.ndarray) -> np.ndarray:
        return self.modes.superop_grid(times)


def _dilation_modes(h: HermitianOperator, system_dim: int, ancilla_dim: int, weights: np.ndarray):
    """Mode data for K_{nu,k}(t) = sqrt(w_k) <nu| e^{-iHt} |k> acting on the system."""
    evals, evecs = np.linalg.eigh(h.data)
    m = h.dim
    # V[a, s, nu]: eigenvector a reshaped over (system, ancilla)
    v = evecs.T.reshape(m, system_dim, ancilla_dim)
    d2 = system_dim * system_dim
    rates = np.empty(m * m, dtype=np.complex128)
    mats = np.empty((m * m, d2, d2), dtype=np.complex128)
    idx = 0
    for a in range(m):
        for b in range(m):
            rates[idx] = -1j * (evals[a] - evals[b])
            # sum over Kraus labels (nu, kappa) of W^(a) (x) conj(W^(b)), where
            # W^(a)_{nu,kappa}[s', s] = sqrt(w_kappa) v_a[s', nu] conj(v_a[s, kappa]);
            # the row pair and column pair of the superoperator factorize separately
            left = np.einsum("xn,yn->xy", v[a], v[b].conj())  # sum over nu
            right = np.einsum("k,xk,yk->xy", weights, v[a].conj(), v[b])  # sum over kappa
            mats[idx] = np.outer(left.reshape(-1), right.reshape(-1))
            idx += 1
    return rates, mats


def _dilation_kraus(h: HermitianOperator, system_dim: int, ancilla_dim: int,
                    weights: np.ndarray, t: float) -> KrausChannel:
    evals, evecs = np.linalg.eigh(h.data)
    u = (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T
    u = u.reshape(system_dim, ancilla_dim, system_dim, ancilla_dim)
    ops = []
    for kappa in range(ancilla_dim):
        w = np.sqrt(weights[kappa])
        if w == 0.0:
            continue
        for nu in range(ancilla_dim):
            ops.append(w * u[:, nu, :, kappa])
    return KrausChannel(tuple(ops), dim_in=system_dim, dim_out=system_dim)


def _kernel_from_weights(h: HermitianOperator, system_dim: int, ancilla_dim: int,
                         weights: np.ndarray, description: str) -> MemoryKernelMap:
    rates, mats = _dilation_modes(h, system_dim, ancilla_dim, weights)
    builder = lambda t: _dilation_kraus(h, system_dim, ancilla_dim, weights, t)
    return MemoryKernelMap(
        builder=builder,
        system_dim=system_dim,
        ancilla_dim=ancilla_dim,
        description=description,
        modes=KernelModes(rates=rates, mats=mats),
    )


def _split_dims(h: HermitianOperator, ancilla_dim: int):
    if h.dim % ancilla_dim != 0:
        raise ConfigurationError(
            f"hamiltonian dim {h.dim} is not divisible by ancilla dim {ancilla_dim}"
        )
    return h.dim // ancilla_dim


def _probability_vector(weights, ancilla_dim: int) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.shape != (ancilla_dim,) or np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
        raise ConfigurationError("weights must be a probability vector of ancilla length")
    return w


def build_kernel_map(h: HermitianOperator, ancilla_init: int = 0, *,
                     ancilla_dim: int = 2) -> MemoryKernelMap:
    """Kernel from continuous coupling to one ancilla prepared in a basis state.

    Kraus operators are <nu| e^{-iHt} |ancilla_init>, a unitary dilation,
    so the channel is CPT by construction at every t.
    """
    system_dim = _split_dims(h, ancilla_dim)
    if not 0 <= ancilla_init < ancilla_dim:
        raise ConfigurationError(f"ancilla_init {ancilla_init} out of range")
    weights = np.zeros(ancilla_dim)
    weights[ancilla_init] = 1.0
    return _kernel_from_weights(
        h, system_dim, ancilla_dim, weights,
        description=f"unitary-dilation kernel, ancilla in |{ancilla_init}>",
    )


def build_thermal_kernel_map(h: HermitianOperator, energies=None,
                             inverse_temperature: Optional[float] = None, *,
                             weights=None, ancilla_dim: int = 2) -> MemoryKernelMap:
    """Kernel for an ancilla prepared in a thermal mixture.

    Equals the convex combination over Boltzmann weights of the pure
    basis-state kernels; weights can be passed explicitly to reach the
    zero-temperature endpoint exactly.
    """
    system_dim = _split_dims(h, ancilla_dim)
    if weights is not None:
        w = _probability_vector(weights, ancilla_dim)
    else:
        if energies is None or inverse_temperature is None:
            raise ConfigurationError("need energies and inverse_temperature, or weights")
        e = np.asarray(energies, dtype=float)
        if e.shape != (ancilla_dim,):
            raise ConfigurationError(
                f"energy list has length {e.shape[0]}, ancilla dim is {ancilla_dim}"
            )
        w = thermal_weights(e, inverse_temperature)
    return _kernel_from_weights(
        h, system_dim, ancilla_dim, w,
        description="thermal-mixture kernel",
    )


def adc_decay_kernel(rate: float) -> MemoryKernelMap:
    """Synthetic exponential-damping kernel: amplitude transmission e^{-rate t}.

    Its short-time derivative is a genuine Lindblad generator, which makes
    it the reference case for the memoryless-limit extraction.
    """
    if rate < 0:
        raise ConfigurationError("decay rate must be nonnegative")

    def builder(t: float) -> KrausChannel:
        eta = float(np.exp(-rate * t))
        k0 = np.array([[1.0, 0.0], [0.0, eta]], dtype=np.complex128)
        k1 = np.array([[0.0, np.sqrt(1.0 - eta * eta)], [0.0, 0.0]], dtype=np.complex128)
        return KrausChannel((k0, k1), dim_in=2, dim_out=2)

    e03 = np.zeros((4, 4), dtype=np.complex128)
    e03[0, 3] = 1.0
    m0 = np.diag([1.0, 0.0, 0.0, 0.0]).astype(np.complex128) + e03
    m1 = np.diag([0.0, 1.0, 1.0, 0.0]).astype(np.complex128)
    m2 = np.diag([0.0, 0.0, 0.0, 1.0]).astype(np.complex128) - e03
    modes = KernelModes(
        rates=np.array([0.0, -rate, -2.0 * rate], dtype=np.complex128),
        mats=np.stack([m0, m1, m2]),
    )
    return MemoryKernelMap(
        builder=builder, system_dim=2, ancilla_dim=2,
        description=f"synthetic amplitude-decay kernel, rate {rate}", modes=modes,
    )


# --- dynamical maps ----------------------------------------------------------


@dataclass(frozen=True)
class DynamicalMap:
    """One time slice of a dynamical map, carried as a superoperator matrix.

    Construction performs no positivity check: this type also carries
    candidate maps that certification is meant to reject.
    """

    time: float
    superop: np.ndarray
    dim: int

    def apply(self, rho) -> np.ndarray:
        mat = rho.data if isinstance(rho, DensityOperator) else np.asarray(rho)
        return apply_superop(self.superop, mat)

    def choi(self) -> ChoiMatrix:
        return choi_from_superop(self.superop, self.dim)

    def to_kraus(self, tol: ToleranceProfile = DEFAULT_TOLERANCES) -> KrausChannel:
        """Kraus form via the Choi eigendecomposition.

        Channel validation is strict: a map carrying a quadrature-level trace
        defect (or a negative Choi eigenvalue) is refused, never repaired.
        """
        return kraus_from_choi(self.choi(), tol)

    def trace_defect(self) -> float:
        t = self.superop.reshape(self.dim, self.dim, self.dim, self.dim)
        marginal = np.einsum("aaij->ij", t)
        return float(np.max(np.abs(marginal - np.eye(self.dim))))


@dataclass(frozen=True)
class LambdaSeriesResult:
    """Grid-indexed dynamical maps plus truncation diagnostics."""

    maps: tuple
    truncation_order: int
    tail_norm: float
    tail_history: tuple = field(default=(), repr=False)

    def __iter__(self):
        return iter(self.maps)

    def __len__(self):
        return len(self.maps)

    def __getitem__(self, idx):
        return self.maps[idx]

    def superops(self) -> np.ndarray:
        """The maps' superoperators as one (n, d^2, d^2) array."""
        return np.stack([mp.superop for mp in self.maps])


class _FftConvolver:
    """Causal convolution against a fixed left factor, with its FFT cached."""

    def __init__(self, f: np.ndarray):
        self.n = f.shape[0]
        self.size = scipy.fft.next_fast_len(2 * self.n - 1)
        self.ff = scipy.fft.fft(f, n=self.size, axis=0)

    def __call__(self, g: np.ndarray) -> np.ndarray:
        gf = scipy.fft.fft(g, n=self.size, axis=0)
        return scipy.fft.ifft(self.ff @ gf, axis=0)[: self.n]


def _causal_convolve_direct(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    n = f.shape[0]
    out = np.zeros_like(f)
    for j in range(n):
        out[j] = np.einsum("mab,mbc->ac", f[: j + 1], g[j::-1])
    return out


def _weighted_convolve(f: np.ndarray, g: np.ndarray, dt: float, method,
                       fft_conv: Optional["_FftConvolver"] = None) -> np.ndarray:
    """Trapezoid-weighted causal convolution: dt * sum'' f[m] g[j-m]."""
    if method == "fft":
        s = (fft_conv or _FftConvolver(f))(g)
    elif method == "direct":
        s = _causal_convolve_direct(f, g)
    else:
        raise ConfigurationError(f"unknown convolution method {method!r}")
    # trapezoid endpoint correction: half weight at m = 0 and m = j
    ends = 0.5 * (np.einsum("ab,jbc->jac", f[0], g) + np.einsum("jab,bc->jac", f, g[0]))
    return dt * (s - ends)


def lambda_series(kernel: MemoryKernelMap, gamma: float, grid: TimeGrid,
                  policy: SeriesPolicy = SeriesPolicy(), *,
                  method: str = "fft") -> LambdaSeriesResult:
    """Evaluate the dynamical map on the grid by the auto-convolution series.

    The k-th term is accumulated in exponentially damped form
    B_k = e^{-gamma t} gamma^{k-1} E^{*k}, computed iteratively by one
    quadrature pass per order: B_{k+1} = gamma * (B_1 conv B_k) with
    trapezoidal weights. Truncation stops once the term sup-norm falls
    below ``policy.tail_tol`` after the series' peak order (terms follow a
    Poisson-like profile in k, so the threshold only applies past
    k > gamma * t_max); exhausting ``policy.k_max`` first raises
    TruncationError with the residual norm.
    """
    if gamma < 0:
        raise ConfigurationError("memory-loss rate must be nonnegative")
    times = grid.times()
    damp = np.exp(-gamma * times)
    b1 = kernel.superop_grid(times) * damp[:, None, None]
    total = b1.copy()
    term = b1
    tail_history = []
    peak_order = int(np.ceil(gamma * grid.t_max)) + 1
    converged = gamma == 0.0  # single exact term at zero rate
    tail = 0.0
    order = 1
    if not converged:
        fft_conv = _FftConvolver(b1) if method == "fft" else None
        while order < policy.k_max:
            term = gamma * _weighted_convolve(b1, term, grid.dt, method, fft_conv)
            total += term
            order += 1
            tail = float(np.max(np.abs(term)))
            if not np.isfinite(tail):
                raise TruncationError(
                    f"series term of order {order} is not finite; refine the grid",
                    residual=tail,
                    order=order,
                )
            tail_history.append(tail)
            if order >= peak_order and tail <= policy.tail_tol:
                converged = True
                break
        if not converged:
            # the order cap was hit; measure the residual from the first
            # dropped term and accept only if it is within tolerance
            probe = gamma * _weighted_convolve(b1, term, grid.dt, method, fft_conv)
            residual = float(np.max(np.abs(probe)))
            if not residual <= policy.tail_tol:  # a NaN residual fails too
                raise TruncationError(
                    f"series did not converge by order {policy.k_max} "
                    f"(residual term norm {residual:.3e}); raise k_max or tail_tol",
                    residual=residual,
                    order=policy.k_max,
                )
            tail = residual
    d = kernel.system_dim
    maps = tuple(
        DynamicalMap(time=float(t), superop=total[j], dim=d) for j, t in enumerate(times)
    )
    return LambdaSeriesResult(
        maps=maps, truncation_order=order, tail_norm=tail, tail_history=tuple(tail_history)
    )


# --- Markovian embedding ------------------------------------------------------


def lambda_embedding(h: HermitianOperator, weights, gamma: float, grid: TimeGrid) -> tuple:
    """Dynamical maps Lambda(t) rho = Tr_A e^{L t}(rho (x) rho_A) on the grid.

    L = -i[H, .] + gamma (R - 1) acts on system (x) one ancilla, with
    rho_A = diag(weights) and the reset R(W) = Tr_A(W) (x) rho_A shared
    with the discrete engine. The maps are stepped with one
    P = expm(L dt), never an eigendecomposition: for the exchange coupling
    L is defective at gamma = 2. Sharing only H and rho_A with
    ``lambda_series``, this is the series' double-precision cross-check;
    it is no oracle for the discrete engine, which uses the same R.
    """
    if gamma < 0:
        raise ConfigurationError("memory-loss rate must be nonnegative")
    ancilla_dim = len(weights)
    ds = _split_dims(h, ancilla_dim)
    rho_a = np.diag(_probability_vector(weights, ancilla_dim)).astype(np.complex128)
    d = h.dim
    eye = np.eye(d)
    generator = -1j * (np.kron(h.data, eye) - np.kron(eye, h.data.T)) + gamma * (
        reset_superop(rho_a, ds) - np.eye(d * d)
    )
    step = scipy.linalg.expm(generator * grid.dt)
    # column (s', t') holds vec(|s'><t'| (x) rho_A)
    eye_s = np.eye(ds)
    windows = np.empty((grid.n_points, d * d, ds * ds), dtype=np.complex128)
    windows[0] = np.einsum("sS,tT,ab->satbST", eye_s, eye_s, rho_a).reshape(d * d, ds * ds)
    for k in range(1, grid.n_points):
        windows[k] = step @ windows[k - 1]
    superops = np.einsum(
        "nsatam->nstm", windows.reshape(grid.n_points, ds, ancilla_dim, ds, ancilla_dim, -1)
    ).reshape(grid.n_points, ds * ds, ds * ds)
    return tuple(
        DynamicalMap(time=float(t), superop=superops[j], dim=ds)
        for j, t in enumerate(grid.times())
    )


# --- memoryless limit --------------------------------------------------------


@dataclass(frozen=True)
class LindbladGenerator:
    """Finite-difference generator of the memoryless semigroup e^{G t}."""

    generator: np.ndarray
    dim: int
    step: float

    def norm(self) -> float:
        return float(np.max(np.abs(self.generator)))

    def semigroup(self, t: float) -> DynamicalMap:
        return DynamicalMap(
            time=float(t), superop=scipy.linalg.expm(self.generator * t), dim=self.dim
        )


def lindblad_limit(kernel: MemoryKernelMap, h: float, *, order: int = 1) -> LindbladGenerator:
    """Extract the short-time generator G ~ dE/dt(0) by finite differences.

    order=1 uses [E(h) - 1]/h; order=2 adds an E(2h) sample for the
    second-order one-sided difference. Both annihilate the trace
    functional exactly, so e^{G t} is trace preserving.
    """
    if h <= 0:
        raise ConfigurationError("finite-difference step must be positive")
    d2 = kernel.system_dim ** 2
    eye = np.eye(d2, dtype=np.complex128)
    s1 = kernel.superop(h)
    if order == 1:
        gen = (s1 - eye) / h
    elif order == 2:
        s2 = kernel.superop(2.0 * h)
        gen = (4.0 * s1 - s2 - 3.0 * eye) / (2.0 * h)
    else:
        raise ConfigurationError("difference order must be 1 or 2")
    return LindbladGenerator(generator=gen, dim=kernel.system_dim, step=h)
