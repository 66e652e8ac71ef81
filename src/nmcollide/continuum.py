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
protocol's own, and the collision engine's attach and trace matrices.
The kernel has one constructor, ``build_kernel_map(h, weights)``: E(t) as
its exponential modes on H and rho_A = diag(weights), which
``MemoryKernelMap.maps(times)`` samples. It and the routes below return
one MapStack, an (n, d^2, d^2) superoperator array on row-major
vectorized density matrices with its times:

* ``lambda_series``: the convolution series on a uniform grid. Each term
  is a positively weighted sum of compositions of CPT maps, so every
  truncation is completely positive by construction, and preserves
  Hermiticity. The recursion runs on exponentially damped terms
  B_k = e^{-Gamma t} Gamma^{k-1} E^{*k}, which stay O(1) for any Gamma,
  as real (d^2, d^2, n) arrays, time last, in the window loop's
  orthonormal Hermitian basis (a Pauli transfer matrix for a qubit),
  through numpy's real FFTs on terms zero-padded to the FFT length. The
  truncation tail is a term's largest Frobenius norm over the grid, the
  same in every orthonormal basis, and the sum leaves the Hermitian basis
  once, at the end. Each order runs on the invariant blocks of B_1 alone,
  the connected components of its exact-zero pattern: products of
  block-diagonal maps stay block diagonal, and the dense recursion only
  adds exact zeros off the blocks, so the maps are its own bit for bit. An
  order costs one real FFT pair, a product per frequency and the end
  corrections per block: for the exchange coupling, which conserves the
  excitation number, at most 8 of the 16 entries.
* ``lambda_embedding``: the generator L itself, stepped with one matrix
  exponential; the double-precision cross-check of the series.
* ``discrete_maps``: the protocol's own maps at the times n t_c. Its step
  is the splitting e^{A t_c} e^{B t_c} of L = A + B, A = -i[H, .] and
  B = Gamma (R - 1), with the Strang splitting's O(t_c^2) error: R fixes
  rho (x) rho_A and Tr_A R = Tr_A, so half resets at both ends change
  nothing. It shares the engine's one window loop with the embedding.

The closed form for the exchange coupling (``jaynes_cummings.jc_maps``)
returns a MapStack too; it imports this module, never the reverse.

``lindblad_limit`` gives the memoryless semigroup of the kernel's
short-time derivative (the infinite-rate regime). Every index of a MapStack
is a MapStack, one map included. A map's Kraus form is
``quantum.kraus_from_choi`` of its row of ``MapStack.choi()``; the routes
stay superoperators, since convolution needs map addition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .collisions import (BathSpec, CollisionConfig, attach_superop, propagate_maps, protocol_step,
                         reset_generator, trace_ancilla_superop)
from .errors import ConfigurationError, TruncationError
from .quantum import (DensityOperator, HermitianOperator, _hermitian_basis, _hermitian_real,
                      _hermitian_to_vec)

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
    """Truncation control: hard order cap, and tail threshold on the term's largest Frobenius
    norm over the grid, which is the same in every orthonormal basis."""

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
        symmetrized to remove rounding noise."""
        n, d = len(self.superops), self.dim
        t = self.superops.reshape(n, d, d, d, d)
        choi = t.transpose(0, 3, 1, 4, 2).reshape(n, d * d, d * d)
        return 0.5 * (choi + choi.conj().transpose(0, 2, 1))

    def apply(self, rho) -> np.ndarray:
        """Each map applied to rho, as an (n, d, d) array."""
        return (self.superops @ _vec(rho)).reshape(-1, self.dim, self.dim)


@dataclass(frozen=True)
class LambdaSeriesResult:
    """Grid-indexed dynamical maps plus truncation diagnostics."""

    maps: MapStack
    truncation_order: int
    tail_norm: float


def _fast_len(m: int) -> int:
    """The smallest 2^a 3^b 5^c >= m: a length pocketfft transforms fast, the same as
    scipy.fft.next_fast_len(m, real=True) without importing scipy.fft (~0.3 s)."""
    best, p5 = 2 * m, 1  # a power of two in [m, 2m) always qualifies
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < m:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def _dropped_term_bound(gamma: float, grid: TimeGrid, k_max: int, system_dim: int) -> float:
    """A lower bound on the tail of the series term of order k_max + 1: on its largest vec-basis
    entry, so on its Frobenius norm too. The kernel is trace preserving, so that term B obeys
    Tr B(t)(X) = w(t) Tr X with the Poisson weight w = e^{-x} x^k_max / k_max!, x = gamma t, and
    some entry of B(t) is at least w(t) / d_s."""
    x = gamma * grid.times()
    with np.errstate(divide="ignore"):  # log 0 = -inf at t = 0, where w = 0
        log_w = k_max * np.log(x) - x - math.lgamma(k_max + 1)
    return float(np.exp(log_w.max())) / system_dim


def _hermitian_samples(kernel: MemoryKernelMap, times: np.ndarray) -> np.ndarray:
    """E(t) at the times in the basis of ``_hermitian_basis``: a real (d^2, d^2, n) array, time
    last. A kernel that keeps an imaginary part there raises InternalConsistencyError."""
    q = _hermitian_basis(kernel.system_dim)
    return _hermitian_real(np.einsum("pj,pab->abj", np.exp(np.outer(kernel.rates, times)),
                                     q @ kernel.mats @ q.conj().T), "the kernel")


def _invariant_blocks(b1: np.ndarray) -> list:
    """The index sets that B_1 never links: the connected components of its nonzero pattern
    over all times, symmetrized, as sorted index arrays. Every term is a product of B_1s, so
    every term is block diagonal on them; a kernel without exact zeros is one block."""
    reach = np.any(b1 != 0, axis=-1) | np.eye(len(b1), dtype=bool)
    reach |= reach.T
    while not np.array_equal(reach, grown := reach @ reach):
        reach = grown
    return [np.flatnonzero(row) for row in np.unique(reach, axis=0)]


def lambda_series(kernel: MemoryKernelMap, gamma: float, grid: TimeGrid,
                  policy: SeriesPolicy = SeriesPolicy()) -> LambdaSeriesResult:
    """Evaluate the dynamical map on the grid by the auto-convolution series.

    The k-th term is accumulated in exponentially damped form
    B_k = e^{-gamma t} gamma^{k-1} E^{*k}, computed iteratively by one
    quadrature pass per order: B_{k+1} = gamma * (B_1 conv B_k) with
    trapezoidal weights, on real terms in the basis of ``_hermitian_basis``.
    A kernel whose B_1 keeps an imaginary part in that basis does not
    preserve Hermiticity, and raises InternalConsistencyError.
    Each order runs on the invariant blocks of B_1 (``_invariant_blocks``)
    alone: an entry off them is an exact zero in every term of the dense
    recursion, and adding an exact zero changes no sum, so the maps are the
    dense recursion's bit for bit. Per block an order costs a real FFT of
    the term, a product per frequency, an inverse real FFT and the two
    trapezoid end corrections. The exchange coupling conserves the excitation
    number, so no block mixes populations with coherences: at most 8 of 16
    entries run. The tail of a term is its largest Frobenius norm over the
    grid, summed over the blocks where they are: the basis is orthonormal, so
    it is the vec-basis norm, and at least the term's largest vec-basis entry.
    The totals are brought to the vec basis once, by
    ``quantum._hermitian_to_vec``. Truncation stops once the tail
    falls below ``policy.tail_tol`` after the series' peak order (terms
    follow a Poisson-like profile in k, so the threshold only applies past
    k > gamma * t_max); exhausting ``policy.k_max`` first raises
    TruncationError with the residual norm, at once when the peak order is
    past k_max and half ``_dropped_term_bound`` is above ``policy.tail_tol``.
    """
    if not 0 <= gamma < math.inf:  # a NaN rate fails too
        raise ConfigurationError("memory-loss rate gamma must be nonnegative and finite")
    times, n, d2 = grid.times(), grid.n_points, kernel.system_dim ** 2
    sampled = _hermitian_samples(kernel, times)
    if gamma * grid.t_max > policy.k_max - 1:  # the peak order ceil(gamma t_max) + 1 > k_max
        # half the bound: the trapezoid terms are not exactly trace preserving
        floor = 0.5 * _dropped_term_bound(gamma, grid, policy.k_max, kernel.system_dim)
        if floor > policy.tail_tol:
            raise TruncationError(f"series cannot converge by order {policy.k_max}: gamma * "
                                  f"t_max = {gamma * grid.t_max:.6g} puts its peak order past it "
                                  f"(residual term norm at least {floor:.3e}); raise k_max or "
                                  "tail_tol", residual=floor, order=policy.k_max)
    b1 = sampled * np.exp(-gamma * times)
    size = _fast_len(2 * n - 1)
    cuts = [np.ix_(block, block) for block in _invariant_blocks(b1)]

    def padded(block: np.ndarray) -> np.ndarray:
        out = np.zeros(block.shape[:2] + (size,))
        out[:, :, :n] = block
        return out

    terms = [padded(b1[cut]) for cut in cuts]
    kernels = [(b1[cut], np.fft.rfft(term, axis=-1)) for cut, term in zip(cuts, terms)]

    def next_term(b1_block: np.ndarray, b1_hat: np.ndarray, padded: np.ndarray) -> np.ndarray:
        """gamma dt sum'' B_1[m] T[j - m] on one block: half weight at m = 0 and m = j. Terms
        are carried zero-padded to the FFT length: numpy's rfft pads them ~30% slower itself."""
        t_hat = np.fft.rfft(padded, axis=-1)
        conv = np.fft.irfft(np.einsum("abj,bcj->acj", b1_hat, t_hat), n=size, axis=-1)
        term, out = padded[:, :, :n], conv[:, :, :n]
        out -= 0.5 * (np.tensordot(b1_block[:, :, 0], term, 1) + term[:, :, 0].T @ b1_block)
        out *= gamma * grid.dt
        conv[:, :, n:] = 0.0
        return conv

    def next_terms(terms: list) -> list:
        return [next_term(*kernel, term) for kernel, term in zip(kernels, terms)]

    def frobenius(blocks: list) -> float:
        """The term's largest Frobenius norm over the grid, from the squares of its blocks."""
        squares = sum(np.einsum("abj,abj->j", b[:, :, :n], b[:, :, :n]) for b in blocks)
        return float(np.sqrt(np.max(squares)))

    totals = [b1[cut] for cut in cuts]
    peak_order = int(np.ceil(gamma * grid.t_max)) + 1
    order, tail = 1, 0.0
    if gamma != 0.0:  # at zero rate the single term is exact
        for order in range(2, policy.k_max + 1):
            terms = next_terms(terms)
            for total, term in zip(totals, terms):
                total += term[:, :, :n]
            tail = frobenius(terms)
            if not np.isfinite(tail):
                raise TruncationError(f"series term of order {order} is not finite; refine the grid",
                                      residual=tail, order=order)
            if order >= peak_order and tail <= policy.tail_tol:
                break
        else:
            # the order cap was hit; measure the residual from the first
            # dropped term and accept only if it is within tolerance
            tail = frobenius(next_terms(terms))
            if not tail <= policy.tail_tol:  # a NaN residual fails too
                raise TruncationError(
                    f"series did not converge by order {policy.k_max} "
                    f"(residual term norm {tail:.3e}); raise k_max or tail_tol",
                    residual=tail, order=policy.k_max)
    dense = np.zeros((d2, d2, n))  # exact zeros off the blocks
    for cut, total in zip(cuts, totals):
        dense[cut] = total
    superops = _hermitian_to_vec(dense.reshape(d2 * d2, n).T, kernel.system_dim)
    return LambdaSeriesResult(MapStack(times, superops, kernel.system_dim), order, tail)


# --- Markovian embedding ------------------------------------------------------


def lambda_embedding(h: HermitianOperator, weights, gamma: float, grid: TimeGrid) -> MapStack:
    """Dynamical maps Lambda(t) rho = Tr_A e^{L t}(rho (x) rho_A) on the grid.

    L = -i[H, .] + gamma (R - 1) acts on system (x) one ancilla, with
    rho_A = diag(weights), both from ``collisions.reset_generator``. The
    maps are stepped with one P = expm(L dt) through the engine's window
    loop, ``collisions.propagate_maps``, never an eigendecomposition: for
    the exchange coupling L is defective at gamma = 2. Sharing only H and
    rho_A with ``lambda_series``, this is the series' double-precision
    cross-check; it is no oracle for the discrete engine, whose step is the
    splitting of the same L.
    """
    if not 0 <= gamma < math.inf:  # a NaN rate fails too
        raise ConfigurationError("memory-loss rate gamma must be nonnegative and finite")
    ds, w = _system_dim_and_weights(h, weights)
    commutator, reset, rho_a = reset_generator(h, w)
    import scipy.linalg  # no CLI mode runs the embedding; scipy.linalg costs ~0.3 s to import

    step = scipy.linalg.expm((commutator + gamma * (reset - np.eye(len(reset)))) * grid.dt)
    return MapStack(grid.times(), propagate_maps(step, rho_a, ds, grid.n_points - 1), ds)


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
        import scipy.linalg  # no CLI mode runs the semigroup; scipy.linalg costs ~0.3 s to import

        return MapStack(np.array([float(t)]), scipy.linalg.expm(self.generator * t)[None], self.dim)


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
