"""Independent oracles, certification, and the protocol's convergence study.

The oracles share no code with the paths they check: the inverse Laplace
transform is a fixed-Talbot contour quadrature in arbitrary precision,
the brute-force chain simulator holds every ancilla in memory instead of
the sliding window, ``discrete_jc_betas`` steps hand-written transfer
matrices, and the certifier recomputes Choi spectra from scratch for
whatever map stack it is handed. The comparisons are not oracles:
``convergence_study`` runs the engine's protocol against the
closed form ``jc_maps``, and ``probe_distances`` measures any two stacks.

Only the oracle purifies: where the engine starts each thermal ancilla in
its mixed Boltzmann state, the brute-force chain holds every ancilla as a
pure entangled pair whose first half couples to the system, and swaps
whole pairs. The pair marginal is the thermal state, so both must agree.

The brute-force chain holds its joint state as one tensor with an axis
per subsystem, row axes first: (s, 1..n, s', 1'..n') for the system s
and the bath units 1..n (single ancillas, or purified pairs). A partial
swap of two units permutes their axes, an SA collision contracts U with
the system axes and one unit's axes, and the system state is the trace
over every unit axis. Beyond the config it is given (the bath's weights
among it), the chain calls nothing of the engine or its map routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np

from .collisions import CollisionConfig, MapStack, Window, _whole_steps
from .errors import ConfigurationError, InternalConsistencyError
from .jaynes_cummings import jc_hamiltonian, jc_maps
from .quantum import (
    DensityOperator,
    _components,
    _frozen,
    density_stack,
    hermitian_spectra,
    ket,
    trace_distances,
    unitary_evolution,
)
from .tolerances import CPT_TOLERANCE

__all__ = [
    "CptReport",
    "ConvergenceReport",
    "TrajectoryRecord",
    "inverse_laplace",
    "brute_force_chain",
    "discrete_jc_betas",
    "purified_pair_ket",
    "certify_cpt",
    "convergence_study",
    "probe_distances",
    "probe_trace_defect",
    "calibrated_swap_probability",
    "random_density_stack",
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
    target comfortably for the rational transforms arising here. A
    non-finite result raises InternalConsistencyError.
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
        for z, weight in _talbot_nodes(m):
            total += (weight * transform(z / tt)).real
        total = total * r / m
        if not mpmath.isfinite(total):
            raise InternalConsistencyError(
                f"Talbot quadrature diverged at t={t} with {m} nodes "
                f"(contour base r={float(r):.6g})"
            )
        return float(total)


@lru_cache(maxsize=None)
def _talbot_nodes(m: int) -> tuple:
    """The pairs (z_k, e^{z_k} (1 + i sigma_k)), k = 1..m-1, of the m-node fixed-Talbot contour at
    working precision max(30, m): z_k = s_k t = (2m/5) theta_k (cot theta_k + i) at theta_k =
    pi k / m, so neither depends on t, and the quadrature evaluates the transform at z_k / t."""
    import mpmath

    with mpmath.workdps(max(30, m)):
        nodes = []
        for k in range(1, m):
            theta = mpmath.pi * k / m
            cot = mpmath.cot(theta)
            z = mpmath.mpf(2) * m / 5 * theta * (cot + 1j)
            sigma = theta + (theta * cot - 1) * cot
            nodes.append((z, mpmath.exp(z) * (1 + 1j * sigma)))
        return tuple(nodes)


# --- brute-force chain oracle ------------------------------------------------


@dataclass(frozen=True)
class TrajectoryRecord:
    """System states rho_n for n = 0..n_steps and the times n * t_c, as ``brute_force_chain``
    returns them.

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
    n, ds = cfg.n_steps, cfg.system_dim
    m = n + 1  # row axes: the system, then units 1..n; column axes follow at m..2m-1

    sigma = rho0.data
    for _ in range(n):
        sigma = np.kron(sigma, unit)
    sigma = sigma.reshape([ds] + [u_dim] * n + [ds] + [u_dim] * n)

    u = unitary_evolution(h_full, cfg.t_c).reshape(ds, u_dim, ds, u_dim)
    states = [rho0.data]
    for k in range(1, n + 1):
        if k >= 2:
            swapped = sigma.swapaxes(k - 1, k).swapaxes(m + k - 1, m + k)
            sigma = (1.0 - cfg.p_s) * sigma + cfg.p_s * swapped
        # U sigma U^dag on the system and unit k: U's column pair meets the row axes, U^*'s
        # column pair the column axes, and each new pair of axes moves back into place
        sigma = np.moveaxis(np.tensordot(u, sigma, axes=([2, 3], [0, k])), 1, k)
        sigma = np.moveaxis(np.tensordot(sigma, u.conj(), axes=([m, m + k], [2, 3])),
                            (-2, -1), (m, m + k))
        states.append(np.einsum("iaja->ij", sigma.reshape(ds, u_dim ** n, ds, u_dim ** n)))
    times = tuple(k * cfg.t_c for k in range(n + 1))
    return TrajectoryRecord(np.array(states), times)


def discrete_jc_betas(t_c: float, p_s: float, n_steps: int):
    """The discrete protocol's beta1(n) and beta2(n), n = 0..n_steps, for the exchange coupling
    and a pure bath, as two arrays: its map after n steps has S[1,1] = S[2,2] = beta1(n),
    S[3,3] = beta2(n), S[0,3] = 1 - beta2(n) and S[0,0] = 1, as the closed form's does.

    With c = cos t_c and s = sin t_c, beta1(n) = (T1^n)_00 with
    T1 = [[c, -is], [-is, c]] diag(1, p_s), acting on the window's coherences |10><00| and
    |01><00|: the reset scales the second by p_s, and the collision rotates the pair. And
    beta2(n) = (T2^n)_00 with T2 = R3 diag(1, p_s, p_s), acting on P10, P01 and Im<10|W|01>,
    R3 = [[c^2, s^2, 2cs], [s^2, c^2, -2cs], [-cs, cs, c^2 - s^2]]. Both are stepped one
    product at a time from e_0; the imaginary part of (T1^n)_00 vanishes identically
    (diag(1, i) T1 diag(1, -i) is real). The matrices are written here by hand, so this
    checks the engine at any step count, where ``brute_force_chain`` stops at a few.
    """
    if not 0 <= t_c < math.inf:  # a NaN t_c fails too
        raise ConfigurationError("collision time t_c must be nonnegative and finite")
    if not 0.0 <= p_s <= 1.0:
        raise ConfigurationError(f"swap probability {p_s} outside [0, 1]")
    if n_steps < 0:
        raise ConfigurationError("n_steps must be nonnegative")
    c, s = math.cos(t_c), math.sin(t_c)
    t1 = np.array([[c, -1j * s], [-1j * s, c]]) @ np.diag([1.0, p_s])
    r3 = np.array([[c * c, s * s, 2 * c * s], [s * s, c * c, -2 * c * s],
                   [-c * s, c * s, c * c - s * s]])
    t2 = r3 @ np.diag([1.0, p_s, p_s])
    v1, v2 = np.eye(2, dtype=np.complex128)[0], np.eye(3)[0]
    betas = np.empty((2, n_steps + 1))
    for n in range(n_steps + 1):
        betas[:, n] = v1[0].real, v2[0]
        v1, v2 = t1 @ v1, t2 @ v2
    return betas[0], betas[1]


# --- CPT certification --------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CptReport:
    """Per-point Choi spectra and trace defects for a family of maps, as read-only arrays, and
    the tolerance that they are judged by."""

    min_choi_eigenvalue: np.ndarray
    max_trace_defect: np.ndarray
    tolerance: float

    @property
    def verdict(self) -> bool:
        """True iff every Choi minimum eigenvalue is >= -tolerance and every trace defect is
        <= tolerance."""
        return bool(np.all(self.min_choi_eigenvalue >= -self.tolerance)
                    and np.all(self.max_trace_defect <= self.tolerance))

    def summary(self, times) -> dict:
        """The report as JSON: tolerance and verdict, and the worst Choi eigenvalue and trace
        defect, each with the first tau whose value lies within the tolerance of the worst, so
        that rounding alone does not pick the place."""
        eigs, defects = self.min_choi_eigenvalue, self.max_trace_defect
        i = int(np.argmax(eigs <= eigs.min() + self.tolerance))
        k = int(np.argmax(defects >= defects.max() - self.tolerance))
        return {
            "min_choi_eigenvalue": {"value": eigs.min(), "tau": float(times[i])},
            "max_trace_defect": {"value": defects.max(), "tau": float(times[k])},
            "tolerance": self.tolerance,
            "verdict": self.verdict,
        }


def certify_cpt(maps: MapStack, tolerance: float = CPT_TOLERANCE) -> CptReport:
    """Certify complete positivity and trace preservation of each map of the stack.

    No Choi stack is built. The Choi entry ((i, a), (j, b)) is the
    superoperator entry ((a, b), (i, j)), so the stack's joint zero pattern,
    read from the superoperators and moved by that reshuffle, splits the
    Choi indices into exact blocks (at most 2x2 for the paper's
    phase-covariant maps). Only the blocks' entries are gathered, symmetrized
    as ``MapStack.choi`` does, 0.5 (C + C^dag) bit for bit, and the blocks
    go to ``quantum.hermitian_spectra``, which may split them further: the
    1x1 blocks as one stack, each larger block as its own. A map's lowest
    eigenvalue is the lowest of its blocks'. The trace defects come from the
    Choi output-trace marginal sum_a C[(i, a), (j, a)], read from the same
    gathers (an entry outside every block is 0). Both equal the dense route,
    ``hermitian_spectra(maps.choi())[:, 0]`` and the marginal of
    ``maps.choi()``, bit for bit. A Kraus family is certified as the stack
    of its superoperators sum_k K (x) K*. A NaN or infinite entry anywhere
    in the stack raises np.linalg.LinAlgError.
    """
    if len(maps) == 0:
        raise ConfigurationError("cannot certify an empty map family")
    n, d = len(maps), maps.dim
    flat = maps.superops.reshape(n, -1)
    if not np.isfinite(flat).all():
        raise np.linalg.LinAlgError("map stack has a non-finite entry")
    # where[p, q]: the superoperator entry of Choi entry (p, q)
    where = np.arange(d ** 4).reshape(d, d, d, d).transpose(2, 0, 3, 1).reshape(d * d, d * d)
    nonzero = flat.any(axis=0)[where]
    blocks = sorted(_components(nonzero | nonzero.T), key=len)  # the 1x1 blocks first
    cells = [np.ix_(b, b) for b in blocks]
    # every block's entries, row-major, and one zero column for the entries outside every block
    sym = flat[:, np.concatenate([where[c].reshape(-1) for c in cells] + [[0]])]
    mirror = flat[:, np.concatenate([where[c].T.reshape(-1) for c in cells])]
    sym[:, :-1] += np.conjugate(mirror, out=mirror)
    sym[:, -1] = 0.0
    sym *= 0.5
    singles = sum(len(b) == 1 for b in blocks)
    lowest = [hermitian_spectra(sym[:, :singles].T.reshape(-1, 1, 1)).reshape(singles, n)]
    start = singles
    for b in blocks[singles:]:
        stop = start + len(b) ** 2
        lowest.append(hermitian_spectra(sym[:, start:stop].reshape(n, len(b), len(b)))[None, :, 0])
        start = stop
    min_eigs = np.concatenate(lowest).min(axis=0)
    zero = sym.shape[1] - 1
    column = np.full(d ** 4, zero)  # the column of sym that holds each Choi entry
    column[np.concatenate([(b[:, None] * d * d + b).reshape(-1) for b in blocks])] = range(zero)
    i, j, a = np.indices((d, d, d)).reshape(3, d * d, d)
    terms = column[((i * d + a) * d + j) * d + a]  # sum_a C[(i, a), (j, a)], a pair (i, j) a row
    kept = (terms < zero).any(axis=1)  # the other pairs lie off the diagonal: their sum is 0
    marginal = np.einsum("npa->np", sym[:, terms[kept]])
    marginal -= (i == j)[kept, 0]
    defects = np.abs(marginal).max(axis=1)
    return CptReport(_frozen(min_eigs), _frozen(defects), tolerance)


def probe_trace_defect(maps: MapStack, probes) -> float:
    """The largest |Tr L(rho) - 1| of ~16 evenly spaced maps L of the stack on each state rho of
    the (p, d, d) array probes, each output read from the map's Choi matrix C:
    L(rho)[a, b] = sum_ij C[ia, jb] rho[i, j]. 0.0 when probes is empty."""
    d = maps.dim
    sampled = maps[:: max(1, len(maps) // 16)].choi().reshape(-1, d, d, d, d)
    out = np.einsum("niajb,pij->npab", sampled, probes)
    traces = np.trace(out, axis1=2, axis2=3).real
    return float(np.max(np.abs(traces - 1.0), initial=0.0))


def corrupted_beta_maps(gamma_bar: float, taus) -> MapStack:
    """Closed-form map family with the coherence factor inflated by 5 %.

    The inflation breaks the beta1^2 <= beta2 inequality (already at
    tau = 0, where both factors equal 1), producing a non-CP family. Used
    as the mandatory negative control for the certifier.
    """
    maps = jc_maps(taus, gamma_bar)
    maps.superops[:, 1, 1] *= 1.05
    maps.superops[:, 2, 2] *= 1.05
    return maps


# --- discrete/continuous convergence ------------------------------------------


def calibrated_swap_probability(gamma_bar: float, t_c: float) -> float:
    """Swap probability reproducing memory-loss rate gamma_bar at collision time t_c.

    p_s = e^{-gamma_bar * t_c} (rescaled time units) is the exact coefficient
    of the reset semigroup: e^{B t_c} = p_s 1 + (1 - p_s) R for
    B = gamma_bar (R - 1), since R^2 = R. With it the protocol step is the
    splitting e^{A t_c} e^{B t_c} (``collisions.protocol_step``) of the
    generator of the continuous limit, whose exact step is
    ``collisions.generator_step``; the protocol approaches it at second
    order in t_c.
    """
    return float(np.exp(-gamma_bar * t_c))


@dataclass(frozen=True)
class ConvergenceReport:
    """Max trajectory error against the closed-form map per collision time."""

    t_c_values: tuple
    errors: tuple

    def __post_init__(self):
        tc = list(self.t_c_values)
        if any(b >= a for a, b in zip(tc, tc[1:])):
            raise ConfigurationError("collision times must be strictly decreasing")
        if any(e < 0 for e in self.errors):
            raise ConfigurationError("errors must be nonnegative")

    @property
    def estimated_order(self) -> Optional[float]:
        """The log-log slope of the errors against the collision times, None for one time."""
        if len(self.t_c_values) < 2:
            return None
        errors = np.maximum(self.errors, 1e-300)
        return float(np.polyfit(np.log(self.t_c_values), np.log(errors), 1)[0])

    def as_dict(self) -> dict:
        return {
            "t_c_values": list(self.t_c_values),
            "errors": list(self.errors),
            "estimated_order": self.estimated_order,
        }


# the state a protocol run and its reference are compared on (``probe_distances``)
_PROBE = DensityOperator(np.array([[0.4, 0.25 + 0.2j], [0.25 - 0.2j, 0.6]]))


def probe_distances(maps: MapStack, protocol: MapStack) -> np.ndarray:
    """The trace distance at each time between the states of maps and of the discrete protocol
    on ``_PROBE``, the protocol's states validated as a density-matrix stack."""
    return trace_distances(density_stack(protocol.apply(_PROBE)), maps.apply(_PROBE))


def convergence_study(gamma_bar: float, tau_max: float, t_c_list) -> ConvergenceReport:
    """Measure how fast the discrete protocol approaches the closed-form map.

    For each collision time, the swap probability is calibrated to
    gamma_bar, the protocol runs out to tau_max, and the error is the
    maximum ``probe_distances`` from ``jc_maps`` along the fixed probe
    state's whole trajectory (endpoint-only checks miss transients). Every
    run steps in one pure-bath ``collisions.Window``, built once
    (``Window.discrete_maps``). The order estimate is the log-log slope.
    """
    if not 0 < tau_max < math.inf:  # a NaN tau_max fails too
        raise ConfigurationError("tau_max must be positive and finite")
    t_c_values = sorted((float(t) for t in t_c_list), reverse=True)
    if not all(0 < t_c < math.inf for t_c in t_c_values):  # NaN fails too
        raise ConfigurationError("every collision time in t_c_list must be positive and finite")
    if len(t_c_values) != len(set(t_c_values)):
        raise ConfigurationError("collision times must be distinct")
    window, errors = Window(jc_hamiltonian(), (1.0, 0.0)), []  # the pure bath
    for t_c in t_c_values:
        n_steps = _whole_steps(tau_max, t_c, "tau_max", "the collision time t_c")
        stack = window.discrete_maps(t_c, calibrated_swap_probability(gamma_bar, t_c), n_steps)
        errors.append(float(np.max(probe_distances(jc_maps(stack.times, gamma_bar), stack))))
    return ConvergenceReport(tuple(t_c_values), tuple(errors))


# --- random-state utilities ----------------------------------------------------


def random_density_stack(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """count full-rank random states as one validated (count, dim, dim) array
    (``quantum.density_stack``), each (G G^dag + 1e-6) / Tr from a complex Gaussian square root
    G. One normal draw gives every G, its real part and then its imaginary part, state by
    state: the same numbers, in the same order, as count draws of one state each."""
    g = rng.normal(size=(count, 2, dim, dim))
    g = g[:, 0] + 1j * g[:, 1]
    mat = g @ g.conj().mT + 1e-6 * np.eye(dim)
    return density_stack(mat / np.trace(mat, axis1=1, axis2=2).real[:, None, None])
