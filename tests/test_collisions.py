import json
import math
import tracemalloc

import hypothesis.strategies as st
import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from scipy.sparse.csgraph import connected_components

from nmcollide import (
    BathSpec,
    CollisionConfig,
    ConfigurationError,
    DensityOperator,
    HermitianOperator,
    InternalConsistencyError,
    TrajectoryRecord,
    ValidationError,
    brute_force_chain,
    discrete_maps,
    thermal_weights,
    trace_distance,
    unitary_evolution,
)
from nmcollide import collisions
from nmcollide.cli import PHASE_BOUND
from nmcollide.collisions import (TimeGrid, Window, _expm, _whole_steps, generator_step,
                                  lambda_embedding, propagate_maps, protocol_step)
from nmcollide.continuum import build_kernel_map
from nmcollide.jaynes_cummings import beta_arrays, jc_maps
from nmcollide.quantum import _hermitian_units
from nmcollide.verify import purified_pair_ket, random_density_stack

PROBE = DensityOperator(np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]]))


def pure_cfg(h, t_c, p_s, n_steps):
    return CollisionConfig(
        system_dim=2, ancilla_dim=2, hamiltonian=h, t_c=t_c, p_s=p_s,
        n_steps=n_steps, bath=BathSpec(kind="pure_ground"),
    )


def trace_ancilla(joint: np.ndarray, ds: int = 2, da: int = 2) -> np.ndarray:
    """Tr_A of a matrix on system (x) ancilla, np.kron order, written with np.einsum."""
    return np.einsum("iaja->ij", joint.reshape(ds, da, ds, da))


def ground_window(rho: DensityOperator) -> np.ndarray:
    """rho (x) |0><0|: the first window of a pure bath, written with np.kron."""
    return np.kron(rho.data, DensityOperator.basis(2, 0).data)


def vec_commutator(h) -> np.ndarray:
    """-i[H, .] on row-major vec(W): vec(H W - W H) = (H (x) 1 - 1 (x) H^T) vec(W)."""
    eye = np.eye(h.dim)
    return -1j * (np.kron(h.data, eye) - np.kron(eye, h.data.T))


def vec_reset(rho_a: np.ndarray, ds: int) -> np.ndarray:
    """R(W) = Tr_A(W) (x) rho_A on row-major vec(W), by its index formula:
    R[(s,a,t,b), (s',c,t',c')] = delta_ss' delta_tt' delta_cc' rho_A[a,b]."""
    eye_s, da = np.eye(ds), len(rho_a)
    return np.einsum("sS,tT,cC,ab->satbScTC", eye_s, eye_s, np.eye(da), rho_a).reshape(
        (ds * da) ** 2, (ds * da) ** 2)


def window_basis(weights, ds: int) -> np.ndarray:
    """M, whose column (b, m) is vec(P_b (x) B_m), written with np.kron: the system's Hermitian
    units P_b times the ancilla's B_m, the one on the largest weight replaced by diag(weights).
    A step T in window coordinates is M T M^-1 on row-major vecs."""
    da = len(weights)
    ancilla = [u.reshape(da, da) for u in _hermitian_units(da)[0].T]
    ancilla[int(np.argmax(weights)) * (da + 1)] = np.diag(weights)
    return np.array([np.kron(p.reshape(ds, ds), b).reshape(-1)
                     for p in _hermitian_units(ds)[0].T for b in ancilla]).T


def bare_window(weights, ds: int) -> Window:
    """The window of rho_A = diag(weights) for H = 0 on a d_s-level system (x) the ancilla: its
    coordinates, attach, Tr_A, reset and readout do not depend on H."""
    d = ds * len(weights)
    return Window(HermitianOperator(np.zeros((d, d))), weights)


def window_parts(window: Window) -> tuple:
    """The window's basis, attach, trace, reset, readout and commutator."""
    return (window.basis, window.attach, window.trace, window.reset, window.readout,
            window.commutator)


def window_and_step(cfg):
    """The window of cfg's H and bath, and the protocol's step at cfg's t_c and p_s in it."""
    window = Window(cfg.hamiltonian, cfg.bath.weight_vector(cfg.ancilla_dim))
    return window, protocol_step(window, cfg.t_c, cfg.p_s)


def in_vec_basis(step: np.ndarray, weights, ds: int = 2) -> np.ndarray:
    """A window-coordinate step as a matrix on row-major vec(W): M T M^-1."""
    m = window_basis(weights, ds)
    return m @ step @ np.linalg.inv(m)


class TestSaCollision:
    """One SA collision is the protocol step at p_s = 1, where no ancilla is reset: U W U^dag."""

    @staticmethod
    def collide(window: np.ndarray, h, t_c: float) -> np.ndarray:
        step = protocol_step(Window(h, (1.0, 0.0)), t_c, 1.0)
        return (in_vec_basis(step, (1.0, 0.0)) @ window.reshape(-1)).reshape(window.shape)

    def test_zero_time_is_identity(self, jc_h):
        joint = ground_window(PROBE)
        out = self.collide(joint, jc_h, 0.0)
        assert trace_distance(out, joint) < 1e-14

    @pytest.mark.parametrize("theta", [0.2, 0.9, np.pi / 2, 2.4])
    def test_single_rabi_oscillation(self, jc_h, theta):
        joint = ground_window(DensityOperator.basis(2, 1))
        out = self.collide(joint, jc_h, theta)
        system = trace_ancilla(out)
        assert abs(system[1, 1].real - np.cos(theta) ** 2) < 1e-12

    def test_ground_state_is_stationary(self, jc_h):
        joint = ground_window(DensityOperator.basis(2, 0))
        out = self.collide(joint, jc_h, 1.3)
        assert trace_distance(out, joint) < 1e-14


class TestRunDiscrete:
    """A run from one state: the trajectory discrete_maps(cfg).apply(rho)."""

    def test_memoryless_populations_compose(self, jc_h):
        # with no AA collisions every step applies the same damping channel
        cfg = pure_cfg(jc_h, t_c=0.3, p_s=0.0, n_steps=10)
        states = discrete_maps(cfg).apply(DensityOperator.basis(2, 1))
        expect = np.cos(0.3) ** (2 * np.arange(11))
        assert np.max(np.abs(states[:, 1, 1].real - expect)) < 1e-12

    def test_memoryless_equals_composed_channel(self, jc_h):
        cfg = pure_cfg(jc_h, t_c=0.4, p_s=0.0, n_steps=5)
        states = discrete_maps(cfg).apply(PROBE)
        step = build_kernel_map(jc_h).maps(0.4)
        state = PROBE.data
        for _ in range(5):
            state = step.apply(state)[0]
        assert trace_distance(state, states[-1]) < 1e-12

    @pytest.mark.parametrize("p_s", [0.0, 0.5, 1.0])
    def test_single_step_is_one_collision(self, jc_h, p_s):
        cfg = pure_cfg(jc_h, t_c=0.7, p_s=p_s, n_steps=1)
        states = discrete_maps(cfg).apply(PROBE)
        u = unitary_evolution(jc_h, 0.7)
        expect = trace_ancilla(u @ ground_window(PROBE) @ u.conj().T)
        assert trace_distance(states[1], expect) < 1e-14

    def test_perfect_swap_is_stroboscopic_kernel(self, jc_h):
        # p_s = 1 hands each fresh ancilla the full state of its predecessor,
        # so rho_n equals the single-ancilla coherent evolution at t = n t_c
        stack = discrete_maps(pure_cfg(jc_h, t_c=0.05, p_s=1.0, n_steps=60))
        states = stack.apply(DensityOperator.basis(2, 1))
        assert np.max(np.abs(states[:, 1, 1].real - np.cos(stack.times) ** 2)) < 1e-12

    def test_times_are_exact_multiples(self, jc_h):
        stack = discrete_maps(pure_cfg(jc_h, t_c=0.1, p_s=0.3, n_steps=7))
        assert tuple(stack.times) == tuple(n * 0.1 for n in range(8))

    def test_all_states_valid(self, jc_h):
        cfg = pure_cfg(jc_h, t_c=0.35, p_s=0.6, n_steps=25)
        for state in discrete_maps(cfg).apply(PROBE):
            assert abs(np.trace(state) - 1.0) < 1e-12
            assert np.linalg.eigvalsh(state)[0] >= -1e-10


class TestConfigValidation:
    def test_swap_probability_range(self, jc_h):
        with pytest.raises(ConfigurationError):
            pure_cfg(jc_h, t_c=0.1, p_s=-0.1, n_steps=1)

    def test_step_count(self, jc_h):
        with pytest.raises(ConfigurationError):
            pure_cfg(jc_h, t_c=0.1, p_s=0.5, n_steps=0)

    def test_hamiltonian_dimension(self, jc_h):
        with pytest.raises(ConfigurationError):
            CollisionConfig(
                system_dim=2, ancilla_dim=3, hamiltonian=jc_h, t_c=0.1, p_s=0.5,
                n_steps=1, bath=BathSpec(kind="pure_ground"),
            )

    def test_bath_spec_validation(self):
        with pytest.raises(ConfigurationError):
            BathSpec(kind="thermal")
        with pytest.raises(ConfigurationError):
            BathSpec(kind="pure_ground", weights=(1.0,))
        with pytest.raises(ConfigurationError):
            BathSpec(kind="squeezed")
        with pytest.raises(ConfigurationError):
            BathSpec(kind="thermal", weights=(0.7, 0.7))

    @pytest.mark.parametrize("mixed", [
        {"energies": (0.0, 1.0), "inverse_temperature": 5.0},
        {"energies": (0.0, 1.0)},
        {"inverse_temperature": 5.0},
    ], ids=["both", "energies", "inverse_temperature"])
    def test_weights_with_thermal_parameters_are_refused(self, mixed):
        # explicit weights would win and the other fields be dropped unread
        with pytest.raises(ConfigurationError, match="'weights'"):
            BathSpec(kind="thermal", weights=(0.7, 0.3), **mixed)


class TestWholeSteps:
    """The one rule for a span that holds a whole number of steps: a series' t_c on the tau grid,
    and each t_c of a convergence study in its tau_max."""

    @staticmethod
    def _rounded(span, step):
        # the check that the series and the convergence study each made on their own
        n = round(span / step)
        return n if n >= 1 and abs(n * step - span) <= 1e-9 * max(1.0, span) else None

    @pytest.mark.parametrize("span, step, n", [
        pytest.param(0.1, 0.1, 1, id="series-default-t_c"),
        pytest.param(0.5, TimeGrid(t_max=1.0, n_points=11).dt, 5, id="series-stride"),
        pytest.param(2.0, 0.1, 20, id="convergence-0.1"),
        pytest.param(2.0, 0.025, 80, id="convergence-0.025"),
        # 69 spacings miss 2.2e7 by 3.7e-9, which only a check relative to the span lets pass
        pytest.param(22000000.0, TimeGrid(t_max=22000000.0, n_points=70).dt, 69,
                     id="tau_max-2.2e7"),
    ])
    def test_exact_multiples_keep_their_count(self, span, step, n):
        assert _whole_steps(span, step, "span", "step") == n == self._rounded(span, step)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 10**6), st.floats(1e-6, 1e3),
           st.sampled_from([0.0, 1e-13, -1e-11, 1e-9, 3e-9, -1e-7, 0.3, 0.5]))
    def test_same_count_wherever_the_rounded_check_passed(self, k, step, jitter):
        span = k * step * (1.0 + jitter)
        expected = self._rounded(span, step)
        if expected is None:
            with pytest.raises(ConfigurationError):
                _whole_steps(span, step, "span", "step")
        else:
            assert _whole_steps(span, step, "span", "step") == expected

    @pytest.mark.parametrize("span, step, named", [
        pytest.param(0.0, 0.0, ["'step'"], id="zero-step"),
        pytest.param(1e-323, TimeGrid(t_max=5e-324, n_points=11).dt, ["'step'"],
                     id="spacing-rounded-to-0"),
        pytest.param(1.0, -0.1, ["'step'"], id="negative-step"),
        pytest.param(1.0, float("nan"), ["'step'"], id="nan-step"),
        pytest.param(1e308, 0.1, ["'span'", "'step'"], id="infinite-ratio"),
        pytest.param(float("nan"), 0.1, ["'span'", "'step'"], id="nan-span"),
        pytest.param(1.0, 0.3, ["'span'", "'step'"], id="non-multiple"),
        pytest.param(1e-12, 1.0, ["'span'", "'step'"], id="less-than-one-step"),
        pytest.param(-1.0, 0.1, ["'span'", "'step'"], id="negative-span"),
    ])
    def test_refused_naming_its_inputs(self, span, step, named):
        with pytest.raises(ConfigurationError) as refused:
            _whole_steps(span, step, "'span'", "'step'")
        assert all(name in str(refused.value) for name in named)


class TestThermal:
    def test_weights_normalize(self):
        w = thermal_weights([0.0, 1.0], 1.0)
        assert abs(w.sum() - 1.0) < 1e-15
        assert abs(w[1] / w[0] - np.exp(-1.0)) < 1e-12

    def test_infinite_beta_weights_stable(self):
        w = thermal_weights([0.0, 1.0], 1e6)
        assert np.allclose(w, [1.0, 0.0])

    @pytest.mark.parametrize("energies, expected", [
        ((0.0, 1e308), (1.0, 0.0)),  # beta e_1 overflows
        ((-1e308, 1e308), (1.0, 0.0)),  # e_1 - e_0 overflows
        ((1e308, -1e308), (0.0, 1.0)),
    ])
    def test_level_past_the_largest_double_weighs_zero(self, energies, expected):
        # exactly 0, with no numpy warning (the suite turns warnings into errors)
        assert thermal_weights(energies, 10.0).tolist() == list(expected)

    @pytest.mark.parametrize("energies", [(0.0, 1.0), (-1e308, 1e308), (0.0, 1e308, -5.0)])
    def test_zero_beta_is_uniform_however_far_apart(self, energies):
        assert thermal_weights(energies, 0.0).tolist() == [1.0 / len(energies)] * len(energies)

    def test_weights_are_the_boltzmann_formula_bit_for_bit_where_it_is_finite(self):
        # discrete_chain and continuum_series run thermal baths: their weights must not move
        for energies in ((0.0, 1.0), (0.3, -1.7), (0.0, 1e300), (2.0, 2.0, -1.0)):
            e = np.array(energies)
            for beta in (*np.linspace(0.0, 5.0, 101), 1e6, 1e-300):
                w = np.exp(-beta * (e - e.min()))
                assert thermal_weights(energies, beta).tobytes() == (w / w.sum()).tobytes()

    def test_overflowing_explicit_weights_refused_quietly(self):
        with pytest.raises(ConfigurationError, match="probability vector"):
            BathSpec(kind="thermal", weights=(1e308, 1e308))

    def test_purified_pair_marginal(self):
        w = np.array([0.7, 0.3])
        psi = purified_pair_ket(w)
        pair = DensityOperator.from_ket(psi)
        marginal = trace_ancilla(pair.data)
        assert np.max(np.abs(marginal - np.diag(w))) < 1e-12

    def test_zero_temperature_weights_match_pure(self, jc_h):
        bath = BathSpec(kind="thermal", weights=(1.0, 0.0))
        cfg_t = CollisionConfig(2, 2, jc_h, t_c=0.3, p_s=0.4, n_steps=12, bath=bath)
        cfg_p = pure_cfg(jc_h, t_c=0.3, p_s=0.4, n_steps=12)
        a = discrete_maps(cfg_t).apply(PROBE)
        b = discrete_maps(cfg_p).apply(PROBE)
        assert max(trace_distance(x, y) for x, y in zip(a, b)) < 1e-12

    def test_weight_vector_is_thermal_weights_bitwise(self):
        # thermal_weights is normalized already; a second division moved the last bit
        for beta in np.linspace(0.0, 5.0, 501):
            bath = BathSpec(kind="thermal", energies=(0.0, 1.0), inverse_temperature=float(beta))
            assert np.array_equal(bath.weight_vector(2), thermal_weights((0, 1), beta))

    def test_infinite_temperature_fresh_marginal(self):
        bath = BathSpec(kind="thermal", energies=(0.0, 1.0), inverse_temperature=0.0)
        assert np.allclose(bath.weight_vector(2), [0.5, 0.5])

    def test_relaxation_to_single_collision_fixed_point(self, jc_h):
        # memoryless thermal collisions drive the system to the fixed point of
        # one collision map, found independently by iterating to convergence
        bath = BathSpec(kind="thermal", energies=(0.0, 1.0), inverse_temperature=1.0)
        cfg = CollisionConfig(2, 2, jc_h, t_c=0.5, p_s=0.0, n_steps=120, bath=bath)
        states = discrete_maps(cfg).apply(DensityOperator.basis(2, 1))
        step = build_kernel_map(jc_h, bath.weight_vector(2)).maps(0.5)
        fixed = DensityOperator.basis(2, 1).data
        for _ in range(500):
            fixed = step.apply(fixed)[0]
        target = fixed[1, 1].real
        assert target > 0.05  # relaxes to the thermal value, not to zero
        assert abs(states[-1, 1, 1].real - target) < 1e-9
        # that fixed point is the bath's excited weight w at every temperature: each collision
        # takes the excited population p to cos^2(t_c) p + sin^2(t_c) w
        for beta in (0.0, 0.5, 1.0, 2.0, 5.0):
            bath = BathSpec(kind="thermal", energies=(0.0, 1.0), inverse_temperature=beta)
            cfg = CollisionConfig(2, 2, jc_h, t_c=0.5, p_s=0.0, n_steps=150, bath=bath)
            final = discrete_maps(cfg)[-1].apply(DensityOperator.basis(2, 1))[0]
            assert abs(final[1, 1].real - thermal_weights((0.0, 1.0), beta)[1]) < 1e-12, beta

    def test_perfect_swap_tracks_thermal_kernel(self, jc_h):
        # swaps hand each fresh ancilla the full predecessor state including
        # system correlations, so at p_s = 1 the trajectory equals the thermal
        # kernel channel at stroboscopic times; this pins down the swap
        # convention against the continuum construction
        bath = BathSpec(kind="thermal", energies=(0.0, 1.0), inverse_temperature=0.9)
        kernel = build_kernel_map(jc_h, bath.weight_vector(2))
        cfg = CollisionConfig(2, 2, jc_h, t_c=0.05, p_s=1.0, n_steps=80, bath=bath)
        stack = discrete_maps(cfg)
        worst = max(
            trace_distance(state, out)
            for state, out in zip(stack.apply(PROBE), kernel.maps(stack.times).apply(PROBE))
        )
        assert worst < 1e-12


class TestResetSplitting:
    """The protocol step is the Lie-Trotter step of L = -i[H, .] + gamma (R - 1)."""

    @pytest.mark.parametrize("weights", [
        pytest.param((1.0, 0.0), id="pure"),
        pytest.param(tuple(thermal_weights((0.0, 1.0), 0.7)), id="thermal"),
    ])
    @pytest.mark.parametrize("gamma, t_c", [(1.0, 0.05), (50.0, 0.002), (0.3, 1.7)])
    def test_transfer_matrix_is_unitary_after_reset_semigroup(self, jc_h, weights, gamma, t_c):
        reset = vec_reset(np.diag(weights).astype(np.complex128), 2)
        split = scipy.linalg.expm(vec_commutator(jc_h) * t_c) @ scipy.linalg.expm(
            gamma * t_c * (reset - np.eye(16)))
        window = Window(jc_h, weights)
        step = protocol_step(window, t_c, float(np.exp(-gamma * t_c)))
        assert step.dtype == np.float64
        assert np.max(np.abs(split - in_vec_basis(step, weights))) < 1e-14
        assert np.array_equal(window.basis, window_basis(weights, 2))

    def test_generator_parts(self, jc_h):
        # in window coordinates the reset is an idempotent matrix of 0 and 1, and both parts are
        # the vec-basis -i[H, .] and R once mapped back
        weights = np.array([0.7, 0.3])
        window = Window(jc_h, weights)
        basis, attach, trace, reset, readout = window_parts(window)[:5]
        assert np.array_equal(reset, attach @ trace) and np.array_equal(reset @ reset, reset)
        units, inverse = _hermitian_units(2)
        assert readout.dtype == np.float64  # Re and Im of (P (x) P^-T)^T, column by column
        assert np.array_equal(readout.view(np.complex128).T, np.kron(units, inverse.T))
        assert set(np.unique(reset)) == {0.0, 1.0}
        m = window_basis(weights, 2)
        assert np.array_equal(basis, m)
        assert np.max(np.abs(m @ reset @ np.linalg.inv(m) - vec_reset(np.diag(weights), 2))) < 1e-15
        commutator = in_vec_basis(window.commutator, weights)
        # the window's operators are read-only, and so is the window
        assert not any(part.flags.writeable for part in (*window_parts(window), window.weights))
        with pytest.raises(AttributeError):
            window.reset = reset
        w = random_density_stack(4, 1, np.random.default_rng(3))[0]
        expected = -1j * (jc_h.data @ w - w @ jc_h.data)
        assert np.max(np.abs(commutator @ w.reshape(-1) - expected.reshape(-1))) < 1e-15

    def test_reset_is_idempotent_and_replaces_the_ancilla(self):
        rho_a = np.diag([0.7, 0.3]).astype(np.complex128)
        reset = vec_reset(rho_a, 2)
        assert np.max(np.abs(reset @ reset - reset)) < 1e-15
        w = np.kron(PROBE.data, np.diag([0.2, 0.8]))
        out = (reset @ w.reshape(-1)).reshape(4, 4)
        assert np.max(np.abs(out - np.kron(PROBE.data, rho_a))) < 1e-15


def reference_step(h, weights, gamma, dt):
    """e^{L dt} to 60 digits with mpmath, L = -i[H, .] + gamma (R - 1) on row-major vec(W), the
    doubles of H, the weights, gamma and dt taken as exact numbers. Each connected block of L's
    zero pattern is exponentiated on its own, which for the exchange coupling cuts the 16x16
    exponential into blocks of at most 6x6."""
    commutator = vec_commutator(h)
    reset = vec_reset(np.diag(weights).astype(np.complex128), h.dim // len(weights))
    n_blocks, label = connected_components((commutator != 0) | (reset != 0), directed=False)
    out = np.zeros_like(commutator)
    with mpmath.workdps(60):
        g, t = mpmath.mpf(gamma), mpmath.mpf(dt)
        for b in range(n_blocks):
            idx = np.ix_(*[np.flatnonzero(label == b)] * 2)
            a, r = mpmath.matrix(commutator[idx].tolist()), mpmath.matrix(reset[idx].tolist())
            out[idx] = np.array(mpmath.expm((a + g * (r - mpmath.eye(a.rows))) * t).tolist(),
                                dtype=np.complex128)
    return out


def affine_thermal_maps(taus, gamma, w):
    """The exchange coupling's maps for ancillas in diag(1 - w, w), from the pure bath's betas:
    the coherence scaled by beta1, the excited population p -> beta2 p + w (1 - beta2)."""
    b1, b2 = beta_arrays(taus, gamma)
    s = np.zeros((len(taus), 4, 4), dtype=np.complex128)
    s[:, 0, 0], s[:, 0, 3] = 1.0 - w * (1.0 - b2), (1.0 - w) * (1.0 - b2)
    s[:, 3, 0], s[:, 3, 3] = w * (1.0 - b2), b2 + w * (1.0 - b2)
    s[:, 1, 1] = s[:, 2, 2] = b1
    return s


class TestGeneratorStep:
    """e^{L dt} from ``_expm`` in the basis where the reset is exact, and the maps it steps."""

    @pytest.mark.parametrize("weights", [
        pytest.param((1.0, 0.0), id="pure"),
        pytest.param((0.731, 0.269), id="thermal"),
    ])
    @pytest.mark.parametrize("dt", [0.0025, 0.1])
    @pytest.mark.parametrize("gamma", [0.0, 1.0, 2.0, 20.0, 1e4, 1e6, 1e8, 1e20])
    def test_matches_a_60_digit_exponential(self, jc_h, weights, dt, gamma):
        # the step in window coordinates, compared as M T M^-1: largest difference 1.7e-15
        # (thermal, dt = 0.1, gamma = 1e8); the same _expm of L dt in the vec basis is 4.6e-14
        # off for the thermal bath at gamma = 1e6, dt = 0.0025, and 1.1e-11 at 1e8
        window = Window(jc_h, weights)
        step = generator_step(window, gamma, dt)
        assert np.array_equal(window.basis, window_basis(weights, 2)) and step.dtype == np.float64
        expected = reference_step(jc_h, weights, gamma, dt)
        assert float(np.max(np.abs(in_vec_basis(step, weights) - expected))) < 1e-14

    @pytest.mark.parametrize("w", [0.269, 0.5])
    @pytest.mark.parametrize("gamma", [0.5, 2.0, 20.0, 1e4, 1e8, 1e12])
    def test_thermal_maps_are_the_affine_form_of_the_betas(self, jc_h, w, gamma):
        # largest difference 7.6e-14 (w = 0.269, gamma = 1e8)
        maps = lambda_embedding(jc_h, (1.0 - w, w), gamma, TimeGrid(t_max=5.0, n_points=1001))
        expected = affine_thermal_maps(maps.times, gamma, w)
        assert float(np.max(np.abs(maps.superops - expected))) < 1e-12

    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    @pytest.mark.parametrize("tau", [1.0, 100.0, 1e4, 1e6, PHASE_BOUND])
    def test_one_long_step_keeps_the_phase_to_its_rounding(self, jc_h, gamma, tau):
        # a step of length tau keeps the phase to about tau 2^-53, the rounding PHASE_BOUND
        # budgets. At gamma = 0 nothing damps the rotation: 1.7e-14 at tau = 100, 1.7e-12 at
        # 1e4 and 6.9e-9 at PHASE_BOUND, a ratio to tau 2^-53 of at most 2.8; at gamma = 0.5
        # the error is 1.1e-16 at every tau
        maps = lambda_embedding(jc_h, (1.0, 0.0), gamma, TimeGrid(t_max=tau, n_points=2))
        error = float(np.max(np.abs(maps.superops - jc_maps(maps.times, gamma).superops)))
        assert error <= 4.0 * tau * 2.0**-53 + 1e-15

    def test_rate_past_the_largest_double_raises(self, jc_h):
        # gamma dt = 5e308 is no double; the error names the product, not a NaN step
        with pytest.raises(FloatingPointError, match=r"gamma \* dt = 1e\+303 \* 500000 overflows"):
            lambda_embedding(jc_h, (1.0, 0.0), 1e303, TimeGrid(t_max=1e6, n_points=3))

    @pytest.mark.parametrize("rate", [0.0, 1e-300, 0.3, 1.0, 20.0, 1e10, 1e300, 1.7e308])
    def test_expm_of_a_reset_at_any_finite_rate(self, rate):
        # X = rate (R - 1) for the reset R = [[0, 1], [0, 1]]:
        # e^X = [[e^-rate, 1 - e^-rate], [0, 1]]. Its 1-norm, 2 rate, is past the largest double
        # at 1.7e308, and no scaling overflows
        x = rate * np.array([[-1.0, 1.0], [0.0, 0.0]], dtype=np.complex128)
        expected = np.array([[np.exp(-rate), -np.expm1(-rate)], [0.0, 1.0]])
        assert float(np.max(np.abs(_expm(x) - expected))) < 1e-15


class TestAncillaBookkeeping:
    """Attaching rho_A, Tr_A and the reset in window coordinates against np.kron, an np.einsum
    partial trace and the reset by index, and the kernel's modes against a unitary dilation
    written with scipy's expm."""

    @pytest.mark.parametrize("weights, message", [
        pytest.param((0.2, 0.2), "must be a probability vector", id="sum"),
        pytest.param((1.2, -0.2), "must be a probability vector", id="negative"),
        pytest.param((0.5, 0.25, 0.25), "4 is not divisible by ancilla dim 3", id="length"),
    ])
    def test_window_checks_its_weights(self, jc_h, weights, message):
        with pytest.raises(ConfigurationError, match=message):
            Window(jc_h, weights)

    @pytest.mark.parametrize("ds", [1, 2, 3])
    @pytest.mark.parametrize("da", [2, 3])
    def test_attach_is_kron(self, ds, da):
        rng = np.random.default_rng(10 * ds + da)
        units, inverse = _hermitian_units(ds)
        for _ in range(5):
            weights = rng.dirichlet(np.ones(da))
            window = bare_window(weights, ds)
            basis, attach = window.basis, window.attach
            assert np.array_equal(basis, window_basis(weights, ds))
            rho = random_density_stack(ds, 1, rng)[0]
            coeffs = (inverse @ rho.reshape(-1)).real  # rho on the system's Hermitian units
            out = window_basis(weights, ds) @ attach @ coeffs
            assert np.max(np.abs(out - np.kron(rho, np.diag(weights)).reshape(-1))) <= 1e-15

    @pytest.mark.parametrize("ds", [1, 2, 3])
    @pytest.mark.parametrize("da", [2, 3])
    def test_trace_is_partial_trace(self, ds, da):
        rng = np.random.default_rng(20 * ds + da)
        units = _hermitian_units(ds)[0]
        for _ in range(5):
            weights = rng.dirichlet(np.ones(da))
            trace = bare_window(weights, ds).trace
            w = random_density_stack(ds * da, 1, rng)[0]
            coeffs = np.linalg.solve(window_basis(weights, ds), w.reshape(-1)).real
            expected = trace_ancilla(w, ds, da).reshape(-1)
            # the solve for the coefficients rounds: largest difference 1.1e-16
            assert np.max(np.abs(units @ trace @ coeffs - expected)) <= 1e-15

    @pytest.mark.parametrize("ds", [1, 2, 3])
    @pytest.mark.parametrize("da", [2, 3])
    def test_reset_matches_index_formula(self, ds, da):
        rng = np.random.default_rng(30 * ds + da)
        weights = rng.dirichlet(np.ones(da))
        eye_s, d = np.eye(ds), ds * da
        # R[(s,a,t,b), (s',c,t',c')] = delta_ss' delta_tt' delta_cc' rho_A[a,b]
        expected = np.einsum(
            "sS,tT,cC,ab->satbScTC", eye_s, eye_s, np.eye(da), np.diag(weights)
        ).reshape(d * d, d * d)
        reset = bare_window(weights, ds).reset
        # the window reset is exact; the change back to vecs inverts M (largest 1.1e-16)
        assert np.max(np.abs(in_vec_basis(reset, weights, ds) - expected)) < 1e-15
        assert np.array_equal(vec_reset(np.diag(weights), ds), expected)

    @pytest.mark.parametrize("ds", [1, 2, 3])
    @pytest.mark.parametrize("da", [2, 3])
    def test_kernel_is_the_dilation(self, ds, da):
        # E(t) rho = Tr_A U (rho (x) rho_A) U^dag, U = e^{-iHt}, for a random H and weights
        rng = np.random.default_rng(40 * ds + da)
        a = rng.normal(size=(2, ds * da, ds * da))
        h = a[0] + 1j * a[1]
        h = HermitianOperator(0.5 * (h + h.conj().T))
        weights = rng.dirichlet(np.ones(da))
        kernel = build_kernel_map(h, weights)
        for t in (0.0, 0.3, 2.7):
            u = scipy.linalg.expm(-1j * t * h.data)
            for _ in range(3):
                rho = random_density_stack(ds, 1, rng)[0]
                expected = trace_ancilla(u @ np.kron(rho, np.diag(weights)) @ u.conj().T, ds, da)
                assert np.max(np.abs(kernel.maps(t).apply(rho)[0] - expected)) < 1e-13


def _extended(x) -> np.longdouble:
    return np.longdouble(mpmath.nstr(x, 30))


def extended_window_recursion(h, t_c, p_s, weights, rho0, n_steps):
    """Reduced states of W <- U (p_s W + (1 - p_s) Tr_A(W) (x) rho_A) U^dag in long double.

    The unitary is e^{-i H t_c} from mpmath at 30 digits; no step repairs
    Hermiticity or trace.
    """
    with mpmath.workdps(30):
        u_mp = mpmath.expm(-1j * mpmath.mpf(t_c) * mpmath.matrix(h.tolist()))
        d = u_mp.rows
        re = np.array([[_extended(u_mp[i, j].real) for j in range(d)] for i in range(d)])
        im = np.array([[_extended(u_mp[i, j].imag) for j in range(d)] for i in range(d)])
    u = re + 1j * im
    u_dag = u.conj().T
    fresh = np.diag(np.asarray(weights, dtype=np.longdouble)).astype(np.clongdouble)
    p = np.longdouble(p_s)
    rho = np.asarray(rho0, dtype=np.clongdouble)
    ds, da = rho.shape[0], fresh.shape[0]
    window = u @ np.kron(rho, fresh) @ u_dag
    states = [rho]
    for step in range(1, n_steps + 1):
        if step >= 2:
            window = u @ (p * window + (1 - p) * np.kron(states[-1], fresh)) @ u_dag
        states.append(np.einsum("sata->st", window.reshape(ds, da, ds, da)))
    return np.array(states)


# the baths and step of the long runs against the extended-precision recursion
LONG_RUN_WEIGHTS = [
    pytest.param((1.0, 0.0), id="pure"),
    pytest.param((1.0 / (1.0 + np.exp(-1.3)), np.exp(-1.3) / (1.0 + np.exp(-1.3))), id="thermal"),
]


def long_run_cfg(h, weights, t_c=0.01, n_steps=2000):
    pure = weights[1] == 0.0
    bath = BathSpec(kind="pure_ground") if pure else BathSpec(kind="thermal", weights=weights)
    return CollisionConfig(2, 2, h, t_c=t_c, p_s=float(np.exp(-1.5 * t_c)), n_steps=n_steps,
                           bath=bath)


def step_by_step_maps(step, weights, ds, n_steps):
    """``propagate_maps`` with one product per step: the window-coordinate matmul, then every
    column renormalized to unit trace, after each step; the maps P Y X^-1 P^-1 by matmul."""
    da = len(weights)
    window = bare_window(weights, ds)
    attach, reduced = window.attach, window.trace
    trace_row = np.kron(np.eye(ds).reshape(-1), np.eye(da).reshape(-1))  # Tr(P_b (x) B_m)
    eye = np.eye(ds * ds)
    x = eye + np.outer(eye[0], 1.0 - np.eye(ds).reshape(-1))
    history = np.empty((n_steps + 1, len(step), ds * ds))
    history[0] = attach @ x
    for j in range(1, n_steps + 1):
        w = np.matmul(step, history[j - 1], out=history[j])
        w /= trace_row @ w
    units, inverse = _hermitian_units(ds)
    return units @ (reduced @ history @ np.linalg.inv(x)) @ inverse


def per_block_maps(step, coords, n_steps):
    """The earlier form of ``propagate_maps``, kept verbatim as the reference for its bits: one
    product and one normalization per block, X^-1 and the readout by matmul, the readout's real
    and imaginary parts apart. coords carry the complex readout P (x) P^-T
    (``complex_readout_coords``)."""
    _, attach, reduced, _, back = coords  # vec(P C P^-1) = (P (x) P^-T) vec C
    d2, ds = len(step), math.isqrt(len(reduced))
    trace_row, eye = np.eye(ds).reshape(-1), np.eye(ds * ds)  # Tr P_b, so Tr Y = trace_row @ y
    x = eye + np.outer(eye[0], 1.0 - trace_row)  # X^-1 = 2 - X: the added E_00s square to 0
    window = attach @ x
    block = max(1, math.ceil(math.sqrt(n_steps)))
    powers = step[None]  # T, T^2, ..., T^block by doubling: T^m T^i is T^{m+i}
    while len(powers) < block:
        powers = np.concatenate((powers, powers[-1] @ powers[:block - len(powers)]))
    readout = (reduced @ powers).reshape(-1, d2)  # Tr_A T^i, i = 1..block, stacked
    states = np.empty((n_steps + 1, ds * ds, ds * ds))
    states[0] = reduced @ window
    for j in range(0, n_steps, block):
        y = states[j + 1:j + 1 + block]  # the last block may be short
        np.matmul(readout[:y.size // (ds * ds)], window, out=y.reshape(-1, ds * ds))
        y /= (trace_row @ y)[:, None, :]
        window = powers[-1] @ window
    coeffs = (states @ (2.0 * eye - x)).reshape(n_steps + 1, -1)
    out = np.empty((n_steps + 1, len(back)), dtype=np.complex128)  # filled by parts: no copy
    rows = max(1, 2**18 // back.size)
    for j in range(0, n_steps + 1, rows):
        out.real[j:j + rows] = coeffs[j:j + rows] @ back.real.T
        out.imag[j:j + rows] = coeffs[j:j + rows] @ back.imag.T
    return out.reshape(n_steps + 1, ds * ds, ds * ds)


def complex_readout_coords(window):
    """The window's (basis, attach, trace, reset) and its readout as the complex P (x) P^-T,
    the tuple that ``per_block_maps`` reads."""
    return (window.basis, window.attach, window.trace, window.reset,
            np.ascontiguousarray(window.readout.view(np.complex128).T))


def random_hamiltonian(dim, seed):
    g = np.random.default_rng(seed).normal(size=(2, dim, dim))
    g = g[0] + 1j * g[1]
    return HermitianOperator(0.5 * (g + g.conj().T))


class TestDiscreteMaps:
    """The protocol's own map stack, from spanning inputs through the one window loop."""

    @pytest.mark.parametrize("n_steps", [1, 2, 3, 15, 16, 17, 2000])
    @pytest.mark.parametrize("weights", LONG_RUN_WEIGHTS)
    def test_blocks_match_the_step_by_step_loop(self, jc_h, weights, n_steps):
        # the loop carries a window over b = ceil(sqrt(n)) steps per block and reads all the
        # blocks' reduced states from one stacked product: one block (n = 1), a last block that
        # runs past n (2, 3, 15, 17, 2000) and exact squares (16); the largest difference is
        # 3.6e-15, thermal at 2000 steps
        window, step = window_and_step(long_run_cfg(jc_h, weights, n_steps=n_steps))
        blocked = propagate_maps(window, step, n_steps)
        assert blocked.shape == (n_steps + 1, 4, 4)
        reference = step_by_step_maps(step, weights, 2, n_steps)
        assert float(np.max(np.abs(blocked - reference))) < 1e-14

    @pytest.mark.parametrize("n_steps", [1, 2, 3, 16, 17, 500])
    @pytest.mark.parametrize("ds, da", [(1, 2), (2, 2), (3, 2), (2, 3)])
    def test_shapes_match_the_step_by_step_loop(self, ds, da, n_steps):
        # every system and ancilla dimension goes through the same indices: the diagonal units
        # E_ii that sum to the trace and the traceless ones that X^-1 corrects (none at d_s = 1)
        weights = tuple(thermal_weights(np.arange(da, dtype=float), 0.7))
        cfg = CollisionConfig(ds, da, random_hamiltonian(ds * da, 10 * ds + da), t_c=0.05,
                              p_s=0.9, n_steps=n_steps, bath=BathSpec("thermal", weights=weights))
        window, step = window_and_step(cfg)
        maps = propagate_maps(window, step, n_steps)
        assert maps.shape == (n_steps + 1, ds * ds, ds * ds)
        reference = step_by_step_maps(step, weights, ds, n_steps)
        assert float(np.max(np.abs(maps - reference))) < 1e-14

    @pytest.mark.parametrize("gamma_bar", [0.0, 1.3, 2.0, 1e6])
    @pytest.mark.parametrize("weights", LONG_RUN_WEIGHTS)
    @pytest.mark.parametrize("builder", ["protocol", "generator"])
    def test_same_bits_as_the_per_block_loop(self, jc_h, builder, weights, gamma_bar):
        # the whole-stack products keep every sum of the per-block loop in its order, so the
        # maps are the same doubles at every step count: short runs, one block and partial
        # last blocks (1..70), and long runs (2000, 4001)
        t_c = 0.01
        if builder == "protocol":
            bath = long_run_cfg(jc_h, weights).bath
            window, step = window_and_step(CollisionConfig(
                2, 2, jc_h, t_c=t_c, p_s=float(np.exp(-gamma_bar * t_c)), n_steps=1, bath=bath))
        else:
            window = Window(jc_h, weights)
            step = generator_step(window, gamma_bar, t_c)
        reference_coords = complex_readout_coords(window)
        for n_steps in [*range(1, 71), 2000, 4001]:
            maps = propagate_maps(window, step, n_steps)
            reference = per_block_maps(step, reference_coords, n_steps)
            assert np.array_equal(maps.view(np.uint64), reference.view(np.uint64)), n_steps

    def test_peak_memory_is_within_twice_the_maps(self, jc_h):
        # the loop holds one states array beside the maps it returns and reads the maps out
        # into their own float64 view, so its peak stays within twice their size
        window, step = window_and_step(long_run_cfg(jc_h, (1.0, 0.0), n_steps=4000))
        tracemalloc.start()
        try:
            maps = propagate_maps(window, step, 4000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.0 * maps.nbytes, peak / maps.nbytes

    @pytest.mark.parametrize("bath, n_steps", [
        pytest.param(BathSpec(kind="pure_ground"), 6, id="pure"),
        pytest.param(BathSpec(kind="thermal", energies=(0.0, 1.0), inverse_temperature=0.7), 4,
                     id="thermal"),
    ])
    def test_matches_brute_force_chain(self, jc_h, bath, n_steps):
        rho = DensityOperator(random_density_stack(2, 1, np.random.default_rng(17))[0])
        cfg = CollisionConfig(2, 2, jc_h, t_c=0.4, p_s=0.6, n_steps=n_steps, bath=bath)
        stack = discrete_maps(cfg)
        reference = brute_force_chain(cfg, rho, n_max=n_steps)
        assert np.array_equal(stack.times, reference.times)
        assert float(np.max(np.abs(stack.apply(rho) - reference.matrices))) < 1e-12

    @pytest.mark.parametrize("rho", [
        pytest.param(DensityOperator.basis(2, 1), id="excited"),
        pytest.param(PROBE, id="probe"),
    ])
    @pytest.mark.parametrize("weights", LONG_RUN_WEIGHTS)
    def test_matches_extended_precision(self, jc_h, weights, rho):
        # 2000 steps against a recursion that shares no engine code. Largest deviation,
        # excited / probe: 7.1e-15 / 3.8e-15 (pure) and 1.0e-14 / 1.0e-14 (thermal) with
        # the trace renormalization; 9.6e-14 / 2.9e-14 and 2.7e-13 / 2.4e-13 without it
        cfg = long_run_cfg(jc_h, weights)
        reference = extended_window_recursion(
            jc_h.data, cfg.t_c, cfg.p_s, weights, rho.data, cfg.n_steps
        )
        assert float(np.max(np.abs(discrete_maps(cfg).apply(rho) - reference))) < 5e-14

    @pytest.mark.parametrize("weights", LONG_RUN_WEIGHTS)
    def test_maps_are_cptp(self, jc_h, weights):
        stack = discrete_maps(long_run_cfg(jc_h, weights, t_c=0.05, n_steps=200))
        assert np.max(np.abs(stack.superops[0] - np.eye(4))) < 1e-15
        assert float(np.linalg.eigvalsh(stack.choi()).min()) > -1e-14
        marginal = np.einsum("naaij->nij", stack.superops.reshape(-1, 2, 2, 2, 2))
        assert np.max(np.abs(marginal - np.eye(2))) < 1e-14

    def test_refuses_a_step_that_breaks_hermiticity(self):
        # every operator enters window coordinates through Window._enter, which checks it there
        rng = np.random.default_rng(5)
        step = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        window = bare_window(np.array([1.0, 0.0]), 2)
        with pytest.raises(InternalConsistencyError, match="does not preserve Hermiticity"):
            window._enter(step)

    # a series run over three gamma_bar values, each compared with the protocol, and a thermal
    # run, which compares the two routes
    SHARED = {
        "series": {"mode": "series", "gamma_bar": [0.5, 1.0, 4.0], "tau_max": 1.0,
                   "tau_points": 21, "compare_discrete": True, "t_c": 0.1},
        "thermal": {"mode": "thermal", "collision": {
            "t_c": 0.05, "p_s": 0.9, "n_steps": 20,
            "bath": {"kind": "thermal", "weights": [0.731, 0.269]}}},
    }

    @staticmethod
    def run(tmp_path, name, config):
        from nmcollide.cli import main

        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**config, "output_path": str(tmp_path / name)}))
        assert main(["run", str(path)]) == 0

    @pytest.mark.parametrize("weights", LONG_RUN_WEIGHTS)
    def test_each_run_builds_its_window_coordinates_once(self, jc_h, weights, monkeypatch,
                                                         tmp_path):
        # one Window per discrete_maps and per lambda_embedding call, and one per run that
        # steps more than one route in it: the series and thermal runs above, and a
        # convergence study over three collision times
        calls, build = [], Window.__post_init__

        def counting(window):
            calls.append(window)
            build(window)

        monkeypatch.setattr(Window, "__post_init__", counting)
        discrete_maps(long_run_cfg(jc_h, weights, n_steps=3))
        assert len(calls) == 1
        lambda_embedding(jc_h, weights, 1.5, TimeGrid(t_max=1.0, n_points=4))
        assert len(calls) == 2
        bath = {"kind": "thermal", "weights": list(weights)}  # (1, 0) is the pure bath
        configs = {
            "series": self.SHARED["series"],
            "thermal": {"mode": "thermal", "collision": {**self.SHARED["thermal"]["collision"],
                                                         "bath": bath}},
            "convergence": {"mode": "convergence", "gamma_bar": 1.0, "tau_max": 1.0,
                            "t_c_list": [0.1, 0.05, 0.025]},
        }
        for name, config in configs.items():
            calls.clear()
            self.run(tmp_path, name, config)
            assert len(calls) == 1, name

    @pytest.mark.parametrize("name", sorted(SHARED))
    def test_a_shared_window_steps_the_standalone_maps(self, jc_h, monkeypatch, tmp_path, name):
        # the maps that a run steps in its one window are the doubles that discrete_maps and
        # lambda_embedding of the same collision give, each in a window of its own
        stepped = []
        for route in ("discrete_maps", "lambda_embedding"):
            def recording(window, *args, real=getattr(Window, route), route=route):
                stepped.append((route, window, args, real(window, *args)))
                return stepped[-1][-1]

            monkeypatch.setattr(Window, route, recording)
        self.run(tmp_path, name, self.SHARED[name])
        monkeypatch.undo()
        routes = [route for route, *_ in stepped]
        assert routes == ["lambda_embedding", "discrete_maps"] * (3 if name == "series" else 1)
        assert len({id(window) for _, window, _, _ in stepped}) == 1
        bath = (BathSpec(kind="pure_ground") if name == "series"
                else BathSpec(kind="thermal", weights=(0.731, 0.269)))
        for route, window, args, maps in stepped:
            if route == "discrete_maps":
                t_c, p_s, n_steps = args
                alone = discrete_maps(CollisionConfig(2, 2, jc_h, t_c=t_c, p_s=p_s,
                                                      n_steps=n_steps, bath=bath))
            else:
                alone = lambda_embedding(jc_h, bath.weight_vector(2), *args)
            for mine, theirs in ((maps.superops, alone.superops), (maps.times, alone.times)):
                assert np.array_equal(mine.view(np.uint64), theirs.view(np.uint64)), route

    @pytest.mark.parametrize("weights", LONG_RUN_WEIGHTS)
    def test_first_map_is_the_identity_bitwise(self, jc_h, weights):
        # attaching rho_A, Tr_A and the readout through the Hermitian units round nothing
        stack = discrete_maps(long_run_cfg(jc_h, weights, n_steps=3))
        embedded = lambda_embedding(jc_h, weights, 1.5, TimeGrid(t_max=1.0, n_points=4))
        assert np.array_equal(stack.superops[0], np.eye(4))
        assert np.array_equal(embedded.superops[0], np.eye(4))


def _corrupted(kind):
    bad = np.array([[0.6, 0.1 + 0.2j], [0.1 - 0.2j, 0.4]])
    if kind == "non_hermitian":
        bad[0, 1] += 1e-6
    elif kind == "trace":
        bad[1, 1] += 1e-6
    else:
        bad = np.array([[1.0 + 1e-6, 0.0], [0.0, -1e-6]])
    return bad


class TestTrajectoryStack:
    def test_states_index_the_stack(self, jc_h):
        cfg = pure_cfg(jc_h, t_c=0.2, p_s=0.5, n_steps=6)
        traj = brute_force_chain(cfg, PROBE)
        assert len(traj.states) == len(traj) == 7
        for i, state in enumerate(traj.states):
            assert isinstance(state, DensityOperator)
            assert np.array_equal(state.data, traj.matrices[i])
        assert not traj.matrices.flags.writeable

    @pytest.mark.parametrize("kind, message", [
        ("non_hermitian", "not Hermitian"),
        ("trace", "differs from 1"),
        ("negative", "not positive semidefinite"),
    ])
    def test_one_bad_state_rejects_the_stack(self, kind, message):
        stack = np.array([PROBE.data] * 5)
        stack[3] = _corrupted(kind)
        with pytest.raises(ValidationError, match=f"{message}.*matrix 3 of 5"):
            TrajectoryRecord(stack, tuple(0.1 * n for n in range(5)))
        # a single state goes through the same check
        with pytest.raises(ValidationError, match=message):
            DensityOperator(_corrupted(kind))
