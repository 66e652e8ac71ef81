import numpy as np
import pytest
from hypothesis import given, settings

from nmcollide import (
    BathSpec,
    CollisionConfig,
    ConfigurationError,
    DensityOperator,
    DynamicalMap,
    HermitianOperator,
    InternalConsistencyError,
    MapStack,
    MemoryKernelMap,
    SeriesPolicy,
    TimeGrid,
    TruncationError,
    adc_decay_kernel,
    build_kernel_map,
    calibrated_swap_probability,
    discrete_maps,
    jc_hamiltonian,
    jc_maps,
    lambda_embedding,
    lambda_series,
    lindblad_limit,
    thermal_weights,
    trace_distance,
    unitary_evolution,
)
import scipy.fft

from nmcollide.continuum import _dropped_term_bound, _fast_len

from conftest import density_operators

PROBE = DensityOperator(np.array([[0.4, 0.25 + 0.2j], [0.25 - 0.2j, 0.6]]))
WARM = tuple(thermal_weights((0.0, 1.0), 0.8))  # rho_A of a thermal bath at beta = 0.8

_FINE_MAPS = None


def _causal_convolve_direct(f, g):
    """sum_{m <= j} f[m] g[j - m] on (n, d^2, d^2) stacks, by the O(n^2) direct sum."""
    n = f.shape[0]
    out = np.zeros_like(f)
    for j in range(n):
        out[j] = np.einsum("mab,mbc->ac", f[: j + 1], g[j::-1])
    return out


def _direct_series(kernel, gamma, grid, orders):
    """The series' first ``orders`` terms by direct trapezoid quadrature, on complex
    (n, d^2, d^2) stacks in the row-major vec basis: the reference for lambda_series,
    sharing neither its basis, nor its layout, nor its FFTs and end corrections."""
    times = grid.times()
    b1 = kernel.maps(times).superops * np.exp(-gamma * times)[:, None, None]
    total, term = b1.copy(), b1
    for _ in range(orders - 1):
        ends = 0.5 * (np.einsum("ab,jbc->jac", b1[0], term) + np.einsum("jab,bc->jac", b1, term[0]))
        term = gamma * (grid.dt * (_causal_convolve_direct(b1, term) - ends))
        total += term
    return total


def _fine_series_maps():
    # shared fine-grid series (hypothesis redraws states, not the maps)
    global _FINE_MAPS
    if _FINE_MAPS is None:
        grid = TimeGrid(t_max=1.0, n_points=5001)
        _FINE_MAPS = lambda_series(build_kernel_map(jc_hamiltonian()), 1.0, grid).maps
    return _FINE_MAPS


def _random_qutrit_hamiltonian():
    """A random Hermitian H on qutrit (x) qubit: a kernel beyond the exchange coupling."""
    a = np.random.default_rng(7).standard_normal((2, 6, 6))
    m = a[0] + 1j * a[1]
    return HermitianOperator(0.5 * (m + m.conj().T))


def _kraus_reference(h, weights, t):
    """The superoperator of the Kraus operators sqrt(w_k) <nu| e^{-iHt} |k>, built from the
    unitary alone: the reference for the kernel's exponential modes."""
    da = len(weights)
    ds = h.dim // da
    u = unitary_evolution(h, t).reshape(ds, da, ds, da)
    ops = [np.sqrt(w) * u[:, nu, :, k] for k, w in enumerate(weights) if w > 0
           for nu in range(da)]
    return sum(np.kron(k, k.conj()) for k in ops)


@pytest.fixture(scope="module")
def jc_kernel():
    return build_kernel_map(jc_hamiltonian())


class TestGridAndPolicy:
    def test_grid_spacing(self):
        grid = TimeGrid(t_max=2.0, n_points=5)
        assert grid.dt == 0.5
        assert np.allclose(grid.times(), [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_grid_validation(self):
        with pytest.raises(ConfigurationError):
            TimeGrid(t_max=0.0, n_points=5)
        with pytest.raises(ConfigurationError):
            TimeGrid(t_max=1.0, n_points=1)

    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            SeriesPolicy(k_max=0)
        with pytest.raises(ConfigurationError):
            SeriesPolicy(tail_tol=0.0)


NAN = float("nan")


@pytest.mark.parametrize("build", [
    pytest.param(lambda: BathSpec(kind="thermal", weights=(NAN, 1.0)), id="bath-weights"),
    pytest.param(lambda: BathSpec(kind="thermal", energies=(0.0, NAN), inverse_temperature=1.0),
                 id="bath-energy"),
    pytest.param(lambda: BathSpec(kind="thermal", energies=(0.0, 1.0), inverse_temperature=NAN),
                 id="bath-beta"),
    pytest.param(lambda: thermal_weights((0.0, 1.0), NAN), id="thermal-weights-beta"),
    pytest.param(lambda: thermal_weights((0.0, NAN), 1.0), id="thermal-weights-energy"),
    pytest.param(lambda: CollisionConfig(2, 2, jc_hamiltonian(), t_c=NAN, p_s=0.5, n_steps=1,
                                         bath=BathSpec(kind="pure_ground")), id="t_c"),
    pytest.param(lambda: TimeGrid(t_max=NAN, n_points=5), id="t_max"),
    pytest.param(lambda: SeriesPolicy(tail_tol=NAN), id="tail_tol"),
    pytest.param(lambda: build_kernel_map(jc_hamiltonian(), (NAN, 1.0)), id="kernel-weights"),
    pytest.param(lambda: lambda_embedding(jc_hamiltonian(), (NAN, 1.0), 1.0, TimeGrid(1.0, 3)),
                 id="embedding-weights"),
    pytest.param(lambda: adc_decay_kernel(NAN), id="decay-rate"),
    pytest.param(lambda: lindblad_limit(build_kernel_map(jc_hamiltonian()), NAN), id="step"),
])
def test_nan_fails_the_range_checks(build):
    with pytest.raises(ConfigurationError):
        build()


class TestKernelMaps:
    def test_starts_at_identity(self, jc_kernel):
        rho = PROBE
        assert trace_distance(jc_kernel.maps(0.0)[0].apply(rho), rho) < 1e-12

    def test_zero_hamiltonian_stays_identity(self):
        kernel = build_kernel_map(HermitianOperator(np.zeros((4, 4))))
        for out in kernel.maps([0.0, 0.7, 3.0]).apply(PROBE):
            assert trace_distance(out, PROBE) < 1e-12

    def test_jc_kernel_is_cosine_damping(self, jc_kernel):
        maps = jc_kernel.maps(np.linspace(0.0, 6.0, 25))
        for t, out in zip(maps.times, maps.apply(PROBE)):
            eta = np.cos(t)
            assert abs(out[1, 1].real - eta**2 * 0.6) < 1e-12
            assert abs(out[0, 1] - eta * (0.25 + 0.2j)) < 1e-12

    def test_modes_match_kraus_superop(self):
        # the pure and a thermal qubit kernel, and a qutrit one under a random H
        for h, weights in [(jc_hamiltonian(), (1.0, 0.0)), (jc_hamiltonian(), WARM),
                           (_random_qutrit_hamiltonian(), (1.0, 0.0))]:
            maps = build_kernel_map(h, weights).maps([0.0, 0.4, 1.9, 5.0])
            for m in maps:
                direct = _kraus_reference(h, weights, m.time)
                assert np.max(np.abs(m.superop - direct)) < 1e-12

    def test_mode_stack_is_c_contiguous(self, jc_kernel):
        # maps() inherits the mode stack's layout
        assert jc_kernel.mats.flags.c_contiguous
        assert jc_kernel.maps(np.linspace(0.0, 1.0, 5)).superops.flags.c_contiguous

    def test_kernel_channels_are_cp(self, jc_kernel):
        times = np.linspace(0.0, 8.0, 17)
        for kernel in (jc_kernel, build_kernel_map(jc_hamiltonian(), WARM)):
            assert np.linalg.eigvalsh(kernel.maps(times).choi()).min() >= -1e-10


class TestThermalKernel:
    def test_zero_temperature_matches_pure(self, jc_kernel):
        thermal = build_kernel_map(jc_hamiltonian(), weights=(1.0, 0.0))
        times = np.linspace(0.0, 6.0, 13)
        for a, b in zip(thermal.maps(times).apply(PROBE), jc_kernel.maps(times).apply(PROBE)):
            assert trace_distance(a, b) < 1e-12

    def test_infinite_temperature_fixed_point(self):
        thermal = build_kernel_map(jc_hamiltonian(), weights=(0.5, 0.5))
        mm = DensityOperator.maximally_mixed(2)
        for out in thermal.maps(np.linspace(0.0, 6.0, 25)).apply(mm):
            assert trace_distance(out, mm) < 1e-10

    def test_starts_at_identity(self):
        thermal = build_kernel_map(jc_hamiltonian(), WARM)
        assert trace_distance(thermal.maps(0.0)[0].apply(PROBE), PROBE) < 1e-12

    def test_equals_convex_combination(self):
        weights = (0.65, 0.35)
        times = [0.3, 1.1, 2.7]
        mixed = build_kernel_map(jc_hamiltonian(), weights).maps(times).apply(PROBE)
        pure0 = build_kernel_map(jc_hamiltonian(), (1.0, 0.0)).maps(times).apply(PROBE)
        pure1 = build_kernel_map(jc_hamiltonian(), (0.0, 1.0)).maps(times).apply(PROBE)
        for j in range(len(times)):
            combo = weights[0] * pure0[j] + weights[1] * pure1[j]
            assert np.max(np.abs(mixed[j] - combo)) < 1e-12

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            build_kernel_map(jc_hamiltonian(), (1.5, -0.5))
        with pytest.raises(ConfigurationError):  # a 3-level ancilla does not divide dim 4
            build_kernel_map(jc_hamiltonian(), (0.5, 0.25, 0.25))
        with pytest.raises(ConfigurationError):
            build_kernel_map(jc_hamiltonian(), weights=(0.2, 0.2))


class TestLambdaSeries:
    def test_zero_rate_reproduces_kernel(self, jc_kernel):
        grid = TimeGrid(t_max=4.0, n_points=81)
        result = lambda_series(jc_kernel, 0.0, grid)
        assert result.truncation_order == 1
        for m, kernel_map in zip(result.maps, jc_kernel.maps(result.maps.times)):
            assert np.max(np.abs(m.superop - kernel_map.superop)) < 1e-12

    def test_identity_at_time_zero(self, jc_kernel):
        result = lambda_series(jc_kernel, 1.5, TimeGrid(t_max=1.0, n_points=51))
        assert np.max(np.abs(result.maps[0].superop - np.eye(4))) < 1e-12

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    def test_matches_closed_form(self, jc_kernel, gamma):
        grid = TimeGrid(t_max=3.0, n_points=601)
        maps = lambda_series(jc_kernel, gamma, grid).maps
        assert float(np.max(np.abs(maps.superops - jc_maps(maps.times, gamma).superops))) < 1e-4

    def test_fft_equals_direct_quadrature(self, jc_kernel):
        # beyond the pure qubit: a thermal ancilla, and a qutrit (d_s = 3) under a random H
        kernels = [
            jc_kernel,
            build_kernel_map(jc_hamiltonian(), WARM),
            build_kernel_map(_random_qutrit_hamiltonian(), (1.0, 0.0)),
        ]
        grid = TimeGrid(t_max=2.0, n_points=101)
        for kernel in kernels:
            result = lambda_series(kernel, 1.0, grid)
            reference = _direct_series(kernel, 1.0, grid, result.truncation_order)
            worst = np.max(np.abs(result.maps.superops - reference))
            assert worst < 1e-12

    def test_fast_len_is_scipy_next_fast_len(self):
        # the padded FFT length, and with it every bit of the series, follows scipy's choice
        assert [_fast_len(m) for m in range(1, 20001)] == [
            scipy.fft.next_fast_len(m, real=True) for m in range(1, 20001)]

    @pytest.mark.parametrize("gamma", [-0.5, float("nan")])
    def test_invalid_rate_is_a_configuration_error(self, jc_kernel, gamma):
        with pytest.raises(ConfigurationError):
            lambda_series(jc_kernel, gamma, TimeGrid(t_max=1.0, n_points=11))

    def test_non_hermiticity_preserving_kernel_raises(self):
        # an imaginary part beyond rounding in the Hermitian basis is refused, never dropped
        kernel = MemoryKernelMap(system_dim=2, rates=np.zeros(1, dtype=complex),
                                 mats=1j * np.eye(4, dtype=complex)[None])
        with pytest.raises(InternalConsistencyError):
            lambda_series(kernel, 1.0, TimeGrid(t_max=1.0, n_points=11))

    @given(density_operators())
    @settings(max_examples=25)
    def test_trace_preservation(self, rho):
        maps = _fine_series_maps()
        for m in maps[:: len(maps) // 8]:
            assert abs(np.trace(m.apply(rho)).real - 1.0) < 1e-8

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 2.0, 5.0, 50.0])
    def test_complete_positivity_across_rates(self, jc_kernel, gamma):
        # positive combinations of channel compositions: CP holds at every
        # truncation, not just in the converged limit
        grid = TimeGrid(t_max=2.0, n_points=201)
        result = lambda_series(jc_kernel, gamma, grid, SeriesPolicy(k_max=400))
        assert min(m.choi().min_eigenvalue() for m in result.maps) >= -1e-8

    def test_partial_sums_are_cp(self, jc_kernel):
        grid = TimeGrid(t_max=2.0, n_points=101)
        policies = [SeriesPolicy(k_max=k, tail_tol=1e30) for k in (1, 2, 3, 5)]
        for policy in policies:
            maps = lambda_series(jc_kernel, 1.0, grid, policy).maps
            assert min(m.choi().min_eigenvalue() for m in maps) >= -1e-8

    def test_tail_decreases_past_onset(self, jc_kernel):
        result = lambda_series(jc_kernel, 3.0, TimeGrid(t_max=3.0, n_points=301))
        tails = np.array(result.tail_history)
        peak = int(np.argmax(tails))
        assert np.all(np.diff(tails[peak:]) <= 1e-14)

    def test_non_finite_term_raises(self, jc_kernel):
        # on a grid this coarse the quadrature terms overflow; the series
        # must stop at the first non-finite term, not run to k_max
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TruncationError) as err:
                lambda_series(jc_kernel, 1.0, TimeGrid(t_max=1e6, n_points=3))
        assert not np.isfinite(err.value.residual)
        assert err.value.order < SeriesPolicy().k_max

    def test_truncation_failure_raises_with_residual(self, jc_kernel):
        with pytest.raises(TruncationError) as err:
            lambda_series(jc_kernel, 5.0, TimeGrid(t_max=4.0, n_points=101),
                          SeriesPolicy(k_max=5, tail_tol=1e-8))
        assert err.value.residual > 0
        assert err.value.order == 5

    @pytest.mark.parametrize("thermal", [False, True], ids=["pure", "thermal"])
    @pytest.mark.parametrize("gamma, t_max, n_points, k_max", [
        (5.0, 4.0, 101, 5), (10.0, 2.0, 401, 8), (20.0, 3.0, 601, 30), (1.0, 10.0, 1001, 5),
    ])
    def test_dropped_term_bound_is_below_the_residual(self, jc_kernel, thermal, gamma, t_max,
                                                      n_points, k_max):
        kernel = build_kernel_map(jc_hamiltonian(), (0.7, 0.3)) if thermal else jc_kernel
        grid = TimeGrid(t_max=t_max, n_points=n_points)
        # a tail_tol this loose accepts the first dropped term and reports its norm
        result = lambda_series(kernel, gamma, grid, SeriesPolicy(k_max=k_max, tail_tol=1e3))
        bound = _dropped_term_bound(gamma, grid, k_max, 2)
        assert 0.0 < bound <= result.tail_norm

    def test_hopeless_truncation_raises_before_the_first_fft(self, monkeypatch):
        # a thermal config whose peak order ceil(gamma t_max) + 1 = 203 lies past k_max = 200
        def no_fft(*args, **kwargs):
            raise AssertionError("the series ran an FFT")

        monkeypatch.setattr(np.fft, "rfft", no_fft)
        collision = CollisionConfig(
            2, 2, jc_hamiltonian(), t_c=0.01, p_s=0.99, n_steps=20000,
            bath=BathSpec(kind="thermal", energies=(0.0, 1.0), inverse_temperature=1.0),
        )
        gamma = -np.log(0.99) / 0.01
        kernel = build_kernel_map(collision.hamiltonian, collision.bath.weight_vector(2))
        with pytest.raises(TruncationError, match="cannot converge by order 200") as err:
            lambda_series(kernel, gamma, TimeGrid(200.0, 20001))
        assert err.value.order == 200
        assert err.value.residual > SeriesPolicy().tail_tol

    def test_large_rate_matches_discrete_protocol(self, jc_kernel):
        # both routes approximate the same map; tolerance is loose because
        # each side carries its own discretization error
        gamma = 50.0
        grid = TimeGrid(t_max=5.0, n_points=10001)
        result = lambda_series(jc_kernel, gamma, grid, SeriesPolicy(k_max=500))
        t_c = 0.002
        stride = round(t_c / grid.dt)
        cfg = CollisionConfig(
            system_dim=2, ancilla_dim=2, hamiltonian=jc_hamiltonian(), t_c=t_c,
            p_s=calibrated_swap_probability(gamma, t_c), n_steps=2500,
            bath=BathSpec(kind="pure_ground"),
        )
        stack = discrete_maps(cfg)
        worst = 0.0
        for i, state in enumerate(stack.apply(PROBE)):
            mp = result.maps[stride * i]
            assert abs(mp.time - stack.times[i]) < 1e-9
            worst = max(worst, trace_distance(mp.apply(PROBE), state))
        assert worst <= 5e-2

    def test_map_kraus_extraction_matches_action(self, jc_kernel):
        # zero-rate series is exact, so the maps are strictly trace preserving
        result = lambda_series(jc_kernel, 0.0, TimeGrid(t_max=2.0, n_points=401))
        for m in result.maps[::100]:
            ch = m.to_kraus()
            direct = m.apply(PROBE)
            via_kraus = sum(k @ PROBE.data @ k.conj().T for k in ch.kraus)
            assert np.max(np.abs(direct - via_kraus)) < 1e-9

    def test_map_kraus_extraction_rejects_quadrature_defect(self, jc_kernel):
        # a coarse grid leaves a real trace defect in the converged series;
        # the validated channel type must refuse it rather than paper over it
        from nmcollide import ValidationError

        result = lambda_series(jc_kernel, 1.0, TimeGrid(t_max=2.0, n_points=41))
        with pytest.raises(ValidationError):
            result.maps[-1].to_kraus()

    def test_thermal_kernel_series_is_cpt(self):
        kernel = build_kernel_map(jc_hamiltonian(), WARM)
        result = lambda_series(kernel, 1.0, TimeGrid(t_max=2.0, n_points=2001))
        assert min(m.choi().min_eigenvalue() for m in result.maps) >= -1e-8
        assert max(m.trace_defect() for m in result.maps) < 1e-6


class TestLambdaEmbedding:
    @pytest.mark.parametrize("gamma", [0.0, 1.0, 2.0, 50.0])
    def test_matches_closed_form(self, gamma):
        # gamma = 2 is the generator's defective point
        maps = lambda_embedding(jc_hamiltonian(), (1.0, 0.0), gamma, TimeGrid(5.0, 5001))[::25]
        assert float(np.max(np.abs(maps.superops - jc_maps(maps.times, gamma).superops))) < 1e-12

    def test_agrees_with_series(self, jc_kernel):
        grid = TimeGrid(t_max=3.0, n_points=3001)
        maps = lambda_embedding(jc_hamiltonian(), (1.0, 0.0), 2.0, grid)
        ser = lambda_series(jc_kernel, 2.0, grid)
        worst = max(np.max(np.abs(m.superop - s.superop)) for m, s in zip(maps, ser.maps))
        assert worst < 1e-5

    def test_thermal_matches_series(self):
        kernel = build_kernel_map(jc_hamiltonian(), WARM)
        grid = TimeGrid(t_max=2.0, n_points=2001)
        maps = lambda_embedding(jc_hamiltonian(), WARM, 1.0, grid)
        ser = lambda_series(kernel, 1.0, grid)
        worst = max(np.max(np.abs(m.superop - s.superop)) for m, s in zip(maps, ser.maps))
        assert worst < 1e-6

    def test_validation(self):
        grid = TimeGrid(t_max=1.0, n_points=3)
        with pytest.raises(ConfigurationError):
            lambda_embedding(jc_hamiltonian(), (1.0, 0.0), -0.5, grid)
        with pytest.raises(ConfigurationError):
            lambda_embedding(jc_hamiltonian(), (0.2, 0.2), 1.0, grid)

    def test_nan_rate_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError):
            lambda_embedding(jc_hamiltonian(), (1.0, 0.0), float("nan"), TimeGrid(1.0, 3))


class TestMapStack:
    @pytest.fixture(scope="class")
    def stack(self):
        return lambda_embedding(jc_hamiltonian(), (1.0, 0.0), 1.0, TimeGrid(2.0, 21))

    def test_int_index_is_a_view_and_slices_stay_stacks(self, stack):
        assert isinstance(stack, MapStack) and len(stack) == 21
        m = stack[5]
        assert isinstance(m, DynamicalMap) and m.time == stack.times[5] and m.dim == 2
        assert np.shares_memory(m.superop, stack.superops)
        for part in (stack[::4], stack[np.arange(0, 21, 4)]):
            assert isinstance(part, MapStack) and len(part) == 6
            assert np.array_equal(part.superops, stack.superops[::4])
            assert np.array_equal(part.times, stack.times[::4])
        assert [mp.time for mp in stack] == list(stack.times)

    def test_choi_and_apply_agree_with_each_map(self, stack):
        chois, applied = stack.choi(), stack.apply(PROBE)
        assert chois.shape == (21, 4, 4) and applied.shape == (21, 2, 2)
        for j, m in enumerate(stack):
            assert np.array_equal(chois[j], m.choi().data)
            assert np.max(np.abs(applied[j] - m.apply(PROBE))) < 1e-15

    def test_no_positivity_check(self):
        # like DynamicalMap, a stack carries candidate maps that certification rejects
        stack = MapStack(np.zeros(1), -np.eye(4)[None], 2)
        assert stack.choi()[0, 0, 0] == -1.0

    def test_series_result_holds_a_stack(self, jc_kernel):
        result = lambda_series(jc_kernel, 1.0, TimeGrid(1.0, 11))
        assert isinstance(result.maps, MapStack) and len(result.maps) == 11


class TestLindbladLimit:
    def test_zero_hamiltonian_zero_generator(self):
        kernel = build_kernel_map(HermitianOperator(np.zeros((4, 4))))
        assert lindblad_limit(kernel, 1e-3).norm() < 1e-12

    def test_synthetic_decay_semigroup(self):
        rate = 0.7
        kernel = adc_decay_kernel(rate)
        errors = {}
        for h in (1e-3, 5e-4):
            gen = lindblad_limit(kernel, h, order=1)
            excited = DensityOperator.basis(2, 1)
            errors[h] = max(
                abs(gen.semigroup(t).apply(excited)[1, 1].real - np.exp(-2 * rate * t))
                for t in (0.5, 1.0, 2.0)
            )
        # first-order extraction: error shrinks linearly with the step
        assert 1.5 < errors[1e-3] / errors[5e-4] < 2.6

    def test_second_order_extraction_is_sharper(self):
        rate = 0.7
        kernel = adc_decay_kernel(rate)
        gen = lindblad_limit(kernel, 1e-3, order=2)
        excited = DensityOperator.basis(2, 1)
        err = max(
            abs(gen.semigroup(t).apply(excited)[1, 1].real - np.exp(-2 * rate * t))
            for t in (0.5, 1.0, 2.0)
        )
        assert err < 1e-6

    def test_exchange_kernel_generator_vanishes_linearly(self, jc_kernel):
        # the short-time expansion of the cosine kernel starts at second order,
        # so the extracted generator itself scales down linearly in h
        n1 = lindblad_limit(jc_kernel, 1e-3, order=1).norm()
        n2 = lindblad_limit(jc_kernel, 5e-4, order=1).norm()
        slope = np.log2(n1 / n2)
        assert abs(slope - 1.0) < 0.05

    def test_generator_matches_analytic_lindbladian(self):
        # decay-by-e^{-rate t} kernel: the generator is the textbook
        # amplitude-damping Lindbladian, population rate 2*rate and
        # coherence rate rate (here written in row-major vec basis)
        rate = 0.7
        gen = lindblad_limit(adc_decay_kernel(rate), 1e-4, order=2)
        expect = np.zeros((4, 4), dtype=complex)
        expect[0, 3] = 2.0 * rate
        expect[1, 1] = -rate
        expect[2, 2] = -rate
        expect[3, 3] = -2.0 * rate
        assert np.max(np.abs(gen.generator - expect)) < 1e-6

    def test_semigroup_is_trace_preserving(self):
        kernel = adc_decay_kernel(0.4)
        gen = lindblad_limit(kernel, 1e-3)
        for t in (0.5, 2.0, 10.0):
            assert gen.semigroup(t).trace_defect() < 1e-8

    def test_step_validation(self, jc_kernel):
        with pytest.raises(ConfigurationError):
            lindblad_limit(jc_kernel, 0.0)
        with pytest.raises(ConfigurationError):
            lindblad_limit(jc_kernel, 1e-3, order=3)
