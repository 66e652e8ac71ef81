import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings

from nmcollide import (
    BathSpec,
    CollisionConfig,
    ConfigurationError,
    DensityOperator,
    HermitianOperator,
    InternalConsistencyError,
    MapStack,
    TimeGrid,
    calibrated_swap_probability,
    certify_cpt,
    convergence_study,
    discrete_maps,
    jc_hamiltonian,
    jc_maps,
    kraus_from_choi,
    lambda_embedding,
    thermal_weights,
    trace_distance,
    unitary_evolution,
)
import mpmath

from nmcollide.continuum import (LindbladGenerator, MemoryKernelMap, SeriesPolicy, _hat_integrals,
                                 adc_decay_kernel, build_kernel_map, lambda_series, lindblad_limit)
from nmcollide.quantum import _hermitian_units

from conftest import density_operators

PROBE = DensityOperator(np.array([[0.4, 0.25 + 0.2j], [0.25 - 0.2j, 0.6]]))
WARM = tuple(thermal_weights((0.0, 1.0), 0.8))  # rho_A of a thermal bath at beta = 0.8

_FINE_MAPS = None


def _direct_product_integration(kernel, gamma, grid):
    """X_j = B1(t_j) + gamma sum_{m=0}^{j} W_m X_{j-m}, B1 = e^{-gamma t} E(t), solved for each j
    in turn by the O(n^2) direct sum, on complex (n, d^2, d^2) stacks in the row-major vec basis:
    the reference for lambda_series. W_m = int hat_m(s) B1(s) ds, the hat function of node m
    cut off at 0 and t_j, comes from 8-point Gauss-Legendre quadrature of the sampled kernel on
    each step. So it shares neither the weights' closed forms, nor the rate grouping, nor the
    transfer form."""
    n, dt, d2 = grid.n_points, grid.dt, kernel.system_dim ** 2
    u, w = np.polynomial.legendre.leggauss(8)
    v, w = 0.5 * (u + 1.0), 0.5 * dt * w
    s = (np.arange(n - 1)[:, None] + v) * dt  # the nodes on step m, from m dt to (m + 1) dt
    b1 = (kernel.maps(s.reshape(-1)).superops.reshape(n - 1, len(v), d2, d2)
          * np.exp(-gamma * s)[:, :, None, None])
    falling = np.einsum("q,mqab->mab", w * (1.0 - v), b1)  # hat_m on step m
    rising = np.einsum("q,mqab->mab", w * v, b1)  # hat_{m+1} on step m
    times = grid.times()
    out = kernel.maps(times).superops * np.exp(-gamma * times)[:, None, None]  # B1(t_j)
    implicit = np.linalg.inv(np.eye(d2) - gamma * falling[0])
    for j in range(1, n):
        # W_m = falling[m] + rising[m - 1]: falling for m = 1..j-1, rising for m = 1..j
        out[j] = implicit @ (out[j] + gamma * (
            np.einsum("mab,mbc->ac", falling[1:j], out[j - 1:0:-1])
            + np.einsum("mab,mbc->ac", rising[:j], out[j - 1::-1])))
    return out


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


def _detuned(h, detuning):
    """H plus the system level shift detuning * n (x) 1, n the system's level: it commutes with
    the excitation number, as the exchange coupling does, and rotates every coherence."""
    levels = h.dim // 2
    return HermitianOperator(h.data + np.kron(np.diag(detuning * np.arange(levels)), np.eye(2)))


def _exchange_qutrit_hamiltonian():
    """An excitation-conserving H on qutrit (x) qubit: hops |n, 0> <-> |n - 1, 1> at rates 1 and
    1.3, detuned. Its invariant blocks follow |i - j|: 3 populations, 4 and 2 coherences."""
    hop = np.kron(np.diag([1.0, 1.3], 1), np.array([[0.0, 0.0], [1.0, 0.0]]))
    return _detuned(HermitianOperator(hop + hop.T), 0.7)


def _map_blocks(maps):
    """The index sets that the maps never link on the units of ``_hermitian_units``: the
    connected components of their nonzero pattern over all times, symmetrized."""
    units, inverse = _hermitian_units(maps.dim)
    reach = np.any(inverse @ maps.superops @ units != 0, axis=0) | np.eye(len(units), dtype=bool)
    reach |= reach.T
    while not np.array_equal(reach, grown := reach @ reach):
        reach = grown
    return [np.flatnonzero(row).tolist() for row in np.unique(reach, axis=0)]


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


INF = float("inf")


@pytest.mark.parametrize("name, build", [
    ("inverse_temperature", lambda: thermal_weights((0.0, 1.0), INF)),
    ("inverse_temperature",
     lambda: BathSpec(kind="thermal", energies=(0.0, 1.0), inverse_temperature=INF)),
    ("t_c", lambda: CollisionConfig(2, 2, jc_hamiltonian(), t_c=INF, p_s=0.5, n_steps=1,
                                    bath=BathSpec(kind="pure_ground"))),
    ("t_max", lambda: TimeGrid(t_max=INF, n_points=5)),
    ("gamma", lambda: lambda_series(build_kernel_map(jc_hamiltonian()), INF, TimeGrid(1.0, 3))),
    ("gamma", lambda: lambda_embedding(jc_hamiltonian(), (1.0, 0.0), INF, TimeGrid(1.0, 3))),
    ("rate", lambda: adc_decay_kernel(INF)),
    ("step h", lambda: lindblad_limit(build_kernel_map(jc_hamiltonian()), INF)),
    ("tau_max", lambda: convergence_study(1.0, INF, [0.1])),
    ("t_c_list", lambda: convergence_study(1.0, 1.0, [0.1, INF])),
    ("t_c_list", lambda: convergence_study(1.0, 1.0, [0.0])),
], ids=["thermal-weights-beta", "bath-beta", "t_c", "t_max", "series-gamma", "embedding-gamma",
        "decay-rate", "step", "tau_max", "t_c_list-inf", "t_c_list-zero"])
def test_infinity_fails_the_range_checks(name, build):
    # each check refuses infinity by name instead of returning NaN or overflowing later
    with pytest.raises(ConfigurationError, match=name):
        build()


class TestKernelMaps:
    def test_starts_at_identity(self, jc_kernel):
        rho = PROBE
        assert trace_distance(jc_kernel.maps(0.0).apply(rho)[0], rho) < 1e-12

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
            for t, superop in zip(maps.times, maps.superops):
                direct = _kraus_reference(h, weights, t)
                assert np.max(np.abs(superop - direct)) < 1e-12

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
        assert trace_distance(thermal.maps(0.0).apply(PROBE)[0], PROBE) < 1e-12

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
        kernel_maps = jc_kernel.maps(result.maps.times)
        assert np.max(np.abs(result.maps.superops - kernel_maps.superops)) < 1e-12

    def test_identity_at_time_zero(self, jc_kernel):
        result = lambda_series(jc_kernel, 1.5, TimeGrid(t_max=1.0, n_points=51))
        assert np.max(np.abs(result.maps.superops[0] - np.eye(4))) < 1e-12

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    def test_matches_closed_form(self, jc_kernel, gamma):
        grid = TimeGrid(t_max=3.0, n_points=601)
        maps = lambda_series(jc_kernel, gamma, grid).maps
        assert float(np.max(np.abs(maps.superops - jc_maps(maps.times, gamma).superops))) < 1e-4

    def test_equals_direct_product_integration(self, jc_kernel):
        # beyond the pure qubit: a thermal ancilla, and a qutrit (d_s = 3) under a random H
        kernels = [
            jc_kernel,
            build_kernel_map(jc_hamiltonian(), WARM),
            build_kernel_map(_random_qutrit_hamiltonian(), (1.0, 0.0)),
        ]
        grid = TimeGrid(t_max=2.0, n_points=101)
        for kernel in kernels:
            result = lambda_series(kernel, 1.0, grid)
            reference = _direct_product_integration(kernel, 1.0, grid)
            worst = np.max(np.abs(result.maps.superops - reference))
            assert worst < 1e-12

    @pytest.mark.parametrize("gamma", [0.0, 0.2, 1.0, 2.0, 20.0, 1e4])
    def test_matches_closed_form_across_rates(self, jc_kernel, gamma):
        maps = lambda_series(jc_kernel, gamma, TimeGrid(t_max=5.0, n_points=1001)).maps
        assert float(np.max(np.abs(maps.superops - jc_maps(maps.times, gamma).superops))) <= 1e-5

    def test_error_is_second_order(self, jc_kernel):
        errors = []
        for n_points in (1001, 2001):
            maps = lambda_series(jc_kernel, 20.0, TimeGrid(t_max=5.0, n_points=n_points)).maps
            errors.append(np.max(np.abs(maps.superops - jc_maps(maps.times, 20.0).superops)))
        assert errors[0] / errors[1] >= 3.5

    def test_large_rate_is_cpt_and_trace_preserving(self, jc_kernel):
        report = certify_cpt(lambda_series(jc_kernel, 1e4, TimeGrid(t_max=5.0, n_points=1001)).maps)
        assert max(report.max_trace_defect) <= 1e-10
        assert min(report.min_choi_eigenvalue) >= -1e-12

    @pytest.mark.parametrize("gamma", [1.0, 20.0, 100.0])
    def test_thermal_kernel_matches_embedding(self, gamma):
        weights = (0.731, 0.269)
        grid = TimeGrid(t_max=5.0, n_points=1001)
        series = lambda_series(build_kernel_map(jc_hamiltonian(), weights), gamma, grid).maps
        exact = lambda_embedding(jc_hamiltonian(), weights, gamma, grid)
        assert np.max(np.abs(series.superops - exact.superops)) <= 1e-5

    @pytest.mark.parametrize("x", [0.0, 1e-9, -0.3 + 0.4j, 0.999j, -1.001, 1.0 + 0.5j, -1.0j,
                                   -50.0 + 3.0j, -1e6 + 2.0j, -1e140])
    def test_hat_integrals_match_high_precision(self, x):
        # both sides of the |x| = 1 switch between the Taylor series and the closed forms
        phi2, psi = _hat_integrals(np.array([x], dtype=complex))
        with mpmath.workdps(60):
            z = mpmath.mpc(x)
            if z == 0:
                exact = (mpmath.mpf(1) / 2, mpmath.mpf(1) / 2)
            else:
                exact = ((mpmath.exp(z) - 1 - z) / z**2, (1 - mpmath.exp(z) * (1 - z)) / z**2)
            for got, want in zip((phi2[0], psi[0]), exact):
                assert abs(complex(got) - complex(want)) <= 1e-15 * abs(complex(want))

    def test_weights_past_double_precision_are_refused(self, jc_kernel):
        with pytest.raises(ConfigurationError, match="loses? their digits"):
            lambda_series(jc_kernel, 1e160, TimeGrid(t_max=1.0, n_points=11))

    def test_kernel_that_does_not_start_at_the_identity_is_refused(self):
        kernel = MemoryKernelMap(np.zeros(1, dtype=complex), 0.5 * np.eye(4, dtype=complex)[None])
        with pytest.raises(ConfigurationError, match="E\\(0\\) is not the identity"):
            lambda_series(kernel, 1.0, TimeGrid(t_max=1.0, n_points=11))

    @pytest.mark.parametrize("gamma", [-0.5, float("nan")])
    def test_invalid_rate_is_a_configuration_error(self, jc_kernel, gamma):
        with pytest.raises(ConfigurationError):
            lambda_series(jc_kernel, gamma, TimeGrid(t_max=1.0, n_points=11))

    def test_non_hermiticity_preserving_kernel_raises(self):
        # an imaginary part beyond rounding in the Hermitian basis is refused, never dropped
        kernel = MemoryKernelMap(np.zeros(1, dtype=complex), 1j * np.eye(4, dtype=complex)[None])
        with pytest.raises(InternalConsistencyError):
            lambda_series(kernel, 1.0, TimeGrid(t_max=1.0, n_points=11))

    @given(density_operators())
    @settings(max_examples=25)
    def test_trace_preservation(self, rho):
        maps = _fine_series_maps()
        for out in maps[:: len(maps) // 8].apply(rho):
            assert abs(np.trace(out).real - 1.0) < 1e-8

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 2.0, 5.0, 50.0])
    def test_complete_positivity_across_rates(self, jc_kernel, gamma):
        # positive combinations of channel compositions: CP holds at every
        # truncation, not just in the converged limit
        grid = TimeGrid(t_max=2.0, n_points=201)
        result = lambda_series(jc_kernel, gamma, grid)
        assert np.linalg.eigvalsh(result.maps.choi())[:, 0].min() >= -1e-8

    def test_policy_is_checked_and_not_read(self, jc_kernel):
        # nothing is truncated: every policy gives the same maps, and a policy is still checked
        grid = TimeGrid(t_max=2.0, n_points=101)
        plain = lambda_series(jc_kernel, 1.0, grid)
        assert plain.truncation_order == 0
        for policy in [SeriesPolicy(k_max=k, tail_tol=1e30) for k in (1, 2, 3, 5)]:
            result = lambda_series(jc_kernel, 1.0, grid, policy)
            assert np.array_equal(result.maps.superops, plain.maps.superops)
        with pytest.raises(ConfigurationError, match="SeriesPolicy"):
            lambda_series(jc_kernel, 1.0, grid, {"k_max": 5})

    def test_non_finite_term_raises(self):
        # a kernel growing as e^{800 t} overflows; the solve names gamma and the grid
        kernel = MemoryKernelMap(rates=np.array([800.0 + 0j]), mats=np.eye(4, dtype=complex)[None])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InternalConsistencyError,
                               match=r"gamma = 1 on 101 points over \[0, 1\]"):
                lambda_series(kernel, 1.0, TimeGrid(t_max=1.0, n_points=101))

    def test_large_rate_matches_discrete_protocol(self, jc_kernel):
        # both routes approximate the same map; tolerance is loose because
        # each side carries its own discretization error
        gamma = 50.0
        grid = TimeGrid(t_max=5.0, n_points=10001)
        result = lambda_series(jc_kernel, gamma, grid)
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
            assert abs(mp.times[0] - stack.times[i]) < 1e-9
            worst = max(worst, trace_distance(mp.apply(PROBE)[0], state))
        assert worst <= 5e-2

    def test_map_kraus_extraction_matches_action(self, jc_kernel):
        # zero-rate series is exact, so the maps are strictly trace preserving
        result = lambda_series(jc_kernel, 0.0, TimeGrid(t_max=2.0, n_points=401))
        maps = result.maps[::100]
        for choi, direct in zip(maps.choi(), maps.apply(PROBE)):
            ch = kraus_from_choi(choi)
            via_kraus = sum(k @ PROBE.data @ k.conj().T for k in ch.kraus)
            assert np.max(np.abs(direct - via_kraus)) < 1e-9

    def test_map_kraus_extraction_rejects_quadrature_defect(self, jc_kernel):
        # a quadrature that does not integrate e^{-gamma s} exactly leaves a trace defect, as the
        # trapezoid series did; the validated channel type must refuse it rather than paper over it
        from nmcollide import ValidationError

        result = lambda_series(jc_kernel, 1.0, TimeGrid(t_max=2.0, n_points=41))
        defective = MapStack(result.maps.times, (1.0 + 1e-6) * result.maps.superops)
        with pytest.raises(ValidationError, match="not trace preserving"):
            kraus_from_choi(defective.choi()[-1])
        kraus_from_choi(result.maps.choi()[-1])  # the series itself is trace preserving

    def test_thermal_kernel_series_is_cpt(self):
        kernel = build_kernel_map(jc_hamiltonian(), WARM)
        result = lambda_series(kernel, 1.0, TimeGrid(t_max=2.0, n_points=2001))
        assert np.linalg.eigvalsh(result.maps.choi())[:, 0].min() >= -1e-8
        assert max(certify_cpt(result.maps).max_trace_defect) < 1e-6


class TestInvariantBlocks:
    """The series keeps the kernel's symmetry exactly: the index sets that E(t) never links
    stay unlinked, as exact zeros, in every map."""

    @pytest.mark.parametrize("weights", [(1.0, 0.0)] + [
        tuple(thermal_weights((0.0, 1.0), beta)) for beta in (0.5, 1.55, 3.0)])
    def test_exchange_kernel_never_mixes_populations_with_coherences(self, weights):
        # E00, E11 are basis indices 0 and 3, the coherences 1 and 2. At resonance the
        # coherence factor is real, so the two coherences may be blocks of their own (exact
        # zeros between them) or one block (rounding noise between them)
        maps = lambda_series(build_kernel_map(jc_hamiltonian(), weights), 1.0,
                             TimeGrid(t_max=10.0, n_points=201)).maps
        blocks = _map_blocks(maps)
        assert [0, 3] in blocks
        assert sorted(i for block in blocks if block != [0, 3] for i in block) == [1, 2]

    @pytest.mark.parametrize("weights", [(1.0, 0.0), WARM])
    def test_detuned_exchange_kernel_blocks_are_populations_and_coherences(self, weights):
        kernel = build_kernel_map(_detuned(jc_hamiltonian(), 0.4), weights)
        maps = lambda_series(kernel, 1.0, TimeGrid(t_max=10.0, n_points=201)).maps
        assert sorted(_map_blocks(maps)) == [[0, 3], [1, 2]]

    def test_unequal_blocks_match_direct_quadrature(self):
        kernel = build_kernel_map(_exchange_qutrit_hamiltonian(), (1.0, 0.0))
        grid = TimeGrid(t_max=2.0, n_points=101)
        result = lambda_series(kernel, 1.0, grid)
        assert sorted(len(block) for block in _map_blocks(result.maps)) == [2, 3, 4]
        reference = _direct_product_integration(kernel, 1.0, grid)
        assert np.max(np.abs(result.maps.superops - reference)) < 1e-12

    @pytest.mark.parametrize("h, weights", [
        (jc_hamiltonian(), (1.0, 0.0)),
        (jc_hamiltonian(), WARM),
        (_detuned(jc_hamiltonian(), 0.4), WARM),
        (_exchange_qutrit_hamiltonian(), (0.7, 0.3)),
    ], ids=["pure", "thermal", "detuned", "qutrit"])
    def test_entries_between_coherence_orders_are_exact_zeros(self, h, weights):
        # vec index (i, j) carries the coherence order |i - j|; a block never mixes two orders
        kernel = build_kernel_map(h, weights)
        maps = lambda_series(kernel, 1.5, TimeGrid(t_max=3.0, n_points=301)).maps.superops
        i, j = np.divmod(np.arange(kernel.system_dim ** 2), kernel.system_dim)
        order = np.abs(i - j)
        assert np.all(maps[:, order[:, None] != order[None, :]] == 0.0)

    @pytest.mark.parametrize("weights", [(1.0, 0.0), WARM])
    def test_rotated_kernel_is_one_block_and_rotates_back(self, weights):
        # E'(t) = V E(t) V^dagger for a random system unitary V: no exact zeros, one dense
        # block, and its series rotated back is the unrotated kernel's
        a = np.random.default_rng(11).standard_normal((2, 2, 2))
        v = np.linalg.qr(a[0] + 1j * a[1])[0]
        big = np.kron(v, np.eye(2))
        rotated = build_kernel_map(HermitianOperator(big @ jc_hamiltonian().data @ big.conj().T),
                                   weights)
        grid = TimeGrid(t_max=2.0, n_points=101)
        blocked = lambda_series(build_kernel_map(jc_hamiltonian(), weights), 1.0, grid)
        dense = lambda_series(rotated, 1.0, grid)
        assert _map_blocks(dense.maps) == [[0, 1, 2, 3]]
        conj = np.kron(v, v.conj())  # rho -> V rho V^dagger on row-major vec
        back = conj.conj().T @ dense.maps.superops @ conj
        assert np.max(np.abs(back - blocked.maps.superops)) < 1e-13


class TestLambdaEmbedding:
    @pytest.mark.parametrize("gamma", [0.0, 1.0, 2.0, 50.0])
    def test_matches_closed_form(self, gamma):
        # gamma = 2 is the generator's defective point
        maps = lambda_embedding(jc_hamiltonian(), (1.0, 0.0), gamma, TimeGrid(5.0, 5001))[::25]
        assert float(np.max(np.abs(maps.superops - jc_maps(maps.times, gamma).superops))) < 1e-12

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0, 100.0, 1e5, 1e20])
    def test_matches_closed_form_to_rounding_at_any_rate(self, gamma):
        # 4001 points on [0, 10]: largest difference 5.4e-14 (gamma = 1e5), 1.1e-16 at 1e20
        maps = lambda_embedding(jc_hamiltonian(), (1.0, 0.0), gamma, TimeGrid(10.0, 4001))
        assert float(np.max(np.abs(maps.superops - jc_maps(maps.times, gamma).superops))) < 1e-13

    def test_agrees_with_series(self, jc_kernel):
        grid = TimeGrid(t_max=3.0, n_points=3001)
        maps = lambda_embedding(jc_hamiltonian(), (1.0, 0.0), 2.0, grid)
        ser = lambda_series(jc_kernel, 2.0, grid)
        assert np.max(np.abs(maps.superops - ser.maps.superops)) < 1e-5

    def test_thermal_matches_series(self):
        kernel = build_kernel_map(jc_hamiltonian(), WARM)
        grid = TimeGrid(t_max=2.0, n_points=2001)
        maps = lambda_embedding(jc_hamiltonian(), WARM, 1.0, grid)
        ser = lambda_series(kernel, 1.0, grid)
        assert np.max(np.abs(maps.superops - ser.maps.superops)) < 1e-6

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
        for j in (5, np.int64(5), -1, -21):
            m = stack[j]
            assert isinstance(m, MapStack) and len(m) == 1 and m.dim == 2
            assert m.times[0] == stack.times[j]
            assert np.array_equal(m.superops[0], stack.superops[j])
            assert np.shares_memory(m.superops, stack.superops)
        for part in (stack[::4], stack[np.arange(0, 21, 4)]):
            assert isinstance(part, MapStack) and len(part) == 6
            assert np.array_equal(part.superops, stack.superops[::4])
            assert np.array_equal(part.times, stack.times[::4])

    @pytest.mark.parametrize("j", [21, -22])
    def test_int_index_past_either_end_raises(self, stack, j):
        with pytest.raises(IndexError):
            stack[j]

    def test_iteration_stops_after_the_last_map(self, stack):
        # islice bounds the loop, so an iteration that never stops fails instead of hanging
        maps = list(itertools.islice(stack, len(stack) + 1))
        assert len(maps) == len(stack)
        assert [mp.times[0] for mp in maps] == list(stack.times)

    def test_choi_and_apply_agree_with_each_map(self, stack):
        chois, applied = stack.choi(), stack.apply(PROBE)
        assert chois.shape == (21, 4, 4) and applied.shape == (21, 2, 2)
        for j, m in enumerate(stack):
            assert np.array_equal(chois[j], m.choi()[0])
            assert np.max(np.abs(applied[j] - m.apply(PROBE)[0])) < 1e-15

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_choi_is_the_symmetrized_reshuffle_bit_for_bit(self, dim):
        # choi() symmetrizes in place; the bits are those of 0.5 * (C + C^dag)
        rng = np.random.default_rng(dim)
        shape = (7, dim * dim, dim * dim)
        real = rng.normal(size=shape)
        for superops in (real + 1j * rng.normal(size=shape), real):
            superops.setflags(write=False)
            stack = MapStack(np.arange(7.0), superops)
            c = superops.reshape(7, dim, dim, dim, dim).transpose(0, 3, 1, 4, 2).reshape(shape)
            expected = 0.5 * (c + c.conj().transpose(0, 2, 1))
            choi = stack.choi()
            assert choi.dtype == expected.dtype and choi.tobytes() == expected.tobytes()
            assert not np.shares_memory(choi, superops)

    @pytest.mark.parametrize("h, ds", [
        pytest.param(HermitianOperator(np.array([[0.0, 1.0], [1.0, 0.0]])), 1, id="d1"),
        pytest.param(jc_hamiltonian(), 2, id="d2"),
        pytest.param(_random_qutrit_hamiltonian(), 3, id="d3_random"),
        pytest.param(_exchange_qutrit_hamiltonian(), 3, id="d3_exchange"),
    ])
    def test_dimensions_are_read_from_the_arrays(self, h, ds):
        # MapStack.dim, MemoryKernelMap.system_dim and LindbladGenerator.dim are read-only
        # properties of the arrays, stored nowhere
        for cls, name in ((MapStack, "dim"), (MemoryKernelMap, "system_dim"),
                          (LindbladGenerator, "dim")):
            assert isinstance(getattr(cls, name), property) and getattr(cls, name).fset is None
            assert name not in {field.name for field in dataclasses.fields(cls)}
        kernel = build_kernel_map(h, (1.0, 0.0))
        maps = kernel.maps([0.0, 0.5, 1.0])
        assert kernel.system_dim == maps.dim == maps[1].dim == maps[::2].dim == ds
        generator = lindblad_limit(kernel, 1e-3)
        assert generator.dim == generator.semigroup(1.0).dim == ds
        assert lambda_embedding(h, (1.0, 0.0), 1.0, TimeGrid(1.0, 3)).dim == ds
        with pytest.raises(dataclasses.FrozenInstanceError):
            maps.dim = ds + 1

    def test_no_positivity_check(self):
        # a stack carries candidate maps that certification rejects
        stack = MapStack(np.zeros(1), -np.eye(4)[None])
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
            gen = lindblad_limit(kernel, h)
            excited = DensityOperator.basis(2, 1)
            errors[h] = max(
                abs(gen.semigroup(t).apply(excited)[0, 1, 1].real - np.exp(-2 * rate * t))
                for t in (0.5, 1.0, 2.0)
            )
        # first-order extraction: error shrinks linearly with the step
        assert 1.5 < errors[1e-3] / errors[5e-4] < 2.6

    def test_exchange_kernel_generator_vanishes_linearly(self, jc_kernel):
        # the short-time expansion of the cosine kernel starts at second order,
        # so the extracted generator itself scales down linearly in h
        n1 = lindblad_limit(jc_kernel, 1e-3).norm()
        n2 = lindblad_limit(jc_kernel, 5e-4).norm()
        slope = np.log2(n1 / n2)
        assert abs(slope - 1.0) < 0.05

    def test_generator_matches_analytic_lindbladian(self):
        # decay-by-e^{-rate t} kernel: the generator is the textbook
        # amplitude-damping Lindbladian, population rate 2*rate and
        # coherence rate rate (here written in row-major vec basis)
        rate = 0.7
        gen = lindblad_limit(adc_decay_kernel(rate), 1e-7)
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
            assert certify_cpt(gen.semigroup(t)).max_trace_defect[0] < 1e-8

    def test_step_validation(self, jc_kernel):
        with pytest.raises(ConfigurationError):
            lindblad_limit(jc_kernel, 0.0)
