import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from nmcollide import (
    ConfigurationError,
    DensityOperator,
    InternalConsistencyError,
    KrausChannel,
    MapStack,
    ValidationError,
    beta1,
    beta2,
    choi_of,
    kraus_from_choi,
    trace_distance,
)
from nmcollide.jaynes_cummings import (
    DOMAIN_BOUND,
    _spectra,
    beta_arrays,
    beta_laplace,
    jc_maps,
)
from nmcollide.tolerances import CPT_TOLERANCE, IMAGINARY_RESIDUE

from conftest import density_operators, kraus_action, qubit_state, qubit_states

GAMMA_GRID = [0.0, 0.1, 0.5, 1.0, 2.0 - 1e-6, 2.0, 2.0 + 1e-6, 5.0, 20.0, 50.0]


def beta1_degenerate_series(tau, gamma_bar: float):
    """Taylor-in-w evaluation of beta1 around the gamma_bar = 2 degeneracy: the reference
    for branch continuity; at gamma_bar = 2 exactly it reduces to e^{-tau} (1 + tau)."""
    tau_arr = np.asarray(tau, dtype=float)
    half = 0.5 * gamma_bar * tau_arr
    w = (0.25 * gamma_bar * gamma_bar - 1.0) * tau_arr * tau_arr
    sinhc = 1.0 + w / 6.0 + w * w / 120.0 + w * w * w / 5040.0
    cosh = 1.0 + w / 2.0 + w * w / 24.0 + w * w * w / 720.0
    return np.exp(-half) * (half * sinhc + cosh)


def spectrum(gamma_bar: float):
    """beta2's (poles, residues) at one rate, each a 3-tuple: the row of the batched solve."""
    alphas, residues = _spectra(np.array([float(gamma_bar)]))
    return tuple(map(complex, alphas[0])), tuple(map(complex, residues[0]))


def spectrum_cardano(gamma_bar: float):
    """beta2's (poles, residues) from explicit Cardano radicals: the cross-check of ``_spectra``.

    The radicals use the principal real cube root; the pole parameters are
    the exponential rates themselves, so beta2(tau) = sum A_i e^{alpha_i tau}
    with no extra factor of i in the exponent.
    """
    g = float(gamma_bar)
    if g < 0:
        raise ConfigurationError("memory-loss rate must be nonnegative")
    delta = math.sqrt(6.0 * g**4 - 39.0 * g**2 + 192.0)
    c = (g**3 + 3.0 * delta + 9.0 * g) ** (1.0 / 3.0)
    alpha1 = complex(((g - c) ** 2 - 12.0) / (3.0 * c))
    alpha2 = (
        1j * (math.sqrt(3.0) + 1j) * c
        - (1.0 + 1j * math.sqrt(3.0)) * (g * g - 12.0) / c
        - 4.0 * g
    ) / 6.0
    alpha3 = alpha2.conjugate()
    a1 = (2.0 * g * alpha1 + alpha1**2 + g * g + 2.0) / (
        abs(alpha1) ** 2 + abs(alpha2) ** 2 - 2.0 * alpha1.real * alpha2.real
    )
    a2 = (
        1j
        * (2.0 * g * alpha2 + alpha2**2 + g * g + 2.0)
        / (2.0 * (alpha1 - alpha2) * alpha2.imag)
    )
    return (alpha1, alpha2, alpha3), (complex(a1.real), a2, a2.conjugate())


class TestAdc:
    """Amplitude damping is the closed form at zero memory loss, with transmission cos(tau)."""

    def test_identity_at_unit_transmission(self):
        rho = DensityOperator(np.array([[0.3, 0.1 + 0.2j], [0.1 - 0.2j, 0.7]]))
        assert trace_distance(jc_maps(0.0, 0.0).apply(rho)[0], rho) < 1e-14

    def test_full_damping(self):
        rho = DensityOperator(np.array([[0.3, 0.1 + 0.2j], [0.1 - 0.2j, 0.7]]))
        out = jc_maps(np.pi / 2, 0.0).apply(rho)[0]
        assert trace_distance(out, DensityOperator.basis(2, 0)) < 1e-14

    def test_out_of_range(self):
        with pytest.raises(ConfigurationError):
            jc_maps(-0.1, 0.0)

    @given(
        st.floats(min_value=0.0, max_value=np.pi / 2),
        st.floats(min_value=0.0, max_value=np.pi / 2),
        density_operators(),
    )
    def test_composition_property(self, tau1, tau2, rho):
        # transmissions multiply: the product of the superoperators is the damping by
        # cos(tau1) cos(tau2) = cos(tau3)
        tau3 = math.acos(math.cos(tau1) * math.cos(tau2))
        product = jc_maps(tau1, 0.0).superops @ jc_maps(tau2, 0.0).superops
        combined = MapStack(np.zeros(1), product)
        assert trace_distance(combined.apply(rho)[0], jc_maps(tau3, 0.0).apply(rho)[0]) < 1e-12

    @given(st.floats(min_value=0.0, max_value=10.0), qubit_states())
    def test_action_on_parameters(self, tau, rho):
        out = jc_maps(tau, 0.0).apply(rho)[0]
        eta = math.cos(tau)
        assert abs(out[1, 1].real - eta**2 * rho.data[1, 1].real) < 1e-12
        assert abs(out[0, 1] - eta * rho.data[0, 1]) < 1e-12


class TestBeta1:
    @pytest.mark.parametrize("gamma", GAMMA_GRID)
    def test_starts_at_one(self, gamma):
        assert abs(beta1(0.0, gamma) - 1.0) < 1e-14

    def test_zero_rate_is_cosine(self):
        taus = np.linspace(0.0, 12.0, 241)
        assert np.max(np.abs(beta1(taus, 0.0) - np.cos(taus))) < 1e-13

    def test_degenerate_point_value(self):
        # boundary between the oscillatory and overdamped regimes
        assert abs(beta1(1.0, 2.0) - 2.0 / np.e) < 1e-13

    def test_oscillatory_branch_value(self):
        expect = np.exp(-0.5) * (np.sin(np.sqrt(3) / 2) / np.sqrt(3) + np.cos(np.sqrt(3) / 2))
        assert abs(beta1(1.0, 1.0) - expect) < 1e-13

    @pytest.mark.parametrize("gamma", [2.0 - 1e-6, 2.0, 2.0 + 1e-6])
    def test_branch_continuity_near_degeneracy(self, gamma):
        taus = np.linspace(0.0, 20.0, 401)
        branch = beta1(taus, gamma)
        series = beta1_degenerate_series(taus, gamma)
        assert np.max(np.abs(branch - series)) < 1e-8

    def test_no_overflow_at_large_arguments(self):
        val = beta1(20.0, 50.0)
        assert np.isfinite(val) and 0.0 < val < 1.0

    def test_markovian_log_slope(self):
        # deep in the memoryless regime the decay rate approaches 1/gamma
        gamma = 50.0
        taus = np.linspace(1.0, 10.0, 50)
        slope = np.polyfit(taus, np.log(beta1(taus, gamma)), 1)[0]
        assert abs(slope - (-1.0 / gamma)) < 0.1 / gamma

    def test_rejects_negative_inputs(self):
        with pytest.raises(ConfigurationError):
            beta1(1.0, -0.5)
        with pytest.raises(ConfigurationError):
            beta1(-1.0, 0.5)


class TestCubicSpectrum:
    def test_zero_rate_poles_and_residues(self):
        alphas, residues = spectrum(0.0)
        assert abs(alphas[0]) < 1e-12
        assert abs(alphas[1] - 2j) < 1e-12
        assert abs(alphas[2] + 2j) < 1e-12
        assert np.allclose(residues, [0.5, 0.25, 0.25], atol=1e-12)

    @pytest.mark.parametrize("gamma", GAMMA_GRID)
    def test_residues_sum_to_one(self, gamma):
        assert abs(sum(spectrum(gamma)[1]) - 1.0) < 1e-10

    @pytest.mark.parametrize("gamma", GAMMA_GRID)
    def test_conjugate_pair_structure(self, gamma):
        alphas, residues = spectrum(gamma)
        assert abs(alphas[1].conjugate() - alphas[2]) < 1e-12
        assert abs(residues[1].conjugate() - residues[2]) < 1e-12
        assert abs(alphas[0].imag) < 1e-12

    @pytest.mark.parametrize("gamma", GAMMA_GRID)
    def test_poles_are_stable(self, gamma):
        # all exponential rates must have nonpositive real part
        for a in spectrum(gamma)[0]:
            assert a.real < 1e-12

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 1.0, 2.0, 5.0, 20.0, 50.0])
    def test_cardano_route_reconciles(self, gamma):
        # the radical expressions and the numerical partial fractions must
        # produce the same population factor
        taus = np.linspace(0.0, 10.0, 201)
        alphas, residues = spectrum_cardano(gamma)
        assert abs(sum(residues) - 1.0) <= 1e-10
        b = sum(a * np.exp(s * taus) for a, s in zip(residues, alphas))
        assert np.max(np.abs(b.imag)) <= IMAGINARY_RESIDUE
        assert np.max(np.abs(beta2(taus, gamma) - b.real)) < 1e-8

    def test_delta_radical_positive_everywhere(self):
        for gamma in np.linspace(0.0, 100.0, 401):
            assert 6 * gamma**4 - 39 * gamma**2 + 192 > 0

    def test_bitwise_the_scalar_root_route(self):
        # the loop reference: np.roots on one cubic, Newton, Vieta and residues in Python
        # scalars; every row of one batched solve over the whole grid must reproduce it
        # bit for bit
        rng = np.random.default_rng(7)
        grid = [float(g) for g in GAMMA_GRID + [1e6, 3e8, 1e10, 1e12, DOMAIN_BOUND]
                + list(rng.uniform(0, 12, 200))]
        alphas, residues = _spectra(np.array(grid))
        for k, g in enumerate(grid):
            coeffs = np.array([1.0, 2.0 * g, g * g + 4.0, 2.0 * g])
            dcoeffs = np.array([3.0, 4.0 * g, g * g + 4.0])
            roots = np.roots(coeffs)
            r = float(roots[np.argmin(np.abs(roots))].real)
            r -= float(np.polyval(coeffs, r) / np.polyval(dcoeffs, r))
            pair = complex(-(2.0 * g + r) / 2.0, math.sqrt(4.0 + g * r + 0.75 * r * r))
            real_res, pair_res = (
                complex(((s + g) ** 2 + 2.0) / np.polyval(dcoeffs, s)) for s in (r, pair)
            )
            assert tuple(map(complex, alphas[k])) == (complex(r), pair, pair.conjugate()), g
            assert tuple(map(complex, residues[k])) == (
                complex(real_res.real), pair_res, pair_res.conjugate()), g


class TestBeta2:
    @pytest.mark.parametrize("gamma", GAMMA_GRID)
    def test_starts_at_one(self, gamma):
        assert abs(beta2(0.0, gamma) - 1.0) < 1e-12

    def test_zero_rate_is_cosine_squared(self):
        taus = np.linspace(0.0, 12.0, 241)
        assert np.max(np.abs(beta2(taus, 0.0) - np.cos(taus) ** 2)) < 1e-12

    @given(
        st.floats(min_value=0.0, max_value=20.0),
        st.floats(min_value=0.0, max_value=50.0),
    )
    def test_inequalities_hold(self, tau, gamma):
        (b1,), (b2,) = beta_arrays(tau, gamma)  # raises on violation
        assert -1e-9 <= b2 <= 1.0 + 1e-9
        assert b1**2 <= b2 + 1e-9

    @pytest.mark.parametrize("gamma", GAMMA_GRID)
    def test_inequalities_on_dense_grid(self, gamma):
        taus = np.round(np.arange(0.0, 20.0 + 1e-9, 0.01), 10)
        b1 = beta1(taus, gamma)
        b2 = beta2(taus, gamma)
        assert np.all(b2 >= -1e-9) and np.all(b2 <= 1.0 + 1e-9)
        assert np.all(b1 * b1 <= b2 + 1e-9)


def _beta1_mpmath(tau: float, gamma: float) -> float:
    """The two-pole closed form of beta1 evaluated at 60 digits."""
    with mpmath.workdps(60):
        t, g = mpmath.mpf(tau), mpmath.mpf(gamma)
        half = g * t / 2
        w = (g * g / 4 - 1) * t * t
        if w == 0:
            return float(mpmath.exp(-half) * (1 + half))
        x = mpmath.sqrt(abs(w))
        if w > 0:
            shape = mpmath.cosh(x) + half * mpmath.sinh(x) / x
        else:
            shape = mpmath.cos(x) + half * mpmath.sin(x) / x
        return float(mpmath.exp(-half) * shape)


def _beta2_mpmath(taus, gamma: float) -> np.ndarray:
    """The three-pole partial-fraction sum of beta2 evaluated at 60 digits."""
    with mpmath.workdps(60):
        g = mpmath.mpf(gamma)
        poles = mpmath.polyroots([1, 2 * g, g * g + 4, 2 * g], maxsteps=200, extraprec=200)
        residues = [((s + g) ** 2 + 2) / (3 * s * s + 4 * g * s + g * g + 4) for s in poles]
        values = [
            sum(a * mpmath.exp(s * mpmath.mpf(t)) for a, s in zip(residues, poles)) for t in taus
        ]
        return np.array([float(mpmath.re(v)) for v in values])


class TestLargeRate:
    """Deep in the memoryless regime the slow rate must not cancel."""

    @pytest.mark.parametrize("gamma", [1e3, 1e6, 1e8, 3e8, 1e10, 1e12])
    def test_inequalities_within_slack(self, gamma):
        taus = np.linspace(0.0, 20.0, 2001)
        b1, b2 = beta_arrays(taus, gamma)  # raises on violation
        assert np.all(b2 >= -CPT_TOLERANCE) and np.all(b2 <= 1.0 + CPT_TOLERANCE)
        assert np.all(b1 * b1 <= b2 + CPT_TOLERANCE)

    @pytest.mark.parametrize("gamma", [1e3, 1e6, 1e8])
    def test_beta1_matches_high_precision_closed_form(self, gamma):
        taus = np.linspace(0.0, 20.0, 41)
        ref = np.array([_beta1_mpmath(float(t), gamma) for t in taus])
        assert np.max(np.abs(beta1(taus, gamma) - ref)) < 1e-15

    @pytest.mark.parametrize("gamma", [1.0, 2.0, 50.0, 1e8, 3e8, 1e10, 1e12])
    def test_beta2_matches_high_precision_residues(self, gamma):
        # above gamma_bar ~ 1e8 the conjugate pair is nearly degenerate in
        # relative terms; it must come out complex, with residues summing to 1
        taus = np.concatenate([np.linspace(0.0, 20.0, 41), np.logspace(-14, 0, 15)])
        assert np.max(np.abs(beta2(taus, gamma) - _beta2_mpmath(taus, gamma))) < 1e-15


class TestBetaArrays:
    def test_equal_to_beta_pair_pointwise(self):
        taus = np.linspace(0.0, 20.0, 81)
        for gamma in (0.0, 2.0, 75.0):
            b1, b2 = beta_arrays(taus, gamma)
            for t, x, y in zip(taus, b1, b2):
                assert (x, y) == (beta1(t, gamma), beta2(t, gamma))

    def test_violation_names_first_bad_point(self, monkeypatch):
        import nmcollide.jaynes_cummings as jc

        real = jc._beta2  # the factor behind beta_arrays' one domain check
        monkeypatch.setattr(jc, "_beta2", lambda t, g: real(t, g) - np.where(t >= 1.5, 2.0, 0.0))
        with pytest.raises(InternalConsistencyError, match="tau=1.5, gamma_bar=0.5"):
            beta_arrays(np.linspace(0.0, 3.0, 7), 0.5)

    def test_choi_stack_is_the_single_layout(self):
        taus = np.array([0.0, 0.7, 3.0])
        stack = jc_maps(taus, 1.3).choi()
        assert stack.shape == (3, 4, 4)
        for k, tau in enumerate(taus):
            assert np.array_equal(stack[k], jc_maps(tau, 1.3).choi()[0])


@pytest.mark.parametrize("ell", [0, 3])
def test_beta_laplace_takes_only_the_two_factors(ell):
    with pytest.raises(ConfigurationError, match=f"cosine power {ell} not supported"):
        beta_laplace(ell, 1.0 + 0.5j, 0.5)


NAN = float("nan")


@pytest.mark.parametrize("call", [
    pytest.param(lambda: beta1(1.0, NAN), id="beta1-gamma"),
    pytest.param(lambda: beta1(NAN, 1.0), id="beta1-tau"),
    pytest.param(lambda: beta2(NAN, 1.0), id="beta2-tau"),
    pytest.param(lambda: beta2(1.0, NAN), id="beta2-gamma"),
    pytest.param(lambda: beta_arrays([0.0, NAN], 1.0), id="beta_arrays-tau"),
    pytest.param(lambda: beta_arrays([0.0, 1.0], [1.0, NAN]), id="beta_arrays-gamma"),
    pytest.param(lambda: jc_maps([0.5, 1.0], [2.0, NAN]), id="jc_maps-gamma"),
    pytest.param(lambda: jc_maps(NAN, 2.0), id="jc_maps-tau"),
])
def test_nan_fails_the_domain_check(call):
    with pytest.raises(ConfigurationError, match="NaN"):
        call()


class TestGammaAxis:
    """gamma_bar broadcasts against tau: each (tau, gamma_bar) pair is one map."""

    @given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=30.0),
                              st.sampled_from(GAMMA_GRID + [1e3, 1e8]) | st.floats(0.0, 200.0)),
                    min_size=1, max_size=30))
    def test_pairs_are_the_one_gamma_calls(self, pairs):
        taus, gammas = map(np.array, zip(*pairs))
        stack = jc_maps(taus, gammas)
        assert np.array_equal(stack.times, taus)
        for k, (tau, gamma) in enumerate(pairs):
            assert np.all(stack.superops[k] == jc_maps(tau, gamma).superops[0])

    def test_scalar_tau_against_a_gamma_array(self):
        gammas = np.array([0.0, 2.0, 75.0])
        stack = jc_maps(1.5, gammas)
        assert np.array_equal(stack.times, [1.5, 1.5, 1.5])
        b1, b2 = beta1(1.5, gammas), beta2(1.5, gammas)
        for k, gamma in enumerate(gammas):
            assert (b1[k], b2[k]) == (beta1(1.5, gamma), beta2(1.5, gamma))
            assert np.all(stack.superops[k] == jc_maps(1.5, gamma).superops[0])

    # 2 is the degeneracy; beta1 takes its split-exponential branch at 5 (tau > 3.1), 60 and 1e8
    GRID_GAMMAS = [0.0, 0.7, 2.0, 5.0, 60.0, 1e8]

    def test_a_gamma_major_grid_is_the_stacked_one_gamma_calls(self):
        taus = np.linspace(0.0, 20.0, 201)
        grid = jc_maps(np.tile(taus, len(self.GRID_GAMMAS)),
                       np.repeat(self.GRID_GAMMAS, len(taus)))
        stacked = np.concatenate([jc_maps(taus, g).superops for g in self.GRID_GAMMAS])
        assert np.array_equal(grid.times, np.tile(taus, len(self.GRID_GAMMAS)))
        assert np.array_equal(grid.superops.view(np.int64), stacked.view(np.int64))

    def test_a_grid_names_the_first_one_gamma_failure(self):
        # at the first gamma_bar only the product gamma_bar * tau passes the bound; the second
        # gamma_bar is past it at every tau
        taus, gammas = np.array([0.0, 1e5]), [1e150, 1e154]
        with pytest.raises(ConfigurationError) as one_gamma:
            jc_maps(taus, gammas[0])
        with pytest.raises(ConfigurationError) as grid:
            jc_maps(np.tile(taus, len(gammas)), np.repeat(gammas, len(taus)))
        assert "gamma_bar = 1e+150, tau = 100000:" in str(one_gamma.value)
        assert str(grid.value) == str(one_gamma.value)

    def test_violation_names_the_failing_pair(self, monkeypatch):
        import nmcollide.jaynes_cummings as jc

        real = jc._beta2  # the factor behind beta_arrays' one domain check
        monkeypatch.setattr(jc, "_beta2",
                            lambda t, g: real(t, g) - np.where(np.asarray(g) > 1.0, 2.0, 0.0))
        with pytest.raises(InternalConsistencyError, match="tau=0.25, gamma_bar=3.0"):
            jc_maps([0.5, 0.25, 0.75], [0.5, 3.0, 4.0])

    def test_domain_bound_names_the_first_pair_beyond_it(self):
        with pytest.raises(ConfigurationError, match=re.escape("gamma_bar = 1e+100, tau = 1e+60")):
            beta1([1.0, 1e60, 1e70], [1e100, 1e100, 1e100])
        with pytest.raises(ConfigurationError, match=re.escape("gamma_bar = 0, tau = 1e+200")):
            beta2([1.0, 1e200], 0.0)


class TestJcMaps:
    """jc_maps writes the closed-form layout once; everything else reads it."""

    TAUS = np.linspace(0.0, 20.0, 81)

    @pytest.mark.parametrize("gamma", [0.0, 2.0, 75.0])
    def test_betas_are_bitwise_beta_pair(self, gamma):
        s = jc_maps(self.TAUS, gamma).superops
        for k, tau in enumerate(self.TAUS):
            b1, b2 = beta1(tau, gamma), beta2(tau, gamma)
            assert s[k, 1, 1] == b1 and s[k, 2, 2] == b1
            assert s[k, 3, 3] == b2 and s[k, 0, 3] == 1.0 - b2
            assert s[k, 0, 0] == 1.0
        layout = np.zeros((4, 4), dtype=bool)
        layout[0, 0] = layout[0, 3] = layout[1, 1] = layout[2, 2] = layout[3, 3] = True
        assert not np.any(s[:, ~layout])

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 2.0, 5.0])
    def test_apply_is_the_hand_written_state(self, gamma):
        p, r = 0.6, 0.25 + 0.2j
        stack = jc_maps(self.TAUS, gamma)
        b1, b2 = beta_arrays(self.TAUS, gamma)
        hand = np.empty((len(self.TAUS), 2, 2), dtype=complex)
        hand[:, 0, 0] = 1.0 - b2 * p
        hand[:, 0, 1] = b1 * r
        hand[:, 1, 0] = b1 * np.conj(r)
        hand[:, 1, 1] = b2 * p
        rho = qubit_state(p, r)
        assert np.max(np.abs(stack.apply(rho) - hand)) <= 1e-15
        assert np.array_equal(stack.times, self.TAUS)

    def test_violation_names_first_bad_tau(self, monkeypatch):
        import nmcollide.jaynes_cummings as jc

        real = jc._beta2  # the factor behind beta_arrays' one domain check
        monkeypatch.setattr(jc, "_beta2", lambda t, g: real(t, g) - np.where(t >= 1.5, 2.0, 0.0))
        with pytest.raises(InternalConsistencyError, match="tau=1.5, gamma_bar=0.5"):
            jc_maps(np.linspace(0.0, 3.0, 7), 0.5)

    def test_single_point_views_read_the_stack(self):
        # a stack of one map at a scalar tau is bitwise the batched stack's map
        stack = jc_maps([0.0, 0.9, 4.0], 1.5)
        rho = qubit_state(0.6, 0.25 + 0.2j)
        states = stack.apply(rho)
        for k, tau in enumerate(stack.times):
            assert np.array_equal(jc_maps(tau, 1.5).superops[0], stack.superops[k])
            assert np.array_equal(jc_maps(tau, 1.5).apply(rho)[0], states[k])


def _state_at(tau: float, gamma: float, rho: DensityOperator) -> DensityOperator:
    return DensityOperator(jc_maps(tau, gamma).apply(rho)[0])


def _channel_at(tau: float, gamma: float) -> KrausChannel:
    return kraus_from_choi(jc_maps(tau, gamma).choi()[0])


class TestLambdaJc:
    """The closed-form map at single points: one-map jc_maps stacks and their Kraus form."""

    def test_zero_time_is_identity(self):
        rho = qubit_state(0.4, 0.2 + 0.1j)
        assert trace_distance(_state_at(0.0, 1.7, rho), rho) < 1e-14

    def test_full_rabi_transfer(self):
        out = _state_at(np.pi / 2, 0.0, DensityOperator.basis(2, 1))
        assert trace_distance(out, DensityOperator.basis(2, 0)) < 1e-12

    @given(qubit_states(), st.floats(min_value=0.0, max_value=10.0),
           st.floats(min_value=0.0, max_value=10.0))
    def test_matrix_form_equals_channel_action(self, rho, tau, gamma):
        direct = _state_at(tau, gamma, rho)
        via_channel = kraus_action(_channel_at(tau, gamma), rho)
        assert trace_distance(direct, via_channel) < 1e-10

    def test_channel_at_zero_time_is_identity(self):
        ch = _channel_at(0.0, 3.0)
        rho = DensityOperator(np.array([[0.2, 0.1j], [-0.1j, 0.8]]))
        assert trace_distance(kraus_action(ch, rho), rho) < 1e-12

    def test_zero_rate_channel_is_amplitude_damping(self):
        # at zero memory loss the map is pure damping with transmission cos(tau),
        # up to the sign of the coherence factor
        for tau in [0.3, 1.0, 2.0]:
            ch = _channel_at(tau, 0.0)
            eta = abs(np.cos(tau))
            rho = DensityOperator(np.array([[0.4, 0.25], [0.25, 0.6]]))
            out = kraus_action(ch, rho)
            # amplitude damping with transmission eta, written out as its two Kraus operators
            k0 = np.diag([1.0, eta])
            k1 = np.array([[0.0, np.sqrt(1.0 - eta * eta)], [0.0, 0.0]])
            ref = k0 @ rho.data @ k0.T + k1 @ rho.data @ k1.T
            assert abs(out[1, 1] - ref[1, 1]) < 1e-12
            assert abs(abs(out[0, 1]) - abs(ref[0, 1])) < 1e-12

    @pytest.mark.parametrize("gamma", [0.0, 1.0, 5.0])
    def test_channel_family_is_cp(self, gamma):
        for choi in jc_maps(np.linspace(0.0, 20.0, 101), gamma).choi():
            assert np.linalg.eigvalsh(choi_of(kraus_from_choi(choi)))[0] >= -1e-10

    def test_three_operator_closed_form(self):
        # documented identity: {diag(1, b1), sqrt(b2 - b1^2)|1><1|, sqrt(1 - b2)|0><1|}
        for tau, gamma in [(0.7, 1.0), (2.0, 0.5), (1.3, 5.0)]:
            b1, b2 = beta1(tau, gamma), beta2(tau, gamma)
            k1 = np.diag([1.0, b1]).astype(complex)
            k2 = np.sqrt(max(b2 - b1**2, 0.0)) * np.diag([0.0, 1.0]).astype(complex)
            k3 = np.zeros((2, 2), dtype=complex)
            k3[0, 1] = np.sqrt(max(1.0 - b2, 0.0))
            hand = KrausChannel((k1, k2, k3))
            rho = DensityOperator(np.array([[0.35, 0.2 - 0.15j], [0.2 + 0.15j, 0.65]]))
            a = kraus_action(hand, rho)
            b = kraus_action(_channel_at(tau, gamma), rho)
            assert trace_distance(a, b) < 1e-12

    def test_superop_matches_choi(self):
        # the reshuffled superoperator against the Choi matrix of its own Kraus form
        for tau, gamma in [(0.5, 0.0), (1.5, 2.0)]:
            c1 = jc_maps(tau, gamma).choi()[0]
            c2 = choi_of(kraus_from_choi(c1))
            assert np.max(np.abs(c1 - c2)) < 1e-12

    def test_corrupted_pair_raises_in_channel_construction(self):
        from nmcollide.verify import corrupted_beta_maps

        # (beta1, beta2) = (1.05, 1.0): the map at tau = 0 with beta1 inflated by 5%
        with pytest.raises(InternalConsistencyError):
            kraus_from_choi(corrupted_beta_maps(1.0, [0.0]).choi()[0])

    def test_state_params_validation(self):
        # |r|^2 > p(1 - p) and p outside [0, 1] are not states: DensityOperator refuses both
        with pytest.raises(ValidationError, match="not positive semidefinite"):
            qubit_state(0.5, 0.6)
        with pytest.raises(ValidationError, match="not positive semidefinite"):
            qubit_state(1.2, 0.0)
