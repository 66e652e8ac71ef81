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
    QubitStateParams,
    adc_channel,
    apply_channel,
    beta1,
    beta2,
    beta_pair,
    choi_of,
    cubic_spectrum,
    cubic_spectrum_cardano,
    lambda_jc,
    lambda_jc_channel,
    lambda_jc_superop,
    trace_distance,
)
from nmcollide.jaynes_cummings import (
    BETA_SLACK,
    BetaPair,
    beta1_degenerate_series,
    beta_arrays,
    jc_maps,
    lambda_jc_choi,
)

from conftest import density_operators, qubit_params

GAMMA_GRID = [0.0, 0.1, 0.5, 1.0, 2.0 - 1e-6, 2.0, 2.0 + 1e-6, 5.0, 20.0, 50.0]


class TestAdc:
    def test_identity_at_unit_transmission(self):
        rho = DensityOperator(np.array([[0.3, 0.1 + 0.2j], [0.1 - 0.2j, 0.7]]))
        assert trace_distance(apply_channel(adc_channel(1.0), rho), rho) < 1e-14

    def test_full_damping(self):
        rho = DensityOperator(np.array([[0.3, 0.1 + 0.2j], [0.1 - 0.2j, 0.7]]))
        out = apply_channel(adc_channel(0.0), rho)
        assert trace_distance(out, DensityOperator.basis(2, 0)) < 1e-14

    def test_out_of_range(self):
        with pytest.raises(ConfigurationError):
            adc_channel(1.2)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        density_operators(),
    )
    def test_composition_property(self, eta1, eta2, rho):
        from nmcollide import compose

        combined = compose(adc_channel(eta1), adc_channel(eta2))
        direct = adc_channel(eta1 * eta2)
        assert trace_distance(apply_channel(combined, rho), apply_channel(direct, rho)) < 1e-12

    @given(st.floats(min_value=0.0, max_value=1.0), qubit_params())
    def test_action_on_parameters(self, eta, params):
        out = apply_channel(adc_channel(eta), params.to_density())
        assert abs(out.data[1, 1].real - eta**2 * params.p) < 1e-12
        assert abs(out.data[0, 1] - eta * params.r) < 1e-12


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
        sp = cubic_spectrum(0.0)
        assert abs(sp.alphas[0]) < 1e-12
        assert abs(sp.alphas[1] - 2j) < 1e-12
        assert abs(sp.alphas[2] + 2j) < 1e-12
        assert np.allclose(sp.residues, [0.5, 0.25, 0.25], atol=1e-12)

    @pytest.mark.parametrize("gamma", GAMMA_GRID)
    def test_residues_sum_to_one(self, gamma):
        assert abs(sum(cubic_spectrum(gamma).residues) - 1.0) < 1e-10

    @pytest.mark.parametrize("gamma", GAMMA_GRID)
    def test_conjugate_pair_structure(self, gamma):
        sp = cubic_spectrum(gamma)
        assert abs(sp.alphas[1].conjugate() - sp.alphas[2]) < 1e-12
        assert abs(sp.residues[1].conjugate() - sp.residues[2]) < 1e-12
        assert abs(sp.alphas[0].imag) < 1e-12

    @pytest.mark.parametrize("gamma", GAMMA_GRID)
    def test_poles_are_stable(self, gamma):
        # all exponential rates must have nonpositive real part
        for a in cubic_spectrum(gamma).alphas:
            assert a.real < 1e-12

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 1.0, 2.0, 5.0, 20.0, 50.0])
    def test_cardano_route_reconciles(self, gamma):
        # the radical expressions and the numerical partial fractions must
        # produce the same population factor
        taus = np.linspace(0.0, 10.0, 201)
        a = cubic_spectrum(gamma).evaluate(taus)
        b = cubic_spectrum_cardano(gamma).evaluate(taus)
        assert np.max(np.abs(a - b)) < 1e-8

    def test_delta_radical_positive_everywhere(self):
        for gamma in np.linspace(0.0, 100.0, 401):
            assert 6 * gamma**4 - 39 * gamma**2 + 192 > 0


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
        pair = beta_pair(tau, gamma)  # raises on violation
        assert -1e-9 <= pair.beta2 <= 1.0 + 1e-9
        assert pair.beta1**2 <= pair.beta2 + 1e-9

    @pytest.mark.parametrize("gamma", GAMMA_GRID)
    def test_inequalities_on_dense_grid(self, gamma):
        taus = np.round(np.arange(0.0, 20.0 + 1e-9, 0.01), 10)
        b1 = beta1(taus, gamma)
        b2 = beta2(taus, gamma)
        assert np.all(b2 >= -1e-9) and np.all(b2 <= 1.0 + 1e-9)
        assert np.all(b1 * b1 <= b2 + 1e-9)

    def test_beta_pair_rejects_violation(self):
        with pytest.raises(InternalConsistencyError):
            BetaPair(tau=0.0, beta1=1.05, beta2=1.0, gamma_bar=1.0)


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
        assert np.all(b2 >= -BETA_SLACK) and np.all(b2 <= 1.0 + BETA_SLACK)
        assert np.all(b1 * b1 <= b2 + BETA_SLACK)

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
                pair = beta_pair(t, gamma)
                assert (x, y) == (pair.beta1, pair.beta2)

    def test_violation_names_first_bad_point(self, monkeypatch):
        import nmcollide.jaynes_cummings as jc

        real = jc.beta2
        monkeypatch.setattr(jc, "beta2", lambda t, g: real(t, g) - np.where(t >= 1.5, 2.0, 0.0))
        with pytest.raises(InternalConsistencyError, match="tau=1.5, gamma_bar=0.5"):
            beta_arrays(np.linspace(0.0, 3.0, 7), 0.5)

    def test_choi_stack_is_the_single_layout(self):
        taus = np.array([0.0, 0.7, 3.0])
        stack = jc_maps(taus, 1.3).choi()
        assert stack.shape == (3, 4, 4)
        for k, tau in enumerate(taus):
            assert np.array_equal(stack[k], lambda_jc_choi(tau, 1.3).data)


class TestJcMaps:
    """jc_maps writes the closed-form layout once; everything else reads it."""

    TAUS = np.linspace(0.0, 20.0, 81)

    @pytest.mark.parametrize("gamma", [0.0, 2.0, 75.0])
    def test_betas_are_bitwise_beta_pair(self, gamma):
        s = jc_maps(self.TAUS, gamma).superops
        for k, tau in enumerate(self.TAUS):
            pair = beta_pair(tau, gamma)
            assert s[k, 1, 1] == pair.beta1 and s[k, 2, 2] == pair.beta1
            assert s[k, 3, 3] == pair.beta2 and s[k, 0, 3] == 1.0 - pair.beta2
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
        rho = QubitStateParams(p=p, r=r).to_density()
        assert np.max(np.abs(stack.apply(rho) - hand)) <= 1e-15
        assert np.array_equal(stack.times, self.TAUS)

    def test_violation_names_first_bad_tau(self, monkeypatch):
        import nmcollide.jaynes_cummings as jc

        real = jc.beta2
        monkeypatch.setattr(jc, "beta2", lambda t, g: real(t, g) - np.where(t >= 1.5, 2.0, 0.0))
        with pytest.raises(InternalConsistencyError, match="tau=1.5, gamma_bar=0.5"):
            jc_maps(np.linspace(0.0, 3.0, 7), 0.5)

    def test_single_point_views_read_the_stack(self):
        stack = jc_maps([0.0, 0.9, 4.0], 1.5)
        params = QubitStateParams(p=0.6, r=0.25 + 0.2j)
        states = stack.apply(params.to_density())
        for k, tau in enumerate(stack.times):
            assert np.array_equal(lambda_jc_superop(tau, 1.5), stack.superops[k])
            assert np.array_equal(lambda_jc(tau, 1.5, params).data, states[k])


class TestLambdaJc:
    def test_zero_time_is_identity(self):
        params = QubitStateParams(p=0.4, r=0.2 + 0.1j)
        out = lambda_jc(0.0, 1.7, params)
        assert trace_distance(out, params.to_density()) < 1e-14

    def test_full_rabi_transfer(self):
        out = lambda_jc(np.pi / 2, 0.0, QubitStateParams(p=1.0, r=0.0))
        assert trace_distance(out, DensityOperator.basis(2, 0)) < 1e-12

    @given(qubit_params(), st.floats(min_value=0.0, max_value=10.0),
           st.floats(min_value=0.0, max_value=10.0))
    def test_matrix_form_equals_channel_action(self, params, tau, gamma):
        direct = lambda_jc(tau, gamma, params)
        via_channel = apply_channel(lambda_jc_channel(tau, gamma), params.to_density())
        assert trace_distance(direct, via_channel) < 1e-10

    def test_channel_at_zero_time_is_identity(self):
        ch = lambda_jc_channel(0.0, 3.0)
        rho = DensityOperator(np.array([[0.2, 0.1j], [-0.1j, 0.8]]))
        assert trace_distance(apply_channel(ch, rho), rho) < 1e-12

    def test_zero_rate_channel_is_amplitude_damping(self):
        # at zero memory loss the map is pure damping with transmission cos(tau),
        # up to the sign of the coherence factor
        for tau in [0.3, 1.0, 2.0]:
            ch = lambda_jc_channel(tau, 0.0)
            eta = abs(np.cos(tau))
            rho = DensityOperator(np.array([[0.4, 0.25], [0.25, 0.6]]))
            out = apply_channel(ch, rho)
            ref = apply_channel(adc_channel(eta), rho)
            assert abs(out.data[1, 1] - ref.data[1, 1]) < 1e-12
            assert abs(abs(out.data[0, 1]) - abs(ref.data[0, 1])) < 1e-12

    @pytest.mark.parametrize("gamma", [0.0, 1.0, 5.0])
    def test_channel_family_is_cp(self, gamma):
        for tau in np.linspace(0.0, 20.0, 101):
            assert choi_of(lambda_jc_channel(tau, gamma)).min_eigenvalue() >= -1e-10

    def test_three_operator_closed_form(self):
        # documented identity: {diag(1, b1), sqrt(b2 - b1^2)|1><1|, sqrt(1 - b2)|0><1|}
        for tau, gamma in [(0.7, 1.0), (2.0, 0.5), (1.3, 5.0)]:
            pair = beta_pair(tau, gamma)
            k1 = np.diag([1.0, pair.beta1]).astype(complex)
            k2 = np.sqrt(max(pair.beta2 - pair.beta1**2, 0.0)) * np.diag([0.0, 1.0]).astype(complex)
            k3 = np.zeros((2, 2), dtype=complex)
            k3[0, 1] = np.sqrt(max(1.0 - pair.beta2, 0.0))
            hand = KrausChannel((k1, k2, k3), dim_in=2, dim_out=2)
            rho = DensityOperator(np.array([[0.35, 0.2 - 0.15j], [0.2 + 0.15j, 0.65]]))
            a = apply_channel(hand, rho)
            b = apply_channel(lambda_jc_channel(tau, gamma), rho)
            assert trace_distance(a, b) < 1e-12

    def test_superop_matches_choi(self):
        from nmcollide.continuum import choi_from_superop

        for tau, gamma in [(0.5, 0.0), (1.5, 2.0)]:
            s = lambda_jc_superop(tau, gamma)
            c1 = choi_from_superop(s, 2).data
            c2 = lambda_jc_choi(tau, gamma).data
            assert np.max(np.abs(c1 - c2)) < 1e-12

    def test_corrupted_pair_raises_in_channel_construction(self):
        from nmcollide.quantum import kraus_from_choi
        from nmcollide.verify import corrupted_beta_maps

        # (beta1, beta2) = (1.05, 1.0): the map at tau = 0 with beta1 inflated by 5%
        with pytest.raises(InternalConsistencyError):
            kraus_from_choi(corrupted_beta_maps(1.0, [0.0], inflation=1.05)[0].choi())

    def test_state_params_validation(self):
        with pytest.raises(ConfigurationError):
            QubitStateParams(p=0.5, r=0.6)
        with pytest.raises(ConfigurationError):
            QubitStateParams(p=1.2, r=0.0)
