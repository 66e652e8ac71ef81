import json

import numpy as np
import pytest

from nmcollide import (
    BathSpec,
    CollisionConfig,
    ConfigurationError,
    ConvergenceReport,
    DensityOperator,
    KrausChannel,
    ValidationError,
    beta1,
    beta2,
    beta_laplace,
    brute_force_chain,
    calibrated_swap_probability,
    certify_cpt,
    convergence_study,
    inverse_laplace,
    jc_maps,
    discrete_maps,
    random_density_operator,
    trace_distance,
)
from nmcollide.verify import corrupted_beta_maps

PROBE = DensityOperator(np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]]))


class TestInverseLaplace:
    def test_unit_step(self):
        assert abs(inverse_laplace(lambda s: 1 / s, 3.0) - 1.0) < 1e-10

    def test_exponential(self):
        assert abs(inverse_laplace(lambda s: 1 / (s + 1), 2.0) - np.exp(-2)) < 1e-10

    def test_cosine(self):
        assert abs(inverse_laplace(lambda s: s / (s * s + 1), np.pi) - (-1.0)) < 1e-10

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0, 5.0])
    def test_oracle_confirms_coherence_factor(self, gamma):
        # central defense against transcription errors in the closed form
        for tau in np.arange(0.1, 10.01, 0.7):
            oracle = inverse_laplace(lambda s: beta_laplace(1, s, gamma), float(tau))
            assert abs(oracle - beta1(float(tau), gamma)) < 1e-8

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0, 5.0])
    def test_oracle_confirms_population_factor(self, gamma):
        for tau in np.arange(0.1, 10.01, 0.7):
            oracle = inverse_laplace(lambda s: beta_laplace(2, s, gamma), float(tau))
            assert abs(oracle - beta2(float(tau), gamma)) < 1e-8

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ConfigurationError):
            inverse_laplace(lambda s: 1 / s, 0.0)

    def test_divergence_reported(self):
        from nmcollide import DivergenceError

        with pytest.raises(DivergenceError):
            inverse_laplace(lambda s: float("inf"), 1.0)


class TestBruteForceChain:
    @pytest.mark.parametrize("p_s", [0.0, 0.3, 1.0])
    def test_matches_sliding_window_pure(self, jc_h, p_s):
        cfg = CollisionConfig(2, 2, jc_h, t_c=0.4, p_s=p_s, n_steps=4,
                              bath=BathSpec(kind="pure_ground"))
        a = discrete_maps(cfg).apply(PROBE)
        b = brute_force_chain(cfg, PROBE)
        assert max(trace_distance(x, y) for x, y in zip(a, b.states)) < 1e-12

    @pytest.mark.parametrize("p_s", [0.0, 0.3, 0.9, 1.0])
    @pytest.mark.parametrize("beta", [0.0, 0.7, 3.0])
    def test_matches_sliding_window_thermal(self, jc_h, beta, p_s):
        # the engine's mixed ancillas against the oracle's purified pairs
        bath = BathSpec(kind="thermal", energies=(0.0, 1.0), inverse_temperature=beta)
        cfg = CollisionConfig(2, 2, jc_h, t_c=0.4, p_s=p_s, n_steps=3, bath=bath)
        a = discrete_maps(cfg).apply(PROBE)
        b = brute_force_chain(cfg, PROBE)
        assert max(trace_distance(x, y) for x, y in zip(a, b.states)) < 1e-12

    def test_zero_collision_time_freezes_state(self, jc_h):
        cfg = CollisionConfig(2, 2, jc_h, t_c=0.0, p_s=0.5, n_steps=3,
                              bath=BathSpec(kind="pure_ground"))
        traj = brute_force_chain(cfg, PROBE)
        for state in traj.states:
            assert trace_distance(state, PROBE) < 1e-14

    def test_step_cap(self, jc_h):
        cfg = CollisionConfig(2, 2, jc_h, t_c=0.1, p_s=0.5, n_steps=9,
                              bath=BathSpec(kind="pure_ground"))
        with pytest.raises(ConfigurationError):
            brute_force_chain(cfg, PROBE, n_max=6)


class TestCertify:
    def test_identity_family_passes(self):
        maps = [KrausChannel.identity(2) for _ in range(5)]
        report = certify_cpt(maps, 1e-9)
        assert report.verdict
        assert all(abs(e) < 1e-12 for e in report.min_choi_eigenvalue)
        assert all(d < 1e-12 for d in report.max_trace_defect)

    def test_closed_form_family_passes(self):
        channels = [
            m.to_kraus()
            for gamma in (0.0, 1.0, 5.0)
            for m in jc_maps(np.linspace(0.0, 10.0, 26), gamma)
        ]
        assert certify_cpt(channels, 1e-9).verdict

    def test_corrupted_family_flagged(self):
        maps = corrupted_beta_maps(1.0, np.linspace(0.0, 5.0, 11))
        report = certify_cpt(maps, 1e-9)
        assert not report.verdict
        assert min(report.min_choi_eigenvalue) < -1e-3

    def test_corrupted_choi_stack_flagged(self):
        maps = corrupted_beta_maps(1.0, np.linspace(0.0, 5.0, 11))
        stack = np.stack([m.choi().data for m in maps])
        report = certify_cpt(stack, 1e-9)
        assert not report.verdict
        assert min(report.min_choi_eigenvalue) < -1e-3

    def test_non_hermitian_stack_rejected(self):
        stack = np.stack([np.eye(4, dtype=complex)] * 3)
        stack[1, 0, 3] = 1e-6
        with pytest.raises(ValidationError):
            certify_cpt(stack, 1e-9)

    def test_stack_agrees_with_channel_family(self):
        taus = np.linspace(0.0, 10.0, 26)
        from_stack = certify_cpt(jc_maps(taus, 2.0).choi(), 1e-9)
        from_channels = certify_cpt([jc_maps(t, 2.0)[0].to_kraus() for t in taus], 1e-9)
        assert from_stack.verdict and from_channels.verdict
        assert np.allclose(from_stack.min_choi_eigenvalue, from_channels.min_choi_eigenvalue,
                           rtol=0.0, atol=1e-14)
        assert max(from_stack.max_trace_defect) == 0.0

    def test_empty_family_rejected(self):
        with pytest.raises(ConfigurationError):
            certify_cpt([], 1e-9)

    def test_report_serialization(self):
        report = certify_cpt([KrausChannel.identity(2)], 1e-9, gamma_bar=0.5)
        payload = json.loads(report.to_json())
        assert set(payload) == {
            "grid", "gamma_bar", "min_choi_eigenvalue", "max_trace_defect",
            "tolerance", "verdict",
        }
        assert payload["verdict"] is True
        assert payload["gamma_bar"] == 0.5


class TestConvergenceStudy:
    def test_zero_rate_limit_is_exact(self):
        # with perfect swapping the discrete protocol reproduces the coherent
        # single-ancilla evolution exactly at every step, so the error sits at
        # the rounding floor for any collision time
        report = convergence_study(0.0, 2.0, [0.1, 0.05, 0.025])
        assert max(report.errors) < 1e-12

    def test_each_collision_time_is_one_window_loop(self, monkeypatch):
        import nmcollide
        import nmcollide.continuum as continuum

        calls, loop = [], continuum.propagate_maps

        def counting(*args):
            calls.append(args[-1])
            return loop(*args)

        monkeypatch.setattr(continuum, "propagate_maps", counting)
        convergence_study(1.0, 1.0, [0.1, 0.05, 0.025])
        assert calls == [10, 20, 40]  # one loop per collision time, over its n_steps
        assert not hasattr(nmcollide, "run_discrete")

    def test_single_point_has_no_order(self):
        report = convergence_study(1.0, 2.0, [0.1])
        assert report.estimated_order is None

    def test_calibration_endpoints(self):
        assert calibrated_swap_probability(0.0, 0.05) == 1.0
        assert calibrated_swap_probability(200.0, 0.5) < 1e-40

    def test_misaligned_collision_time_rejected(self):
        with pytest.raises(ConfigurationError):
            convergence_study(1.0, 1.0, [0.3])

    def test_report_validation_and_json(self):
        with pytest.raises(ConfigurationError):
            ConvergenceReport(t_c_values=(0.1, 0.2), errors=(0.0, 0.0), estimated_order=None)
        report = ConvergenceReport(t_c_values=(0.2, 0.1), errors=(0.2, 0.1), estimated_order=1.0)
        payload = json.loads(report.to_json())
        assert payload["t_c_values"] == [0.2, 0.1]


class TestRandomStates:
    def test_reproducible_and_valid(self):
        a = random_density_operator(3, np.random.default_rng(11))
        b = random_density_operator(3, np.random.default_rng(11))
        assert np.array_equal(a.data, b.data)
        assert abs(np.trace(a.data) - 1.0) < 1e-12
