import dataclasses
import json

import numpy as np
import pytest

from nmcollide import (
    BathSpec,
    CollisionConfig,
    ConfigurationError,
    ConvergenceReport,
    CptReport,
    DensityOperator,
    KrausChannel,
    MapStack,
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
    kraus_from_choi,
    trace_distance,
)
from nmcollide import collisions, jaynes_cummings, quantum, verify
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
        from nmcollide import InternalConsistencyError

        with pytest.raises(InternalConsistencyError, match="diverged"):
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

    def test_calls_nothing_of_the_engine(self, jc_h, monkeypatch):
        # an oracle is never rebuilt on the code it checks: with the engine's and the closed
        # form's entry points made to raise, the chain still reproduces the trajectories the
        # engine gave before, and discrete_jc_betas its beta1 and beta2
        cfgs = [CollisionConfig(2, 2, jc_h, t_c=0.4, p_s=0.6, n_steps=4,
                                bath=BathSpec(kind="pure_ground")),
                CollisionConfig(2, 2, jc_h, t_c=0.4, p_s=0.6, n_steps=3,
                                bath=BathSpec(kind="thermal", energies=(0.0, 1.0),
                                              inverse_temperature=0.7))]
        stacks = [discrete_maps(cfg) for cfg in cfgs]
        stored = [stack.apply(PROBE) for stack in stacks]

        def refuse(*args, **kwargs):
            raise RuntimeError("the engine was called")

        for module in (quantum, collisions, jaynes_cummings, verify):
            for name in ("propagate_maps", "protocol_step", "generator_step", "_in_window",
                         "_window_coordinates", "discrete_maps", "_hermitian_units", "jc_maps",
                         "beta1", "beta2", "beta_arrays"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        with pytest.raises(RuntimeError, match="engine"):  # the patches reach the engine's calls
            discrete_maps(cfgs[0])
        for cfg, states in zip(cfgs, stored):
            traj = brute_force_chain(cfg, PROBE)
            assert max(trace_distance(x, y) for x, y in zip(states, traj.states)) < 1e-12
        b1, b2 = verify.discrete_jc_betas(0.4, 0.6, 4)
        assert np.max(np.abs(stacks[0].superops[:, 1, 1] - b1)) < 1e-13
        assert np.max(np.abs(stacks[0].superops[:, 3, 3] - b2)) < 1e-13

    def test_step_cap(self, jc_h):
        cfg = CollisionConfig(2, 2, jc_h, t_c=0.1, p_s=0.5, n_steps=9,
                              bath=BathSpec(kind="pure_ground"))
        with pytest.raises(ConfigurationError):
            brute_force_chain(cfg, PROBE, n_max=6)


def pure_run(jc_h, t_c, p_s, n_steps):
    return discrete_maps(CollisionConfig(2, 2, jc_h, t_c=t_c, p_s=p_s, n_steps=n_steps,
                                         bath=BathSpec(kind="pure_ground"))).superops


class TestDiscreteJcBetas:
    """The protocol's own closed form, from hand-written 2x2 and 3x3 transfer matrices."""

    @pytest.mark.parametrize("gamma_bar", [0.5, 1.5, 3.0])
    @pytest.mark.parametrize("t_c", [0.01, 0.05])
    def test_matches_discrete_maps_at_20000_steps(self, jc_h, t_c, gamma_bar):
        # largest deviation over the six cases 1.9e-14, at t_c = 0.01 and gamma_bar = 0.5
        p_s = calibrated_swap_probability(gamma_bar, t_c)
        superops = pure_run(jc_h, t_c, p_s, 20000)
        b1, b2 = verify.discrete_jc_betas(t_c, p_s, 20000)
        assert b1.shape == b2.shape == (20001,)
        assert np.max(np.abs(superops[:, 1, 1] - b1)) < 1e-13
        assert np.max(np.abs(superops[:, 2, 2] - b1)) < 1e-13
        assert np.max(np.abs(superops[:, 3, 3] - b2)) < 1e-13
        assert np.max(np.abs(superops[:, 0, 3] - (1.0 - b2))) < 1e-13

    @pytest.mark.parametrize("t_c", [0.01, 0.05])
    def test_no_reset_is_the_cosine(self, jc_h, t_c):
        # at p_s = 1 the system stays coupled to one ancilla: beta1 = cos(n t_c) and
        # beta2 = cos^2(n t_c). Both loops drift in phase linearly in n; at 20000 steps and
        # t_c = 0.01 beta1 is off by 2.3e-12 from the engine (2.5e-12 when it stepped one
        # product at a time) and by 2.8e-13 from this oracle's own loop; at t_c = 0.05 the
        # largest is 1.7e-12 (engine) and 1.5e-12 (oracle, beta2)
        superops = pure_run(jc_h, t_c, 1.0, 20000)
        cos = np.cos(np.arange(20001) * t_c)
        for b1, b2 in (verify.discrete_jc_betas(t_c, 1.0, 20000),
                       (superops[:, 1, 1], superops[:, 3, 3])):
            assert np.max(np.abs(b1 - cos)) < 1e-11
            assert np.max(np.abs(b2 - cos ** 2)) < 1e-11

    def test_zero_steps_is_the_identity(self):
        b1, b2 = verify.discrete_jc_betas(0.3, 0.5, 0)
        assert b1.tolist() == b2.tolist() == [1.0]

    @pytest.mark.parametrize("t_c, p_s, n_steps", [
        (-0.1, 0.5, 3), (float("nan"), 0.5, 3), (0.1, 1.5, 3), (0.1, float("nan"), 3),
        (0.1, 0.5, -1),
    ])
    def test_rejects_bad_parameters(self, t_c, p_s, n_steps):
        with pytest.raises(ConfigurationError):
            verify.discrete_jc_betas(t_c, p_s, n_steps)


def kraus_stack(channels) -> MapStack:
    """A Kraus family as the stack of its superoperators sum_k K (x) K^*, one map per channel."""
    superops = np.stack([sum(np.kron(k, k.conj()) for k in ch.kraus) for ch in channels])
    return MapStack(np.arange(float(len(channels))), superops)


class TestCertify:
    def test_identity_family_passes(self):
        maps = MapStack(np.arange(5.0), np.stack([np.eye(4, dtype=complex)] * 5))
        report = certify_cpt(maps, 1e-9)
        assert report.verdict
        assert all(abs(e) < 1e-12 for e in report.min_choi_eigenvalue)
        assert all(d < 1e-12 for d in report.max_trace_defect)

    def test_closed_form_family_passes(self):
        channels = [
            kraus_from_choi(choi)
            for gamma in (0.0, 1.0, 5.0)
            for choi in jc_maps(np.linspace(0.0, 10.0, 26), gamma).choi()
        ]
        assert certify_cpt(kraus_stack(channels), 1e-9).verdict

    def test_corrupted_family_flagged(self):
        maps = corrupted_beta_maps(1.0, np.linspace(0.0, 5.0, 11))
        report = certify_cpt(maps, 1e-9)
        assert not report.verdict
        assert min(report.min_choi_eigenvalue) < -1e-3

    def test_stack_agrees_with_channel_family(self):
        # the Kraus round trip, Choi -> Kraus -> superoperator, is an independent route to the maps
        taus = np.linspace(0.0, 10.0, 26)
        from_stack = certify_cpt(jc_maps(taus, 2.0), 1e-9)
        from_channels = certify_cpt(
            kraus_stack([kraus_from_choi(jc_maps(t, 2.0).choi()[0]) for t in taus]), 1e-9)
        assert from_stack.verdict and from_channels.verdict
        assert np.allclose(from_stack.min_choi_eigenvalue, from_channels.min_choi_eigenvalue,
                           rtol=0.0, atol=1e-14)
        assert max(from_stack.max_trace_defect) == 0.0

    def test_map_stack_and_its_choi_array_give_identical_reports(self):
        # MapStack.choi() is Hermitian bit for bit, even for superoperators that are not
        # Hermiticity preserving, so certify_cpt needs no Hermiticity test
        rng = np.random.default_rng(7)
        superops = rng.normal(size=(5, 4, 4)) + 1j * rng.normal(size=(5, 4, 4))
        noise = MapStack(np.arange(5.0), superops)
        for maps, verdict in ((jc_maps(np.linspace(0.0, 10.0, 26), 2.0), True), (noise, False)):
            choi = maps.choi()
            assert np.array_equal(choi, choi.conj().transpose(0, 2, 1))
            report = certify_cpt(maps, 1e-9)
            for field in ("min_choi_eigenvalue", "max_trace_defect"):
                mine = getattr(report, field)
                assert isinstance(mine, np.ndarray) and not mine.flags.writeable
            assert np.array_equal(report.min_choi_eigenvalue,
                                  quantum.hermitian_spectra(choi)[:, 0])
            assert report.verdict is verdict

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_raises(self, bad):
        # eigvalsh alone would raise on a NaN but return NaN eigenvalues for an infinity
        maps = jc_maps(np.linspace(0.0, 5.0, 6), 1.0)
        superops = maps.superops.copy()
        superops[2, 0, 0] = bad
        with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
            certify_cpt(MapStack(maps.times, superops), 1e-9)

    def test_empty_family_rejected(self):
        with pytest.raises(ConfigurationError):
            certify_cpt(MapStack(np.zeros(0), np.zeros((0, 4, 4), dtype=complex)), 1e-9)

    def test_report_serialization(self):
        report = certify_cpt(kraus_stack([KrausChannel((np.eye(2),))]), 1e-9)
        payload = json.loads(json.dumps(report.summary([0.25])))
        assert set(payload) == {"min_choi_eigenvalue", "max_trace_defect", "tolerance", "verdict"}
        assert payload["verdict"] is True
        assert payload["min_choi_eigenvalue"]["tau"] == payload["max_trace_defect"]["tau"] == 0.25

    def test_verdict_is_read_from_the_arrays_and_the_tolerance(self):
        # the closed form's rounding (Choi eigenvalues down to -1.1e-16 at gamma_bar = 0) fails a
        # tolerance of 0 and passes one of 1e-9; a trace defect of 1e-6 fails both
        taus = np.linspace(0.0, 20.0, 201)
        report = certify_cpt(jc_maps(taus, 0.0), 1e-9)
        assert isinstance(CptReport.verdict, property) and CptReport.verdict.fset is None
        assert "verdict" not in {field.name for field in dataclasses.fields(CptReport)}
        assert report.verdict is True
        assert dataclasses.replace(report, tolerance=0.0).verdict is False
        assert dataclasses.replace(report, tolerance=1e-9).verdict is True
        inflated = MapStack(taus, (1.0 + 1e-6) * jc_maps(taus, 0.0).superops)
        assert certify_cpt(inflated, 1e-9).verdict is False
        assert dataclasses.replace(certify_cpt(inflated, 1e-9), tolerance=1e-5).verdict is True

    def test_worst_point_does_not_move_with_rounding(self):
        # at gamma_bar = 0 every map's Choi minimum is 0 up to ~1e-16: the summary names the first
        # tau within the tolerance of the worst value, which last-bit changes of the maps leave
        # where it is, and keeps the exact worst value
        taus = np.linspace(0.0, 20.0, 201)
        maps = jc_maps(taus, 0.0)
        written = certify_cpt(maps, 1e-9).summary(taus)
        rng = np.random.default_rng(0)
        for _ in range(5):
            ulps = 1.0 + rng.integers(-4, 5, size=maps.superops.shape) * 2.0**-53
            report = certify_cpt(MapStack(taus, maps.superops * ulps), 1e-9)
            summary = report.summary(taus)
            for key, worst in (("min_choi_eigenvalue", report.min_choi_eigenvalue.min()),
                               ("max_trace_defect", report.max_trace_defect.max())):
                assert summary[key]["tau"] == written[key]["tau"] == 0.0
                assert summary[key]["value"] == worst

    def test_worst_point_is_the_first_within_the_tolerance(self):
        report = CptReport(np.array([0.0, -2e-9, -3e-9, -5e-9]), np.array([1e-9, 4e-9, 3e-9, 0.0]),
                           2.5e-9)
        summary = report.summary([0.0, 1.0, 2.0, 3.0])
        assert summary["min_choi_eigenvalue"] == {"value": -5e-9, "tau": 2.0}
        assert summary["max_trace_defect"] == {"value": 4e-9, "tau": 1.0}
        summary = dataclasses.replace(report, tolerance=0.0).summary([0.0, 1.0, 2.0, 3.0])
        assert summary["min_choi_eigenvalue"]["tau"] == 3.0

    def test_probe_trace_defect_reads_every_sixth_of_101_maps(self):
        maps = jc_maps(np.linspace(0.0, 5.0, 101), 1.0)  # maps 0, 6, ..., 96: 101 // 16 = 6
        probes = np.array([PROBE.data, DensityOperator.basis(2, 1).data])
        assert verify.probe_trace_defect(maps, probes) <= 1e-15
        assert verify.probe_trace_defect(maps, probes[:0]) == 0.0
        maps.superops[7, 0, 0] *= 1.5  # not sampled
        assert verify.probe_trace_defect(maps, probes) <= 1e-15
        # Tr L(rho) = 1 + 0.5 rho_00: 0.35 on PROBE, 0 on |1><1|
        maps.superops[96, 0, 0] *= 1.5
        assert abs(verify.probe_trace_defect(maps, probes) - 0.35) <= 1e-15
        traces = np.trace(maps[96].apply(PROBE.data), axis1=1, axis2=2).real
        assert abs(verify.probe_trace_defect(maps, probes[:1]) - abs(traces[0] - 1.0)) <= 1e-15


def dense_certificate(maps: MapStack) -> tuple:
    """The route certify_cpt replaces: every Choi matrix built (MapStack.choi), its spectra
    solved whole by hermitian_spectra, and its output marginal contracted by einsum."""
    choi, n, d = maps.choi(), len(maps), maps.dim
    marginal = np.einsum("niaja->nij", choi.reshape(n, d, d, d, d))
    return (quantum.hermitian_spectra(choi)[:, 0],
            np.max(np.abs(marginal - np.eye(d)), axis=(1, 2)))


def random_kraus_maps(d: int, n: int, seed: int) -> MapStack:
    """n channels of three Kraus operators each, read off random isometries: no zero pattern
    is shared, so each Choi matrix is one dense d^2 x d^2 block."""
    rng = np.random.default_rng(seed)
    isometries = np.linalg.qr(rng.normal(size=(n, 3 * d, d))
                              + 1j * rng.normal(size=(n, 3 * d, d)))[0]
    kraus = isometries.reshape(n, 3, d, d)
    superops = np.einsum("nkab,nkcd->nacbd", kraus, kraus.conj()).reshape(n, d * d, d * d)
    return MapStack(np.arange(float(n)), superops)


ENGINE_WEIGHTS = {"pure": (1.0, 0.0), "thermal": (0.731, 0.269)}
CERTIFIED_STACKS = ([f"jc_maps-{g:g}" for g in (0.0, 0.5, 2.0, 50.0, 1e6)]
                    + [f"{route}-{bath}" for route in ("lambda_embedding", "discrete_maps")
                       for bath in ENGINE_WEIGHTS]
                    + ["corrupted", "kraus-2", "kraus-3"])


def certified_stack(name: str) -> MapStack:
    """The stack that a CERTIFIED_STACKS name stands for: closed-form maps at one gamma_bar, the
    engine's two routes for either bath, the negative control, and dense Kraus families of
    qubits and qutrits."""
    kind, _, arg = name.partition("-")
    h = jaynes_cummings.jc_hamiltonian()
    if kind == "jc_maps":
        return jc_maps(np.linspace(0.0, 20.0, 401), float(arg))
    if kind == "lambda_embedding":
        return collisions.lambda_embedding(h, ENGINE_WEIGHTS[arg], 1.5,
                                           collisions.TimeGrid(t_max=5.0, n_points=401))
    if kind == "discrete_maps":
        bath = (BathSpec(kind="pure_ground") if arg == "pure"
                else BathSpec(kind="thermal", weights=ENGINE_WEIGHTS[arg]))
        return discrete_maps(CollisionConfig(2, 2, h, t_c=0.0125, p_s=0.98, n_steps=400,
                                             bath=bath))
    if kind == "corrupted":
        return corrupted_beta_maps(1.0, np.linspace(0.0, 5.0, 101))
    return random_kraus_maps(int(arg), 200, int(arg))


class TestCertifyWithoutChoi:
    """certify_cpt gathers only the exact blocks of the Choi matrices from the superoperators,
    and its reports equal the dense route through MapStack.choi bit for bit."""

    @pytest.mark.parametrize("name", CERTIFIED_STACKS)
    def test_matches_the_dense_route_bit_for_bit(self, name):
        maps = certified_stack(name)
        report = certify_cpt(maps, 1e-9)
        for mine, dense in zip((report.min_choi_eigenvalue, report.max_trace_defect),
                               dense_certificate(maps)):
            assert mine.dtype == dense.dtype == np.float64
            assert np.array_equal(mine.view(np.uint64), dense.view(np.uint64))
        assert report.verdict is (name != "corrupted")

    def test_builds_no_choi_stack(self, monkeypatch):
        def forbidden(self):
            raise AssertionError("certify_cpt built a Choi stack")

        monkeypatch.setattr(MapStack, "choi", forbidden)
        assert certify_cpt(jc_maps(np.linspace(0.0, 5.0, 11), 1.0), 1e-9).verdict

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_entry_outside_every_block_raises(self, bad):
        # S[1, 2] is 0 in every closed-form map, so it lies in no block of their Choi matrices
        maps = jc_maps(np.linspace(0.0, 5.0, 6), 1.0)
        superops = maps.superops.copy()
        superops[3, 1, 2] = bad
        with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
            certify_cpt(MapStack(maps.times, superops), 1e-9)


class TestConvergenceStudy:
    def test_zero_rate_limit_is_exact(self):
        # with perfect swapping the discrete protocol reproduces the coherent
        # single-ancilla evolution exactly at every step, so the error sits at
        # the rounding floor for any collision time
        report = convergence_study(0.0, 2.0, [0.1, 0.05, 0.025])
        assert max(report.errors) < 1e-12

    def test_each_collision_time_is_one_window_loop(self, monkeypatch):
        import nmcollide

        calls, loop = [], collisions.propagate_maps

        def counting(*args):
            calls.append(args[-1])
            return loop(*args)

        monkeypatch.setattr(collisions, "propagate_maps", counting)
        convergence_study(1.0, 1.0, [0.1, 0.05, 0.025])
        assert calls == [10, 20, 40]  # one loop per collision time, over its n_steps
        assert not hasattr(nmcollide, "run_discrete")

    def test_probe_distances_validate_the_protocol_states_alone(self):
        taus = np.linspace(0.0, 2.0, 5)
        maps = jc_maps(taus, 1.0)
        superops = maps.superops.copy()
        superops[:, [1, 2], [1, 2]] *= 2.0  # doubled coherences make the probe's images indefinite
        corrupted, probe = MapStack(taus, superops), verify._PROBE
        distances = verify.probe_distances(corrupted, maps)
        expected = [trace_distance(a, b) for a, b in zip(corrupted.apply(probe), maps.apply(probe))]
        assert np.allclose(distances, expected, rtol=0.0, atol=1e-15)
        with pytest.raises(ValidationError):
            verify.probe_distances(maps, corrupted)

    def test_single_point_has_no_order(self):
        report = convergence_study(1.0, 2.0, [0.1])
        assert report.estimated_order is None

    def test_calibration_endpoints(self):
        assert calibrated_swap_probability(0.0, 0.05) == 1.0
        assert calibrated_swap_probability(200.0, 0.5) < 1e-40

    def test_misaligned_collision_time_rejected(self):
        with pytest.raises(ConfigurationError):
            convergence_study(1.0, 1.0, [0.3])

    def test_estimated_order_is_the_log_log_fit(self):
        t_c_values, errors = (0.1, 0.05, 0.025), (9.8e-4, 2.4e-4, 6.1e-5)
        report = ConvergenceReport(t_c_values, errors)
        expected = float(np.polyfit(np.log(t_c_values), np.log(errors), 1)[0])
        assert report.estimated_order == expected  # bit for bit
        assert isinstance(ConvergenceReport.estimated_order, property)
        assert ConvergenceReport.estimated_order.fset is None
        study = convergence_study(1.0, 1.0, [0.1, 0.05])
        assert study.estimated_order == float(
            np.polyfit(np.log(study.t_c_values), np.log(study.errors), 1)[0])

    def test_report_validation_and_json(self):
        with pytest.raises(ConfigurationError):
            ConvergenceReport(t_c_values=(0.1, 0.2), errors=(0.0, 0.0))
        report = ConvergenceReport(t_c_values=(0.2, 0.1), errors=(0.2, 0.1))
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["t_c_values"] == [0.2, 0.1]


def per_state_loop(dim, count, rng):
    """The states of count draws, one complex Gaussian square root G at a time."""
    states = []
    for _ in range(count):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        mat = g @ g.conj().T + 1e-6 * np.eye(dim)
        states.append(mat / np.trace(mat).real)
    return np.array(states).reshape(-1, dim, dim)


class TestRandomStates:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("count", [0, 1, 3, 5000])
    def test_stack_is_the_per_state_loop_bit_for_bit(self, dim, count):
        stack = verify.random_density_stack(dim, count, np.random.default_rng(7))
        expected = per_state_loop(dim, count, np.random.default_rng(7))
        assert stack.shape == (count, dim, dim) and not stack.flags.writeable
        assert stack.tobytes() == expected.tobytes()

    def test_reproducible_and_valid(self):
        a = verify.random_density_stack(3, 1, np.random.default_rng(11))[0]
        b = verify.random_density_stack(3, 1, np.random.default_rng(11))[0]
        assert np.array_equal(a, b)
        assert abs(np.trace(a) - 1.0) < 1e-12
