import numpy as np
import pytest
from hypothesis import given

from nmcollide import (
    DensityOperator,
    HermitianOperator,
    KrausChannel,
    MapStack,
    ValidationError,
    choi_of,
    kraus_from_choi,
    trace_distance,
    unitary_evolution,
)

from conftest import density_operators, kraus_action, kraus_channels


def ketbra(dim, i):
    return DensityOperator.basis(dim, i)


class TestDensityOperator:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            DensityOperator(np.array([[0.5, 0.3], [0.1, 0.5]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValidationError):
            DensityOperator(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValidationError):
            DensityOperator(np.diag([1.5, -0.5]))

    def test_immutable(self):
        rho = DensityOperator.maximally_mixed(2)
        with pytest.raises(ValueError):
            rho.data[0, 0] = 2.0


def _map(ch: KrausChannel) -> MapStack:
    """The channel as a one-map stack: sum_k K_k (x) K_k^* on row-major vectorized density
    matrices."""
    return MapStack(np.zeros(1), sum(np.kron(k, k.conj()) for k in ch.kraus)[None], ch.dim)


IDENTITY = KrausChannel((np.eye(2),))


class TestChannels:
    def test_identity_channel(self):
        rho = DensityOperator(np.array([[0.25, 0.1j], [-0.1j, 0.75]]))
        out = _map(IDENTITY).apply(rho)[0]
        assert np.allclose(out, rho.data)

    def test_adc_at_zero_kills_everything(self):
        full_damping = KrausChannel((np.diag([1.0, 0.0]), np.array([[0.0, 1.0], [0.0, 0.0]])))
        rho = DensityOperator(np.array([[0.3, 0.2], [0.2, 0.7]]))
        out = _map(full_damping).apply(rho)[0]
        assert np.allclose(out, ketbra(2, 0).data, atol=1e-12)

    def test_incomplete_kraus_rejected(self):
        with pytest.raises(ValidationError):
            KrausChannel((np.diag([1.0, 0.5]),))

    def test_zero_size_operator_rejected(self):
        # refused before the trace-defect reduction, which numpy cannot run on an empty array
        with pytest.raises(ValidationError, match="nonempty"):
            KrausChannel((np.zeros((0, 0)),))

    def test_dim_is_read_from_the_operators(self):
        assert IDENTITY.dim == 2
        assert KrausChannel((np.eye(3),)).dim == 3

    @pytest.mark.parametrize("ops", [
        pytest.param((np.ones((2, 3)),), id="non-square"),
        pytest.param((np.eye(2) / np.sqrt(2), np.eye(3) / np.sqrt(2)), id="mixed-sizes"),
    ])
    def test_operators_must_be_square_of_one_size(self, ops):
        with pytest.raises(ValidationError, match="shape"):
            KrausChannel(ops)

    @given(kraus_channels(dim=2, n_ops=3), density_operators(dim=2))
    def test_channel_output_is_valid_state(self, ch, rho):
        out = _map(ch).apply(rho)[0]
        assert np.max(np.abs(out - kraus_action(ch, rho))) < 1e-12
        assert abs(np.trace(DensityOperator(out).data) - 1.0) < 1e-12  # validates all invariants

    @given(kraus_channels(dim=2), kraus_channels(dim=2))
    def test_composition_choi_consistency(self, a, b):
        # b first, then a: the Kraus products against the product of the superoperators
        composed = KrausChannel(tuple(ka @ kb for ka in a.kraus for kb in b.kraus))
        direct = choi_of(composed)
        product = _map(a).superops @ _map(b).superops
        via_superop = MapStack(np.zeros(1), product, 2).choi()[0]
        assert np.max(np.abs(direct - via_superop)) < 1e-10


class TestChoi:
    def test_identity_choi_spectrum(self):
        choi = choi_of(IDENTITY)
        assert choi.shape == (4, 4)
        evals = np.sort(np.linalg.eigvalsh(choi))
        assert np.allclose(evals, [0, 0, 0, 2], atol=1e-12)

    def test_depolarizing_choi(self):
        paulis = [
            np.eye(2),
            np.array([[0, 1], [1, 0]]),
            np.array([[0, -1j], [1j, 0]]),
            np.diag([1, -1]),
        ]
        ch = KrausChannel(tuple(0.5 * p for p in paulis))
        choi = choi_of(ch)
        assert np.allclose(choi, np.eye(4) / 2, atol=1e-12)
        assert abs(np.trace(choi).real - 2.0) < 1e-10

    def test_adc_family_is_cp(self):
        for eta in np.linspace(0.0, 1.0, 21):
            k0 = np.diag([1.0, eta])
            k1 = np.array([[0.0, np.sqrt(1.0 - eta * eta)], [0.0, 0.0]])
            damping = KrausChannel((k0, k1))
            assert np.linalg.eigvalsh(choi_of(damping))[0] >= -1e-12

    @given(kraus_channels(dim=2, n_ops=3))
    def test_kraus_choi_round_trip(self, ch):
        rebuilt = kraus_from_choi(choi_of(ch))
        rho = DensityOperator(np.array([[0.3, 0.1 - 0.2j], [0.1 + 0.2j, 0.7]]))
        assert trace_distance(kraus_action(ch, rho), kraus_action(rebuilt, rho)) < 1e-10

    def test_choi_requires_hermitian(self):
        # eigh reads one triangle only: without the check this matrix is taken for the identity
        with pytest.raises(ValidationError, match="not Hermitian"):
            kraus_from_choi(np.triu(np.ones((4, 4))))

    @pytest.mark.parametrize("choi", [np.eye(3), np.ones((4, 2)), np.ones((2, 4, 4)),
                                      np.zeros((0, 0))], ids=["3x3", "4x2", "stack", "empty"])
    def test_choi_must_be_square_of_a_square_size(self, choi):
        with pytest.raises(ValidationError, match="shape"):
            kraus_from_choi(choi)


class TestTraceDistance:
    def test_identical_states(self):
        rho = DensityOperator.maximally_mixed(2)
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_states(self):
        assert abs(trace_distance(ketbra(2, 0), ketbra(2, 1)) - 1.0) < 1e-12

    def test_pure_vs_mixed(self):
        d = trace_distance(ketbra(2, 0), DensityOperator.maximally_mixed(2))
        assert abs(d - 0.5) < 1e-12

    @given(density_operators(), density_operators())
    def test_symmetry_and_range(self, a, b):
        d = trace_distance(a, b)
        assert 0.0 <= d <= 1.0 + 1e-12
        assert abs(d - trace_distance(b, a)) < 1e-12


class TestOperators:
    def test_unitary_evolution_matches_expm(self):
        import scipy.linalg

        h = HermitianOperator(np.array([[1.0, 0.5 - 0.25j], [0.5 + 0.25j, -0.5]]))
        u = unitary_evolution(h, 0.7)
        assert np.max(np.abs(u - scipy.linalg.expm(-1j * 0.7 * h.data))) < 1e-12

    def test_hermitian_rejects_asymmetric(self):
        with pytest.raises(ValidationError):
            HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_hermitian_rejects_zero_size(self):
        with pytest.raises(ValidationError, match="nonempty"):
            HermitianOperator(np.zeros((0, 0)))
