import mpmath
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
    hermitian_spectra,
    kraus_from_choi,
    trace_distance,
    trace_distances,
    unitary_evolution,
)
from nmcollide.quantum import _hermitian_units

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
    return MapStack(np.zeros(1), sum(np.kron(k, k.conj()) for k in ch.kraus)[None])


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
        via_superop = MapStack(np.zeros(1), product).choi()[0]
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
    def test_non_finite_entry_raises(self, bad):
        # eigvalsh alone would raise on a NaN but return NaN eigenvalues for an infinity
        a = np.tile(np.eye(2) / 2, (3, 1, 1)).astype(complex)
        b = a.copy()
        b[1, 1, 0] = bad
        with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
            trace_distances(a, b)


def _hermitian(rng, n, d):
    g = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    return g + g.conj().transpose(0, 2, 1)


def _block_diagonal(rng, n, sizes):
    """n random Hermitian matrices, each dense on the diagonal blocks of the given sizes."""
    stack = np.zeros((n, sum(sizes), sum(sizes)), dtype=complex)
    for k, s in zip(np.cumsum([0, *sizes]), sizes):
        stack[:, k:k + s, k:k + s] = _hermitian(rng, n, s)
    return stack


def _assert_matches_eigvalsh(stack):
    # eigvalsh is backward stable, off by a few d * eps * ||A||: it differs from itself by up to
    # ~1.5e-15 max|entry| between a 2x2 or 3x3 block-diagonal matrix and a permuted copy of it,
    # so the bound is 8 d eps max|entry| for each matrix
    got, ref = hermitian_spectra(stack), np.linalg.eigvalsh(stack)
    assert got.shape == ref.shape and np.all(np.diff(got, axis=-1) >= 0)
    d = stack.shape[-1]
    tol = 8 * d * np.finfo(float).eps * np.abs(stack).max(axis=(-2, -1))
    assert np.all(np.abs(got - ref).max(axis=-1) <= tol)


def _eigvalsh_shapes(monkeypatch, stack) -> list:
    """The shapes that hermitian_spectra(stack) hands to np.linalg.eigvalsh."""
    shapes, eigvalsh = [], np.linalg.eigvalsh

    def recording(a):
        shapes.append(a.shape)
        return eigvalsh(a)

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigvalsh", recording)
        hermitian_spectra(stack)
    return shapes


class TestHermitianSpectra:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
    def test_dense_stacks_match_eigvalsh(self, d):
        stack = _hermitian(np.random.default_rng(d), 500, d)
        _assert_matches_eigvalsh(stack)
        if d > 2:  # one block: eigvalsh solves the stack whole
            assert np.array_equal(hermitian_spectra(stack), np.linalg.eigvalsh(stack))

    @pytest.mark.parametrize("sizes", [(1, 1), (2, 1), (2, 2), (1, 2, 3), (3, 1, 2, 2), (3, 3),
                                       (2, 2, 2, 1, 1, 3, 1)])
    def test_permuted_block_diagonal_stacks_match_eigvalsh(self, sizes):
        rng = np.random.default_rng(len(sizes))
        stack = _block_diagonal(rng, 500, sizes)
        # an interleaving permutation: no block keeps contiguous indices
        d = stack.shape[-1]
        perm = np.concatenate([np.arange(0, d, 2), np.arange(1, d, 2)])
        _assert_matches_eigvalsh(stack[:, perm][:, :, perm])

    def test_mixed_blocks_solve_only_the_large_one_with_eigvalsh(self, monkeypatch):
        stack = _block_diagonal(np.random.default_rng(7), 50, (1, 2, 3, 2, 1))
        perm = np.random.default_rng(8).permutation(9)
        stack = stack[:, perm][:, :, perm]
        assert _eigvalsh_shapes(monkeypatch, stack) == [(50, 3, 3)]
        _assert_matches_eigvalsh(stack)

    def test_blocks_reached_in_several_steps(self):
        # a tridiagonal block links its ends only through the indices between them
        rng = np.random.default_rng(9)
        stack = _block_diagonal(rng, 200, (5, 2, 1))
        chain = np.abs(np.subtract.outer(np.arange(5), np.arange(5))) <= 1
        stack[:, :5, :5] *= chain
        perm = rng.permutation(8)
        _assert_matches_eigvalsh(stack[:, perm][:, :, perm])

    def test_the_pattern_is_the_union_over_the_stack(self, monkeypatch):
        # blocks {0, 3} and {1, 2}, as in a discrete-protocol Choi stack
        stack = _block_diagonal(np.random.default_rng(3), 20, (2, 2))
        stack = stack[:, [0, 2, 3, 1]][:, :, [0, 2, 3, 1]]
        partly_diagonal = stack.copy()
        partly_diagonal[:10] *= np.eye(4)  # the union of the patterns is still the two blocks
        assert _eigvalsh_shapes(monkeypatch, partly_diagonal) == []
        _assert_matches_eigvalsh(partly_diagonal)
        stack[4, 1, 0] = stack[4, 0, 1] = 0.5  # one matrix links 0 and 1: one dense block
        assert _eigvalsh_shapes(monkeypatch, stack) == [(20, 4, 4)]
        assert np.array_equal(hermitian_spectra(stack), np.linalg.eigvalsh(stack))

    def test_reads_the_lower_triangle_like_eigvalsh(self):
        stack = _block_diagonal(np.random.default_rng(4), 50, (2, 1, 1))
        stack[:, 0, 1] = 0.0  # inside a block: its lower entry stack[:, 1, 0] counts
        stack[:, 0, 3] = 7.0 + 1.0j  # no lower entry links 0 and 3: no block joins them
        stack[:, 2, 2] += 3.0j  # and the imaginary part of a diagonal entry is ignored
        _assert_matches_eigvalsh(stack)

    def test_closed_form_2x2_is_within_1e15_of_the_exact_spectrum(self):
        stack = _hermitian(np.random.default_rng(5), 60, 2)
        got = hermitian_spectra(stack)
        with mpmath.workdps(40):
            exact = [sorted(float(v) for v in mpmath.eighe(mpmath.matrix(m.tolist()),
                                                           eigvals_only=True)) for m in stack]
        scale = np.abs(stack).max(axis=(1, 2))
        assert np.all(np.abs(got - exact).max(axis=1) <= 1e-15 * scale)

    def test_qubit_and_scalar_stacks_skip_the_component_search(self, monkeypatch):
        import nmcollide.quantum as quantum

        def refuse(linked):
            raise AssertionError("d <= 2 has one possible link and needs no search")

        monkeypatch.setattr(quantum, "_components", refuse)
        rng = np.random.default_rng(10)
        scalars = _hermitian(rng, 30, 1)
        assert np.array_equal(hermitian_spectra(scalars), scalars.real.reshape(30, 1))
        assert hermitian_spectra(np.zeros((0, 1, 1))).shape == (0, 1)
        assert hermitian_spectra(np.zeros((0, 2, 2))).shape == (0, 2)
        # no lower entry links 0 and 1: the sorted diagonal, not mid +- rad of the closed form
        diagonal = _hermitian(rng, 30, 2)
        diagonal[:, 1, 0] = 0.0
        expected = np.sort(diagonal.diagonal(axis1=1, axis2=2).real, axis=1)
        assert np.array_equal(hermitian_spectra(diagonal), expected)
        # one linking matrix puts the whole stack through the closed form
        diagonal[7, 1, 0] = 0.25j
        a, c = diagonal[:, 0, 0].real, diagonal[:, 1, 1].real
        mid, rad = 0.5 * (a + c), np.hypot(0.5 * (a - c), np.abs(diagonal[:, 1, 0]))
        expected = np.sort(np.stack([mid - rad, mid + rad], axis=1), axis=1)
        assert np.array_equal(hermitian_spectra(diagonal), expected)
        _assert_matches_eigvalsh(diagonal)

    def test_shapes_follow_eigvalsh(self):
        rng = np.random.default_rng(6)
        single = _hermitian(rng, 1, 3)[0] * np.eye(3)
        assert np.array_equal(hermitian_spectra(single), np.sort(single.diagonal().real))
        assert hermitian_spectra(np.zeros((0, 4, 4))).shape == (0, 4)
        real = _hermitian(rng, 10, 2).real
        _assert_matches_eigvalsh(real)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(np.nan, 0.0)])
    def test_non_finite_entry_raises(self, bad):
        # eigvalsh raises on a NaN but returns NaN for an infinite entry
        stack = np.tile(np.eye(4), (3, 1, 1)).astype(complex)
        stack[2, 3, 3] = bad
        with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
            hermitian_spectra(stack)

    @pytest.mark.parametrize("shape", [(4,), (4, 3, 4), (3, 2, 3)])
    def test_non_square_raises(self, shape):
        with pytest.raises(np.linalg.LinAlgError, match="square"):
            hermitian_spectra(np.zeros(shape))


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


class TestHermitianUnits:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_inverse_is_exact(self, d):
        units, inverse = _hermitian_units(d)
        assert np.array_equal(inverse @ units, np.eye(d * d))
        assert set(np.unique(units)) <= {0, 1, -1j, 1j}
        assert set(np.unique(inverse)) <= {0, 1, 0.5, -0.5j, 0.5j}
        for p in units.T.reshape(-1, d, d):
            assert np.array_equal(p, p.conj().T)
