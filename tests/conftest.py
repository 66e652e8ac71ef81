import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import settings

from nmcollide import DensityOperator, KrausChannel, jc_hamiltonian

settings.register_profile("numeric", deadline=None, max_examples=40)
settings.load_profile("numeric")


@pytest.fixture(scope="session")
def jc_h():
    return jc_hamiltonian()


def _finite(lo=-1.0, hi=1.0):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


@st.composite
def density_operators(draw, dim=2):
    """Full-rank random states built from a drawn complex square root."""
    re = draw(st.lists(_finite(), min_size=dim * dim, max_size=dim * dim))
    im = draw(st.lists(_finite(), min_size=dim * dim, max_size=dim * dim))
    g = np.array(re).reshape(dim, dim) + 1j * np.array(im).reshape(dim, dim)
    mat = g @ g.conj().T + 1e-3 * np.eye(dim)
    return DensityOperator(mat / np.trace(mat).real)


@st.composite
def kraus_channels(draw, dim=2, n_ops=2):
    """Random CPT channels from the QR-orthonormalized block isometry."""
    rows = dim * n_ops
    re = draw(st.lists(_finite(), min_size=rows * dim, max_size=rows * dim))
    im = draw(st.lists(_finite(), min_size=rows * dim, max_size=rows * dim))
    g = np.array(re).reshape(rows, dim) + 1j * np.array(im).reshape(rows, dim)
    g = g + 0.1 * np.vstack([np.eye(dim)] * n_ops)  # keep full column rank
    q, _ = np.linalg.qr(g)
    ops = tuple(q[i * dim : (i + 1) * dim, :] for i in range(n_ops))
    return KrausChannel(ops, dim_in=dim, dim_out=dim)


def qubit_state(p: float, r: complex) -> DensityOperator:
    """The qubit state with excited population p and coherence r: [[1 - p, r], [r*, p]]."""
    return DensityOperator(np.array([[1.0 - p, r], [np.conj(r), p]], dtype=np.complex128))


@st.composite
def qubit_states(draw):
    p = draw(st.floats(min_value=0.0, max_value=1.0))
    frac = draw(st.floats(min_value=0.0, max_value=0.999))
    phase = draw(st.floats(min_value=0.0, max_value=2.0 * np.pi))
    return qubit_state(p, complex(frac * np.sqrt(p * (1.0 - p)) * np.exp(1j * phase)))
