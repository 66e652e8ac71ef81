"""Dense operator algebra for density matrices, channels, and composite systems.

Everything is complex128 and immutable after construction. The Hilbert
spaces in this package are deliberately small (at most a few hundred
dimensions in the brute-force test oracle), so dense storage wins on both
speed and simplicity. Every Hermitian spectrum, positivity checks and
trace distances included, comes from ``hermitian_spectra``: it solves each
exact block of a stack's joint zero pattern on its own, 1x1 and 2x2 blocks
in closed form, and never calls a general eigensolver.

Index convention: a composite space is the Kronecker product with the
first factor slowest, i.e. ``np.kron(a, b)`` puts ``a`` on the leading
index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InternalConsistencyError, ValidationError
from .tolerances import DEFAULT_TOLERANCES

__all__ = [
    "DensityOperator",
    "density_stack",
    "hermitian_spectra",
    "HermitianOperator",
    "KrausChannel",
    "choi_of",
    "kraus_from_choi",
    "trace_distance",
    "trace_distances",
    "unitary_evolution",
    "ket",
]


def _as_complex_matrix(data) -> np.ndarray:
    mat = np.array(data, dtype=np.complex128, copy=True)
    if mat.ndim != 2 or 0 in mat.shape:  # an empty matrix would fail inside numpy's reductions
        raise ValidationError(f"expected a nonempty matrix, got shape {mat.shape}")
    return mat


def _frozen(mat: np.ndarray) -> np.ndarray:
    mat.setflags(write=False)
    return mat


def ket(dim: int, index: int) -> np.ndarray:
    """Computational basis column vector |index> in dimension dim."""
    if not 0 <= index < dim:
        raise ConfigurationError(f"basis index {index} out of range for dim {dim}")
    v = np.zeros(dim, dtype=np.complex128)
    v[index] = 1.0
    return v


def hermitian_spectra(stack) -> np.ndarray:
    """Ascending eigenvalues, shape (n, d), of a finite Hermitian (n, d, d) stack.

    The contract is ``np.linalg.eigvalsh``'s, the lower triangle read, and
    the route is exact: the indices split into the connected components of
    the stack's joint pattern of nonzero lower-triangle entries, and a
    matrix's spectrum is the union of its blocks' spectra. A 1x1 block is
    its real diagonal entry, a 2x2 block m +- hypot((a - c)/2, |b|) in
    closed form, and a larger one goes to eigvalsh; a dense stack of
    matrices larger than 2x2 is one block, solved by eigvalsh whole. Only
    rounding differs from eigvalsh. Matrices that are not square, and a NaN
    or infinite entry, raise np.linalg.LinAlgError.
    """
    stack = np.asarray(stack)
    if stack.ndim < 2 or stack.shape[-1] != stack.shape[-2]:
        raise np.linalg.LinAlgError(f"expected a stack of square matrices, got {stack.shape}")
    if not np.isfinite(stack).all():
        raise np.linalg.LinAlgError("Hermitian stack has a non-finite entry")
    d = stack.shape[-1]
    lower = np.tril((stack != 0).reshape(-1, d, d).any(axis=0), -1)
    blocks = _components(lower | lower.T)
    diag = stack.diagonal(axis1=-2, axis2=-1).real
    singles = np.array([b[0] for b in blocks if len(b) == 1], dtype=np.intp)
    i, j = np.array([b for b in blocks if len(b) == 2], dtype=np.intp).reshape(-1, 2).T
    mid = 0.5 * (diag[..., i] + diag[..., j])
    rad = np.hypot(0.5 * (diag[..., i] - diag[..., j]), np.abs(stack[..., j, i]))
    # a block of every index is the stack itself, solved whole without a copy
    larger = [np.linalg.eigvalsh(stack if len(b) == d else stack[..., b[:, None], b])
              for b in blocks if len(b) > 2]
    return np.sort(np.concatenate([diag[..., singles], mid - rad, mid + rad, *larger], axis=-1))


def _components(linked: np.ndarray) -> list:
    """The connected components of a symmetric boolean (d, d) adjacency matrix, each an
    ascending index array: one breadth-first search per component, reading each row once."""
    label = np.full(len(linked), -1)
    blocks = []
    while (unlabelled := np.flatnonzero(label < 0)).size:
        frontier = unlabelled[:1]
        while frontier.size:
            label[frontier] = len(blocks)
            frontier = np.flatnonzero(linked[frontier].any(axis=0) & (label < 0))
        blocks.append(np.flatnonzero(label == len(blocks)))
    return blocks


def density_stack(data) -> np.ndarray:
    """Validated read-only copy of an (n, d, d) stack of density matrices.

    Every matrix must be Hermitian, have unit trace and no eigenvalue below
    -positivity, at the DEFAULT_TOLERANCES thresholds; the spectra come
    from ``hermitian_spectra``. A NaN entry fails the checks.
    Raises ValidationError naming the first offending matrix of a stack of
    more than one.
    """
    stack = np.array(data, dtype=np.complex128, copy=True)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or stack.shape[1] == 0:
        raise ValidationError(f"expected an (n, d, d) stack of square matrices, got {stack.shape}")
    tol = DEFAULT_TOLERANCES
    herm = np.abs(stack - stack.conj().transpose(0, 2, 1)).max(axis=2).max(axis=1)
    _require(herm <= tol.hermiticity, "not Hermitian: max |rho - rho^dag| = {:.3e}", herm)
    tr = stack.diagonal(axis1=1, axis2=2).sum(axis=1)
    _require(np.abs(tr - 1.0) <= tol.unit_trace, "trace {} differs from 1 beyond tolerance", tr)
    lo = hermitian_spectra(stack)[:, 0]
    _require(lo >= -tol.positivity, "not positive semidefinite: min eigenvalue {:.3e}", lo)
    return _frozen(stack)


def _require(ok: np.ndarray, message: str, values: np.ndarray) -> None:
    """Raise ValidationError at the first False in ok, with its value formatted into message."""
    if not ok.all():
        j = int(ok.argmin())
        where = f" (matrix {j} of {len(ok)})" if len(ok) > 1 else ""
        raise ValidationError(message.format(values[j]) + where)


@dataclass(frozen=True)
class DensityOperator:
    """Positive, unit-trace complex matrix: the state of a (possibly joint) system."""

    data: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.data)
        if mat.ndim != 2:
            raise ValidationError(f"expected a matrix, got ndim={mat.ndim}")
        if mat.shape[0] != mat.shape[1]:
            raise ValidationError(f"density operator must be square, got {mat.shape}")
        object.__setattr__(self, "data", density_stack(mat[None])[0])

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    @classmethod
    def basis(cls, dim: int, index: int) -> "DensityOperator":
        return cls.from_ket(ket(dim, index))

    @classmethod
    def from_ket(cls, vector) -> "DensityOperator":
        v = np.asarray(vector, dtype=np.complex128).reshape(-1)
        norm = np.linalg.norm(v)
        if norm == 0:
            raise ValidationError("cannot build a state from the zero vector")
        v = v / norm
        return cls(np.outer(v, v.conj()))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityOperator":
        return cls(np.eye(dim) / dim)


@dataclass(frozen=True)
class HermitianOperator:
    """Hermitian matrix: Hamiltonians (angular frequency units) and observables."""

    data: np.ndarray

    def __post_init__(self):
        mat = _as_complex_matrix(self.data)
        if mat.shape[0] != mat.shape[1]:
            raise ValidationError(f"operator must be square, got {mat.shape}")
        herm = np.max(np.abs(mat - mat.conj().T))
        if herm > DEFAULT_TOLERANCES.hermiticity:
            raise ValidationError(f"not Hermitian: max |H - H^dag| = {herm:.3e}")
        object.__setattr__(self, "data", _frozen(mat))

    @property
    def dim(self) -> int:
        return self.data.shape[0]


@dataclass(frozen=True)
class KrausChannel:
    """Completely positive trace-preserving map as an ordered list of square Kraus operators,
    all of one size, the channel's dimension."""

    kraus: tuple

    def __post_init__(self):
        ops = tuple(_frozen(_as_complex_matrix(k)) for k in self.kraus)
        if not ops:
            raise ValidationError("channel needs at least one Kraus operator")
        d = ops[0].shape[0]
        for k in ops:
            if k.shape != (d, d):
                raise ValidationError(f"Kraus operator shape {k.shape} is not ({d}, {d})")
        object.__setattr__(self, "kraus", ops)
        defect = self.trace_defect()
        if defect > DEFAULT_TOLERANCES.kraus_completeness:
            raise ValidationError(f"channel is not trace preserving: defect {defect:.3e}")

    @property
    def dim(self) -> int:
        return self.kraus[0].shape[0]

    def trace_defect(self) -> float:
        acc = sum(k.conj().T @ k for k in self.kraus)
        return float(np.max(np.abs(acc - np.eye(self.dim))))


def choi_of(ch: KrausChannel) -> np.ndarray:
    """The (d^2, d^2) Choi matrix, (id (x) ch) applied to the unnormalized maximally entangled
    operator."""
    d = ch.dim
    acc = np.zeros((d * d, d * d), dtype=np.complex128)
    for k in ch.kraus:
        w = k.T.reshape(-1)  # w[(i, a)] = K[a, i]
        acc += np.outer(w, w.conj())
    return acc


def kraus_from_choi(choi) -> KrausChannel:
    """Kraus operators of a CP map from the eigendecomposition of its (d^2, d^2) Choi matrix.

    A matrix of another shape, or one that is not Hermitian within the
    hermiticity tolerance, raises ValidationError. Eigenvalues below
    -DEFAULT_TOLERANCES.choi_positivity signal a non-CP map and raise, never
    clip; slightly negative rounding noise is set to zero.
    """
    choi = np.asarray(choi, dtype=np.complex128)
    d = math.isqrt(choi.shape[0]) if choi.ndim == 2 else 0
    if d == 0 or choi.shape != (d * d, d * d):
        raise ValidationError(f"expected a (d^2, d^2) Choi matrix, got shape {choi.shape}")
    herm = np.max(np.abs(choi - choi.conj().T))
    if herm > DEFAULT_TOLERANCES.hermiticity:
        raise ValidationError(f"Choi matrix not Hermitian: deviation {herm:.3e}")
    evals, evecs = np.linalg.eigh(choi)
    if evals[0] < -DEFAULT_TOLERANCES.choi_positivity:
        raise InternalConsistencyError(
            f"Choi matrix is not positive semidefinite: min eigenvalue {evals[0]:.3e}"
        )
    ops = []
    cutoff = max(1e-14, 1e-14 * float(evals[-1])) if evals[-1] > 0 else 1e-14
    for lam, vec in zip(evals, evecs.T):
        if lam <= cutoff:
            continue
        ops.append(np.sqrt(lam) * vec.reshape(d, d).T)
    if not ops:
        raise InternalConsistencyError("Choi matrix has no positive eigenvalues")
    return KrausChannel(tuple(ops))


def trace_distance(a, b) -> float:
    """Half the trace norm of the difference of two states."""
    am = a.data if isinstance(a, DensityOperator) else np.asarray(a)
    bm = b.data if isinstance(b, DensityOperator) else np.asarray(b)
    return float(trace_distances(am[None], bm[None])[0])


def trace_distances(a, b) -> np.ndarray:
    """Trace distance of each pair of matrices from two (n, d, d) stacks: half the summed
    absolute ``hermitian_spectra`` of their difference."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise ConfigurationError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return 0.5 * np.sum(np.abs(hermitian_spectra(a - b)), axis=-1)


def _hermitian_basis(dim: int) -> np.ndarray:
    """Q, whose row a = (i, j) is vec(G_a)^dagger for the orthonormal Hermitian basis G_ii = E_ii,
    G_ij = (E_ij + E_ji)/sqrt2 (i < j), G_ij = i(E_ij - E_ji)/sqrt2 (i > j). T = Q S Q^dagger
    holds Tr(G_a S(G_b)), real whenever S maps Hermitian matrices to Hermitian ones."""
    e = np.eye(dim * dim).reshape(dim, dim, dim * dim)  # e[i, j] = vec(E_ij)
    i, j = np.indices((dim, dim))[..., None]
    sym, anti = np.sqrt(0.5) * (e + e.transpose(1, 0, 2)), np.sqrt(0.5) * (e - e.transpose(1, 0, 2))
    return np.where(i < j, sym, np.where(i > j, -1j * anti, e)).reshape(dim * dim, dim * dim)


def _hermitian_to_vec(coeffs: np.ndarray, dim: int) -> np.ndarray:
    """Superoperators S = Q^dagger T Q on row-major vec from the real coefficients T of
    ``_hermitian_basis`` Q, given as an (n, dim^4) array of row-major vec(T): an (n, dim^2, dim^2)
    complex array. Each product is a row chunk of at most 2^18 multiply-adds, which OpenBLAS
    keeps on one thread: no idle threads woken to spin."""
    q = _hermitian_basis(dim)
    back = np.kron(q.conj().T, q.T)  # vec(Q^dagger T Q) = (Q^dagger (x) Q^T) vec T
    out = np.empty((len(coeffs), len(back)), dtype=np.complex128)  # filled by parts: no copy
    rows = max(1, 2**18 // back.size)
    for j in range(0, len(coeffs), rows):
        out.real[j:j + rows] = coeffs[j:j + rows] @ back.real.T
        out.imag[j:j + rows] = coeffs[j:j + rows] @ back.imag.T
    return out.reshape(len(coeffs), dim * dim, dim * dim)


def _hermitian_real(coeffs: np.ndarray, what: str) -> np.ndarray:
    """The real part of a map's coefficients in the basis of ``_hermitian_basis``, once their
    imaginary part is within imaginary_residue; else ``what`` does not preserve Hermiticity."""
    residue = float(np.max(np.abs(coeffs.imag)))
    if not residue <= DEFAULT_TOLERANCES.imaginary_residue:
        raise InternalConsistencyError(f"{what} does not preserve Hermiticity: imaginary part "
                                       f"{residue:.3e} in a Hermitian basis")
    return coeffs.real


def unitary_evolution(h, t: float) -> np.ndarray:
    """e^{-i H t} via Hermitian eigendecomposition (exact for these small dims)."""
    mat = h.data if isinstance(h, HermitianOperator) else np.asarray(h, dtype=np.complex128)
    evals, evecs = np.linalg.eigh(mat)
    return (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T
