"""Dense operator algebra for density matrices, channels, and composite systems.

Everything is complex128 and immutable after construction. The Hilbert
spaces in this package are deliberately small (at most a few hundred
dimensions in the brute-force test oracle), so dense storage wins on both
speed and simplicity. Positivity checks always go through Hermitian
eigensolvers, never a general eigensolver.

Index convention: a composite space is the Kronecker product with the
first factor slowest, i.e. ``tensor(a, b)`` puts ``a`` on the leading
index. Subsystem slots are counted from 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, InternalConsistencyError, ValidationError
from .tolerances import DEFAULT_TOLERANCES

__all__ = [
    "DensityOperator",
    "density_stack",
    "HermitianOperator",
    "KrausChannel",
    "ChoiMatrix",
    "tensor",
    "partial_trace",
    "apply_channel",
    "compose",
    "choi_of",
    "kraus_from_choi",
    "trace_distance",
    "trace_distances",
    "unitary_evolution",
    "embed_operator",
    "swap_operator",
    "ket",
]


def _as_complex_matrix(data) -> np.ndarray:
    mat = np.array(data, dtype=np.complex128, copy=True)
    if mat.ndim != 2:
        raise ValidationError(f"expected a matrix, got ndim={mat.ndim}")
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


def density_stack(data) -> np.ndarray:
    """Validated read-only copy of an (n, d, d) stack of density matrices.

    Every matrix must be Hermitian, have unit trace and no eigenvalue below
    -positivity, at the DEFAULT_TOLERANCES thresholds; the spectra come
    from one batched Hermitian eigensolve. A NaN entry fails the checks.
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
    lo = np.linalg.eigvalsh(stack)[:, 0]
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
    """Completely positive trace-preserving map as an ordered Kraus list."""

    kraus: tuple
    dim_in: int
    dim_out: int

    def __post_init__(self):
        ops = tuple(_frozen(_as_complex_matrix(k)) for k in self.kraus)
        if not ops:
            raise ValidationError("channel needs at least one Kraus operator")
        for k in ops:
            if k.shape != (self.dim_out, self.dim_in):
                raise ValidationError(
                    f"Kraus operator shape {k.shape} does not match "
                    f"({self.dim_out}, {self.dim_in})"
                )
        defect = self.trace_defect_of(ops, self.dim_in)
        if defect > DEFAULT_TOLERANCES.kraus_completeness:
            raise ValidationError(f"channel is not trace preserving: defect {defect:.3e}")
        object.__setattr__(self, "kraus", ops)

    @staticmethod
    def trace_defect_of(ops: Sequence[np.ndarray], dim_in: int) -> float:
        acc = sum(k.conj().T @ k for k in ops)
        return float(np.max(np.abs(acc - np.eye(dim_in))))

    @classmethod
    def from_operators(cls, ops: Sequence[np.ndarray]) -> "KrausChannel":
        first = np.asarray(ops[0])
        return cls(tuple(ops), dim_in=first.shape[1], dim_out=first.shape[0])

    @classmethod
    def identity(cls, dim: int) -> "KrausChannel":
        return cls((np.eye(dim, dtype=np.complex128),), dim_in=dim, dim_out=dim)

    def trace_defect(self) -> float:
        return self.trace_defect_of(self.kraus, self.dim_in)


@dataclass(frozen=True)
class ChoiMatrix:
    """Choi matrix of a channel on a dim-dimensional space (dim^2 x dim^2)."""

    data: np.ndarray
    dim: int

    def __post_init__(self):
        mat = _as_complex_matrix(self.data)
        d2 = self.dim * self.dim
        if mat.shape != (d2, d2):
            raise ValidationError(f"Choi matrix shape {mat.shape} != ({d2}, {d2})")
        herm = np.max(np.abs(mat - mat.conj().T))
        if herm > DEFAULT_TOLERANCES.hermiticity:
            raise ValidationError(f"Choi matrix not Hermitian: deviation {herm:.3e}")
        object.__setattr__(self, "data", _frozen(mat))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.data)[0])

    def trace(self) -> float:
        return float(np.trace(self.data).real)


def tensor(a, b):
    """Kronecker product of two states or two Hermitian operators (a slowest)."""
    if isinstance(a, DensityOperator) and isinstance(b, DensityOperator):
        return DensityOperator(np.kron(a.data, b.data))
    if isinstance(a, HermitianOperator) and isinstance(b, HermitianOperator):
        return HermitianOperator(np.kron(a.data, b.data))
    raise ConfigurationError("tensor expects two values of the same kind")


@lru_cache(maxsize=None)
def _ptrace_recipe(dims: tuple, keep: tuple):
    # traced slots share one letter between row and column index; kept slots keep both
    m = len(dims)
    letters = "abcdefghijklmnopqrstuvwxyz"
    if 2 * m > len(letters):
        raise ConfigurationError("too many subsystems for the partial trace")
    row = letters[:m]
    col = "".join(letters[m + s] if s in keep else letters[s] for s in range(m))
    out = "".join(row[s] for s in keep) + "".join(letters[m + s] for s in keep)
    return row + col + "->" + out


def _partial_trace_matrix(mat: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    dims = tuple(int(d) for d in dims)
    keep = tuple(sorted(int(k) for k in keep))
    total = int(np.prod(dims))
    if mat.shape != (total, total):
        raise ConfigurationError(
            f"joint dimension {mat.shape[0]} does not match prod(dims)={total}"
        )
    if not keep or any(k < 0 or k >= len(dims) for k in keep) or len(set(keep)) != len(keep):
        raise ConfigurationError(f"invalid keep set {keep} for {len(dims)} slots")
    spec = _ptrace_recipe(dims, keep)
    t = mat.reshape(dims + dims)
    kept_dim = int(np.prod([dims[k] for k in keep]))
    return np.einsum(spec, t).reshape(kept_dim, kept_dim)


def partial_trace(joint: DensityOperator, dims: Sequence[int], keep) -> DensityOperator:
    """Reduced state over the kept slots (0-based indices into dims)."""
    return DensityOperator(_partial_trace_matrix(joint.data, dims, tuple(keep)))


def apply_channel(ch: KrausChannel, rho: DensityOperator) -> DensityOperator:
    if ch.dim_in != rho.dim:
        raise ConfigurationError(f"channel input dim {ch.dim_in} != state dim {rho.dim}")
    return DensityOperator(sum(k @ rho.data @ k.conj().T for k in ch.kraus))


def compose(outer: KrausChannel, inner: KrausChannel) -> KrausChannel:
    """Channel applying ``inner`` first, then ``outer``."""
    if inner.dim_out != outer.dim_in:
        raise ConfigurationError("cannot compose: inner output dim != outer input dim")
    ops = tuple(a @ b for a in outer.kraus for b in inner.kraus)
    return KrausChannel(ops, dim_in=inner.dim_in, dim_out=outer.dim_out)


def choi_of(ch: KrausChannel) -> ChoiMatrix:
    """Choi matrix (id (x) ch) applied to the unnormalized maximally entangled operator."""
    if ch.dim_in != ch.dim_out:
        raise ConfigurationError("Choi certification expects a square channel")
    d = ch.dim_in
    acc = np.zeros((d * d, d * d), dtype=np.complex128)
    for k in ch.kraus:
        w = k.T.reshape(-1)  # w[(i, a)] = K[a, i]
        acc += np.outer(w, w.conj())
    return ChoiMatrix(acc, dim=d)


def kraus_from_choi(choi: ChoiMatrix) -> KrausChannel:
    """Kraus operators of a CP map from the eigendecomposition of its Choi matrix.

    Eigenvalues below -DEFAULT_TOLERANCES.choi_positivity signal a non-CP
    map and raise, never clip; slightly negative rounding noise is set to
    zero.
    """
    d = choi.dim
    evals, evecs = np.linalg.eigh(choi.data)
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
    return KrausChannel(tuple(ops), dim_in=d, dim_out=d)


def trace_distance(a, b) -> float:
    """Half the trace norm of the difference of two states."""
    am = a.data if isinstance(a, DensityOperator) else np.asarray(a)
    bm = b.data if isinstance(b, DensityOperator) else np.asarray(b)
    return float(trace_distances(am[None], bm[None])[0])


def trace_distances(a, b) -> np.ndarray:
    """Trace distance of each pair of matrices from two (n, d, d) stacks."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise ConfigurationError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return 0.5 * np.sum(np.abs(np.linalg.eigvalsh(a - b)), axis=-1)


def _hermitian_basis(dim: int) -> np.ndarray:
    """Q, whose row a = (i, j) is vec(G_a)^dagger for the orthonormal Hermitian basis G_ii = E_ii,
    G_ij = (E_ij + E_ji)/sqrt2 (i < j), G_ij = i(E_ij - E_ji)/sqrt2 (i > j). T = Q S Q^dagger
    holds Tr(G_a S(G_b)), real whenever S maps Hermitian matrices to Hermitian ones."""
    e = np.eye(dim * dim).reshape(dim, dim, dim * dim)  # e[i, j] = vec(E_ij)
    i, j = np.indices((dim, dim))[..., None]
    sym, anti = np.sqrt(0.5) * (e + e.transpose(1, 0, 2)), np.sqrt(0.5) * (e - e.transpose(1, 0, 2))
    return np.where(i < j, sym, np.where(i > j, -1j * anti, e)).reshape(dim * dim, dim * dim)


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


def swap_operator(d: int) -> np.ndarray:
    """Unitary exchanging the two factors of a d (x) d space."""
    s = np.zeros((d * d, d * d), dtype=np.complex128)
    for a in range(d):
        for b in range(d):
            s[b * d + a, a * d + b] = 1.0
    return s


def embed_operator(op: np.ndarray, dims: Sequence[int], slots: Sequence[int]) -> np.ndarray:
    """Lift an operator acting on the given slots (in that order) to the full space."""
    dims = [int(d) for d in dims]
    slots = [int(s) for s in slots]
    m = len(dims)
    if len(set(slots)) != len(slots) or any(s < 0 or s >= m for s in slots):
        raise ConfigurationError(f"invalid slots {slots} for {m} subsystems")
    sub = int(np.prod([dims[s] for s in slots]))
    op = np.asarray(op, dtype=np.complex128)
    if op.shape != (sub, sub):
        raise ConfigurationError(f"operator shape {op.shape} does not act on dims {sub}")
    rest = [k for k in range(m) if k not in slots]
    order = slots + rest
    d_rest = int(np.prod([dims[k] for k in rest])) if rest else 1
    big = np.kron(op, np.eye(d_rest, dtype=np.complex128))
    total = int(np.prod(dims))
    t = big.reshape([dims[k] for k in order] * 2)
    inv = np.argsort(order)
    axes = list(inv) + [m + i for i in inv]
    return np.ascontiguousarray(t.transpose(axes).reshape(total, total))
