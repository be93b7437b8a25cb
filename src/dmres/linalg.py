"""Dense complex linear algebra for small multi-qudit systems.

Value types (kets, density matrices, observables, unitaries) are thin
immutable wrappers around numpy arrays.  Validation happens at creation
time; downstream code can assume the invariants hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DimensionLimitError, InvalidStateError

# Construction-level checks (unitarity, Hermiticity, norms) use ATOL_STRICT;
# derived spectra (eigenvalues) get the looser ATOL_SPECTRUM.
ATOL_STRICT = 1e-12
ATOL_SPECTRUM = 1e-10

# Desk-scale guard on the joint system+meter Hilbert space.
MAX_JOINT_DIM = 2 ** 14

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=complex)
    out.setflags(write=False)
    return out


def projector(dim: int, index: int) -> np.ndarray:
    p = np.zeros((dim, dim), dtype=complex)
    p[index, index] = 1.0
    return p


def is_hermitian(m: np.ndarray, atol: float = ATOL_STRICT) -> bool:
    m = np.asarray(m)
    return bool(np.max(np.abs(m - m.conj().T)) <= atol)


def is_unitary(m: np.ndarray, atol: float = ATOL_STRICT) -> bool:
    m = np.asarray(m)
    return bool(np.max(np.abs(m @ m.conj().T - np.eye(m.shape[0]))) <= atol)


def partial_trace(mat: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Trace out every site not listed in ``keep`` (order preserved)."""
    dims = list(dims)
    n = len(dims)
    keep = sorted(keep)
    mat = np.asarray(mat, dtype=complex).reshape(dims + dims)
    # Trace highest-index discarded sites first so axis labels stay valid.
    for site in sorted(set(range(n)) - set(keep), reverse=True):
        mat = np.trace(mat, axis1=site, axis2=site + mat.ndim // 2)
    d_keep = int(np.prod([dims[s] for s in keep])) if keep else 1
    return mat.reshape(d_keep, d_keep)


def check_joint_dim(dim: int) -> None:
    if dim > MAX_JOINT_DIM:
        raise DimensionLimitError(
            f"joint dimension {dim} exceeds the supported limit {MAX_JOINT_DIM}"
        )


def _as_dims(dims: Sequence[int] | int | None, total: int) -> tuple[int, ...]:
    if dims is None:
        return (total,)
    if isinstance(dims, (int, np.integer)):
        dims = (int(dims),)
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise InvalidStateError(f"local dimensions must be positive, got {dims}")
    if int(np.prod(dims)) != total:
        raise InvalidStateError(f"dims {dims} do not multiply to dimension {total}")
    return dims


@dataclass(frozen=True)
class Ket:
    """Normalized complex state vector over a product of local dimensions."""

    amplitudes: np.ndarray
    dims: tuple[int, ...]

    @classmethod
    def create(cls, amplitudes: Sequence[complex], dims: Sequence[int] | int | None = None) -> "Ket":
        vec = np.asarray(amplitudes, dtype=complex).reshape(-1)
        norm = np.linalg.norm(vec)
        if abs(norm - 1.0) > ATOL_STRICT:
            raise InvalidStateError(f"ket norm {norm!r} differs from 1 beyond {ATOL_STRICT}")
        return cls(_freeze(vec), _as_dims(dims, vec.size))

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def density(self) -> "DensityMatrix":
        rho = np.outer(self.amplitudes, self.amplitudes.conj())
        return DensityMatrix.create(rho, self.dims)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace operator over a product of local dimensions.

    ``positive`` records whether the spectrum check was enforced at
    creation.  The restricted dephasing map can emit indefinite matrices;
    those are flagged rather than rejected so the linear extraction
    formulas can still be applied to them.
    """

    entries: np.ndarray
    dims: tuple[int, ...]
    positive: bool = field(default=True, compare=False)

    @classmethod
    def create(
        cls,
        entries: Sequence[Sequence[complex]],
        dims: Sequence[int] | int | None = None,
        check_positive: bool = True,
    ) -> "DensityMatrix":
        mat = np.asarray(entries, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise InvalidStateError(f"density matrix must be square, got shape {mat.shape}")
        if not is_hermitian(mat):
            raise InvalidStateError("density matrix is not Hermitian within 1e-12")
        tr = np.trace(mat)
        if abs(tr - 1.0) > ATOL_STRICT:
            raise InvalidStateError(f"trace {tr!r} differs from 1 beyond {ATOL_STRICT}")
        positive = True
        if check_positive:
            lo = float(np.linalg.eigvalsh(mat).min())
            if lo < -ATOL_SPECTRUM:
                raise InvalidStateError(f"minimum eigenvalue {lo:g} below -{ATOL_SPECTRUM}")
        else:
            positive = bool(float(np.linalg.eigvalsh(mat).min()) >= -ATOL_SPECTRUM)
        return cls(_freeze(mat), _as_dims(dims, mat.shape[0]), positive)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def entry(self, row: int, col: int) -> complex:
        return complex(self.entries[row, col])


@dataclass(frozen=True)
class Observable:
    """Hermitian operator."""

    entries: np.ndarray

    @classmethod
    def create(cls, entries: Sequence[Sequence[complex]]) -> "Observable":
        mat = np.asarray(entries, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise InvalidStateError(f"observable must be square, got shape {mat.shape}")
        if not is_hermitian(mat):
            raise InvalidStateError("observable is not Hermitian within 1e-12")
        return cls(_freeze(mat))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class UnitaryMatrix:
    """Unitary operator."""

    entries: np.ndarray

    @classmethod
    def create(cls, entries: Sequence[Sequence[complex]]) -> "UnitaryMatrix":
        mat = np.asarray(entries, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise InvalidStateError(f"unitary must be square, got shape {mat.shape}")
        if not is_unitary(mat):
            raise InvalidStateError("matrix is not unitary within 1e-12")
        return cls(_freeze(mat))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def as_density(state: "DensityMatrix | Ket") -> DensityMatrix:
    if isinstance(state, Ket):
        return state.density()
    return state
