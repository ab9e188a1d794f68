"""Exact-size complex linear algebra for two-qubit work: 2x2 and 4x4 only."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-10

_ALLOWED_SHAPES = ((2, 2), (4, 4))


@dataclass(frozen=True, eq=False)
class ComplexMatrix:
    """Immutable dense complex matrix of dimension 2 or 4.

    Entries are stored as a read-only complex128 array. Any other shape and
    any non-finite entry (NaN/Inf) is rejected at construction, so every
    matrix in circulation is safe to share between threads.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.entries, dtype=np.complex128)
        if arr.shape not in _ALLOWED_SHAPES:
            raise ValueError(f"matrix must be 2x2 or 4x4, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("matrix entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def identity(dim: int) -> ComplexMatrix:
    if dim not in (2, 4):
        raise ValueError(f"dimension must be 2 or 4, got {dim}")
    return ComplexMatrix(np.eye(dim))


PAULI_X = ComplexMatrix([[0, 1], [1, 0]])
PAULI_Y = ComplexMatrix([[0, -1j], [1j, 0]])
PAULI_Z = ComplexMatrix([[1, 0], [0, -1]])


def matmul(a: ComplexMatrix, b: ComplexMatrix) -> ComplexMatrix:
    """Matrix product; operands must share the same dimension."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return ComplexMatrix(a.entries @ b.entries)


def tensor_product(a: ComplexMatrix, b: ComplexMatrix) -> ComplexMatrix:
    """Kronecker product of two 2x2 matrices, first factor on subsystem A.

    The product basis is ordered (uu, ud, du, dd): index 2*i_A + i_B.
    """
    if a.dim != 2 or b.dim != 2:
        raise ValueError("tensor_product takes two 2x2 matrices")
    return ComplexMatrix(np.kron(a.entries, b.entries))


def trace(a: ComplexMatrix) -> complex:
    """Sum of diagonal entries."""
    return complex(np.trace(a.entries))


def hermiticity_defect(a: ComplexMatrix) -> float:
    """Largest entrywise deviation between ``a`` and its adjoint."""
    return float(np.max(np.abs(a.entries - a.entries.conj().T)))


def min_eigenvalue_hermitian(a: ComplexMatrix, tol: float = HERMITICITY_TOL) -> float:
    """Smallest eigenvalue of a Hermitian matrix.

    Input whose hermiticity defect exceeds ``tol`` (entrywise) is rejected;
    accuracy of the returned eigenvalue is limited only by the dense solver,
    far below 1e-10 at these dimensions.
    """
    defect = hermiticity_defect(a)
    if defect > tol:
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3e} > {tol:.1e})")
    return float(np.linalg.eigvalsh(a.entries)[0])
