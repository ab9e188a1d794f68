"""Checks on the 2x2 and 4x4 complex matrices of two-qubit work."""

import numpy as np

HERMITICITY_TOL = 1e-10


def ComplexMatrix(entries) -> np.ndarray:
    """A read-only complex128 copy of a 2x2 or 4x4 array-like.

    Any other shape and any non-finite entry (NaN/Inf) is rejected, and the
    copy cannot be written through, so every matrix in circulation is safe
    to share.
    """
    arr = np.array(entries, dtype=np.complex128)
    if arr.shape not in ((2, 2), (4, 4)):
        raise ValueError(f"matrix must be 2x2 or 4x4, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    arr.setflags(write=False)
    return arr


def hermiticity_defect(a: np.ndarray) -> float:
    """Largest entrywise deviation between ``a`` and its adjoint."""
    return float(np.max(np.abs(a - a.conj().T)))


def min_eigenvalue_hermitian(a: np.ndarray, tol: float = HERMITICITY_TOL) -> float:
    """Smallest eigenvalue of a Hermitian matrix.

    Input whose hermiticity defect exceeds ``tol`` (entrywise) is rejected;
    accuracy of the returned eigenvalue is limited only by the dense solver,
    far below 1e-10 at these dimensions.
    """
    defect = hermiticity_defect(a)
    if defect > tol:
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3e} > {tol:.1e})")
    return float(np.linalg.eigvalsh(a)[0])
