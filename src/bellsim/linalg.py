"""What only a state given as a matrix runs: the checked copy of a 2x2 or 4x4
complex matrix, the validity diagnostics of a two-qubit state and its
Born-rule correlation tensor. Each of them needs numpy, which is imported
when this module loads. Other modules import it inside the functions that
need it, so the commands, which build only singlet and Werner states, never
load it. They spell it ``import bellsim.linalg as linalg``: on CPython
3.11 (2-vCPU Xeon) that costs 0.3 us a call, and ``from .linalg import name``
1.6-2.1 us, a few percent of a library call on a matrix state."""

from __future__ import annotations

import functools

import numpy as np

from .record import InternalConsistencyError, Record

HERMITICITY_TOL = 1e-10
TRACE_ATOL = 1e-10
EIGENVALUE_ATOL = 1e-10
BORN_IMAG_TOL = 1e-10


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
    return float(abs(a - a.conj().T).max())


def min_eigenvalue_hermitian(a: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix.

    Input whose hermiticity defect exceeds ``HERMITICITY_TOL`` (entrywise) is rejected;
    accuracy of the returned eigenvalue is limited only by the dense solver,
    far below 1e-10 at these dimensions.
    """
    defect = hermiticity_defect(a)
    if defect > HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3e} > {HERMITICITY_TOL:.1e})")
    return float(np.linalg.eigvalsh(a)[0])


class StateDiagnostics(Record):
    """How far a candidate 4x4 matrix is from being a valid density matrix.

    ``min_eigenvalue`` is computed on the Hermitian part so the report stays
    meaningful even when the hermiticity check itself fails.
    """

    __slots__ = ("hermiticity_error", "trace_error", "min_eigenvalue")

    def __init__(self, hermiticity_error: float, trace_error: float, min_eigenvalue: float) -> None:
        object.__setattr__(self, "hermiticity_error", hermiticity_error)
        object.__setattr__(self, "trace_error", trace_error)
        object.__setattr__(self, "min_eigenvalue", min_eigenvalue)

    @property
    def hermitian_ok(self) -> bool:
        return self.hermiticity_error <= HERMITICITY_TOL

    @property
    def trace_ok(self) -> bool:
        return self.trace_error <= TRACE_ATOL

    @property
    def positive_ok(self) -> bool:
        return self.min_eigenvalue >= -EIGENVALUE_ATOL

    @property
    def is_valid(self) -> bool:
        return self.hermitian_ok and self.trace_ok and self.positive_ok


def validate(matrix) -> StateDiagnostics:
    """Diagnose a candidate two-qubit state, any 4x4 array-like of finite entries, without raising on failure."""
    return _diagnose(ComplexMatrix(matrix))


def _diagnose(m: np.ndarray) -> StateDiagnostics:
    """:func:`validate` on a matrix that :func:`ComplexMatrix` already copied and checked."""
    if m.shape != (4, 4):
        raise ValueError("a two-qubit state must be 4x4")
    return StateDiagnostics(
        hermiticity_error=hermiticity_defect(m),
        trace_error=abs(complex(np.trace(m)) - 1.0),
        min_eigenvalue=float(np.linalg.eigvalsh((m + m.conj().T) / 2)[0]),
    )


def checked_state(entries) -> np.ndarray:
    """The :func:`ComplexMatrix` copy of a valid 4x4 density matrix; anything else raises :class:`ValueError`."""
    m = ComplexMatrix(entries)
    diag = _diagnose(m)
    if not diag.is_valid:
        raise ValueError(
            "invalid density matrix: "
            f"hermiticity error {diag.hermiticity_error:.3e}, "
            f"trace error {diag.trace_error:.3e}, "
            f"min eigenvalue {diag.min_eigenvalue:.3e}"
        )
    return m


def _check_real(value, what: str) -> None:
    residue = float(abs(value.imag).max())
    if residue > BORN_IMAG_TOL:
        raise InternalConsistencyError(
            f"{what} has imaginary part {residue:.3e}; "
            "state or observable is not Hermitian in the expected ordering"
        )


_PAULIS = (((0, 1), (1, 0)), ((0, -1j), (1j, 0)), ((1, 0), (0, -1)))  # sigma_x, sigma_y, sigma_z


@functools.cache
def _pauli_pairs() -> np.ndarray:
    """Entry (i, j) is (sigma_i (x) sigma_j)^T flattened: its product with the flattened state is T_ij."""
    paulis = np.array(_PAULIS)
    return np.array([[np.kron(a, b).T.reshape(16) for b in paulis] for a in paulis])


def born_tensor(m: np.ndarray) -> tuple[tuple[float, float, float], ...]:
    """The correlation tensor T_ij = Tr(m sigma_i (x) sigma_j) of a checked 4x4 state matrix, as rows
    of floats, with its imaginary residue checked like that of a Born-rule trace."""
    t_mat = _pauli_pairs() @ m.reshape(16)
    _check_real(t_mat, "correlation tensor")
    return tuple(map(tuple, t_mat.real.tolist()))
