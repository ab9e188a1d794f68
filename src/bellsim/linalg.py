"""What only a state given as a matrix runs: the checked copy of a 2x2 or 4x4
complex matrix, the validity diagnostics of a two-qubit state and its
Born-rule correlation tensor. Each of them needs numpy, which is imported
when this module loads. Other modules import it inside the functions that
need it, so the commands, which build only singlet and Werner states, never
load it. They spell it ``import bellsim.linalg as linalg``: on CPython
3.11 (2-vCPU Xeon) that costs 0.3 us a call, and ``from .linalg import name``
1.6-2.1 us, a few percent of a library call on a matrix state."""

from __future__ import annotations

import numpy as np

from .record import Record

HERMITICITY_TOL = 1e-10
TRACE_ATOL = 1e-10
EIGENVALUE_ATOL = 1e-10


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
    """Smallest eigenvalue of the Hermitian part (a + a^H)/2 of a Hermitian matrix, as :func:`validate` measures it.

    Input whose hermiticity defect exceeds ``HERMITICITY_TOL`` (entrywise) is rejected;
    accuracy of the returned eigenvalue is limited only by the dense solver,
    far below 1e-10 at these dimensions.
    """
    defect = hermiticity_defect(a)
    if defect > HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3e} > {HERMITICITY_TOL:.1e})")
    return float(np.linalg.eigvalsh((a + a.conj().T) / 2)[0])


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
    return _diagnose(ComplexMatrix(matrix))[0]


def _diagnose(m: np.ndarray) -> tuple[StateDiagnostics, np.ndarray]:
    """:func:`validate` on a matrix that :func:`ComplexMatrix` already copied and checked, with the
    read-only Hermitian part (m + m^H)/2 whose spectrum it measured."""
    if m.shape != (4, 4):
        raise ValueError("a two-qubit state must be 4x4")
    hermitian = (m + m.conj().T) / 2
    hermitian.setflags(write=False)
    return StateDiagnostics(
        hermiticity_error=hermiticity_defect(m),
        trace_error=abs(complex(np.trace(m)) - 1.0),
        min_eigenvalue=float(np.linalg.eigvalsh(hermitian)[0]),
    ), hermitian


def checked_state(entries) -> np.ndarray:
    """The read-only Hermitian part (m + m^H)/2 of the :func:`ComplexMatrix` copy m of a valid 4x4
    density matrix, whose traces with Hermitian observables are real up to rounding; anything else
    raises :class:`ValueError`."""
    diag, hermitian = _diagnose(ComplexMatrix(entries))
    if not diag.is_valid:
        raise ValueError(
            "invalid density matrix: "
            f"hermiticity error {diag.hermiticity_error:.3e}, "
            f"trace error {diag.trace_error:.3e}, "
            f"min eigenvalue {diag.min_eigenvalue:.3e}"
        )
    return hermitian


_PAULIS = (((0, 1), (1, 0)), ((0, -1j), (1j, 0)), ((1, 0), (0, -1)))  # sigma_x, sigma_y, sigma_z

#: Entry (i, j) is (sigma_i (x) sigma_j)^T flattened: its product with the flattened state is T_ij.
_PAULI_PAIRS = np.array([[np.kron(a, b).T.reshape(16) for b in np.array(_PAULIS)] for a in np.array(_PAULIS)])


def born_tensor(m: np.ndarray) -> tuple[tuple[float, float, float], ...]:
    """The correlation tensor T_ij = Tr(m sigma_i (x) sigma_j) of a state matrix from :func:`checked_state`,
    as rows of floats: m is Hermitian, so each trace is real up to rounding and its real part is kept."""
    return tuple(map(tuple, (_PAULI_PAIRS @ m.reshape(16)).real.tolist()))
