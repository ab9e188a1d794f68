"""Checks on the 2x2 and 4x4 complex matrices of two-qubit work, and the
immutable base class of bellsim's record types."""

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing at run time
if TYPE_CHECKING:
    import numpy as np

HERMITICITY_TOL = 1e-10


class Record:
    """An immutable record whose fields are its ``__slots__``, in order.

    ``__init__`` sets each field once with ``object.__setattr__``; afterwards
    assigning or deleting any attribute raises :class:`AttributeError`. Two
    records are equal when they are of the same class with equal fields, the
    hash is that of the fields, and ``repr`` names every field.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):  # pickle and copy, which bypass __init__
        for name, value in state[1].items():
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self.__slots__)})"


def ComplexMatrix(entries) -> "np.ndarray":
    """A read-only complex128 copy of a 2x2 or 4x4 array-like.

    Any other shape and any non-finite entry (NaN/Inf) is rejected, and the
    copy cannot be written through, so every matrix in circulation is safe
    to share.
    """
    import numpy as np
    arr = np.array(entries, dtype=np.complex128)
    if arr.shape not in ((2, 2), (4, 4)):
        raise ValueError(f"matrix must be 2x2 or 4x4, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    arr.setflags(write=False)
    return arr


def hermiticity_defect(a: "np.ndarray") -> float:
    """Largest entrywise deviation between ``a`` and its adjoint."""
    return float(abs(a - a.conj().T).max())


def min_eigenvalue_hermitian(a: "np.ndarray", tol: float = HERMITICITY_TOL) -> float:
    """Smallest eigenvalue of a Hermitian matrix.

    Input whose hermiticity defect exceeds ``tol`` (entrywise) is rejected;
    accuracy of the returned eigenvalue is limited only by the dense solver,
    far below 1e-10 at these dimensions.
    """
    import numpy as np
    defect = hermiticity_defect(a)
    if defect > tol:
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3e} > {tol:.1e})")
    return float(np.linalg.eigvalsh(a)[0])
