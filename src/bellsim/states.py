"""The two-qubit states under study: the singlet and the Werner family."""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING

from .linalg import HERMITICITY_TOL, ComplexMatrix, Record, hermiticity_defect

if TYPE_CHECKING:
    import numpy as np

TRACE_ATOL = 1e-10
EIGENVALUE_ATOL = 1e-10

VISIBILITY_MIN = -1.0 / 3.0
VISIBILITY_MAX = 1.0
_VISIBILITY_SLACK = 1e-12


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
    import numpy as np
    if m.shape != (4, 4):
        raise ValueError("a two-qubit state must be 4x4")
    return StateDiagnostics(
        hermiticity_error=hermiticity_defect(m),
        trace_error=abs(complex(np.trace(m)) - 1.0),
        min_eigenvalue=float(np.linalg.eigvalsh((m + m.conj().T) / 2)[0]),
    )


class DensityMatrix(Record):
    """Validated two-qubit state: Hermitian, unit trace, positive semidefinite.

    ``matrix`` is a read-only complex128 copy of the 4x4 array-like given.
    States compare and hash by identity.
    """

    __slots__ = ("matrix",)
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, matrix) -> None:
        object.__setattr__(self, "matrix", ComplexMatrix(matrix))
        diag = _diagnose(self.matrix)
        if not diag.is_valid:
            raise ValueError(
                "invalid density matrix: "
                f"hermiticity error {diag.hermiticity_error:.3e}, "
                f"trace error {diag.trace_error:.3e}, "
                f"min eigenvalue {diag.min_eigenvalue:.3e}"
            )


class WernerState(DensityMatrix):
    """``p * singlet + (1-p)/4 * identity``, valid by construction: for ``p`` in
    ``[-1/3, 1]`` (checked) the spectrum ``{(1+3p)/4, (1-p)/4 x3}`` is nonnegative.
    ``matrix`` is built from :func:`werner_matrix` on first use."""

    __slots__ = ("p", "__dict__")  # the __dict__ holds the cached matrix

    def __init__(self, p: float) -> None:
        if not (VISIBILITY_MIN - _VISIBILITY_SLACK <= p <= VISIBILITY_MAX + _VISIBILITY_SLACK):
            raise ValueError(f"visibility p={p!r} outside [{VISIBILITY_MIN!r}, {VISIBILITY_MAX!r}]: "
                             "the state would not be positive semidefinite")
        object.__setattr__(self, "p", float(p))

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        return ComplexMatrix(werner_matrix(self.p))

    def __repr__(self) -> str:
        return f"WernerState(p={self.p!r})"


_SINGLET_ENTRIES = ((0.0,) * 4, (0.0, 0.5, -0.5, 0.0), (0.0, -0.5, 0.5, 0.0), (0.0,) * 4)


def make_singlet() -> DensityMatrix:
    """Projector onto (ud - du)/sqrt(2) in the (uu, ud, du, dd) basis: the Werner state at p = 1."""
    return WernerState(1.0)


def werner_matrix(p: float) -> np.ndarray:
    """Raw Werner combination p * singlet + (1-p)/4 * identity, unvalidated, as a real array.

    Useful for probing out-of-range ``p`` with :func:`validate`; use
    :func:`make_werner` to obtain a guaranteed state.
    """
    import numpy as np
    return p * np.array(_SINGLET_ENTRIES) + (1.0 - p) / 4.0 * np.eye(4)


def make_werner(p: float) -> DensityMatrix:
    """Werner state with visibility ``p``.

    For p in [0, 1] this is the probabilistic mixture of the singlet with
    white noise (identity/4); the full positivity range extends down to -1/3.
    Out-of-range ``p``, NaN included, raises instead of being clamped.
    """
    return WernerState(p)
