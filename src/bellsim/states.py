"""The two-qubit states under study: the singlet and the Werner family, and any
state given as a 4x4 matrix, whose checks are imported from :mod:`bellsim.linalg`
on first use; and the correlation tensor of each."""

from __future__ import annotations

import functools

from .record import Record

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing at run time
if TYPE_CHECKING:
    import numpy as np

Tensor = tuple[tuple[float, float, float], ...]  # a 3x3 real matrix as three rows

VISIBILITY_MIN = -1.0 / 3.0
VISIBILITY_MAX = 1.0
_VISIBILITY_SLACK = 1e-12


class DensityMatrix(Record):
    """Validated two-qubit state: Hermitian, unit trace, positive semidefinite.

    ``matrix`` is the read-only Hermitian part (c + c^H)/2 of c, a complex128 copy of the
    4x4 array-like given. States compare and hash by identity.
    """

    __slots__ = ("matrix",)
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, matrix) -> None:
        import bellsim.linalg as linalg
        object.__setattr__(self, "matrix", linalg.checked_state(matrix))


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
        import bellsim.linalg as linalg
        return linalg.ComplexMatrix(werner_matrix(self.p))

    def __repr__(self) -> str:
        return f"WernerState(p={self.p!r})"


_SINGLET_ENTRIES = ((0.0,) * 4, (0.0, 0.5, -0.5, 0.0), (0.0, -0.5, 0.5, 0.0), (0.0,) * 4)


def make_singlet() -> DensityMatrix:
    """Projector onto (ud - du)/sqrt(2) in the (uu, ud, du, dd) basis: the Werner state at p = 1."""
    return WernerState(1.0)


def werner_matrix(p: float) -> np.ndarray:
    """Raw Werner combination p * singlet + (1-p)/4 * identity, unvalidated, as a real array.

    Useful for probing out-of-range ``p`` with :func:`bellsim.linalg.validate`; use
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


def _werner_tensor(p: float) -> Tensor:
    """The correlation tensor T = diag(-p, -p, -p) of the Werner state at visibility ``p``.

    It is summed in plain Python from the entries of :func:`werner_matrix`, q and
    p/2 + q on the diagonal and -p/2 + 0.0 off it, to the bits of the traces."""
    q, off = (1.0 - p) / 4.0, -0.5 * p + 0.0
    t_xx, t_zz = off + off, 2.0 * (q - (0.5 * p + q))
    return ((t_xx, 0.0, 0.0), (0.0, t_xx, 0.0), (0.0, 0.0, t_zz))


def correlation_tensor(rho: DensityMatrix) -> Tensor:
    """The 3x3 correlation tensor T_ij = Tr(rho sigma_i (x) sigma_j), as rows of floats.

    Every correlator of ``rho`` is the bilinear form E(a, b) = a . T b. A Werner state's T is
    summed in plain Python to the bits of the traces; any other state's T is
    :func:`bellsim.linalg.born_tensor` of its matrix."""
    if isinstance(rho, WernerState):
        return _werner_tensor(rho.p)
    import bellsim.linalg as linalg
    return linalg.born_tensor(rho.matrix)
