"""The two-qubit states under study: the singlet and the Werner family, and any
state given as a 4x4 matrix, whose checks are imported from :mod:`bellsim.linalg`
on first use; the correlation tensor of each; and, on it, the part of the quantum
engine that every command loads: measurement settings, the four correlators of a
state and the CHSH value with its bounds. :mod:`bellsim.chsh` re-exports these, the
tensor included, and adds the Born-rule traces, the settings search and the threshold."""

from __future__ import annotations

import functools
import math

from .observables import UnitVector3, X_AXIS, Z_AXIS, from_polar
from .record import Record

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing at run time
if TYPE_CHECKING:
    from typing import Iterable

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


CLASSICAL_BOUND = 2.0
TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)
CLASSICAL_SLACK = 1e-12
TSIRELSON_SLACK = 1e-8
#: A state that :mod:`bellsim.linalg` accepts has trace norm at most 1 + 1e-10 + 2 * 3 * 1e-10
#: (trace error, then three eigenvalues down to -1e-10), and each correlator is bounded by it.
_CORRELATOR_SLACK = 1e-9

#: Points of a Werner sweep. Each point (state, search and row) takes about
#: 0.05 ms on a 2-vCPU Xeon, so a sweep at the bound runs in about 0.6 s as a
#: fresh process (median of 7 runs).
MAX_SWEEP_POINTS = 10_000

#: Largest trial count the samplers of :mod:`bellsim.lhv` accept. It is defined
#: here, in a module every command loads, so the CLI bounds ``--trials``
#: without importing the samplers. The commands hold one block of trials at a
#: time, so the bound is one of time, not memory: on a 2-vCPU Xeon, 1e8 trials
#: took 1.6 s for ``sample``, 6.2 s with ``--trial-log /dev/null`` and 2.0 s
#: for ``lhv --preset uniform16``, each at a 35-37 MB peak, as at one trial
#: (best of 5, child RSS, from a launcher that imports nothing else). It stays
#: at 1e8: the library samplers return every trial as a :class:`TrialLog`,
#: about 8 bytes per trial at peak. Larger counts are refused before any draw.
MAX_TRIALS = 10**8


class MeasurementSettings(Record):
    """One CHSH configuration: A chooses between a1/a2, B between b1/b2."""

    __slots__ = ("a1", "a2", "b1", "b2")

    def __init__(self, a1: UnitVector3, a2: UnitVector3, b1: UnitVector3, b2: UnitVector3) -> None:
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "a2", a2)
        object.__setattr__(self, "b1", b1)
        object.__setattr__(self, "b2", b2)


class CorrelatorTable(Record):
    """The four correlators e_jk = <A_j B_k>, each necessarily in [-1, 1]."""

    __slots__ = ("e11", "e12", "e21", "e22")

    def __init__(self, e11: float, e12: float, e21: float, e22: float) -> None:
        for name, value in zip(self.__slots__, (e11, e12, e21, e22)):
            if not abs(value) <= 1.0 + _CORRELATOR_SLACK:
                raise ValueError(f"correlator {name}={value!r} outside [-1, 1]")
            object.__setattr__(self, name, value)

    def as_dict(self) -> dict:
        return {"e11": self.e11, "e12": self.e12, "e21": self.e21, "e22": self.e22}


def chsh_value(t: CorrelatorTable) -> float:
    """Signed CHSH combination e11 + e12 + e21 - e22; compare |S| to the bounds."""
    return t.e11 + t.e12 + t.e21 - t.e22


class ChshResult(Record):
    """The CHSH value ``s_value`` reached at ``settings``, with its bound flags."""

    __slots__ = ("s_value", "settings")

    def __init__(self, s_value: float, settings: MeasurementSettings) -> None:
        object.__setattr__(self, "s_value", s_value)
        object.__setattr__(self, "settings", settings)

    @property
    def violates_classical(self) -> bool:
        return abs(self.s_value) > CLASSICAL_BOUND + CLASSICAL_SLACK

    @property
    def within_tsirelson(self) -> bool:
        return abs(self.s_value) <= TSIRELSON_BOUND + TSIRELSON_SLACK


def _table(t_mat: Tensor, s: MeasurementSettings) -> CorrelatorTable:
    """e_jk = (a_j T) . b_k, summed in plain Python."""
    rows = [[a.x * tx + a.y * ty + a.z * tz for tx, ty, tz in zip(*t_mat)] for a in (s.a1, s.a2)]
    return CorrelatorTable(*(ax * b.x + ay * b.y + az * b.z for ax, ay, az in rows for b in (s.b1, s.b2)))


def correlator_table(rho: DensityMatrix, s: MeasurementSettings) -> CorrelatorTable:
    """All four correlators e_jk = a_j . T b_k of one configuration, T being :func:`correlation_tensor`."""
    return _table(correlation_tensor(rho), s)


def singlet_optimal_settings() -> MeasurementSettings:
    """A quadruple at which the singlet reaches S = 2*sqrt(2)."""
    inv = 1.0 / math.sqrt(2.0)
    return MeasurementSettings(
        a1=Z_AXIS,
        a2=X_AXIS,
        b1=UnitVector3(-inv, 0.0, -inv),
        b2=UnitVector3(inv, 0.0, -inv),
    )


def aligned_settings() -> MeasurementSettings:
    """All four directions along z; gives S = -2 for the singlet."""
    return MeasurementSettings(Z_AXIS, Z_AXIS, Z_AXIS, Z_AXIS)


def settings_from_polar(angles: Iterable[tuple[float, float]]) -> MeasurementSettings:
    """Build a configuration from four ``(theta, phi)`` pairs in the order a1, a2, b1, b2."""
    vectors = [from_polar(theta, phi) for theta, phi in angles]
    if len(vectors) != 4:
        raise ValueError(f"need exactly 4 directions, got {len(vectors)}")
    return MeasurementSettings(*vectors)
