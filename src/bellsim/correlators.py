"""Exact quantum correlators: measurement settings, the table of the four
correlators of a state and the CHSH value with its bounds.

This is the part of the quantum engine that every command loads. A table is the
bilinear form of the correlation tensor from :mod:`bellsim.states`, which runs
on plain Python for the Werner states that the commands build.
:mod:`bellsim.chsh` re-exports each name here, the tensor included, and adds
the Born-rule traces, the settings search and the Werner threshold.
"""

from __future__ import annotations

import math

from .observables import UnitVector3, X_AXIS, Z_AXIS, from_polar
from .record import Record
from .states import DensityMatrix, Tensor, correlation_tensor

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing at run time
if TYPE_CHECKING:
    from typing import Iterable

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
#: took 1.4 s for ``sample``, 4.4 s with ``--trial-log /dev/null`` and 1.7 s
#: for ``lhv --preset uniform16``, each at a 35-36 MB peak, as at one trial
#: (child RSS, spawned from a launcher that imports nothing else). It stays at
#: 1e8: the library samplers return every trial as a :class:`TrialLog`, about
#: 8 bytes per trial at peak. Larger counts are refused before any draw.
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
