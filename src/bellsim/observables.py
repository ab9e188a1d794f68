"""Spin-direction observables with a {+1, -1} spectrum."""

from __future__ import annotations

import math

from .record import Record

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing at run time
if TYPE_CHECKING:
    import numpy as np

NORM_INPUT_TOL = 1e-9


class UnitVector3(Record):
    """Real 3-vector of unit norm, i.e. a measurement direction.

    The input norm must be within 1e-9 of 1 (enough slack for accumulated
    float error from angle conversions); accepted vectors are renormalized
    exactly, anything further off is rejected.
    """

    __slots__ = ("x", "y", "z")

    def __init__(self, x: float, y: float, z: float) -> None:
        norm = math.sqrt(x * x + y * y + z * z)
        if not abs(norm - 1.0) <= NORM_INPUT_TOL:
            raise ValueError(f"direction ({x}, {y}, {z}) has norm {norm!r}, not 1")
        object.__setattr__(self, "x", x / norm)
        object.__setattr__(self, "y", y / norm)
        object.__setattr__(self, "z", z / norm)

    def dot(self, other: "UnitVector3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def __neg__(self) -> "UnitVector3":
        return UnitVector3(-self.x, -self.y, -self.z)


X_AXIS = UnitVector3(1.0, 0.0, 0.0)
Y_AXIS = UnitVector3(0.0, 1.0, 0.0)
Z_AXIS = UnitVector3(0.0, 0.0, 1.0)


def from_polar(theta: float, phi: float) -> UnitVector3:
    """(sin t cos p, sin t sin p, cos t) for polar angle t in [0, pi] and azimuth p in [0, 2*pi)."""
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"theta={theta!r} outside [0, pi]")
    if not 0.0 <= phi < 2.0 * math.pi:
        raise ValueError(f"phi={phi!r} outside [0, 2*pi)")
    st = math.sin(theta)
    return UnitVector3(st * math.cos(phi), st * math.sin(phi), math.cos(theta))


def to_polar(v: UnitVector3) -> tuple[float, float]:
    """Canonical ``(theta, phi)`` of a direction; azimuth is 0 at the poles."""
    theta = math.acos(min(1.0, max(-1.0, v.z)))
    if math.sin(theta) < 1e-12:
        return theta, 0.0
    phi = math.atan2(v.y, v.x)
    if phi < 0.0:
        phi += 2.0 * math.pi
    if phi >= 2.0 * math.pi:
        phi = 0.0
    return theta, phi


def spin_observable(n: UnitVector3) -> np.ndarray:
    """Spin observable x*sigma_x + y*sigma_y + z*sigma_z along ``n``.

    A read-only 2x2 complex128 array: Hermitian, traceless, squaring to 1.
    """
    import bellsim.linalg as linalg
    return linalg.ComplexMatrix(
        [
            [n.z, n.x - 1j * n.y],
            [n.x + 1j * n.y, -n.z],
        ]
    )
