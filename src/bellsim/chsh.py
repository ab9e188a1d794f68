"""Quantum CHSH engine: Born-rule correlators, the CHSH functional, its
maximization over measurement directions, and the Werner visibility threshold.

The exact correlators, the correlation tensor, the settings and the bounds
are defined in :mod:`bellsim.states` and re-exported here. This module
adds what only ``optimize``, ``werner-sweep`` and library callers run: the
Born-rule traces, the settings search and the threshold bisection."""

from __future__ import annotations

import math

from .observables import UnitVector3
from .record import Record
from .states import (
    CLASSICAL_BOUND,
    CLASSICAL_SLACK,
    MAX_SWEEP_POINTS,
    MAX_TRIALS,
    TSIRELSON_BOUND,
    TSIRELSON_SLACK,
    ChshResult,
    CorrelatorTable,
    DensityMatrix,
    MeasurementSettings,
    Tensor,
    _table,
    aligned_settings,
    chsh_value,
    correlation_tensor,
    correlator_table,
    make_werner,
    settings_from_polar,
    singlet_optimal_settings,
)

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing at run time
if TYPE_CHECKING:
    import numpy as np


class InternalConsistencyError(RuntimeError):
    """A Born-rule trace of :func:`born_expectation` came out with an imaginary part above 1e-10."""


def born_expectation(state: np.ndarray, observable: np.ndarray) -> float:
    """Tr(state * observable) of raw arrays, asserting the imaginary residue is below 1e-10."""
    value = (state @ observable).trace()
    residue = abs(value.imag)
    if residue > 1e-10:
        raise InternalConsistencyError(
            f"Born-rule trace has imaginary part {residue:.3e}; "
            "state or observable is not Hermitian in the expected ordering"
        )
    return float(value.real)


def quantum_correlator(rho: DensityMatrix, a: np.ndarray, b: np.ndarray) -> float:
    """Expectation of the product of outcomes when A measures observable ``a`` and B measures ``b``."""
    import numpy as np
    return born_expectation(rho.matrix, np.kron(a, b))


def singlet_correlator_analytic(a: UnitVector3, b: UnitVector3) -> float:
    """Closed form for the singlet: minus the dot product of the directions."""
    return -a.dot(b)


def _chsh_result(t_mat: Tensor, s: MeasurementSettings) -> ChshResult:
    return ChshResult(chsh_value(_table(t_mat, s)), s)


def chsh_quantum(rho: DensityMatrix, s: MeasurementSettings) -> ChshResult:
    """CHSH value of ``rho`` at the given settings, with bound flags."""
    return _chsh_result(correlation_tensor(rho), s)


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
    decomposition of T by :func:`_svd` (see the comment above), and S is
    evaluated at them through T. It is never negative: the settings give S =
    2(s1 + r s2)/sqrt(1 + r^2), since u_k . T v_k = s_k >= 0 and r >= 0.
    Tied singular values leave the directions free within their span: a
    diagonal T (every Werner state's) breaks ties in the order x, y, z, any
    other T in LAPACK's order. S and the singular values do not depend on the
    choice. ``seed`` is accepted and unused; only the benchmark harness
    passes it.
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
    trace_info = OptimizationTrace(singular_values=tuple(s), optimality_gap=_max_s(s) - result.s_value)
    return result, trace_info


def optimize_settings(rho: DensityMatrix) -> ChshResult:
    """Maximize |S| over measurement directions; see :func:`optimize_settings_traced`."""
    return optimize_settings_traced(rho)[0]


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

