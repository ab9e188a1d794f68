"""Property tests: the correlation tensor equals the Born-rule traces, the
settings built from the singular value decomposition of T reach the Horodecki
closed form, and no state or local model exceeds its CHSH bound. The plain
Python paths for Werner states, their diagonal T's SVD, correlator tables and
local models agree with the numpy computations they replaced."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bellsim.chsh import (
    CLASSICAL_BOUND,
    TSIRELSON_BOUND,
    MeasurementSettings,
    _svd,
    _table,
    chsh_quantum,
    chsh_value,
    correlation_tensor,
    correlator_table,
    horodecki_max_s,
    optimize_settings,
    optimize_settings_traced,
    quantum_correlator,
)
from bellsim.lhv import RESPONSE_PATTERNS, LhvModel, lhv_correlators_exact
from bellsim.linalg import validate
from bellsim.observables import UnitVector3, X_AXIS, Y_AXIS, Z_AXIS, spin_observable
from bellsim.states import DensityMatrix, make_werner, werner_matrix

GAP_TOL = 1e-14
BORN_TOL = 1e-15
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
VISIBILITIES = st.floats(min_value=-1.0 / 3.0, max_value=1.0)
#: The numpy version whose Born-trace bits the plain Werner tensor is pinned to, as in test_golden.py.
NUMPY_VERSION = "2.4.6"


def _pure(seed: int) -> DensityMatrix:
    rng = np.random.default_rng(seed)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    return DensityMatrix(np.outer(v, v.conj()))


def _ginibre(seed: int) -> DensityMatrix:
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


def _product(seed: int) -> DensityMatrix:
    """A product of two pure qubit states: T = m_A m_B^T has rank 1."""
    rng = np.random.default_rng(seed)
    kets = []
    for _ in range(2):
        k = rng.normal(size=2) + 1j * rng.normal(size=2)
        kets.append(k / np.linalg.norm(k))
    v = np.kron(*kets)
    return DensityMatrix(np.outer(v, v.conj()))


def _classically_correlated(q: float) -> DensityMatrix:
    """q |00><00| + (1 - q) |11><11|: T = diag(0, 0, 1), rank 1 for every q."""
    return DensityMatrix(np.diag([q, 0.0, 0.0, 1.0 - q]))


def _state(kind: str, seed: int) -> DensityMatrix:
    if kind == "werner":
        return make_werner(np.random.default_rng(seed).uniform(-1.0 / 3.0, 1.0))
    return {"pure": _pure, "ginibre": _ginibre}[kind](seed)


def _born_tensor(rho: DensityMatrix) -> np.ndarray:
    """T from 9 Born-rule traces, one per pair of coordinate axes."""
    axes = [spin_observable(n) for n in (X_AXIS, Y_AXIS, Z_AXIS)]
    return np.array([[quantum_correlator(rho, a, b) for b in axes] for a in axes])


def _born_table(rho: DensityMatrix, s: MeasurementSettings) -> list[float]:
    """e11, e12, e21, e22 as 4 Born-rule traces."""
    return [quantum_correlator(rho, spin_observable(a), spin_observable(b)) for a in (s.a1, s.a2) for b in (s.b1, s.b2)]


def _random_settings(seed: int) -> MeasurementSettings:
    v = np.random.default_rng(seed).normal(size=(4, 3))
    return MeasurementSettings(*(UnitVector3(*row) for row in v / np.linalg.norm(v, axis=1, keepdims=True)))


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(["pure", "ginibre", "werner"]), state_seed=SEEDS, settings_seed=SEEDS)
def test_correlation_tensor_matches_born_traces(kind, state_seed, settings_seed):
    rho = _state(kind, state_seed)
    assert np.abs(correlation_tensor(rho) - _born_tensor(rho)).max() <= BORN_TOL
    s = _random_settings(settings_seed)
    table = correlator_table(rho, s)
    born = _born_table(rho, s)
    assert max(abs(x - y) for x, y in zip(table.as_dict().values(), born)) <= BORN_TOL


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(["pure", "ginibre", "werner"]), state_seed=SEEDS, settings_seed=SEEDS)
def test_quantum_chsh_within_tsirelson(kind, state_seed, settings_seed):
    result = chsh_quantum(_state(kind, state_seed), _random_settings(settings_seed))
    assert abs(result.s_value) <= TSIRELSON_BOUND + 1e-8
    assert result.within_tsirelson


SIMPLEX_POINTS = st.lists(st.floats(0.0, 1.0), min_size=16, max_size=16).filter(lambda w: sum(w) > 0.0)


@settings(max_examples=200, deadline=None)
@given(raw=SIMPLEX_POINTS)
def test_local_models_within_classical_bound(raw):
    total = math.fsum(raw)
    model = LhvModel.from_pattern_weights([w / total for w in raw])
    assert abs(chsh_value(lhv_correlators_exact(model))) <= CLASSICAL_BOUND + 1e-12


def _assert_reaches_closed_form(rho: DensityMatrix) -> None:
    """The search reaches the closed form, and its S is never negative: no sign flip is needed."""
    s = optimize_settings(rho).s_value
    assert s >= 0.0
    assert abs(s - horodecki_max_s(rho)) <= GAP_TOL


@settings(max_examples=60, deadline=None)
@given(state_seed=SEEDS)
def test_pure_states_reach_horodecki(state_seed):
    _assert_reaches_closed_form(_pure(state_seed))


@settings(max_examples=60, deadline=None)
@given(state_seed=SEEDS)
def test_ginibre_mixed_states_reach_horodecki(state_seed):
    _assert_reaches_closed_form(_ginibre(state_seed))


@settings(max_examples=60, deadline=None)
@given(p=st.floats(min_value=-1.0 / 3.0, max_value=1.0))
def test_werner_states_reach_horodecki(p):
    _assert_reaches_closed_form(make_werner(p))


def test_white_noise_zero_tensor():
    rho = make_werner(0.0)
    assert horodecki_max_s(rho) == 0.0
    assert abs(optimize_settings(rho).s_value) <= GAP_TOL


@settings(max_examples=30, deadline=None)
@given(state_seed=SEEDS)
def test_rank_one_tensor_product_states(state_seed):
    _assert_reaches_closed_form(_product(state_seed))


@settings(max_examples=30, deadline=None)
@given(q=st.floats(min_value=0.0, max_value=1.0))
def test_rank_one_tensor_classical_correlation(q):
    rho = _classically_correlated(q)
    assert abs(horodecki_max_s(rho) - 2.0) <= 1e-12
    _assert_reaches_closed_form(rho)


@pytest.mark.parametrize("p", [1.1140170223482763e-158, 1e-300, 5e-324])
@pytest.mark.parametrize("seed", [0, 1])
def test_tiny_werner_visibility(p, seed):
    """A T near the bottom of the float range still gives unit directions.

    No settings drawn from the seed beat the ones found."""
    _assert_reaches_closed_form(make_werner(p))
    result = optimize_settings(make_werner(p))
    assert abs(chsh_quantum(make_werner(p), _random_settings(seed)).s_value) <= result.s_value * (1.0 + 1e-12)


#: Werner visibilities: fixed uniform draws plus the ends of the range, signed zeros,
#: tiny and subnormal p and the threshold 1/sqrt(2).
WERNER_PANEL = [
    *np.random.default_rng(2027).uniform(-1.0 / 3.0, 1.0, 300).tolist(),
    -1.0 / 3.0, -0.0, 0.0, 5e-324, 1e-300, 1.0 / math.sqrt(2.0), 1.0,
]
#: LAPACK scales a T whose largest entry is below sqrt(tiny)/(2 eps), about
#: 6.7e-139, up before its SVD and back after, which can move the last bit of a
#: singular value (at p = 1e-300 it returns 1 ulp less); this bound lies above.
LAPACK_SCALING_BELOW = 1e-138


def _lapack_reference(t_mat) -> tuple[float, list[float]]:
    """|S| and the singular values from np.linalg.svd of T, with the settings built as the closed form says."""
    u, s, vt = np.linalg.svd(t_mat)
    r = s[1] / s[0] if s[0] > 0.0 else 0.0
    norm = math.hypot(1.0, r)
    vectors = (u[:, 0], u[:, 1], (vt[0] + r * vt[1]) / norm, (vt[0] - r * vt[1]) / norm)
    ref = MeasurementSettings(*(UnitVector3(*v.tolist()) for v in vectors))
    return abs(chsh_value(_table(t_mat, ref))), s.tolist()


def test_diagonal_svd_matches_lapack_on_werner_panel():
    """A Werner state's plain-Python SVD is exact and gives LAPACK's S to the bit and valid settings.

    The directions may differ from LAPACK's where singular values tie: the
    plain path keeps the order x, y, z, LAPACK has its own.
    """
    for p in WERNER_PANEL:
        rho = make_werner(p)
        t_mat = correlation_tensor(rho)
        u, sv, vt = _svd(t_mat)
        assert (np.array(u).T @ np.diag(sv) @ np.array(vt)).tolist() == [list(row) for row in t_mat], p
        result, trace_info = optimize_settings_traced(rho)
        s_ref, sv_ref = _lapack_reference(t_mat)
        assert result.s_value.hex() == s_ref.hex(), p
        if abs(p) >= LAPACK_SCALING_BELOW:
            assert list(trace_info.singular_values) == sv_ref, p
        else:
            assert all(abs(x - y) <= math.ulp(y) for x, y in zip(trace_info.singular_values, sv_ref)), p
        st = result.settings
        assert abs(st.a1.dot(st.a2)) <= 1e-15, p
        assert all(abs(b.dot(b) - 1.0) <= 1e-15 for b in (st.b1, st.b2)), p
        assert abs(trace_info.optimality_gap) <= GAP_TOL, p


def _jacobi_eigenvalues(m: list[list[float]]) -> list[float]:
    """The eigenvalues of a symmetric 3x3 matrix, ascending, by cyclic Jacobi rotations in plain Python.

    Each rotation in the (p, q) plane zeroes the (p, q) entry (Numerical Recipes, section 11.1); ten
    sweeps of the three planes leave the off-diagonal far below rounding, as convergence is quadratic.
    """
    a = [list(row) for row in m]
    for _ in range(10):
        for p, q in ((0, 1), (0, 2), (1, 2)):
            if a[p][q] == 0.0:
                continue
            theta = (a[q][q] - a[p][p]) / (2.0 * a[p][q])
            t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
            c = 1.0 / math.hypot(t, 1.0)
            s = t * c
            for row in a:  # columns p and q of A J
                row[p], row[q] = c * row[p] - s * row[q], s * row[p] + c * row[q]
            a[p], a[q] = ([c * x - s * y for x, y in zip(a[p], a[q])],  # rows p and q of J^T A J
                          [s * x + c * y for x, y in zip(a[p], a[q])])
            a[p][q] = a[q][p] = 0.0
    return sorted(a[i][i] for i in range(3))


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["pure", "ginibre"]), state_seed=SEEDS)
def test_horodecki_max_s_matches_an_oracle_without_svd(kind, state_seed):
    """s1^2 + s2^2 = |T|_F^2 - lambda_min(T^T T): the singular values squared are the eigenvalues of T^T T."""
    rho = _state(kind, state_seed)
    t_mat = correlation_tensor(rho)
    gram = [[math.fsum(row[i] * row[j] for row in t_mat) for j in range(3)] for i in range(3)]
    want = math.fsum(x * x for row in t_mat for x in row) - _jacobi_eigenvalues(gram)[0]
    assert abs(horodecki_max_s(rho) ** 2 / 4.0 - want) <= 1e-12 * want


@pytest.mark.skipif(np.__version__ != NUMPY_VERSION, reason=f"the bits were compared under numpy {NUMPY_VERSION}")
@settings(max_examples=300, deadline=None)
@given(p=VISIBILITIES)
def test_werner_tensor_has_the_bits_of_the_numpy_born_traces(p):
    """A Werner state's plain-float T equals the numpy T of its matrix, signed zeros included."""
    plain = correlation_tensor(make_werner(p))
    born = correlation_tensor(DensityMatrix(werner_matrix(p)))
    assert [[x.hex() for x in row] for row in plain] == [[x.hex() for x in row] for row in born]


@settings(max_examples=200, deadline=None)
@given(p=VISIBILITIES)
def test_werner_states_are_valid_by_construction(p):
    """The range check alone makes a state: the eigensolver agrees, and the lazy matrix is werner_matrix(p)."""
    diag = validate(werner_matrix(p))
    assert diag.is_valid
    assert abs(diag.min_eigenvalue - min((1 + 3 * p) / 4, (1 - p) / 4)) <= 1e-15
    matrix = make_werner(p).matrix
    assert not matrix.flags.writeable
    assert matrix.tobytes() == werner_matrix(p).astype(np.complex128).tobytes()


@settings(max_examples=300, deadline=None)
@given(settings_seed=SEEDS, entries=st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9))
def test_plain_table_matches_the_numpy_product(settings_seed, entries):
    t_mat = np.reshape(entries, (3, 3))
    t_mat /= max(1.0, np.linalg.norm(t_mat))  # spectral norm at most 1, so every |e_jk| <= 1
    s = _random_settings(settings_seed)
    a, b = ([[v.x, v.y, v.z] for v in pair] for pair in ((s.a1, s.a2), (s.b1, s.b2)))
    expected = (np.array(a) @ t_mat @ np.array(b).T).ravel()
    table = _table(tuple(map(tuple, t_mat.tolist())), s)
    assert np.abs(np.array(list(table.as_dict().values())) - expected).max() <= 1e-15


def _einsum_table(model: LhvModel) -> list[float]:
    resp = np.array(RESPONSE_PATTERNS, dtype=float)
    return np.einsum("l,lj,lk->jk", np.array(model.weights), resp[:, :2], resp[:, 2:]).ravel().tolist()


@settings(max_examples=200, deadline=None)
@given(cuts=st.lists(st.integers(0, 2**20), min_size=15, max_size=15))
def test_lhv_sums_equal_einsum_on_dyadic_weights(cuts):
    bounds = [0, *sorted(cuts), 2**20]
    model = LhvModel.from_pattern_weights([(hi - lo) / 2**20 for lo, hi in zip(bounds, bounds[1:])])
    assert list(lhv_correlators_exact(model).as_dict().values()) == _einsum_table(model)


@settings(max_examples=200, deadline=None)
@given(seed=SEEDS)
def test_lhv_sums_match_einsum_on_dirichlet_weights(seed):
    model = LhvModel.from_pattern_weights(np.random.default_rng(seed).dirichlet(np.ones(16)).tolist())
    table = list(lhv_correlators_exact(model).as_dict().values())
    assert max(abs(x - y) for x, y in zip(table, _einsum_table(model))) <= 1e-15
