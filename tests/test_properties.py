"""Property tests: the correlation tensor equals the Born-rule traces, the
settings built from the singular value decomposition of T reach the Horodecki
closed form, and no state or local model exceeds its CHSH bound."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bellsim.chsh import (
    CLASSICAL_BOUND,
    TSIRELSON_BOUND,
    MeasurementSettings,
    chsh_quantum,
    chsh_value,
    correlation_tensor,
    correlator_table,
    horodecki_max_s,
    optimize_settings,
    quantum_correlator,
    tsirelson_check,
)
from bellsim.lhv import LhvModel, lhv_correlators_exact
from bellsim.observables import UnitVector3, X_AXIS, Y_AXIS, Z_AXIS, spin_observable
from bellsim.states import DensityMatrix, make_werner

GAP_TOL = 1e-14
BORN_TOL = 1e-15
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
SEARCH_SEEDS = st.integers(min_value=0, max_value=1000)


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
    assert tsirelson_check([result])


SIMPLEX_POINTS = st.lists(st.floats(0.0, 1.0), min_size=16, max_size=16).filter(lambda w: sum(w) > 0.0)


@settings(max_examples=200, deadline=None)
@given(raw=SIMPLEX_POINTS)
def test_local_models_within_classical_bound(raw):
    total = math.fsum(raw)
    model = LhvModel.from_pattern_weights([w / total for w in raw])
    assert abs(chsh_value(lhv_correlators_exact(model))) <= CLASSICAL_BOUND + 1e-12


def _assert_reaches_closed_form(rho: DensityMatrix, seed: int) -> None:
    s = optimize_settings(rho, seed=seed).s_value
    assert abs(s - horodecki_max_s(rho)) <= GAP_TOL


@settings(max_examples=60, deadline=None)
@given(state_seed=SEEDS, seed=SEARCH_SEEDS)
def test_pure_states_reach_horodecki(state_seed, seed):
    _assert_reaches_closed_form(_pure(state_seed), seed)


@settings(max_examples=60, deadline=None)
@given(state_seed=SEEDS, seed=SEARCH_SEEDS)
def test_ginibre_mixed_states_reach_horodecki(state_seed, seed):
    _assert_reaches_closed_form(_ginibre(state_seed), seed)


@settings(max_examples=60, deadline=None)
@given(p=st.floats(min_value=-1.0 / 3.0, max_value=1.0), seed=SEARCH_SEEDS)
def test_werner_states_reach_horodecki(p, seed):
    _assert_reaches_closed_form(make_werner(p), seed)


@settings(max_examples=30, deadline=None)
@given(seed=SEARCH_SEEDS)
def test_white_noise_zero_tensor(seed):
    rho = make_werner(0.0)
    assert horodecki_max_s(rho) == 0.0
    assert abs(optimize_settings(rho, seed=seed).s_value) <= GAP_TOL


@settings(max_examples=30, deadline=None)
@given(state_seed=SEEDS, seed=SEARCH_SEEDS)
def test_rank_one_tensor_product_states(state_seed, seed):
    _assert_reaches_closed_form(_product(state_seed), seed)


@settings(max_examples=30, deadline=None)
@given(q=st.floats(min_value=0.0, max_value=1.0), seed=SEARCH_SEEDS)
def test_rank_one_tensor_classical_correlation(q, seed):
    rho = _classically_correlated(q)
    assert abs(horodecki_max_s(rho) - 2.0) <= 1e-12
    _assert_reaches_closed_form(rho, seed)


@pytest.mark.parametrize("p", [1.1140170223482763e-158, 1e-300, 5e-324])
@pytest.mark.parametrize("seed", [0, 1])
def test_tiny_werner_visibility(p, seed):
    """A T near the bottom of the float range still gives unit directions."""
    _assert_reaches_closed_form(make_werner(p), seed)
