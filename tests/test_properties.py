"""Property tests: the see-saw search reaches the Horodecki closed form."""

import numpy as np
from hypothesis import given, settings, strategies as st

from bellsim.chsh import horodecki_max_s, optimize_settings
from bellsim.linalg import ComplexMatrix
from bellsim.states import DensityMatrix, make_werner

GAP_TOL = 1e-9
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
SEARCH_SEEDS = st.integers(min_value=0, max_value=1000)


def _pure(seed: int) -> DensityMatrix:
    rng = np.random.default_rng(seed)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    return DensityMatrix(ComplexMatrix(np.outer(v, v.conj())))


def _ginibre(seed: int) -> DensityMatrix:
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = g @ g.conj().T
    return DensityMatrix(ComplexMatrix(m / np.trace(m).real))


def _product(seed: int) -> DensityMatrix:
    """A product of two pure qubit states: T = m_A m_B^T has rank 1."""
    rng = np.random.default_rng(seed)
    kets = []
    for _ in range(2):
        k = rng.normal(size=2) + 1j * rng.normal(size=2)
        kets.append(k / np.linalg.norm(k))
    v = np.kron(*kets)
    return DensityMatrix(ComplexMatrix(np.outer(v, v.conj())))


def _classically_correlated(q: float) -> DensityMatrix:
    """q |00><00| + (1 - q) |11><11|: T = diag(0, 0, 1), rank 1 for every q."""
    return DensityMatrix(ComplexMatrix(np.diag([q, 0.0, 0.0, 1.0 - q]).astype(complex)))


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
