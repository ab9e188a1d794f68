"""Fine's theorem in closed form: an LHV oracle that does not enumerate the 16 patterns.

The deterministic correlator vectors (e11, e12, e21, e22) = (A1 B1, A1 B2, A2 B1, A2 B2) are the
8 points +-h_i, h_i the rows of the 4x4 Sylvester Hadamard matrix H, so the local tables form the
cross-polytope conv{+-h_i}: a table e is local iff sum_i |c_i| <= 1 with c = H e / 4 (and then
e = H c). Its 16 facets are the 8 CHSH inequalities and |e_jk| <= 1 (Fine, Phys. Rev. Lett. 48,
291, 1982).

The seed panels below were fixed before any run. A failure is a finding about the samplers: do
not re-seed or resize a panel to make it pass.
"""

import itertools
import math

import numpy as np
import pytest

from bellsim.chsh import (
    THRESHOLD_TOL,
    CorrelatorTable,
    aligned_settings,
    correlator_table,
    optimize_settings,
    singlet_optimal_settings,
    werner_threshold,
)
from bellsim.lhv import (
    RESPONSE_PATTERNS,
    LhvModel,
    lhv_correlators_exact,
    sample_lhv_experiment,
    sample_quantum_experiment,
)
from bellsim.states import make_singlet, make_werner
from test_joint_law import ALPHA, MAX_REJECTIONS, chi2_tail, tally

#: The seeds of every random draw below, fixed before any run.
MIXTURE_SEED = 4101
MEMBERSHIP_SEED = 4102
MODEL_SEED = 4103
ONE_LAW_SEEDS = range(3000, 3200)  # the quantum sampler's seed is each plus 10**6
ONE_LAW_TRIALS = 2000

H = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]])
#: The 8 CHSH combinations: the minus sign on each of the 4 correlators, with either overall sign.
CHSH_ROWS = np.array([s * np.where(np.arange(4) == k, -1, 1) for k in range(4) for s in (1, -1)])


def _vector(table) -> np.ndarray:
    return np.array([table.e11, table.e12, table.e21, table.e22])


def _l1(e: np.ndarray) -> np.ndarray:
    """sum_i |c_i| with c = H e / 4, over the last axis."""
    return np.abs(e @ H / 4).sum(axis=-1)


def _pattern_vector(p) -> np.ndarray:
    a1, a2, b1, b2 = p
    return np.array([a1 * b1, a1 * b2, a2 * b1, a2 * b2], dtype=float)


def _fine_model(e: np.ndarray) -> LhvModel:
    """Weight |c_i| on the vertex sign(c_i) h_i, the slack split equally between +-h_1, and each
    vertex's weight in equal halves to its two patterns, one the global flip of the other."""
    c = H @ e / 4
    plus, minus = np.maximum(c, 0.0), np.maximum(-c, 0.0)  # the weights of +h_i and -h_i
    slack = 1.0 - float(np.abs(c).sum())
    plus[0] += slack / 2
    minus[0] += slack / 2
    weights = []
    for p in RESPONSE_PATTERNS:
        v = H @ _pattern_vector(p) / 4  # +-1 at the index of the pattern's vertex, 0 elsewhere
        i = int(np.abs(v).argmax())
        weights.append((plus[i] if v[i] > 0 else minus[i]) / 2)
    return LhvModel.from_pattern_weights(weights)


def test_every_exact_lhv_table_satisfies_the_8_chsh_inequalities():
    deterministic = [_vector(lhv_correlators_exact(LhvModel.deterministic(p))) for p in RESPONSE_PATTERNS]
    values = np.array(deterministic) @ CHSH_ROWS.T
    assert values.max() == 2.0
    assert (values.max(axis=0) == 2.0).all()  # each inequality is tight at some pattern
    rng = np.random.default_rng(MIXTURE_SEED)
    mixtures = [_vector(lhv_correlators_exact(LhvModel.from_pattern_weights(w / w.sum())))
                for w in rng.dirichlet(np.full(16, 0.3), size=500)]
    assert (np.array(mixtures) @ CHSH_ROWS.T).max() <= 2.0 + 1e-12
    assert _l1(np.array(mixtures)).max() <= 1.0 + 1e-15


def test_membership_agrees_with_the_8_chsh_inequalities():
    e = np.random.default_rng(MEMBERSHIP_SEED).uniform(-1.0, 1.0, size=(20_000, 4))
    by_chsh = (e @ CHSH_ROWS.T).max(axis=1) <= 2.0
    by_l1 = _l1(e) <= 1.0
    assert (by_chsh == by_l1).all()
    assert 0 < by_l1.sum() < len(e)  # both sides of the boundary are drawn


def test_fine_model_reproduces_random_local_tables():
    rng = np.random.default_rng(MODEL_SEED)
    draws = rng.dirichlet(np.ones(5), size=300)[:, :4] * rng.choice((-1.0, 1.0), size=(300, 4))
    for c in itertools.chain(draws, [np.zeros(4), np.array([0.0, -1.0, 0.0, 0.0])]):
        e = H @ c
        got = _vector(lhv_correlators_exact(_fine_model(e)))
        assert np.abs(got - e).max() <= 1e-15


def test_optimal_singlet_table_is_not_local():
    e = _vector(correlator_table(make_singlet(), singlet_optimal_settings()))
    assert _l1(e) >= math.sqrt(2.0) - 1e-15


def test_locality_threshold_of_the_optimal_werner_table_is_werner_threshold():
    def local(p: float) -> bool:
        rho = make_werner(p)
        return _l1(_vector(correlator_table(rho, optimize_settings(rho).settings))) <= 1.0

    lo, hi = 0.0, 1.0
    while hi - lo > THRESHOLD_TOL:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if local(mid) else (lo, mid)
    assert abs(0.5 * (lo + hi) - werner_threshold()) <= THRESHOLD_TOL


#: Local tables on which the Fine model and the quantum sampler must draw one law.
ONE_LAW_TABLES = {
    "werner 0.5, optimal": correlator_table(make_werner(0.5), singlet_optimal_settings()),
    "werner 0.7, optimal": correlator_table(make_werner(0.7), singlet_optimal_settings()),
    "singlet, aligned": correlator_table(make_singlet(), aligned_settings()),
    "zero": CorrelatorTable(0.0, 0.0, 0.0, 0.0),
}


def two_sample_p(x: list[int], y: list[int]) -> float:
    """The Pearson chi-square p-value that two tallies of the same cells come from one law, over
    the cells that either tally fills."""
    nx, ny = sum(x), sum(y)
    stat, cells = 0.0, 0
    for a, b in zip(x, y):
        if a + b:
            ea, eb = nx * (a + b) / (nx + ny), ny * (a + b) / (nx + ny)
            stat += (a - ea) ** 2 / ea + (b - eb) ** 2 / eb
            cells += 1
    return chi2_tail(stat, cells - 1)


@pytest.mark.parametrize("name", ONE_LAW_TABLES)
def test_fine_model_and_quantum_sampler_draw_one_law(name):
    """The Fine model gives each vertex's weight in equal halves to a pattern and its global flip,
    so its outcomes have zero marginals, and on a local table its trials have the quantum
    sampler's law (1 + a b e_jk)/16. Per seed, a two-sample chi-square of the two tallies; over
    the panel, the count of small p-values is bounded as in ``tests/test_joint_law.py``."""
    table = ONE_LAW_TABLES[name]
    model = _fine_model(_vector(table))
    rejected = sum(
        two_sample_p(tally(sample_lhv_experiment(model, ONE_LAW_TRIALS, seed)[1]),
                     tally(sample_quantum_experiment(table, ONE_LAW_TRIALS, seed + 10**6)[1])) <= ALPHA
        for seed in ONE_LAW_SEEDS
    )
    assert rejected <= MAX_REJECTIONS
