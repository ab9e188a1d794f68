"""The samplers' stream contract, rebuilt from the numpy calls it names.

Each sampler's docstring lists the draws it makes from its one
``default_rng(seed)`` generator. Here every :class:`TrialLog` is rebuilt
from exactly those calls, ``rng.choice(16, p=w)`` for the LHV pattern
indices included, and the generator must end in the same state. A numpy
release that changes one of these draws fails here, instead of moving the
seeded bytes without notice.
"""

import numpy as np
import pytest

from bellsim.chsh import CorrelatorTable, correlator_table, singlet_optimal_settings
from bellsim.lhv import RESPONSE_PATTERNS, LhvModel, TrialLog, sample_lhv_experiment, sample_quantum_experiment
from bellsim.states import make_singlet, make_werner

DEFAULT_RNG = np.random.default_rng

#: Pattern weights, fixed before any run: Dirichlet draws, exact zeros, one
#: certain pattern and a weight of 1e-300.
WEIGHT_PANEL = {
    "uniform16": [1.0 / 16.0] * 16,
    **{f"dirichlet{i}": w.tolist() for i, w in enumerate(DEFAULT_RNG(2028).dirichlet(np.ones(16), size=3))},
    "zeros": [0.5, 0, 0, 0.125, 0, 0.25, 0, 0, 0, 0, 0.0625, 0, 0, 0, 0, 0.0625],
    "single": [0.0] * 9 + [1.0] + [0.0] * 6,
    "tiny": [0.25, 1e-300, 0.25] + [0.0] * 12 + [0.5],
}

TABLE_PANEL = {
    "singlet-optimal": correlator_table(make_singlet(), singlet_optimal_settings()),
    "werner-optimal": correlator_table(make_werner(0.6), singlet_optimal_settings()),
    "extremes": CorrelatorTable(1.0, -1.0, 0.0, 0.25),
}

TRIALS = [1, 7, 10001]


@pytest.fixture
def generators(monkeypatch) -> list:
    """Every generator the samplers build, in order."""
    made = []

    def spy(seed):
        made.append(DEFAULT_RNG(seed))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", spy)
    return made


@pytest.mark.parametrize("n", TRIALS)
@pytest.mark.parametrize("name", WEIGHT_PANEL)
def test_lhv_sampler_draws_as_documented(name, n, generators):
    weights, seed = WEIGHT_PANEL[name], 7000 + n
    _, log = sample_lhv_experiment(LhvModel.from_pattern_weights(weights), n, seed)
    rng = DEFAULT_RNG(seed)
    lam = rng.choice(16, size=n, p=np.array(weights))
    a_set = rng.integers(1, 3, size=n)
    b_set = rng.integers(1, 3, size=n)
    resp = np.array(RESPONSE_PATTERNS)
    assert log == TrialLog(a_set, b_set, resp[lam, a_set - 1], resp[lam, b_set + 1])
    assert len(generators) == 1
    assert generators[0].bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("n", TRIALS)
@pytest.mark.parametrize("name", TABLE_PANEL)
def test_quantum_sampler_draws_as_documented(name, n, generators):
    table, seed = TABLE_PANEL[name], 8000 + n
    _, log = sample_quantum_experiment(table, n, seed)
    rng = DEFAULT_RNG(seed)
    a_set = rng.integers(1, 3, size=n)
    b_set = rng.integers(1, 3, size=n)
    a_out = 2 * rng.integers(0, 2, size=n) - 1
    e = np.array([[table.e11, table.e12], [table.e21, table.e22]])
    same = rng.random(n) < (1.0 + e[a_set - 1, b_set - 1]) / 2.0
    assert log == TrialLog(a_set, b_set, a_out, np.where(same, a_out, -a_out))
    assert len(generators) == 1
    assert generators[0].bit_generator.state == rng.bit_generator.state
