"""The samplers' stream contract, rebuilt twice: from the numpy calls it names,
and from the raw PCG64 words of a standard-library generator.

Each sampler's docstring lists the draws it makes from its one
``default_rng(seed)`` generator. Here every :class:`TrialLog` is rebuilt
from exactly those calls by :mod:`stream_reference`, ``rng.choice(16, p=w)``
for the LHV pattern indices included. A numpy release that changes one of these draws fails
here, instead of moving the seeded bytes without notice.

Each docstring also states the draws as arithmetic on the generator's raw
64-bit words. The same logs are rebuilt from the words of
:mod:`pcg64_reference`, which uses no numpy, so the contract is pinned to
the bits of PCG64 and ``SeedSequence``, not only to numpy's ``integers``,
``random`` and ``choice``.
"""

import numpy as np
import pytest

from bellsim.chsh import CorrelatorTable, correlator_table, singlet_optimal_settings
from bellsim.lhv import LhvModel, TrialLog, sample_lhv_experiment, sample_quantum_experiment
from bellsim.states import make_singlet, make_werner
from pcg64_reference import PCG64
from stream_reference import lhv_draws, lhv_words, quantum_draws, quantum_words

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

#: Odd and even n: the quantum sampler skips the high half of its last 32-bit word when 3n is odd.
TRIALS = [1, 2, 7, 10001]


@pytest.mark.parametrize("n", TRIALS)
@pytest.mark.parametrize("name", WEIGHT_PANEL)
def test_lhv_sampler_draws_as_documented(name, n, generators):
    weights, seed = WEIGHT_PANEL[name], 7000 + n
    _, log = sample_lhv_experiment(LhvModel.from_pattern_weights(weights), n, seed)
    assert log == lhv_draws(weights, n, seed)
    assert len(generators) == 1


@pytest.mark.parametrize("n", TRIALS)
@pytest.mark.parametrize("name", TABLE_PANEL)
def test_quantum_sampler_draws_as_documented(name, n, generators):
    table, seed = TABLE_PANEL[name], 8000 + n
    _, log = sample_quantum_experiment(table, n, seed)
    assert log == quantum_draws(table, n, seed)
    assert len(generators) == 1


#: Seeds of one to five 32-bit words, five being more than the 4-word pool of ``SeedSequence``.
RAW_SEEDS = [0, 1, 5, 7, 42, 2**31 - 1, 2**32, 2**63 + 11, 2**128 + 3, 10**40]


@pytest.mark.parametrize("seed", RAW_SEEDS)
def test_stdlib_reference_gives_numpys_raw_words(seed):
    assert PCG64(seed).random_raw(1000) == np.random.PCG64(seed).random_raw(1000).tolist()


@pytest.mark.parametrize("n", TRIALS)
@pytest.mark.parametrize("name", WEIGHT_PANEL)
def test_lhv_sampler_draws_as_stated_in_words(name, n):
    model, seed = LhvModel.from_pattern_weights(WEIGHT_PANEL[name]), 7000 + n
    _, log = sample_lhv_experiment(model, n, seed)
    assert log == TrialLog(*lhv_words(model.weights, n, seed))


@pytest.mark.parametrize("n", TRIALS)
@pytest.mark.parametrize("name", TABLE_PANEL)
def test_quantum_sampler_draws_as_stated_in_words(name, n):
    table, seed = TABLE_PANEL[name], 8000 + n
    _, log = sample_quantum_experiment(table, n, seed)
    assert log == TrialLog(*quantum_words(table, n, seed))
