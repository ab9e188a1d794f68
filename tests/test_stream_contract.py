"""The samplers' stream contract, rebuilt twice: from the numpy calls it names,
and from the raw PCG64 words of a standard-library generator.

Each sampler's docstring lists the draws it makes from its one
``default_rng(seed)`` generator. Here every :class:`TrialLog` is rebuilt
from exactly those calls, ``rng.choice(16, p=w)`` for the LHV pattern
indices included. A numpy release that changes one of these draws fails
here, instead of moving the seeded bytes without notice.

Each docstring also states the draws as arithmetic on the generator's raw
64-bit words. The same logs are rebuilt from the words of
:mod:`pcg64_reference`, which uses no numpy, so the contract is pinned to
the bits of PCG64 and ``SeedSequence``, not only to numpy's ``integers``,
``random`` and ``choice``.
"""

import itertools
import math

import numpy as np
import pytest

from bellsim.chsh import CorrelatorTable, correlator_table, singlet_optimal_settings
from bellsim.lhv import RESPONSE_PATTERNS, LhvModel, TrialLog, sample_lhv_experiment, sample_quantum_experiment
from bellsim.states import make_singlet, make_werner
from pcg64_reference import MASK32, PCG64

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


#: Seeds of one to five 32-bit words, five being more than the 4-word pool of ``SeedSequence``.
RAW_SEEDS = [0, 1, 5, 7, 42, 2**31 - 1, 2**32, 2**63 + 11, 2**128 + 3, 10**40]


@pytest.mark.parametrize("seed", RAW_SEEDS)
def test_stdlib_reference_gives_numpys_raw_words(seed):
    assert PCG64(seed).random_raw(1000) == np.random.PCG64(seed).random_raw(1000).tolist()


def halves(words: list[int]) -> list[int]:
    """The 32-bit halves of 64-bit words, low half first."""
    return [half for w in words for half in (w & MASK32, w >> 32)]


def bit(half: int) -> int:
    """The top bit of a 32-bit half: ``integers(0, 2)`` and ``integers(1, 3)`` less their offset."""
    return half >> 31


@pytest.mark.parametrize("n", TRIALS)
@pytest.mark.parametrize("name", WEIGHT_PANEL)
def test_lhv_sampler_draws_as_stated_in_words(name, n):
    model, seed = LhvModel.from_pattern_weights(WEIGHT_PANEL[name]), 7000 + n
    _, log = sample_lhv_experiment(model, n, seed)
    ref = PCG64(seed)
    words = ref.random_raw(2 * n)
    cdf = list(itertools.accumulate(model.weights))
    cdf = [c / cdf[-1] for c in cdf]
    lam = [sum(c <= (w >> 11) * 2.0**-53 for c in cdf) for w in words[:n]]
    h = halves(words[n:])
    a_set, b_set = [1 + bit(x) for x in h[:n]], [1 + bit(x) for x in h[n:]]
    a_out = [RESPONSE_PATTERNS[i][j - 1] for i, j in zip(lam, a_set)]
    b_out = [RESPONSE_PATTERNS[i][k + 1] for i, k in zip(lam, b_set)]
    assert log == TrialLog(a_set, b_set, a_out, b_out)


@pytest.mark.parametrize("n", TRIALS)
@pytest.mark.parametrize("name", TABLE_PANEL)
def test_quantum_sampler_draws_as_stated_in_words(name, n):
    table, seed = TABLE_PANEL[name], 8000 + n
    _, log = sample_quantum_experiment(table, n, seed)
    ref = PCG64(seed)
    first = math.ceil(3 * n / 2)  # the coins take whole words, after the halves of the first three draws
    words = ref.random_raw(first + n)
    h = halves(words[:first])
    a_set, b_set = [1 + bit(x) for x in h[:n]], [1 + bit(x) for x in h[n:2 * n]]
    a_out = [2 * bit(x) - 1 for x in h[2 * n:3 * n]]
    e = [[table.e11, table.e12], [table.e21, table.e22]]
    same = [(w >> 11) < (1.0 + e[j - 1][k - 1]) * 2.0**52 for w, j, k in zip(words[first:], a_set, b_set)]
    b_out = [a if s else -a for a, s in zip(a_out, same)]
    assert log == TrialLog(a_set, b_set, a_out, b_out)
