"""The joint law P(j, k, a, b) of both samplers, and no-signaling.

The correlator tests check four numbers per run. A sampler could keep every
correlator right and still leak B's setting into A's outcome: the signaling
that locality forbids. These tests check the whole law of a trial,

- quantum: P(j, k, a, b) = (1/4) (1 + a b e_jk) / 4;
- local: P(j, k, a, b) = (1/4) sum_i w_i [A_j = a][B_k = b] over the 16 patterns.

Each run of the fixed panel gets a 16-cell Pearson chi-square test. A cell of
probability zero must hold no trial and is dropped from the degrees of
freedom. The count of p-values at or below ALPHA is bounded as in
``tests/test_finite_statistics.py``, and their Kolmogorov-Smirnov distance
from U(0, 1) by the Dvoretzky-Kiefer-Wolfowitz inequality. No-signaling,
P(a | j, k) independent of k and P(b | j, k) independent of j, is checked on
the panel's pooled counts within K standard errors, and exactly, in
fractions, on the exact laws.

The seed panel was fixed before any run. A failure is a finding about the
samplers: do not re-seed or resize the panel to make it pass.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from bellsim.chsh import aligned_settings, correlator_table, settings_from_polar, singlet_optimal_settings
from bellsim.lhv import (
    RESPONSE_PATTERNS,
    LhvModel,
    lhv_correlators_exact,
    sample_lhv_experiment,
    sample_quantum_experiment,
)
from bellsim.states import make_singlet, make_werner
from test_finite_statistics import LHV_MODELS, log_binomial_tail

#: The 16 cells (j, k, a, b), indexed 4 * (2(j-1) + (k-1)) + 2 * [a < 0] + [b < 0].
CELLS = [(j, k, a, b) for j in (1, 2) for k in (1, 2) for a in (1, -1) for b in (1, -1)]


def chi2_tail(x: float, dof: int) -> float:
    """P(chi^2_dof >= x), the regularized upper incomplete gamma Q(dof/2, x/2), in closed form.

    With y = x/2: e^-y sum_{j<dof/2} y^j / j! for even dof, and
    erfc(sqrt(y)) + e^-y sum_{j<(dof-1)/2} y^(j+1/2) / Gamma(j+3/2) for odd dof.
    """
    y = x / 2.0
    if dof % 2:
        terms = (y ** (j + 0.5) / math.gamma(j + 1.5) for j in range(dof // 2))
        return math.erfc(math.sqrt(y)) + math.exp(-y) * sum(terms)
    return math.exp(-y) * sum(y ** j / math.factorial(j) for j in range(dof // 2))


def quantum_law(table) -> list[Fraction]:
    e = {(1, 1): table.e11, (1, 2): table.e12, (2, 1): table.e21, (2, 2): table.e22}
    return [(1 + a * b * Fraction(e[j, k])) / 16 for j, k, a, b in CELLS]


def lhv_law(model: LhvModel) -> list[Fraction]:
    """Pattern r answers A_j = r[j-1] and B_k = r[k+1]."""
    pairs = [(Fraction(w), r) for w, r in zip(model.weights, RESPONSE_PATTERNS)]
    return [sum((w for w, r in pairs if r[j - 1] == a and r[k + 1] == b), Fraction(0)) / 4 for j, k, a, b in CELLS]


def tally(log) -> list[int]:
    """Trials per cell of CELLS."""
    pair = 2 * log.a_setting.astype(np.int64) + log.b_setting - 3
    return np.bincount(4 * pair + 2 * (log.a_outcome < 0) + (log.b_outcome < 0), minlength=16).tolist()


def chi_square_p(counts: list[int], law: list[Fraction]) -> float:
    """The Pearson chi-square p-value of ``counts`` under ``law``, over the cells of nonzero probability."""
    n = sum(counts)
    stat, cells = 0.0, 0
    for cell, observed, p in zip(CELLS, counts, law):
        if p == 0:
            assert observed == 0, cell
            continue
        expected = n * float(p)
        stat += (observed - expected) ** 2 / expected
        cells += 1
    return chi2_tail(stat, cells - 1)


def ks_uniform(p_values: list[float]) -> float:
    """The one-sample Kolmogorov-Smirnov statistic of ``p_values`` against U(0, 1)."""
    n = len(p_values)
    return max(max(i / n - p, p - (i - 1) / n) for i, p in enumerate(sorted(p_values), start=1))


def signaling_contrasts(cells: list) -> list[tuple]:
    """The four pairs of marginals that no-signaling makes equal, each marginal given as (weight of
    outcome +1, weight of the setting pair), in counts or probabilities: A's at (j, 1) and (j, 2),
    and B's at (1, k) and (2, k)."""
    at = dict(zip(CELLS, cells))
    pair = {(j, k): sum(at[j, k, a, b] for a in (1, -1) for b in (1, -1)) for j in (1, 2) for k in (1, 2)}
    a_plus = {(j, k): (at[j, k, 1, 1] + at[j, k, 1, -1], pair[j, k]) for j, k in pair}
    b_plus = {(j, k): (at[j, k, 1, 1] + at[j, k, -1, 1], pair[j, k]) for j, k in pair}
    return [(a_plus[j, 1], a_plus[j, 2]) for j in (1, 2)] + [(b_plus[1, k], b_plus[2, k]) for k in (1, 2)]


# --- the fixed panel ------------------------------------------------------------

#: The five-pattern mixture of ``tests/test_imports.py``: zero cells, unequal weights.
FIVE_PATTERNS = [0.5, 0, 0, 0.125, 0, 0.25, 0, 0, 0, 0, 0.0625, 0, 0, 0, 0, 0.0625]
LHV_PANEL = {**LHV_MODELS, "five patterns": FIVE_PATTERNS}
QUANTUM_PANEL = {
    "singlet, optimal": (make_singlet, singlet_optimal_settings),
    "singlet, aligned (8 zero cells)": (make_singlet, aligned_settings),
    "werner 0.5, oblique": (lambda: make_werner(0.5),
                            lambda: settings_from_polar([(0.3, 1.1), (2.0, 5.5), (1.2, 0.4), (2.9, 3.3)])),
}
TRIALS = 2000
SEEDS = range(1000, 1200)
ALPHA = 0.05
#: The largest count of SEEDS runs at or below ALPHA that a uniform p-value reaches
#: with probability above 1e-4: the count is Bin(200, ALPHA).
MAX_REJECTIONS = next(c for c in range(len(SEEDS) + 1)
                      if log_binomial_tail(len(SEEDS), ALPHA, c + 1) <= math.log(1e-4))
#: The largest Kolmogorov-Smirnov distance between the SEEDS p-values and U(0, 1) that a
#: uniform p-value exceeds with probability at most 1e-4 (DKW, with Massart's constant:
#: P(D > eps) <= 2 exp(-2 n eps^2)); about 0.1573.
KS_MAX = math.sqrt(math.log(2 / 1e-4) / 2) / math.sqrt(len(SEEDS))
#: Standard errors within which the panel's pooled marginals must agree.
K = 4.0


def _lhv_case(name):
    model = LhvModel(LHV_PANEL[name])
    return lhv_law(model), lambda seed: sample_lhv_experiment(model, TRIALS, seed)[1]


def _quantum_case(name):
    state, settings = QUANTUM_PANEL[name]
    table = correlator_table(state(), settings())
    return quantum_law(table), lambda seed: sample_quantum_experiment(table, TRIALS, seed)[1]


#: Each kind of case to the function giving its exact law and its draw of one seed's trials.
BUILD = {"lhv": _lhv_case, "quantum": _quantum_case}
CASES = [("lhv", name) for name in LHV_PANEL] + [("quantum", name) for name in QUANTUM_PANEL]


def test_chi2_tail_at_tabulated_critical_values():
    """The 5% and 1% points of chi^2 for 1 to 15 degrees of freedom, to the digits printed."""
    at_5 = [3.841459, 5.991465, 7.814728, 9.487729, 11.070498, 12.591587, 14.067140, 15.507313,
            16.918978, 18.307038, 19.675138, 21.026070, 22.362032, 23.684791, 24.995790]
    at_1 = [6.634897, 9.210340, 11.344867, 13.276704, 15.086272, 16.811894, 18.475307, 20.090235,
            21.665994, 23.209251, 24.724970, 26.216967, 27.688250, 29.141238, 30.577914]
    for dof, (x5, x1) in enumerate(zip(at_5, at_1), start=1):
        assert chi2_tail(x5, dof) == pytest.approx(0.05, rel=1e-6)
        assert chi2_tail(x1, dof) == pytest.approx(0.01, rel=1e-6)
    assert chi2_tail(0.0, 15) == pytest.approx(1.0, rel=1e-15)


EXACT_LAWS = ([lhv_law(LhvModel.deterministic(r)) for r in RESPONSE_PATTERNS]
              + [BUILD[kind](name)[0] for kind, name in CASES])


@pytest.mark.parametrize("law", EXACT_LAWS,
                         ids=[f"pattern {i}" for i in range(16)] + [f"{kind} {name}" for kind, name in CASES])
def test_exact_laws_are_normalized_and_do_not_signal(law):
    """Each setting pair has probability 1/4, and A's marginal ignores k and B's ignores j, exactly."""
    assert all(p >= 0 for p in law) and sum(law) == 1
    for (x1, n1), (x2, n2) in signaling_contrasts(law):
        assert n1 == n2 == Fraction(1, 4)
        assert x1 == x2


@pytest.mark.parametrize("name", list(LHV_PANEL))
def test_exact_lhv_law_has_the_exact_correlators(name):
    model = LhvModel(LHV_PANEL[name])
    law = dict(zip(CELLS, lhv_law(model)))
    t = lhv_correlators_exact(model)
    for (j, k), e in zip([(1, 1), (1, 2), (2, 1), (2, 2)], (t.e11, t.e12, t.e21, t.e22)):
        assert 4 * sum(a * b * law[j, k, a, b] for a in (1, -1) for b in (1, -1)) == Fraction(e)


def test_the_panel_has_a_usable_bound():
    assert 10 <= MAX_REJECTIONS < 40  # above the mean 200 * 0.05 = 10 of Bin(200, 0.05)
    assert KS_MAX == pytest.approx(0.1573, abs=1e-4)


def test_ks_uniform_of_small_samples():
    assert ks_uniform([0.5]) == 0.5
    assert ks_uniform([0.25, 0.75]) == 0.25
    assert ks_uniform([0.1, 0.2, 0.3]) == pytest.approx(0.7)


@pytest.mark.parametrize(("kind", "name"), CASES, ids=[f"{kind} {name}" for kind, name in CASES])
def test_sampled_law_fits_and_does_not_signal(kind, name):
    """Per run, the chi-square p-value; over the panel, the count of small ones, their distance
    from U(0, 1) and the pooled marginals."""
    law, draw = BUILD[kind](name)
    pooled = [0] * 16
    p_values = []
    for seed in SEEDS:
        counts = tally(draw(seed))
        p_values.append(chi_square_p(counts, law))
        pooled = [s + c for s, c in zip(pooled, counts)]
    assert sum(p <= ALPHA for p in p_values) <= MAX_REJECTIONS
    assert ks_uniform(p_values) <= KS_MAX
    for (x1, n1), (x2, n2) in signaling_contrasts(pooled):
        p = (x1 + x2) / (n1 + n2)
        assert abs(x1 / n1 - x2 / n2) <= K * math.sqrt(p * (1 - p) * (1 / n1 + 1 / n2))
