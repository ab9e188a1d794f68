"""An exact finite-statistics p-value against local realism, from the CHSH game.

Both samplers draw the two settings uniformly and independently of everything
else. Call a trial a win when a*b = +1 at the setting pairs (1,1), (1,2) and
(2,1), and a*b = -1 at (2,2); then P(win) = 1/2 + S/8. A local model wins each
trial with conditional probability at most 3/4, whatever happened in earlier
trials, so the win count W of n trials is stochastically dominated by
Binomial(n, 3/4), and P(Bin(n, 3/4) >= W) is an exact p-value against every
local model (R. D. Gill, "Time, finite statistics, and Bell's fifth
position", 2003, arXiv:quant-ph/0301059).

The seed panels below were fixed before any run. A failure is a finding about
the samplers: do not re-seed or resize a panel to make it pass.
"""

import math
from fractions import Fraction

import pytest

from bellsim.chsh import correlator_table, singlet_optimal_settings
from bellsim.lhv import (
    RESPONSE_PATTERNS,
    LhvModel,
    deterministic_chsh_values,
    sample_lhv_experiment,
    sample_quantum_experiment,
)
from bellsim.states import make_singlet

LOCAL_WIN = 0.75


def log_binomial_tail(n: int, q: float, w: int) -> float:
    """log P(Bin(n, q) >= w) for 0 < q < 1, summed in log space.

    The terms rise up to the mode floor((n + 1) q) and fall after it. Each is
    taken relative to the largest term of the tail, and the sum stops past the
    mode once a term falls below 2^-53 of the running sum.
    """
    if w <= 0:
        return 0.0
    if w > n:
        return -math.inf
    log_q, log_p = math.log(q), math.log1p(-q)
    lg_n = math.lgamma(n + 1)

    def log_term(k: int) -> float:
        return lg_n - math.lgamma(k + 1) - math.lgamma(n - k + 1) + k * log_q + (n - k) * log_p

    mode = int((n + 1) * q)
    ref = log_term(max(w, mode))
    total = 0.0
    for k in range(w, n + 1):
        term = math.exp(log_term(k) - ref)
        total += term
        if k > mode and term < total * 2.0**-53:
            break
    return ref + math.log(total)


def exact_tail(n: int, q: Fraction, w: int) -> Fraction:
    return sum((math.comb(n, k) * q**k * (1 - q) ** (n - k) for k in range(max(w, 0), n + 1)), Fraction(0))


@pytest.mark.parametrize("q", [Fraction(3, 4), Fraction(1, 20)])
def test_tail_matches_exact_fractions_for_small_n(q):
    for n in range(1, 61):
        for w in range(-1, n + 2):
            exact = exact_tail(n, q, w)
            got = log_binomial_tail(n, float(q), w)
            if exact == 0:
                assert got == -math.inf
            else:
                assert abs(got - math.log(exact)) <= 1e-12, (n, w)


@pytest.mark.parametrize("w", [1, 1400, 1500, 1501, 1600, 1707, 2000])
def test_tail_matches_exact_fractions_where_the_sum_stops_early(w):
    """At n = 2000 the sum stops long before k = n on either side of the mode."""
    exact = exact_tail(2000, Fraction(3, 4), w)
    assert abs(log_binomial_tail(2000, LOCAL_WIN, w) - math.log(exact)) <= 1e-10


def wins(log) -> int:
    """CHSH-game wins: a*b = +1 at the setting pairs (1,1), (1,2) and (2,1), a*b = -1 at (2,2)."""
    at_22 = (log.a_setting == 2) & (log.b_setting == 2)
    return int(((log.a_outcome * log.b_outcome == 1) != at_22).sum())


def tally_wins(est) -> int:
    """The same count from the estimate's 8-bin tally: agreeing trials at 11, 12, 21, disagreeing at 22."""
    t = est.table
    n_same = [round(n * (1.0 + e) / 2.0) for n, e in zip(est.counts, (t.e11, t.e12, t.e21, t.e22))]
    return n_same[0] + n_same[1] + n_same[2] + est.counts[3] - n_same[3]


def log_p_local(log) -> float:
    return log_binomial_tail(len(log), LOCAL_WIN, wins(log))


# --- the fixed panels -----------------------------------------------------------

#: The eight deterministic vertices at S = +2, each winning exactly 3/4 of the setting pairs.
VERTICES = [p for p, s in zip(RESPONSE_PATTERNS, deterministic_chsh_values()) if s == 2.0]
_ONE_HOT = {p: [float(q == p) for q in RESPONSE_PATTERNS] for p in RESPONSE_PATTERNS}
_LOSING = next(p for p, s in zip(RESPONSE_PATTERNS, deterministic_chsh_values()) if s == -2.0)
LHV_MODELS = {
    **{"vertex " + "".join("+" if v > 0 else "-" for v in p): _ONE_HOT[p] for p in VERTICES},
    "the eight S=+2 vertices, equal weights": [w / 8.0 for w in map(sum, zip(*(_ONE_HOT[p] for p in VERTICES)))],
    "two S=+2 vertices, half each": [(a + b) / 2.0 for a, b in zip(_ONE_HOT[VERTICES[0]], _ONE_HOT[VERTICES[1]])],
    "uniform16": [1.0 / 16.0] * 16,
    "S=+2 vertex 3/4, S=-2 vertex 1/4": [0.75 * a + 0.25 * b for a, b in zip(_ONE_HOT[VERTICES[0]], _ONE_HOT[_LOSING])],
}
LHV_TRIALS = (41, 400)
LHV_SEEDS = range(200)
ALPHA = 0.05
#: The largest count of LHV_SEEDS runs at or below ALPHA that a super-uniform p-value
#: reaches with probability above 1e-4: the count is dominated by Bin(200, ALPHA).
MAX_REJECTIONS = next(c for c in range(len(LHV_SEEDS) + 1)
                      if log_binomial_tail(len(LHV_SEEDS), ALPHA, c + 1) <= math.log(1e-4))

QUANTUM_TRIALS = (2000, 20000)
QUANTUM_SEEDS = range(20)
QUANTUM_ALPHA = 1e-6


def test_the_panel_holds_eight_vertices_and_a_usable_bound():
    assert len(VERTICES) == 8
    assert 10 <= MAX_REJECTIONS < 40  # above the mean 200 * 0.05 = 10 of Bin(200, 0.05)


@pytest.mark.parametrize("n", LHV_TRIALS)
@pytest.mark.parametrize("name", list(LHV_MODELS))
def test_lhv_sampler_p_values_are_super_uniform(name, n):
    """P(p <= ALPHA) <= ALPHA for each local model, so the count over the seeds is at most Bin(200, ALPHA)."""
    model = LhvModel(LHV_MODELS[name])
    rejected = 0
    for seed in LHV_SEEDS:
        est, log = sample_lhv_experiment(model, n, seed)
        assert wins(log) == tally_wins(est)
        rejected += log_p_local(log) <= math.log(ALPHA)
    assert rejected <= MAX_REJECTIONS


@pytest.mark.parametrize("n", QUANTUM_TRIALS)
def test_quantum_sampler_at_the_optimal_preset_rejects_local_models(n):
    """P(win) = 1/2 + sqrt(2)/4, about 0.854, against at most 3/4 for any local model."""
    table = correlator_table(make_singlet(), singlet_optimal_settings())
    for seed in QUANTUM_SEEDS:
        est, log = sample_quantum_experiment(table, n, seed)
        assert wins(log) == tally_wins(est)
        assert log_p_local(log) <= math.log(QUANTUM_ALPHA), seed
