import io
import math

import numpy as np
import pytest

from bellsim.chsh import CorrelatorTable, TSIRELSON_BOUND, chsh_value, correlator_table
from bellsim.chsh import singlet_optimal_settings
from bellsim.lhv import (
    LhvModel,
    PATTERN_LABELS,
    RESPONSE_PATTERNS,
    TrialLog,
    classical_bound_exhaustive,
    deterministic_chsh_values,
    estimate_from_records,
    lhv_correlators_exact,
    sample_lhv_experiment,
    sample_quantum_experiment,
    write_trial_log,
)
from bellsim.states import make_singlet

rng = np.random.default_rng(3115)


# --- model construction -----------------------------------------------------


def test_pattern_enumeration():
    assert len(RESPONSE_PATTERNS) == 16
    assert len(set(RESPONSE_PATTERNS)) == 16
    assert RESPONSE_PATTERNS[0] == (1, 1, 1, 1)
    assert RESPONSE_PATTERNS[15] == (-1, -1, -1, -1)
    # index bits (A1 A2 B1 B2), 0 -> +1: 5 = 0b0101 -> (+1, -1, +1, -1)
    assert RESPONSE_PATTERNS[5] == (1, -1, 1, -1)
    assert PATTERN_LABELS[5] == "+-+-"


def test_model_validation_errors():
    with pytest.raises(ValueError, match="16 pattern weights"):
        LhvModel(weights=(1.0,))
    with pytest.raises(ValueError, match="16 pattern weights"):
        LhvModel.from_pattern_weights([1.0] + [0.0] * 14)
    with pytest.raises(ValueError, match="sum"):
        LhvModel.from_pattern_weights([0.5] + [0.0] * 15)
    with pytest.raises(ValueError, match="nonnegative"):
        LhvModel.from_pattern_weights([1.5, -0.5] + [0.0] * 14)
    for not_a_pattern in [(1, 1, 1, 0), (1, 1, 1), (1, 1, 1, 1, 1)]:
        with pytest.raises(ValueError, match="not one of the 16 patterns"):
            LhvModel.deterministic(not_a_pattern)


def test_model_keeps_its_own_tuple_of_the_weights():
    """A list or array of weights gives the model of the same tuple, out of reach of later writes."""
    uniform = LhvModel.uniform16()
    weights = np.full(16, 1.0 / 16.0)
    as_list = [1.0 / 16.0] * 16
    models = [LhvModel(weights), LhvModel(as_list), LhvModel.from_pattern_weights(weights)]
    for m in models:
        assert m == uniform
        assert hash(m) == hash(uniform)
        assert type(m.weights) is tuple and all(type(w) is float for w in m.weights)
    weights[0] = 5.0
    as_list[0] = 5.0
    for m in models:
        assert m.weights == uniform.weights
        assert lhv_correlators_exact(m) == lhv_correlators_exact(uniform)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_model_rejects_non_finite_weights(bad):
    with pytest.raises(ValueError):
        LhvModel.from_pattern_weights([bad] + [0.0] * 15)
    with pytest.raises(ValueError):
        LhvModel.from_pattern_weights([1.0, bad] + [0.0] * 14)


def test_model_rejects_weights_above_one_before_summing():
    """1e308 + 1e308 overflows math.fsum; the range check comes first."""
    with pytest.raises(ValueError, match="at most 1"):
        LhvModel.from_pattern_weights([1e308, 1e308] + [0.0] * 14)


def test_uniform16_weights():
    model = LhvModel.uniform16()
    assert len(model.weights) == 16
    assert all(w == 1.0 / 16.0 for w in model.weights)


# --- exact correlators --------------------------------------------------------


def test_single_pattern_table():
    table = lhv_correlators_exact(LhvModel.deterministic((1, 1, 1, 1)))
    assert table.as_dict() == {"e11": 1.0, "e12": 1.0, "e21": 1.0, "e22": 1.0}
    assert chsh_value(table) == 2.0


def test_global_sign_flip_leaves_table_unchanged():
    resp = (1, -1, 1, 1)
    flipped = tuple(-v for v in resp)
    single = lhv_correlators_exact(LhvModel.deterministic(resp))
    weights = [0.5 if p in (resp, flipped) else 0.0 for p in RESPONSE_PATTERNS]
    mixed = lhv_correlators_exact(LhvModel.from_pattern_weights(weights))
    assert single.as_dict() == mixed.as_dict()


def test_uniform16_table_is_zero():
    table = lhv_correlators_exact(LhvModel.uniform16())
    assert all(v == 0.0 for v in table.as_dict().values())


# --- the classical bound ---------------------------------------------------------


def test_exhaustive_bound_is_exactly_two():
    assert classical_bound_exhaustive() == 2.0
    values = deterministic_chsh_values()
    assert len(values) == 16
    assert set(values) == {2.0, -2.0}


def test_random_mixtures_never_exceed_two():
    for _ in range(10000):
        weights = rng.dirichlet(np.ones(16))
        model = LhvModel.from_pattern_weights(weights)
        assert abs(chsh_value(lhv_correlators_exact(model))) <= 2.0 + 1e-12


def test_random_sparse_models_never_exceed_two():
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        weights = np.zeros(16)
        weights[rng.choice(16, size=n, replace=False)] = rng.dirichlet(np.ones(n))
        model = LhvModel.from_pattern_weights(weights)
        assert abs(chsh_value(lhv_correlators_exact(model))) <= 2.0 + 1e-12


# --- sampled LHV experiments ------------------------------------------------------


def test_deterministic_model_samples_exactly():
    for pattern in RESPONSE_PATTERNS:
        estimate, records = sample_lhv_experiment(LhvModel.deterministic(pattern), 1000, seed=5)
        a1, a2, b1, b2 = pattern
        assert estimate.table == CorrelatorTable(a1 * b1, a1 * b2, a2 * b1, a2 * b2)
        assert estimate.std_errors == (0.0, 0.0, 0.0, 0.0)
        assert sum(estimate.counts) == 1000
        assert len(records) == 1000
        outcomes = np.array(pattern)
        assert np.array_equal(records.a_outcome, outcomes[records.a_setting - 1])
        assert np.array_equal(records.b_outcome, outcomes[records.b_setting + 1])


@pytest.mark.parametrize("n", [1, 7, 1000])
def test_settings_do_not_depend_on_the_model(n):
    """Measurement independence: at one seed every model draws the same setting choices."""
    models = [LhvModel.deterministic(p) for p in RESPONSE_PATTERNS]
    models.append(LhvModel.from_pattern_weights(np.random.default_rng(17).dirichlet(np.ones(16))))
    _, reference = sample_lhv_experiment(LhvModel.uniform16(), n, seed=23)
    for model in models:
        _, records = sample_lhv_experiment(model, n, seed=23)
        assert np.array_equal(records.a_setting, reference.a_setting)
        assert np.array_equal(records.b_setting, reference.b_setting)


def test_uniform16_sample_within_four_sigma():
    model = LhvModel.uniform16()
    estimate, _ = sample_lhv_experiment(model, 100000, seed=42)
    for e, se in zip(estimate.table.as_dict().values(), estimate.std_errors):
        assert abs(e) <= 4.0 * se
    assert abs(estimate.s_estimate) <= 2.0 + 4.0 * estimate.s_std_error


def test_sample_requires_positive_trials():
    with pytest.raises(ValueError):
        sample_lhv_experiment(LhvModel.uniform16(), 0, seed=1)
    with pytest.raises(ValueError):
        sample_quantum_experiment(CorrelatorTable(0, 0, 0, 0), 0, seed=1)


def test_error_scales_like_inverse_sqrt_n():
    # realized errors against the exact (zero) table shrink ~10x from 1e4 to 1e6
    model = LhvModel.uniform16()
    rms = {}
    for n in (10**4, 10**6):
        sq = []
        for seed in (101, 102, 103, 104):
            estimate, _ = sample_lhv_experiment(model, n, seed=seed)
            sq.extend(v * v for v in estimate.table.as_dict().values())
        rms[n] = math.sqrt(sum(sq) / len(sq))
    ratio = rms[10**4] / rms[10**6]
    assert 5.0 <= ratio <= 20.0


def test_lhv_sampling_reproducible():
    model = LhvModel.uniform16()
    est1, rec1 = sample_lhv_experiment(model, 20000, seed=9)
    est2, rec2 = sample_lhv_experiment(model, 20000, seed=9)
    assert rec1 == rec2
    assert est1.table.as_dict() == est2.table.as_dict()
    _, rec3 = sample_lhv_experiment(model, 20000, seed=10)
    assert rec1 != rec3


def test_estimate_from_records_matches_sampler():
    estimate, records = sample_lhv_experiment(LhvModel.uniform16(), 5000, seed=3)
    recomputed = estimate_from_records(records)
    assert recomputed.table.as_dict() == estimate.table.as_dict()
    assert recomputed.counts == estimate.counts
    assert recomputed.std_errors == estimate.std_errors


def test_estimate_from_records_rejects_empty():
    with pytest.raises(ValueError):
        estimate_from_records(TrialLog(*np.empty((4, 0), dtype=np.int8)))


# --- sampled quantum experiments ---------------------------------------------------


def test_perfect_anticorrelation_pair():
    table = CorrelatorTable(-1.0, 0.0, 0.0, 0.0)
    estimate, records = sample_quantum_experiment(table, 20000, seed=8)
    assert estimate.table.e11 == -1.0
    assert estimate.std_errors[0] == 0.0
    pair_11 = (records.a_setting == 1) & (records.b_setting == 1)
    assert pair_11.any()
    assert (records.b_outcome[pair_11] == -records.a_outcome[pair_11]).all()


def test_singlet_sampling_hits_tsirelson_within_four_sigma():
    exact = correlator_table(make_singlet(), singlet_optimal_settings())
    estimate, _ = sample_quantum_experiment(exact, 10**6, seed=77)
    assert abs(estimate.s_estimate - TSIRELSON_BOUND) <= 4.0 * estimate.s_std_error


def test_subthreshold_werner_sampling_stays_classical():
    exact = CorrelatorTable(*(0.6 * v for v in
                              correlator_table(make_singlet(), singlet_optimal_settings())
                              .as_dict().values()))
    estimate, _ = sample_quantum_experiment(exact, 10**6, seed=13)
    assert estimate.s_estimate < 2.0
    assert abs(estimate.s_estimate - 0.6 * TSIRELSON_BOUND) <= 4.0 * estimate.s_std_error


def test_quantum_sampling_marginals_unbiased():
    exact = correlator_table(make_singlet(), singlet_optimal_settings())
    _, records = sample_quantum_experiment(exact, 10**5, seed=21)
    a_mean = np.mean(records.a_outcome)
    b_mean = np.mean(records.b_outcome)
    bound = 4.0 / math.sqrt(len(records))
    assert abs(a_mean) <= bound
    assert abs(b_mean) <= bound


def test_quantum_sampling_reproducible():
    exact = correlator_table(make_singlet(), singlet_optimal_settings())
    _, rec1 = sample_quantum_experiment(exact, 30000, seed=4)
    _, rec2 = sample_quantum_experiment(exact, 30000, seed=4)
    assert rec1 == rec2


def test_std_error_formula():
    estimate, _ = sample_lhv_experiment(LhvModel.uniform16(), 40000, seed=6)
    for e, n, se in zip(estimate.table.as_dict().values(), estimate.counts, estimate.std_errors):
        assert se == pytest.approx(math.sqrt((1.0 - e * e) / n), abs=1e-15)


# --- trial logs ----------------------------------------------------------------------


def test_trial_log_format():
    records = TrialLog([1, 2], [2, 1], [1, -1], [-1, -1])
    buf = io.BytesIO()
    write_trial_log(records, buf)
    assert buf.getvalue() == (
        b"trial,a_setting,b_setting,a_outcome,b_outcome\n"
        b"0,1,2,1,-1\n"
        b"1,2,1,-1,-1\n"
    )


def test_trial_log_bytes_identical_for_same_seed():
    model = LhvModel.uniform16()
    outputs = []
    for _ in range(2):
        _, records = sample_lhv_experiment(model, 10000, seed=31)
        buf = io.BytesIO()
        write_trial_log(records, buf)
        outputs.append(buf.getvalue())
    assert outputs[0] == outputs[1]
