"""Contract of the columnar TrialLog the samplers return."""

import io
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from bellsim.chsh import CorrelatorTable, correlator_table, singlet_optimal_settings
from bellsim.cli import main
from bellsim.lhv import (
    MAX_TRIALS,
    LhvModel,
    TrialLog,
    TrialRecord,
    estimate_from_records,
    sample_lhv_experiment,
    sample_quantum_experiment,
    write_trial_log,
)
from bellsim.states import make_singlet

RECORDS = [
    TrialRecord(0, 1, 2, 1, -1),
    TrialRecord(1, 2, 1, -1, -1),
    TrialRecord(2, 2, 2, 1, 1),
    TrialRecord(3, 1, 1, -1, 1),
]


def small_log() -> TrialLog:
    return TrialLog(*np.array([(r.a_setting, r.b_setting, r.a_outcome, r.b_outcome) for r in RECORDS]).T)


def test_columns_are_int8():
    log = small_log()
    assert all(c.dtype == np.int8 for c in (log.a_setting, log.b_setting, log.a_outcome, log.b_outcome))
    _, sampled = sample_quantum_experiment(CorrelatorTable(0.5, 0.5, 0.5, -0.5), 100, seed=1)
    assert sampled.b_outcome.dtype == np.int8


def test_len_index_slice_and_iteration():
    log = small_log()
    assert len(log) == 4
    assert log[0] == RECORDS[0]
    assert log[3] == RECORDS[3]
    assert log[-1] == RECORDS[-1]
    assert log[-4] == RECORDS[0]
    assert log[1:3] == RECORDS[1:3]
    assert log[::-2] == RECORDS[::-2]
    assert log[10:] == []
    assert list(log) == RECORDS
    assert [r.trial_index for r in log] == [0, 1, 2, 3]
    for bad in (4, -5):
        with pytest.raises(IndexError):
            log[bad]


def test_equality_in_both_directions():
    _, log = sample_lhv_experiment(LhvModel.uniform16(), 3000, seed=2)
    records = list(log)
    assert log == records and records == log
    assert not (log != records) and not (records != log)
    changed = records[:-1] + [replace(records[-1], a_setting=3 - records[-1].a_setting)]
    assert log != changed and changed != log
    assert log != records[:-1] and records[:-1] != log
    renumbered = [replace(r, trial_index=r.trial_index + 1) for r in records]
    assert log != renumbered and renumbered != log
    _, same = sample_lhv_experiment(LhvModel.uniform16(), 3000, seed=2)
    _, other = sample_lhv_experiment(LhvModel.uniform16(), 3000, seed=3)
    assert log == same and log != other
    assert log != tuple(records)


def test_log_rejects_malformed_columns():
    one, two = np.array([1]), np.array([1, 2])
    with pytest.raises(ValueError):
        TrialLog(one, two, one, one)
    with pytest.raises(ValueError):
        TrialLog(np.array([3]), one, one, one)
    with pytest.raises(ValueError):
        TrialLog(one, one, np.array([0]), one)
    with pytest.raises(ValueError):
        TrialLog(one, one, one, np.array([257]))
    with pytest.raises(ValueError):
        estimate_from_records([TrialRecord(0, 1, 1, 1, 2)])


def _reference_estimate(records):
    """The mean of the +-1 products per setting pair, as the samplers computed it before the tally."""
    arr = np.array([(r.a_setting, r.b_setting, r.a_outcome, r.b_outcome) for r in records])
    prod = (arr[:, 2] * arr[:, 3]).astype(float)
    out = []
    for j, k in ((1, 1), (1, 2), (2, 1), (2, 2)):
        mask = (arr[:, 0] == j) & (arr[:, 1] == k)
        out.append((float(prod[mask].mean()), int(mask.sum())))
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tally_estimate_is_bit_identical_to_mean_of_products(seed):
    exact = correlator_table(make_singlet(), singlet_optimal_settings())
    estimate, log = sample_quantum_experiment(exact, 20001, seed=seed)
    reference = _reference_estimate(log)
    assert list(zip(estimate.table.as_dict().values(), estimate.counts)) == reference


def test_estimate_from_log_matches_estimate_from_list():
    estimate, log = sample_lhv_experiment(LhvModel.uniform16(), 5000, seed=11)
    from_log = estimate_from_records(log)
    from_list = estimate_from_records(list(log))
    assert from_log == from_list == estimate


@pytest.mark.parametrize("sampler, source", [
    (sample_quantum_experiment, CorrelatorTable(0.5, 0.5, 0.5, -0.5)),
    (sample_lhv_experiment, LhvModel.uniform16()),
])
def test_single_trial_leaves_three_pairs_empty(sampler, source):
    estimate, log = sampler(source, 1, seed=0)
    assert len(log) == 1
    assert sorted(estimate.counts) == [0, 0, 0, 1]
    for e, n, se in zip(estimate.table.as_dict().values(), estimate.counts, estimate.std_errors):
        if n == 0:
            assert e == 0.0 and se == math.inf
    assert estimate.s_std_error == math.inf


def test_single_trial_report_has_null_errors(capsys):
    assert main(["sample", "--preset", "optimal", "--trials", "1"]) == 0
    estimate = json.loads(capsys.readouterr().out)["results"]["estimate"]
    assert sorted(estimate["counts"]) == [0, 0, 0, 1]
    assert [se is None for se in estimate["std_errors"]] == [n == 0 for n in estimate["counts"]]
    assert estimate["s_std_error"] is None


def test_hand_built_records_keep_their_trial_indices():
    records = [
        TrialRecord(7, 1, 2, 1, -1),
        TrialRecord(3, 2, 2, -1, -1),
        TrialRecord(120, 1, 1, 1, 1),
    ]
    buf = io.StringIO()
    write_trial_log(records, buf)
    assert buf.getvalue() == (
        "trial,a_setting,b_setting,a_outcome,b_outcome\n"
        "7,1,2,1,-1\n"
        "3,2,2,-1,-1\n"
        "120,1,1,1,1\n"
    )


@pytest.mark.parametrize("n", [1, 9999, 10000, 10001, 123457])
def test_block_writer_matches_row_writer(n):
    """The block writer of a TrialLog gives the bytes of the per-record CSV writer."""
    _, log = sample_lhv_experiment(LhvModel.uniform16(), n, seed=n)
    blocks, rows = io.StringIO(), io.StringIO()
    write_trial_log(log, blocks)
    write_trial_log(iter(list(log)), rows)
    assert blocks.getvalue() == rows.getvalue()
    assert blocks.tell() == len(blocks.getvalue())


def test_samplers_refuse_more_than_max_trials_before_drawing(monkeypatch):
    def no_generator(*args, **kwargs):
        raise AssertionError("a generator was built for an oversized trial count")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    with pytest.raises(ValueError, match=str(MAX_TRIALS)):
        sample_quantum_experiment(CorrelatorTable(0, 0, 0, 0), MAX_TRIALS + 1, seed=1)
    with pytest.raises(ValueError, match=str(MAX_TRIALS)):
        sample_lhv_experiment(LhvModel.uniform16(), MAX_TRIALS + 1, seed=1)
