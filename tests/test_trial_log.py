"""Contract of the TrialLog the samplers return: one read-only row code per trial, read as four columns."""

import copy
import io
import json
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bellsim.chsh import CorrelatorTable, correlator_table, singlet_optimal_settings
from bellsim.cli import main
from bellsim.lhv import (
    MAX_TRIALS,
    LhvModel,
    TRIAL_LOG_HEADER,
    TrialLog,
    estimate_from_records,
    sample_lhv_experiment,
    sample_quantum_experiment,
    write_trial_log,
)
from bellsim.states import make_singlet


def columns(log: TrialLog) -> tuple[np.ndarray, ...]:
    return (log.a_setting, log.b_setting, log.a_outcome, log.b_outcome)


def row_writer(log: TrialLog) -> bytes:
    """The trial log CSV written one row at a time: the oracle of the block writer."""
    rows = zip(range(len(log)), *(c.tolist() for c in columns(log)))
    return "".join(",".join(map(str, row)) + "\n" for row in [TRIAL_LOG_HEADER, *rows]).encode()


def test_columns_are_int8():
    log = TrialLog([1, 2, 2, 1], [2, 1, 2, 1], [1, -1, 1, -1], [-1, -1, 1, 1])
    assert all(c.dtype == np.int8 for c in columns(log))
    _, sampled = sample_quantum_experiment(CorrelatorTable(0.5, 0.5, 0.5, -0.5), 100, seed=1)
    assert sampled.b_outcome.dtype == np.int8


def test_equality_in_both_directions():
    _, log = sample_lhv_experiment(LhvModel.uniform16(), 3000, seed=2)
    _, same = sample_lhv_experiment(LhvModel.uniform16(), 3000, seed=2)
    _, other = sample_lhv_experiment(LhvModel.uniform16(), 3000, seed=3)
    assert len(log) == 3000
    assert log == same and same == log and not (log != same)
    assert log != other and other != log
    a_set, b_set, a_out, b_out = columns(log)
    assert log != TrialLog(a_set, b_set, a_out, np.append(b_out[:-1], -b_out[-1]))
    assert log != TrialLog(a_set[:-1], b_set[:-1], a_out[:-1], b_out[:-1])
    assert log != columns(log) and log != list(columns(log))


def test_a_log_cannot_be_changed_in_place():
    """A log is a record: writing into a column it gives leaves it as it was, and its codes are read-only,
    in its copies too and after a pickle round trip, which give a writable array unless the log freezes it."""
    table = CorrelatorTable(0.5, 0.5, 0.5, -0.5)
    _, sampled = sample_quantum_experiment(table, 100, seed=5)
    _, fresh = sample_quantum_experiment(table, 100, seed=5)
    built = TrialLog(*columns(fresh))
    for log in (sampled, built, copy.copy(sampled), copy.deepcopy(built), pickle.loads(pickle.dumps(sampled))):
        for column in columns(log):
            column[:16] = 7
        assert log == fresh
        assert estimate_from_records(log) == estimate_from_records(fresh)
        with pytest.raises(ValueError, match="read-only"):
            log.codes[:] = 0
        assert log == fresh


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


def _reference_estimate(log):
    """The mean of the +-1 products per setting pair, as the samplers computed it before the tally."""
    arr = np.column_stack(columns(log)).astype(np.int64)
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
    for command in (["sample", "--preset", "optimal"], ["lhv", "--weights", "1", *["0"] * 15]):
        assert main([*command, "--trials", "1"]) == 0
        estimate = json.loads(capsys.readouterr().out)["results"]["estimate"]
        assert sorted(estimate["counts"]) == [0, 0, 0, 1]
        assert [se is None for se in estimate["std_errors"]] == [n == 0 for n in estimate["counts"]]
        assert estimate["s_std_error"] is None
    # in a CSV report a null is an empty cell
    assert main(["sample", "--preset", "optimal", "--trials", "1", "--format", "csv"]) == 0
    cells = dict(line.split(",") for line in capsys.readouterr().out.splitlines())
    counts = [int(cells[f"results.estimate.counts[{i}]"]) for i in range(4)]
    assert sorted(counts) == [0, 0, 0, 1]
    assert [cells[f"results.estimate.std_errors[{i}]"] == "" for i in range(4)] == [n == 0 for n in counts]
    assert cells["results.estimate.s_std_error"] == ""


@pytest.mark.parametrize("n", [1, 9999, 10000, 10001, 123457])
def test_block_writer_matches_row_writer(n):
    """The block writer of a TrialLog gives the bytes of the row-by-row writer."""
    _, log = sample_lhv_experiment(LhvModel.uniform16(), n, seed=n)
    blocks = io.BytesIO()
    write_trial_log(log, blocks)
    assert blocks.getvalue() == row_writer(log)
    assert blocks.tell() == len(blocks.getvalue())


def test_text_stream_fails_at_the_header():
    """The log is bytes: a text stream refuses the header, so nothing is written to it."""
    text = io.StringIO()
    with pytest.raises(TypeError):
        write_trial_log(TrialLog([1], [2], [1], [-1]), text)
    assert text.getvalue() == ""


@settings(max_examples=250, deadline=None)
@given(n=st.integers(1, 25_000), seed=st.integers(0, 2**32 - 1))
def test_trial_log_roundtrip(n, seed):
    """Random valid columns across the 10^4-row block boundary survive the CSV unchanged."""
    rng = np.random.default_rng(seed)
    log = TrialLog(*rng.integers(1, 3, size=(2, n)), *(2 * rng.integers(0, 2, size=(2, n)) - 1))
    buf = io.BytesIO()
    write_trial_log(log, buf)
    assert buf.getvalue() == row_writer(log)
    table = np.loadtxt(io.BytesIO(buf.getvalue()), delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
    assert np.array_equal(table[:, 0], np.arange(n))
    back = TrialLog(*table[:, 1:].T)
    assert back == log
    assert estimate_from_records(back) == estimate_from_records(log)


@pytest.mark.usefixtures("no_draws")
def test_samplers_refuse_more_than_max_trials_before_drawing():
    with pytest.raises(ValueError, match=str(MAX_TRIALS)):
        sample_quantum_experiment(CorrelatorTable(0, 0, 0, 0), MAX_TRIALS + 1, seed=1)
    with pytest.raises(ValueError, match=str(MAX_TRIALS)):
        sample_lhv_experiment(LhvModel.uniform16(), MAX_TRIALS + 1, seed=1)


def test_estimate_takes_a_few_bytes_per_trial():
    """The estimate tallies the row codes a block at a time, so it holds about 1 B per trial of codes, not the
    8-byte indices ``np.bincount`` would cast the whole log to."""
    n = 10**6
    log = TrialLog(np.ones(n), np.full(n, 2), np.ones(n), np.full(n, -1))
    tracemalloc.start()
    try:
        estimate = estimate_from_records(log)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert estimate.counts == (0, n, 0, 0)
    assert peak < 4 * n
