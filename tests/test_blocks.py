"""The samplers draw, tally and write one block of trials at a time; nothing may show at a block boundary.

At ``n`` one short of a block, one block, one past it and one past two blocks,
at the block size the samplers use and at one that is odd and not a multiple
of the log's 10^4-row formatting blocks, so that a block straddles one, three
things hold:

- the library's :class:`TrialLog` is the one the documented numpy draws
  rebuild, and the one generator ends in the state those draws leave;
- the trial log the CLI streams is byte-identical to ``write_trial_log`` of
  that log;
- the estimate the CLI streams equals ``estimate_from_records`` of it.
"""

import io
import json

import numpy as np
import pytest

from bellsim import lhv
from bellsim.chsh import CorrelatorTable
from bellsim.cli import main
from bellsim.cli_lhv import _estimate_dict
from bellsim.lhv import (
    RESPONSE_PATTERNS,
    LhvModel,
    TrialLog,
    estimate_from_records,
    sample_lhv_experiment,
    sample_quantum_experiment,
    write_trial_log,
)

DEFAULT_RNG = np.random.default_rng

WEIGHTS = ["0.5", "0", "0", "0.125", "0", "0.25", "0", "0", "0", "0", "0.0625", "0", "0", "0", "0", "0.0625"]

#: (k, d): n = k * block + d.
SIZES = [(1, -1), (1, 0), (1, 1), (2, 1)]


@pytest.fixture(params=[None, 6007], ids=["default-block", "block-6007"])
def block(request, monkeypatch) -> int:
    if request.param is not None:
        monkeypatch.setattr(lhv, "_BLOCK", request.param)
    return lhv._BLOCK


@pytest.fixture
def generators(monkeypatch) -> list:
    """Every generator the samplers build, in order."""
    made = []

    def spy(seed):
        made.append(DEFAULT_RNG(seed))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", spy)
    return made


def lhv_draws(weights: list[float], n: int, seed: int) -> tuple[TrialLog, dict]:
    rng = DEFAULT_RNG(seed)
    lam = rng.choice(16, size=n, p=np.array(weights))
    a_set, b_set = rng.integers(1, 3, size=n), rng.integers(1, 3, size=n)
    resp = np.array(RESPONSE_PATTERNS)
    return TrialLog(a_set, b_set, resp[lam, a_set - 1], resp[lam, b_set + 1]), rng.bit_generator.state


def quantum_draws(table: CorrelatorTable, n: int, seed: int) -> tuple[TrialLog, dict]:
    rng = DEFAULT_RNG(seed)
    a_set, b_set = rng.integers(1, 3, size=n), rng.integers(1, 3, size=n)
    a_out = 2 * rng.integers(0, 2, size=n) - 1
    e = np.array([[table.e11, table.e12], [table.e21, table.e22]])
    same = rng.random(n) < (1.0 + e[a_set - 1, b_set - 1]) / 2.0
    return TrialLog(a_set, b_set, a_out, np.where(same, a_out, -a_out)), rng.bit_generator.state


def logged(log: TrialLog) -> bytes:
    buf = io.BytesIO()
    write_trial_log(log, buf)
    return buf.getvalue()


def streamed(argv: list[str], tmp_path) -> tuple[dict, bytes]:
    """The report and the trial log of one CLI run."""
    assert main([*argv, "--out", str(tmp_path / "r.json"), "--trial-log", str(tmp_path / "t.csv")]) == 0
    return json.loads((tmp_path / "r.json").read_text()), (tmp_path / "t.csv").read_bytes()


@pytest.mark.parametrize("k, d", SIZES)
def test_quantum_blocks(k, d, block, generators, tmp_path, capsys):
    n, seed = k * block + d, 900 + d
    report, log_bytes = streamed(["sample", "--preset", "optimal", "--trials", str(n), "--seed", str(seed)], tmp_path)
    table = CorrelatorTable(**report["results"]["exact_table"])
    estimate, log = sample_quantum_experiment(table, n, seed)
    rebuilt, state = quantum_draws(table, n, seed)
    assert log == rebuilt and len(log) == n
    assert [g.bit_generator.state for g in generators] == [state, state]
    assert estimate == estimate_from_records(log)
    assert report["results"]["estimate"] == _estimate_dict(estimate)
    assert log_bytes == logged(log)


@pytest.mark.parametrize("k, d", SIZES)
def test_lhv_blocks(k, d, block, generators, tmp_path, capsys):
    n, seed = k * block + d, 700 + d
    report, log_bytes = streamed(["lhv", "--weights", *WEIGHTS, "--trials", str(n), "--seed", str(seed)], tmp_path)
    weights = list(map(float, WEIGHTS))
    estimate, log = sample_lhv_experiment(LhvModel.from_pattern_weights(weights), n, seed)
    rebuilt, state = lhv_draws(weights, n, seed)
    assert log == rebuilt and len(log) == n
    assert [g.bit_generator.state for g in generators] == [state, state]
    assert estimate == estimate_from_records(log)
    assert report["results"]["estimate"] == _estimate_dict(estimate)
    assert log_bytes == logged(log)

