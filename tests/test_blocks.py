"""The samplers draw, tally and write one block of trials at a time; nothing may show at a block boundary.

Each block reads its own offsets of the seeded word stream, and is one
formatting block of the trial log. At ``n`` one short of a block, one block,
one past it and one past two blocks, three things hold:

- the library's :class:`TrialLog` is the one the documented numpy draws
  rebuild, from the one generator the samplers build per run;
- the trial log the CLI streams is byte-identical to ``write_trial_log`` of
  that log;
- the estimate the CLI streams equals ``estimate_from_records`` of it.
"""

import io
import json

import pytest

from bellsim.chsh import CorrelatorTable
from bellsim.cli import main
from bellsim.cli_lhv import _estimate_dict
from bellsim.lhv import (
    _BLOCK,
    LhvModel,
    TrialLog,
    estimate_from_records,
    sample_lhv_experiment,
    sample_quantum_experiment,
    write_trial_log,
)
from stream_reference import lhv_draws, quantum_draws

WEIGHTS = ["0.5", "0", "0", "0.125", "0", "0.25", "0", "0", "0", "0", "0.0625", "0", "0", "0", "0", "0.0625"]

#: (k, d): n = k * _BLOCK + d, the samplers' block size being one 10^4-row formatting block of the trial log.
SIZES = [(1, -1), (1, 0), (1, 1), (2, 1)]


def logged(log: TrialLog) -> bytes:
    buf = io.BytesIO()
    write_trial_log(log, buf)
    return buf.getvalue()


def streamed(argv: list[str], tmp_path) -> tuple[dict, bytes]:
    """The report and the trial log of one CLI run."""
    assert main([*argv, "--out", str(tmp_path / "r.json"), "--trial-log", str(tmp_path / "t.csv")]) == 0
    return json.loads((tmp_path / "r.json").read_text()), (tmp_path / "t.csv").read_bytes()


@pytest.mark.parametrize("k, d", SIZES)
def test_quantum_blocks(k, d, generators, tmp_path, capsys):
    n, seed = k * _BLOCK + d, 900 + d
    report, log_bytes = streamed(["sample", "--preset", "optimal", "--trials", str(n), "--seed", str(seed)], tmp_path)
    table = CorrelatorTable(**report["results"]["exact_table"])
    estimate, log = sample_quantum_experiment(table, n, seed)
    rebuilt = quantum_draws(table, n, seed)
    assert log == rebuilt and len(log) == n
    assert len(generators) == 2  # one for the CLI run, one for the library call
    assert estimate == estimate_from_records(log)
    assert report["results"]["estimate"] == _estimate_dict(estimate)
    assert log_bytes == logged(log)


@pytest.mark.parametrize("k, d", SIZES)
def test_lhv_blocks(k, d, generators, tmp_path, capsys):
    n, seed = k * _BLOCK + d, 700 + d
    report, log_bytes = streamed(["lhv", "--weights", *WEIGHTS, "--trials", str(n), "--seed", str(seed)], tmp_path)
    weights = list(map(float, WEIGHTS))
    estimate, log = sample_lhv_experiment(LhvModel.from_pattern_weights(weights), n, seed)
    rebuilt = lhv_draws(weights, n, seed)
    assert log == rebuilt and len(log) == n
    assert len(generators) == 2  # one for the CLI run, one for the library call
    assert estimate == estimate_from_records(log)
    assert report["results"]["estimate"] == _estimate_dict(estimate)
    assert log_bytes == logged(log)

