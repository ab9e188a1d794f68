"""SHA-256 of reports and trial logs, pinned across versions of bellsim.

Criterion 8 only compares two runs of one build. The sampled digests were
recorded with the list-of-records samplers that preceded ``TrialLog``, so any
later change to the draw order, the estimate arithmetic, the report or the
log format shows up here. The exact cases (``optimize`` and ``werner-sweep``
on Werner states, whose correlation tensor is exactly diagonal, and the
exhaustive ``lhv``) write no trial log and pin the report alone; the
``optimize`` digest pins the x, y, z order in which a diagonal T breaks ties
between equal singular values. ``chsh`` is left out: its last bit may move.
Seeded bytes are promised only for one numpy version, so on any other the
test is skipped.
"""

import hashlib

import numpy as np
import pytest

from bellsim.cli import main

NUMPY_VERSION = "2.4.6"

WEIGHTS = ["0.5", "0", "0", "0.125", "0", "0.25", "0", "0", "0", "0", "0.0625", "0", "0", "0", "0", "0.0625"]

CASES = {
    "sample": (
        ["sample", "--preset", "optimal", "--trials", "2000", "--seed", "20260"],
        "e9c9f7b3a0157fbe77c9f5543a0fdb2a02ea474d5fab9a473cba156c4fb0cb21",
        "00f857bea7e9c065a78907c6bfaf56969bc143b725caed34db43687aba9935ff",
    ),
    "lhv": (
        ["lhv", "--weights", *WEIGHTS, "--trials", "2000", "--seed", "20261"],
        "7d7861f582c5c89a5c60bf058f33bc98f306bae0c59867fdf0c6a16b0ddc0c5d",
        "2a2aac32da52891ac0e5fb9417a334663dc77824a994dbe34d5140bc8bdc681f",
    ),
    "optimize": (
        ["optimize", "--state", "werner:0.9"],
        "672f13b4b2b57f2f6a6a7610f79184bec2f1f89612bdaf62b5fd7a051707fffd",
        None,
    ),
    "werner-sweep": (
        ["werner-sweep", "--points", "5"],
        "930f408d97110b75a33005485c7ec54aee33c424f5e737b4d83609b75f478a3d",
        None,
    ),
    "lhv-exhaustive": (
        ["lhv", "--exhaustive"],
        "cd28c81deed60c43520193342a287cf0d1275fd854a96babf666a230b3e3a1f9",
        None,
    ),
}


@pytest.mark.skipif(
    np.__version__ != NUMPY_VERSION,
    reason=f"digests were recorded with numpy {NUMPY_VERSION}; seeded bytes are promised for one numpy version only",
)
@pytest.mark.parametrize("name", sorted(CASES))
def test_seeded_outputs_match_recorded_digests(name, tmp_path, monkeypatch, capsys):
    argv, report_sha, log_sha = CASES[name]
    # Relative paths, because the report records the trial log path.
    monkeypatch.chdir(tmp_path)
    log_args = [] if log_sha is None else ["--trial-log", f"{name}.csv"]
    code = main([*argv, "--out", f"{name}.json", *log_args])
    assert code == 0, capsys.readouterr().err
    assert hashlib.sha256((tmp_path / f"{name}.json").read_bytes()).hexdigest() == report_sha
    if log_sha is not None:
        assert hashlib.sha256((tmp_path / f"{name}.csv").read_bytes()).hexdigest() == log_sha
