"""SHA-256 of reports and trial logs, pinned across versions of bellsim.

Criterion 8 only compares two runs of one build. The sampled digests were
recorded with the list-of-records samplers that preceded ``TrialLog``, so any
later change to the draw order, the estimate arithmetic, the report or the
log format shows up here. The exact cases write no trial log and pin the
report alone: ``optimize`` and ``werner-sweep`` on Werner states, whose
correlation tensor is exactly diagonal, ``chsh`` at the optimal preset, the
exact ``lhv`` models, and one ``key,value`` CSV report. The ``optimize``
digests pin the x, y, z order in which a diagonal T breaks ties between equal
singular values. The correlator table is plain Python arithmetic, so the
``chsh`` bytes are as fixed as the ``to_polar`` angles that ``sample --preset
optimal`` already pins. Seeded bytes are promised only for one numpy version,
so on any other the test is skipped.
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
    "chsh-werner": (
        ["chsh", "--state", "werner:0.8", "--preset", "optimal"],
        "eb47346a014407393e42de0ad64240895ff9b09b26f1309d8405aca2d8b29f5f",
        None,
    ),
    "lhv-uniform16": (
        ["lhv", "--preset", "uniform16"],
        "3c3c3d8575094fcd9a256500bccd3aac2a4cb18b1cf04ab57d8524047ebfd165",
        None,
    ),
    "optimize-csv": (
        ["optimize", "--state", "werner:0.9", "--format", "csv"],
        "9906db66c78558df08cff9fe5d94fc1fdfa7f9916ba9842ceb5f3109c2ece2a3",
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
