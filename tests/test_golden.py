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
optimal`` already pins. The exact cases run on any numpy, with numpy blocked,
so that they also fail if one of them starts to import it, and numpy is
imported only for the sampled cases: the file runs where numpy is not
installed. Seeded bytes are promised only for one numpy version, so on any
other, or without numpy, the two sampled cases are skipped. Their two trial-log
digests are checked a second time, with numpy blocked, against logs rebuilt
from the raw words of the standard-library PCG64 in :mod:`pcg64_reference` by
the arithmetic the sampler docstrings state, so that they are checked on any
host.
"""

import hashlib
import sys
from itertools import accumulate

import pytest

from bellsim.cli import _parse_args, main
from bellsim.cli_common import _exact_table
from bellsim.patterns import RESPONSE_PATTERNS, LhvModel
from pcg64_reference import MASK32, PCG64

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


@pytest.mark.parametrize("name", sorted(CASES))
def test_seeded_outputs_match_recorded_digests(name, tmp_path, monkeypatch, capsys):
    argv, report_sha, log_sha = CASES[name]
    if log_sha is None:
        monkeypatch.setitem(sys.modules, "numpy", None)  # any import of numpy raises ImportError
    elif pytest.importorskip("numpy").__version__ != NUMPY_VERSION:
        pytest.skip(f"digests were recorded with numpy {NUMPY_VERSION}; seeded bytes are promised for one numpy "
                    "version only")
    # Relative paths, because the report records the trial log path.
    monkeypatch.chdir(tmp_path)
    log_args = [] if log_sha is None else ["--trial-log", f"{name}.csv"]
    code = main([*argv, "--out", f"{name}.json", *log_args])
    assert code == 0, capsys.readouterr().err
    assert hashlib.sha256((tmp_path / f"{name}.json").read_bytes()).hexdigest() == report_sha
    if log_sha is not None:
        assert hashlib.sha256((tmp_path / f"{name}.csv").read_bytes()).hexdigest() == log_sha


def top_bits(words: list[int]) -> list[int]:
    """The top bit of each 32-bit half of ``words``, low half first."""
    return [half >> 31 for w in words for half in (w & MASK32, w >> 32)]


def rebuilt_log(name: str) -> bytes:
    """The trial log of a seeded case, rebuilt from the reference words as the sampler docstrings state."""
    cfg = _parse_args(CASES[name][0])
    n, ref, rows = cfg.trials, PCG64(cfg.seed), []
    if name == "sample":
        table = _exact_table(cfg)[0]
        e = [table.e11, table.e12, table.e21, table.e22]
        m = (3 * n + 1) // 2  # the coins take whole words, after the halves of settings and A's outcomes
        words = ref.random_raw(m + n)
        bits = top_bits(words[:m])
        for i, coin in enumerate(words[m:]):
            j, k, a = 1 + bits[i], 1 + bits[n + i], 2 * bits[2 * n + i] - 1
            same = (coin >> 11) < (1.0 + e[2 * j + k - 3]) * 2.0**52
            rows.append((j, k, a, a if same else -a))
    else:
        cdf = list(accumulate(LhvModel.from_pattern_weights(cfg.weights).weights))
        cdf = [c / cdf[-1] for c in cdf]
        words = ref.random_raw(2 * n)
        bits = top_bits(words[n:])
        for i, w in enumerate(words[:n]):
            pattern = RESPONSE_PATTERNS[sum(c <= (w >> 11) * 2.0**-53 for c in cdf)]
            j, k = 1 + bits[i], 1 + bits[n + i]
            rows.append((j, k, pattern[j - 1], pattern[k + 1]))
    body = "".join(f"{i},{j},{k},{x},{y}\n" for i, (j, k, x, y) in enumerate(rows))
    return ("trial,a_setting,b_setting,a_outcome,b_outcome\n" + body).encode()


@pytest.mark.parametrize("name", ["lhv", "sample"])
def test_recorded_log_digests_match_the_reference_words(name, monkeypatch):
    monkeypatch.setitem(sys.modules, "numpy", None)
    assert hashlib.sha256(rebuilt_log(name)).hexdigest() == CASES[name][2]
