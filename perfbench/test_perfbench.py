"""Smoke test of the benchmark harness at its tiny size, and of its checker.

Run from the repository root with ``src`` on ``PYTHONPATH``:

    PYTHONPATH=src python -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = workloads.SIZES["tiny"]


def _bench(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_unit_and_nothing_fails(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = _bench(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC[key]}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        if trace:
            assert result["metrics"]["error_rate"]["value"] == 0


def _ops_by_kind() -> dict[str, dict]:
    ops = {}
    for workload in workloads.WORKLOADS:
        for op in workloads.build(workload, 3, TINY)[0]:
            kind = op["spec"]["cmd"] + ("+log" if op["spec"]["log"] else "")
            ops.setdefault(kind, op)
    return ops


#: A value in each report that the oracle pins, and a change it must reject.
PERTURBATIONS = {
    "chsh": (("results", "correlators", "e12"), 1e-9),
    "optimize": (("results", "s_value"), -1e-5),
    "werner-sweep": (("results", "threshold"), 1e-3),
    "lhv-exhaustive": (("results", "pattern_values", 3), 4.0),
    "lhv": (("results", "exact_table", "e11"), 1e-9),
    "lhv+log": (("results", "estimate", "s_estimate"), 1.0),
    "sample": (("results", "estimate", "s_estimate"), 1.0),
    "sample+log": (("results", "estimate", "s_estimate"), 1.0),
}


@pytest.fixture(scope="module")
def checker():
    from bellsim.cli import REPORT_SCHEMA

    return oracles.Checker(REPORT_SCHEMA)


@pytest.mark.parametrize("kind", sorted(PERTURBATIONS))
def test_checker_rejects_a_perturbed_output(kind, checker, tmp_path, monkeypatch):
    from bellsim.cli import main

    op = _ops_by_kind()[kind]
    monkeypatch.chdir(tmp_path)
    assert main(op["argv"]) == 0
    assert checker.cli(op["spec"], tmp_path) == []

    report_path = tmp_path / op["spec"]["report"]
    report = json.loads(report_path.read_text())
    path, delta = PERTURBATIONS[kind]
    target = report
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] += delta
    report_path.write_text(json.dumps(report))
    assert checker.cli(op["spec"], tmp_path)


def test_checker_rejects_a_truncated_trial_log(checker, tmp_path, monkeypatch):
    from bellsim.cli import main

    op = _ops_by_kind()["sample+log"]
    monkeypatch.chdir(tmp_path)
    assert main(op["argv"]) == 0
    log = tmp_path / op["spec"]["log"]
    log.write_bytes(log.read_bytes().rsplit(b"\n", 2)[0] + b"\n")
    assert any("trial log" in e for e in checker.cli(op["spec"], tmp_path))


def test_checker_rejects_a_perturbed_library_result(checker):
    import child

    _, calls = workloads.build("search", 3, TINY)
    result = child.library_call(calls[0])
    assert checker.library(calls[0], result) == []
    assert checker.library(calls[0], {**result, "s_value": result["s_value"] - 1e-5})


def test_importtime_parsing_counts_each_package_once():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:      1000 |       5000 |       numpy",
        "import time:       500 |        600 |       scipy",
        "import time:       100 |       2000 |       scipy.optimize",
        "import time:       300 |       8000 |     bellsim.chsh",
        "import time:        50 |       8100 |   bellsim",
        "import time:        70 |       8200 | bellsim.cli",
    ])
    assert run.parse_importtime(stderr) == pytest.approx(
        {"import.bellsim_s": 0.0082, "import.scipy_s": 0.0026, "import.numpy_s": 0.005})

