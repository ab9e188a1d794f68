import json
import math
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bellsim import cli
from bellsim.chsh import (
    MAX_RANDOM_STARTS, MAX_SWEEP_POINTS, MAX_SWEEP_STARTS, InternalConsistencyError, TSIRELSON_BOUND,
)
from bellsim.cli import REPORT_SCHEMA, main
from bellsim.lhv import MAX_TRIALS

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *args):
    code, out, err = run_cli(capsys, *args)
    assert code == 0, err
    report = json.loads(out)
    jsonschema.validate(report, REPORT_SCHEMA)
    return report


# --- chsh ----------------------------------------------------------------


def test_chsh_singlet_optimal(capsys):
    report = run_json(capsys, "chsh", "--state", "singlet", "--preset", "optimal")
    results = report["results"]
    assert results["s_value"] == pytest.approx(TSIRELSON_BOUND, abs=1e-12)
    assert results["violates_classical"] is True
    assert results["within_tsirelson"] is True
    assert results["correlators"]["e11"] == pytest.approx(INV_SQRT2, abs=1e-12)
    assert results["correlators"]["e22"] == pytest.approx(-INV_SQRT2, abs=1e-12)


def test_chsh_explicit_aligned_angles(capsys):
    report = run_json(
        capsys, "chsh", "--state", "singlet",
        "--a1", "0", "0", "--a2", "0", "0", "--b1", "0", "0", "--b2", "0", "0",
    )
    assert report["results"]["s_value"] == pytest.approx(-2.0, abs=1e-12)
    assert report["results"]["violates_classical"] is False


def test_chsh_werner_scales(capsys):
    report = run_json(capsys, "chsh", "--state", "werner:0.5", "--preset", "optimal")
    assert report["results"]["s_value"] == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_chsh_requires_settings(capsys):
    code, _, err = run_cli(capsys, "chsh", "--state", "singlet")
    assert code == 2
    assert "preset" in err


def test_chsh_rejects_preset_and_angles(capsys):
    code, _, _ = run_cli(
        capsys, "chsh", "--preset", "optimal",
        "--a1", "0", "0", "--a2", "0", "0", "--b1", "0", "0", "--b2", "0", "0",
    )
    assert code == 2


def test_chsh_rejects_partial_angles(capsys):
    code, _, _ = run_cli(capsys, "chsh", "--a1", "0", "0")
    assert code == 2


def test_chsh_rejects_out_of_range_angles(capsys):
    code, _, _ = run_cli(
        capsys, "chsh", "--a1", "-1", "0", "--a2", "0", "0", "--b1", "0", "0", "--b2", "0", "0"
    )
    assert code == 2


# --- optimize ----------------------------------------------------------------


def test_optimize_singlet(capsys):
    report = run_json(capsys, "optimize", "--state", "singlet")
    assert report["results"]["s_value"] == pytest.approx(TSIRELSON_BOUND, abs=1e-6)
    assert report["diagnostics"]["starts"] >= 1


def test_optimize_threshold_werner(capsys):
    report = run_json(capsys, "optimize", "--state", "werner:0.7071")
    assert report["results"]["s_value"] == pytest.approx(2.0, abs=1e-3)


def test_optimize_white_noise(capsys):
    report = run_json(capsys, "optimize", "--state", "werner:0")
    assert abs(report["results"]["s_value"]) <= 1e-6


def test_optimize_reports_see_saw_diagnostics(capsys):
    report = run_json(capsys, "optimize", "--state", "werner:0.9", "--restarts", "1")
    diagnostics = report["diagnostics"]
    assert diagnostics["starts"] == 2
    assert diagnostics["updates"] == 4 * 2 * diagnostics["sweeps"]
    assert abs(diagnostics["optimality_gap"]) <= 1e-9
    assert not any(key.startswith("grid_") for key in diagnostics)
    assert set(report["inputs"]) == {"state", "seed", "restarts"}


@pytest.mark.parametrize("flag", ["--theta-divisions", "--phi-divisions"])
@pytest.mark.parametrize("command", ["optimize", "werner-sweep"])
def test_removed_grid_flags_exit_two(capsys, command, flag):
    assert run_cli(capsys, command, flag, "24")[0] == 2


def test_optimize_rejects_bad_state(capsys):
    for spec in ("werner:1.5", "werner:abc", "ghz"):
        code, _, _ = run_cli(capsys, "optimize", "--state", spec)
        assert code == 2


# --- werner-sweep ----------------------------------------------------------------


def test_werner_sweep_monotone_and_threshold(capsys):
    report = run_json(capsys, "werner-sweep", "--points", "9")
    rows = report["results"]["rows"]
    assert len(rows) == 9
    values = [row["max_s"] for row in rows]
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
    assert rows[-1]["p"] == 1.0
    assert rows[-1]["max_s"] == pytest.approx(TSIRELSON_BOUND, abs=1e-4)
    assert report["results"]["threshold"] == pytest.approx(INV_SQRT2, abs=1e-4)
    assert report["results"]["threshold_row"]["max_s"] == pytest.approx(2.0, abs=1e-3)


def test_werner_sweep_reports_gap_per_row(capsys):
    report = run_json(capsys, "werner-sweep", "--points", "4")
    gaps = report["diagnostics"]["optimality_gap"]
    assert len(gaps) == len(report["results"]["rows"]) == 4
    assert max(abs(g) for g in gaps) <= 1e-9
    assert abs(report["diagnostics"]["threshold_row_optimality_gap"]) <= 1e-9


def test_werner_sweep_csv(capsys):
    code, out, err = run_cli(capsys, "werner-sweep", "--points", "5", "--format", "csv")
    assert code == 0, err
    lines = out.strip().split("\n")
    assert lines[0] == "p,max_s,violates"
    assert len(lines) == 7  # 5 sweep rows + threshold row + header
    last = lines[-1].split(",")
    assert float(last[0]) == pytest.approx(INV_SQRT2, abs=1e-4)


def test_werner_sweep_rejects_bad_range(capsys):
    assert run_cli(capsys, "werner-sweep", "--p-min", "-0.5")[0] == 2
    assert run_cli(capsys, "werner-sweep", "--p-max", "1.5")[0] == 2
    assert run_cli(capsys, "werner-sweep", "--points", "1")[0] == 2


# --- lhv ----------------------------------------------------------------


def test_lhv_exhaustive(capsys):
    report = run_json(capsys, "lhv", "--exhaustive")
    assert report["results"]["classical_bound"] == 2.0
    assert sorted(set(report["results"]["pattern_values"])) == [-2.0, 2.0]
    assert len(report["results"]["pattern_labels"]) == 16


def test_lhv_uniform16_sampling(capsys):
    report = run_json(capsys, "lhv", "--preset", "uniform16", "--trials", "100000", "--seed", "7")
    estimate = report["results"]["estimate"]
    for e, se in zip(estimate["table"].values(), estimate["std_errors"]):
        assert abs(e) <= 4.0 * se
    assert report["results"]["s_value"] == 0.0


def test_lhv_delta_weights(capsys):
    weights = ["1"] + ["0"] * 15
    report = run_json(capsys, "lhv", "--weights", *weights)
    assert report["results"]["s_value"] == 2.0
    assert report["results"]["estimate"] is None


def test_lhv_rejects_unnormalized_weights(capsys):
    weights = ["0.5"] + ["0"] * 15
    code, _, err = run_cli(capsys, "lhv", "--weights", *weights)
    assert code == 2
    assert "sum" in err


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_lhv_rejects_non_finite_weights(capsys, bad):
    code, out, _ = run_cli(capsys, "lhv", "--weights", bad, *["0"] * 15)
    assert code == 2
    assert out == ""


def test_lhv_requires_exactly_one_model(capsys):
    assert run_cli(capsys, "lhv")[0] == 2
    assert run_cli(capsys, "lhv", "--exhaustive", "--preset", "uniform16")[0] == 2


def test_lhv_exhaustive_rejects_trials(capsys):
    assert run_cli(capsys, "lhv", "--exhaustive", "--trials", "100")[0] == 2


@pytest.mark.parametrize("model", [["--preset", "uniform16"], ["--exhaustive"]])
def test_lhv_trial_log_needs_trials(capsys, tmp_path, model):
    log = tmp_path / "x.csv"
    code, out, err = run_cli(capsys, "lhv", *model, "--trial-log", str(log))
    assert code == 2
    assert "--trial-log needs --trials" in err
    assert out == ""
    assert not log.exists()


# --- sample ----------------------------------------------------------------


def test_sample_singlet_optimal(capsys):
    report = run_json(
        capsys, "sample", "--state", "singlet", "--preset", "optimal",
        "--trials", "200000", "--seed", "1",
    )
    estimate = report["results"]["estimate"]
    assert abs(estimate["s_estimate"] - TSIRELSON_BOUND) <= 4.0 * estimate["s_std_error"]
    assert sum(estimate["counts"]) == 200000
    assert report["results"]["exact_s"] == pytest.approx(TSIRELSON_BOUND, abs=1e-12)


def test_sample_rejects_zero_trials(capsys):
    code, _, _ = run_cli(capsys, "sample", "--state", "singlet", "--preset", "optimal", "--trials", "0")
    assert code == 2


def test_sample_requires_trials(capsys):
    code, _, _ = run_cli(capsys, "sample", "--state", "singlet", "--preset", "optimal")
    assert code == 2


def test_sample_stdout_reproducible(capsys):
    args = ("sample", "--state", "werner:0.6", "--preset", "optimal", "--trials", "50000", "--seed", "5")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    _, out3, _ = run_cli(capsys, "sample", "--state", "werner:0.6", "--preset", "optimal",
                         "--trials", "50000", "--seed", "6")
    assert out1 != out3


def test_sample_trial_log_reproducible(capsys, tmp_path):
    logs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        code, _, err = run_cli(
            capsys, "sample", "--state", "singlet", "--preset", "optimal",
            "--trials", "20000", "--seed", "11", "--trial-log", str(path),
        )
        assert code == 0, err
        logs.append(path.read_bytes())
    assert logs[0] == logs[1]
    header = logs[0].split(b"\n", 1)[0]
    assert header == b"trial,a_setting,b_setting,a_outcome,b_outcome"


# --- shared plumbing ----------------------------------------------------------------


def test_out_file_receives_machine_report(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "chsh", "--state", "singlet", "--preset", "optimal", "--out", str(out_path)
    )
    assert code == 0
    report = json.loads(out_path.read_text())
    jsonschema.validate(report, REPORT_SCHEMA)
    assert "S" in out  # human summary moved to stdout


def test_csv_keyvalue_format(capsys):
    code, out, _ = run_cli(capsys, "chsh", "--state", "singlet", "--preset", "optimal",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "key,value"
    s_rows = [line for line in lines if line.startswith("results.s_value,")]
    assert len(s_rows) == 1
    assert float(s_rows[0].split(",")[1]) == pytest.approx(TSIRELSON_BOUND, abs=1e-12)


def test_config_file_supplies_defaults(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 123\ntrials = 5000\n# comment\nformat = json\n")
    report = run_json(
        capsys, "sample", "--state", "singlet", "--preset", "optimal", "--config", str(cfg)
    )
    assert report["inputs"]["seed"] == 123
    assert report["inputs"]["trials"] == 5000


def test_flags_override_config(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 123\n")
    report = run_json(
        capsys, "sample", "--state", "singlet", "--preset", "optimal",
        "--trials", "1000", "--seed", "9", "--config", str(cfg),
    )
    assert report["inputs"]["seed"] == 9


def test_config_rejects_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus = 1\n")
    code, _, err = run_cli(capsys, "chsh", "--preset", "optimal", "--config", str(cfg))
    assert code == 2
    assert "bogus" in err


@pytest.mark.parametrize("line", ["seed = 1.9", "trials = 2.5", "restarts = 0.5", "points = 2.7",
                                  "seed = true", "seed = nan", "trials = inf"])
def test_config_rejects_non_integral_integers(capsys, tmp_path, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    code, _, err = run_cli(capsys, "chsh", "--preset", "optimal", "--config", str(cfg))
    assert code == 2
    assert line.split()[0] in err


def test_config_accepts_integral_float(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("trials = 1e3\nseed = 4.0\n")
    report = run_json(capsys, "sample", "--preset", "optimal", "--config", str(cfg))
    assert report["inputs"]["trials"] == 1000
    assert report["inputs"]["seed"] == 4


@pytest.mark.parametrize("key", ["theta_divisions", "phi-divisions"])
def test_config_rejects_removed_grid_keys(capsys, tmp_path, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = 24\n")
    assert run_cli(capsys, "optimize", "--config", str(cfg))[0] == 2


def test_unknown_preset_exits_two(capsys):
    code, _, _ = run_cli(capsys, "chsh", "--preset", "diagonal")
    assert code == 2


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0
    assert run_cli(capsys, "chsh", "--help")[0] == 0


def test_internal_error_exits_one(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise InternalConsistencyError("imaginary residue")

    monkeypatch.setattr("bellsim.cli.correlator_table", boom)
    code, _, err = run_cli(capsys, "chsh", "--state", "singlet", "--preset", "optimal")
    assert code == 1
    assert "internal error" in err


def test_reports_validate_against_schema(capsys):
    run_json(capsys, "chsh", "--preset", "aligned")
    run_json(capsys, "optimize", "--state", "werner:0.3")
    run_json(capsys, "werner-sweep", "--points", "3", "--p-min", "0.2", "--p-max", "0.4")
    run_json(capsys, "lhv", "--exhaustive")
    run_json(capsys, "sample", "--preset", "optimal", "--trials", "100")


@pytest.mark.parametrize("command", [["sample", "--preset", "optimal"], ["lhv", "--preset", "uniform16"]])
@pytest.mark.parametrize("via_config", [False, True])
def test_trials_above_max_exit_two_before_drawing(capsys, tmp_path, monkeypatch, command, via_config):
    def no_generator(*args, **kwargs):
        raise AssertionError("a generator was built for an oversized trial count")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    if via_config:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"trials = {MAX_TRIALS + 1}\n")
        extra = ["--config", str(cfg)]
    else:
        extra = ["--trials", str(MAX_TRIALS + 1)]
    code, _, err = run_cli(capsys, *command, *extra)
    assert code == 2
    assert str(MAX_TRIALS) in err


def test_trials_help_states_the_bound(capsys):
    for command in ("sample", "lhv"):
        _, out, _ = run_cli(capsys, command, "--help")
        assert f"at most {MAX_TRIALS})" in out


# --- one parse for flags and config files ----------------------------------------------


@pytest.mark.parametrize("line", ["trial_log = never.csv", "points = 5"])
@pytest.mark.parametrize("command", [["chsh", "--preset", "optimal"], ["optimize"]])
def test_config_key_the_command_does_not_take_exits_two(capsys, tmp_path, monkeypatch, command, line):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(f"# {command[0]}\n{line}\n")
    code, out, err = run_cli(capsys, *command, "--config", "run.cfg")
    assert code == 2
    assert out == ""
    assert "run.cfg:2:" in err
    assert repr(line.split()[0]) in err
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


@pytest.mark.parametrize("line, flag", [
    ("format = xml", ["--format", "json"]),
    ("seed = 1.9", ["--seed", "5"]),
    ("preset = diagonal", ["--preset", "optimal"]),
    ("preset = uniform16", ["--preset", "aligned"]),
])
def test_bad_config_value_exits_two_under_a_flag(capsys, tmp_path, line, flag):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run_cli(capsys, "chsh", "--config", str(cfg), *flag)
    assert code == 2
    assert out == ""
    assert flag[0] in err


@pytest.mark.parametrize("via_config", [False, True])
def test_one_integer_rule_for_flags_and_file(capsys, tmp_path, via_config):
    seed = 2**53 + 1
    values = {"seed": str(seed), "trials": "1e3"}
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{key} = {text}\n" for key, text in values.items()))
    source = ["--config", str(cfg)] if via_config else [f"--{k}={t}" for k, t in values.items()]
    report = run_json(capsys, "sample", "--preset", "optimal", *source)
    assert report["inputs"]["seed"] == seed
    assert report["inputs"]["trials"] == 1000


SEED_COMMANDS = [
    ["chsh", "--preset", "optimal"],
    ["optimize"],
    ["werner-sweep", "--points", "2", "--restarts", "0"],
    ["lhv", "--exhaustive"],
    ["sample", "--preset", "optimal", "--trials", "10"],
]


@pytest.mark.parametrize("command", SEED_COMMANDS, ids=lambda c: c[0])
@pytest.mark.parametrize("via_config", [False, True])
def test_negative_seed_exits_two_naming_the_option(capsys, tmp_path, command, via_config):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = -1\n")
    source = ["--config", str(cfg)] if via_config else ["--seed", "-1"]
    code, out, err = run_cli(capsys, *command, *source)
    assert code == 2
    assert out == ""
    assert "argument --seed: expected a non-negative integer, got '-1'" in err
    for seed in ("0", str(2**53 + 1)):
        assert run_cli(capsys, *command, "--seed", seed)[0] == 0


#: A cheap command line that takes each config key.
CHEAP_COMMANDS = {
    "format": ["chsh", "--preset", "optimal"],
    "out": ["chsh", "--preset", "optimal"],
    "seed": ["chsh", "--preset", "optimal"],
    "state": ["chsh", "--preset", "optimal"],
    "preset": ["chsh"],
    "trials": ["sample", "--preset", "optimal"],
    "trial_log": ["sample", "--preset", "optimal", "--trials", "10"],
    "restarts": ["optimize", "--state", "werner:0.9"],
    "p_min": ["werner-sweep", "--points", "2", "--restarts", "0"],
    "p_max": ["werner-sweep", "--points", "2", "--restarts", "0"],
    "points": ["werner-sweep", "--restarts", "0"],
}
#: Integers stay small (cheap to run) or far above every bound (refused before work).
CONFIG_TEXTS = st.one_of(
    st.integers(-3, 40).map(str),
    st.integers(2**53, 2**70).map(str),
    st.integers(-(2**70), -(2**53)).map(str),
    st.floats(-40.0, 40.0).map(repr),
    st.sampled_from([
        "1e3", "4.0", "1.9", "nan", "inf", "-inf", "+inf", "true", "false", "1e400",
        "json", "csv", "xml", "optimal", "aligned", "uniform16", "diagonal",
        "singlet", "ghz", "werner:", "werner:abc", "werner:nan", "werner:inf",
    ]),
    st.floats(-1.0, 1.5).map(lambda p: f"werner:{p!r}"),
)


@pytest.mark.parametrize("key", sorted(cli._OPTIONS))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=CONFIG_TEXTS)
def test_flag_and_config_line_agree(capsys, tmp_path, monkeypatch, key, text):
    monkeypatch.chdir(tmp_path)
    Path("run.cfg").write_text(f"{key} = {text}\n")
    command = CHEAP_COMMANDS[key]
    by_flag = run_cli(capsys, *command, f"--{key.replace('_', '-')}={text}")
    by_file = run_cli(capsys, *command, "--config", "run.cfg")
    assert by_flag[0] == by_file[0]
    assert by_flag[0] in (0, 2), by_flag[2]
    assert "Traceback" not in by_flag[2] + by_file[2]
    if by_flag[0] == 0:
        assert by_flag[1] == by_file[1]


class _Searched(Exception):
    pass


@pytest.mark.parametrize("via_config", [False, True])
def test_sweep_points_above_max_exit_two_before_searching(capsys, tmp_path, monkeypatch, via_config):
    def no_search(*args, **kwargs):
        raise _Searched

    monkeypatch.setattr("bellsim.cli.optimize_settings_traced", no_search)
    monkeypatch.setattr("bellsim.chsh.optimize_settings_traced", no_search)
    if via_config:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"points = {MAX_SWEEP_POINTS + 1}\n")
        extra = ["--config", str(cfg)]
    else:
        extra = ["--points", str(MAX_SWEEP_POINTS + 1)]
    code, out, err = run_cli(capsys, "werner-sweep", *extra)
    assert code == 2
    assert out == ""
    assert str(MAX_SWEEP_POINTS) in err
    with pytest.raises(_Searched):
        main(["werner-sweep", "--points", str(MAX_SWEEP_POINTS)])


@pytest.mark.parametrize("via_config", [False, True])
def test_sweep_cost_above_max_exit_two_before_searching(capsys, tmp_path, monkeypatch, via_config):
    def no_search(*args, **kwargs):
        raise _Searched

    monkeypatch.setattr("bellsim.cli.optimize_settings_traced", no_search)
    monkeypatch.setattr("bellsim.chsh.optimize_settings_traced", no_search)
    values = {"points": str(MAX_SWEEP_POINTS), "restarts": str(MAX_SWEEP_STARTS // (MAX_SWEEP_POINTS + 21))}
    if via_config:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key} = {text}\n" for key, text in values.items()))
        extra = ["--config", str(cfg)]
    else:
        extra = [f"--{key}={text}" for key, text in values.items()]
    code, out, err = run_cli(capsys, "werner-sweep", *extra)
    assert code == 2
    assert out == ""
    assert str(MAX_SWEEP_STARTS) in err
    restarts_below = str(int(values["restarts"]) - 1)
    for accepted in (["--points", str(MAX_SWEEP_POINTS), "--restarts", restarts_below],
                     ["--points", str(MAX_SWEEP_POINTS)], ["--restarts", "10000"]):
        with pytest.raises(_Searched):
            main(["werner-sweep", *accepted])


def test_sweep_points_help_states_the_bound(capsys):
    _, out, _ = run_cli(capsys, "werner-sweep", "--help")
    assert f"2 to {MAX_SWEEP_POINTS}" in " ".join(out.split())


@pytest.mark.parametrize("command, key, low, high", [
    (["sample", "--preset", "optimal"], "trials", 1, MAX_TRIALS),
    (["lhv", "--preset", "uniform16"], "trials", 1, MAX_TRIALS),
    (["optimize"], "restarts", 0, MAX_RANDOM_STARTS),
    (["werner-sweep", "--points", "2"], "restarts", 0, MAX_RANDOM_STARTS),
    (["werner-sweep", "--restarts", "0"], "points", 2, MAX_SWEEP_POINTS),
], ids=lambda v: v[0] if isinstance(v, list) else None)
@pytest.mark.parametrize("via_config", [False, True])
def test_integer_out_of_range_exits_two_naming_the_option(
    capsys, tmp_path, monkeypatch, command, key, low, high, via_config
):
    def no_work(*args, **kwargs):
        raise _Searched

    for target in ("bellsim.cli.optimize_settings_traced", "bellsim.chsh.optimize_settings_traced",
                   "numpy.random.default_rng"):
        monkeypatch.setattr(target, no_work)
    cfg = tmp_path / "run.cfg"
    for value in (low - 1, high + 1):
        cfg.write_text(f"{key} = {value}\n")
        source = ["--config", str(cfg)] if via_config else [f"--{key}", str(value)]
        code, out, err = run_cli(capsys, *command, *source)
        assert code == 2
        assert out == ""
        assert f"argument --{key}: expected an integer in [{low}, {high}], got '{value}'" in err
    for value in (low, high):
        with pytest.raises(_Searched):
            main([*command, f"--{key}", str(value)])
