import csv
import io
import json
import math
import os
import sys
from pathlib import Path, PurePosixPath

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bellsim import cli
from bellsim.chsh import MAX_SWEEP_POINTS, TSIRELSON_BOUND
from bellsim.cli import REPORT_SCHEMA, main
from bellsim.lhv import MAX_TRIALS

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *args):
    """The report of a successful run, checked for the one shape every report has."""
    code, out, err = run_cli(capsys, *args)
    assert code == 0, err
    report = json.loads(out)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert list(report) == ["command", "inputs", "results", "diagnostics"]
    assert report["command"] == args[0]
    assert list(report["inputs"])[-1] == "seed"
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
    for theta in ("-1", "nan"):
        code, out, err = run_cli(
            capsys, "chsh", "--a1", theta, "0", "--a2", "0", "0", "--b1", "0", "0", "--b2", "0", "0"
        )
        assert code == 2
        assert out == ""
        assert f"theta={float(theta)!r} outside [0, pi]" in err


# --- optimize ----------------------------------------------------------------


def test_optimize_singlet(capsys):
    report = run_json(capsys, "optimize", "--state", "singlet")
    assert report["results"]["s_value"] == pytest.approx(TSIRELSON_BOUND, abs=1e-6)
    assert report["diagnostics"]["singular_values"] == pytest.approx([1.0, 1.0, 1.0], abs=1e-15)


def test_optimize_threshold_werner(capsys):
    report = run_json(capsys, "optimize", "--state", "werner:0.7071")
    assert report["results"]["s_value"] == pytest.approx(2.0, abs=1e-3)


def test_optimize_white_noise(capsys):
    report = run_json(capsys, "optimize", "--state", "werner:0")
    assert abs(report["results"]["s_value"]) <= 1e-6


def test_optimize_reports_closed_form_diagnostics(capsys):
    report = run_json(capsys, "optimize", "--state", "werner:0.9")
    diagnostics = report["diagnostics"]
    assert set(diagnostics) == {"singular_values", "optimality_gap"}
    assert diagnostics["singular_values"] == pytest.approx([0.9, 0.9, 0.9], abs=1e-15)
    assert abs(diagnostics["optimality_gap"]) <= 1e-14
    assert set(report["inputs"]) == {"state", "seed"}


@pytest.mark.parametrize("flag", ["--theta-divisions", "--phi-divisions", "--restarts"])
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
    assert max(abs(g) for g in gaps) <= 1e-14
    assert abs(report["diagnostics"]["threshold_row_optimality_gap"]) <= 1e-14


def test_werner_sweep_csv(capsys):
    code, out, err = run_cli(capsys, "werner-sweep", "--points", "5", "--format", "csv")
    assert code == 0, err
    lines = out.strip().split("\n")
    assert lines[0] == "p,max_s,violates"
    assert len(lines) == 7  # 5 sweep rows + threshold row + header
    last = lines[-1].split(",")
    assert float(last[0]) == pytest.approx(INV_SQRT2, abs=1e-4)


@pytest.mark.parametrize("p_min, points", [(-1.0 / 3.0, 170), (0.1, 8), (-0.2, 41), (0.0, 2)])
def test_werner_sweep_rows_stay_in_range_and_end_at_p_max(capsys, p_min, points):
    report = run_json(capsys, "werner-sweep", "--p-min", repr(p_min), "--points", str(points))
    grid = [row["p"] for row in report["results"]["rows"]]
    assert len(grid) == points
    assert all(p_min <= p <= 1.0 for p in grid)
    assert grid[0] == p_min
    assert grid[-1] == 1.0
    step = (1.0 - p_min) / (points - 1)
    assert grid[:-1] == [p_min + i * step for i in range(points - 1)]


def test_werner_sweep_rejects_bad_range(capsys):
    assert run_cli(capsys, "werner-sweep", "--p-min", "-0.5")[0] == 2
    assert run_cli(capsys, "werner-sweep", "--p-max", "1.5")[0] == 2
    assert run_cli(capsys, "werner-sweep", "--points", "1")[0] == 2


@pytest.mark.parametrize("p_min, p_max", [("0.9", "0.1"), ("0.5", "0.5")])
def test_werner_sweep_rejects_unordered_bounds(capsys, p_min, p_max):
    code, out, err = run_cli(capsys, "werner-sweep", "--p-min", p_min, "--p-max", p_max)
    assert code == 2 and out == ""
    assert f"needs -1/3 <= p_min < p_max <= 1, got p_min={p_min}, p_max={p_max}" in err


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


def test_lhv_rejects_weights_whose_sum_overflows(capsys):
    code, out, err = run_cli(capsys, "lhv", "--weights", "1e308", "1e308", *["0"] * 14)
    assert code == 2
    assert out == ""
    assert "at most 1" in err
    assert "Traceback" not in err


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


@pytest.mark.parametrize("argv", [
    ["chsh", "--state", "werner:0.8", "--preset", "optimal"],
    ["optimize", "--state", "werner:0.9"],
    ["werner-sweep", "--points", "5"],
    ["lhv", "--exhaustive"],
], ids=" ".join)
def test_exact_commands_only_record_the_seed(capsys, argv):
    runs = []
    for seed in (0, 5):
        code, out, err = run_cli(capsys, *argv, "--seed", str(seed))
        assert code == 0, err
        report = json.loads(out)
        assert report["inputs"].pop("seed") == seed
        runs.append((report, err))
    assert runs[0] == runs[1]


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


@pytest.mark.parametrize("text", ["", ".", "/", "//", "///", "t.csv", "./t.csv", "a//./b/", ".//a/..//b",
                                  "//a/b", "///a/./", "a/.b/..c/"])
def test_path_options_are_spelt_as_pathlib_spells_them(text):
    assert cli._path(text) == str(PurePosixPath(text))


def test_trial_log_path_is_recorded_in_pathlib_spelling(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "logs").mkdir()
    report = run_json(capsys, "sample", "--preset", "optimal", "--trials", "5", "--trial-log", ".//logs/./t.csv")
    assert report["diagnostics"]["trial_log"] == "logs/t.csv"
    assert (tmp_path / "logs" / "t.csv").read_text().count("\n") == 6


@pytest.mark.usefixtures("no_draws")
@pytest.mark.parametrize("command", [["sample", "--preset", "optimal"], ["lhv", "--preset", "uniform16"]],
                         ids=lambda c: c[0])
@pytest.mark.parametrize("via_config", [False, True])
def test_out_and_trial_log_naming_one_file_exit_two_before_drawing(capsys, tmp_path, monkeypatch, command,
                                                                   via_config):
    monkeypatch.chdir(tmp_path)
    if via_config:
        # the relative and the absolute spelling of one file
        Path("run.cfg").write_text(f"out = r.csv\ntrial_log = {tmp_path}/r.csv\n")
        source = ["--config", "run.cfg"]
    else:
        source = ["--out", "r.csv", "--trial-log", "./r.csv"]
    code, out, err = run_cli(capsys, *command, "--trials", "5", *source)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "name the same file" in err
    assert [p.name for p in tmp_path.iterdir()] == (["run.cfg"] if via_config else [])


#: A --trial-log that cannot be opened for writing, and the error line it gives.
UNWRITABLE_LOGS = {"missing/t.csv": "[Errno 2] No such file or directory: 'missing/t.csv'",
                   "/": "[Errno 21] Is a directory: '/'"}


@pytest.mark.usefixtures("no_draws")
@pytest.mark.parametrize("command", [["sample", "--preset", "optimal"], ["lhv", "--preset", "uniform16"]],
                         ids=lambda c: c[0])
@pytest.mark.parametrize("log", UNWRITABLE_LOGS)
def test_an_unwritable_trial_log_exits_two_before_drawing(capsys, tmp_path, monkeypatch, command, log):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *command, "--trials", "5", "--trial-log", log)
    assert (code, out, err) == (2, "", f"error: {UNWRITABLE_LOGS[log]}\n")
    assert list(tmp_path.iterdir()) == []


#: Each way an output can name the config file run.cfg: a flag in either spelling, or an out line in the file itself.
SAME_AS_CONFIG = [(command, option, spelling) for command in ("chsh", "sample")
                  for option in (("--out", "--trial-log") if command == "sample" else ("--out",))
                  for spelling in ("relative", "absolute", "config line")
                  if not (option == "--trial-log" and spelling == "config line")]


@pytest.mark.usefixtures("no_draws")
@pytest.mark.parametrize("command, option, spelling", SAME_AS_CONFIG, ids=[" ".join(c) for c in SAME_AS_CONFIG])
def test_an_output_naming_the_config_file_exits_two_and_leaves_it(capsys, tmp_path, monkeypatch, command, option,
                                                                   spelling):
    monkeypatch.chdir(tmp_path)
    text = "preset = optimal\n" + ("out = ./run.cfg\n" if spelling == "config line" else "")
    Path("run.cfg").write_text(text)
    extra = {"relative": [option, "run.cfg"], "absolute": [option, str(tmp_path / "run.cfg")]}.get(spelling, [])
    trials = ["--trials", "5"] if command == "sample" else []
    code, out, err = run_cli(capsys, command, *trials, "--config", "run.cfg", *extra)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: --config run.cfg and {option} ") and err.endswith(" name the same file\n")
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]
    assert Path("run.cfg").read_text() == text


@pytest.mark.parametrize("option", ["--out", "--trial-log"])
def test_an_output_hard_linked_to_the_config_file_exits_two_and_leaves_it(capsys, tmp_path, monkeypatch, option):
    """A hard link has its own name and resolved path, but is the config file."""
    monkeypatch.chdir(tmp_path)
    text = "preset = optimal\n"
    Path("run.cfg").write_text(text)
    os.link("run.cfg", "r.json")
    code, out, err = run_cli(capsys, "sample", "--trials", "5", "--config", "run.cfg", option, "r.json")
    assert code == 2
    assert out == ""
    assert err == f"error: --config run.cfg and {option} r.json name the same file\n"
    assert Path("run.cfg").read_text() == text


def test_out_and_trial_log_hard_linked_to_one_file_exit_two(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("r.json").write_text("kept\n")
    os.link("r.json", "t.csv")
    code, out, err = run_cli(capsys, "sample", "--preset", "optimal", "--trials", "5", "--out", "r.json",
                             "--trial-log", "t.csv")
    assert code == 2
    assert err == "error: --out r.json and --trial-log t.csv name the same file\n"
    assert Path("r.json").read_text() == "kept\n"


@pytest.mark.parametrize("argv", [["sample", "--preset", "optimal", "--trials", "10", "--trial-log", os.devnull],
                                  ["chsh", "--preset", "optimal", "--config", os.devnull]])
def test_outputs_on_a_device_file_run(capsys, argv):
    """No write to /dev/null overwrites anything, so more than one of the paths may name it."""
    code, _, err = run_cli(capsys, *argv, "--out", os.devnull)
    assert (code, err) == (0, "")


def test_csv_keyvalue_format(capsys):
    code, out, _ = run_cli(capsys, "chsh", "--state", "singlet", "--preset", "optimal",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "key,value"
    s_rows = [line for line in lines if line.startswith("results.s_value,")]
    assert len(s_rows) == 1
    assert float(s_rows[0].split(",")[1]) == pytest.approx(TSIRELSON_BOUND, abs=1e-12)


@pytest.mark.parametrize("name", ["a,b.csv", 'a"b.csv', "a\nb.csv", "a\rb.csv"])
def test_csv_quotes_a_value_with_a_separator(capsys, tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "sample", "--preset", "optimal", "--trials", "5", "--trial-log", name,
                             "--format", "csv")
    assert code == 0, err
    rows = list(csv.reader(io.StringIO(out)))
    assert {len(row) for row in rows} == {2}
    assert ["diagnostics.trial_log", name] in rows


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


#: Each float spelling after the first six reads as an integral float, but a rounded one.
@pytest.mark.parametrize("line", ["seed = 1.9", "trials = 2.5", "points = 2.7",
                                  "seed = true", "seed = nan", "trials = inf",
                                  "seed = 1e23", "seed = 9007199254740993.0", "seed = 1.0000000000000000001",
                                  "seed = 4503599627370495.25"])
def test_config_rejects_non_integral_integers(capsys, tmp_path, line):
    """And so does the flag with the same text."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    key, _, text = line.split()
    for source in (["--config", str(cfg)], [f"--{key}={text}"]):
        code, _, err = run_cli(capsys, *CHEAP_COMMANDS[key], *source)
        assert code == 2
        assert f"argument --{key}: expected an integer" in err


@pytest.mark.parametrize("line, value", [('seed = ""', ""), ("seed = ''", ""), ('seed = "', '"')])
def test_config_quotes_around_nothing_give_the_empty_value(capsys, tmp_path, line, value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    by_file = run_cli(capsys, "chsh", "--preset", "optimal", "--config", str(cfg))
    assert by_file[0] == 2
    assert f"argument --seed: expected an integer, got {value!r}" in by_file[2]
    assert run_cli(capsys, "chsh", "--preset", "optimal", f"--seed={value}") == by_file


@pytest.mark.parametrize("line, name", [('out = "run#1.json"', "run#1.json"),
                                        ("out = 'run#1.json'  # the report", "run#1.json"),
                                        ('out = run.json  # not "quoted#"', "run.json")])
def test_config_hash_starts_a_comment_only_outside_quotes(capsys, tmp_path, monkeypatch, line, name):
    monkeypatch.chdir(tmp_path)
    Path("run.cfg").write_text(line + "\n")
    code, _, err = run_cli(capsys, "chsh", "--preset", "optimal", "--config", "run.cfg")
    assert code == 0, err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["run.cfg", name])
    assert json.loads(Path(name).read_text())["command"] == "chsh"


def test_config_accepts_integral_float(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    for text, seed in (("4.0", 4), ("1e22", 10**22)):
        cfg.write_text(f"trials = 1e3\nseed = {text}\n")
        report = run_json(capsys, "sample", "--preset", "optimal", "--config", str(cfg))
        assert report["inputs"]["trials"] == 1000
        assert report["inputs"]["seed"] == seed


def test_config_file_size_is_capped(capsys, tmp_path):
    """A file of more than 64 KiB characters is refused; one of exactly that many, comments and all, is read."""
    from bellsim.cli_formats import _MAX_CONFIG_CHARS

    assert _MAX_CONFIG_CHARS == 64 * 1024
    cfg = tmp_path / "run.cfg"
    head = "preset = optimal\nseed = 7\n"
    comment = "# " + "x" * 61 + "\n"
    filler = comment * ((_MAX_CONFIG_CHARS - len(head)) // len(comment))
    at_cap = head + filler + "#" * (_MAX_CONFIG_CHARS - len(head) - len(filler) - 1) + "\n"
    assert len(at_cap) == _MAX_CONFIG_CHARS
    cfg.write_text(at_cap)
    assert run_json(capsys, "chsh", "--config", str(cfg))["inputs"]["seed"] == 7
    cfg.write_text(at_cap + "\n")
    code, out, err = run_cli(capsys, "chsh", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err == f"error: config file {cfg} holds more than {_MAX_CONFIG_CHARS} characters\n"


def test_an_undecodable_config_file_exits_two_naming_it(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("bad.cfg").write_bytes(b"\377\n")
    code, out, err = run_cli(capsys, "chsh", "--preset", "optimal", "--config", "bad.cfg", "--out", "r.json")
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read config file bad.cfg: ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg"]


def test_a_config_file_with_a_byte_order_mark_runs_as_one_without(capsys, tmp_path, monkeypatch):
    """Many Windows editors start a UTF-8 file with the mark U+FEFF; it is not part of the first key."""
    monkeypatch.chdir(tmp_path)
    text = "state = werner:0.9  # the first key\npreset = optimal\n".encode()
    Path("plain.cfg").write_bytes(text)
    Path("bom.cfg").write_bytes(b"\xef\xbb\xbf" + text)
    plain = run_cli(capsys, "chsh", "--config", "plain.cfg")
    assert plain[0] == 0 and json.loads(plain[1])["inputs"]["state"] == "werner:0.9"
    assert run_cli(capsys, "chsh", "--config", "bom.cfg") == plain


@pytest.mark.parametrize("key", ["theta_divisions", "phi-divisions", "restarts"])
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


def test_reports_validate_against_schema(capsys):
    run_json(capsys, "chsh", "--preset", "aligned")
    run_json(capsys, "optimize", "--state", "werner:0.3")
    run_json(capsys, "werner-sweep", "--points", "3", "--p-min", "0.2", "--p-max", "0.4")
    run_json(capsys, "lhv", "--exhaustive")
    run_json(capsys, "lhv", "--preset", "uniform16")
    run_json(capsys, "lhv", "--preset", "uniform16", "--trials", "100")
    run_json(capsys, "sample", "--preset", "optimal", "--trials", "100")


@pytest.mark.usefixtures("no_draws")
@pytest.mark.parametrize("command", [["sample", "--preset", "optimal"], ["lhv", "--preset", "uniform16"]])
@pytest.mark.parametrize("via_config", [False, True])
def test_trials_above_max_exit_two_before_drawing(capsys, tmp_path, command, via_config):
    if via_config:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"trials = {MAX_TRIALS + 1}\n")
        extra = ["--config", str(cfg)]
    else:
        extra = ["--trials", str(MAX_TRIALS + 1)]
    code, _, err = run_cli(capsys, *command, *extra)
    assert code == 2
    assert str(MAX_TRIALS) in err


def test_running_out_of_memory_exits_two(capsys, monkeypatch):
    """A bare ``MemoryError``, whose message is empty, is reported by its name."""
    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(np.random, "default_rng", no_memory)
    assert run_cli(capsys, "sample", "--preset", "optimal", "--trials", "10") == (2, "", "error: MemoryError\n")


def test_a_missing_numpy_exits_two_and_another_missing_module_raises(capsys, monkeypatch):
    monkeypatch.setitem(sys.modules, "numpy", None)  # any import of numpy raises ModuleNotFoundError
    monkeypatch.delitem(sys.modules, "bellsim.lhv")
    code, out, err = run_cli(capsys, "sample", "--preset", "optimal", "--trials", "10")
    assert (code, out) == (2, "") and "bellsim[sampling]" in err
    monkeypatch.setitem(sys.modules, "bellsim.lhv", None)
    with pytest.raises(ModuleNotFoundError, match="bellsim.lhv"):
        main(["lhv", "--preset", "uniform16", "--trials", "10"])


def test_trials_help_states_the_bound(capsys):
    for command in ("sample", "lhv"):
        _, out, _ = run_cli(capsys, command, "--help")
        assert f"at most {MAX_TRIALS})" in out


# --- one subparser per parse ----------------------------------------------------------

#: Config files for the parse panel: one every subcommand takes, one only werner-sweep takes
#: (a key error elsewhere), one with a value no format takes, and one line that is no key = value.
PARSE_CONFIGS = {"seed.cfg": "seed = 5\n", "points.cfg": "points = 3\n", "xml.cfg": "format = xml\n",
                 "line.cfg": "preset\n"}

#: Per subcommand: valid argv, --help, an unknown option, a missing value, a bad choice, an
#: out-of-range integer, and --config lines, good and bad; then argv with no subcommand first.
PARSE_PANEL = [
    *([command, *rest] for command in cli._COMMANDS for rest in (
        [], ["--help"], ["--seed", "7", "--out", "./r.json", "--format", "csv"], ["--bogus"], ["--seed"],
        ["--format", "xml"], ["--seed", "-1"], ["--config", "seed.cfg", "--seed", "9"], ["--config", "points.cfg"],
        ["--config", "xml.cfg"], ["--config", "line.cfg"], ["--config", "missing.cfg"],
    )),
    ["chsh", "--state", "werner:0.9", "--preset", "aligned"], ["chsh", "--a1", "0.1", "0.2"],
    ["chsh", "--preset", "diagonal"], ["chsh", *[tok for name in ("a1", "a2", "b1", "b2") for tok in (f"--{name}", "1", "2")]],
    ["werner-sweep", "--p-min", "0.2", "--p-max", "0.4", "--points", "3"], ["werner-sweep", "--points", "1"],
    ["lhv", "--exhaustive"], ["lhv", "--weights", "1", *["0"] * 15, "--trials", "1e3"], ["lhv", "--weights", "1"],
    ["lhv", "--preset", "optimal"], ["lhv", "--trials", "1.5"],
    ["sample", "--preset", "optimal", "--trials", "10", "--trial-log", "t.csv"], ["sample", "--trials", "0"],
    ["sample", "--trial-log"], ["chsch"], ["--help"], ["-h"], ["--he"], [], ["--seed", "3", "chsh"], ["--", "chsh"],
]


def _parse_outcome(capsys, argv):
    try:
        result = ("parsed", vars(cli._parse_args(argv)))
    except SystemExit as exc:
        result = ("exit", exc.code)
    except ValueError as exc:
        result = ("error", str(exc))
    return result, capsys.readouterr()


@pytest.mark.parametrize("argv", PARSE_PANEL, ids=lambda argv: " ".join(argv) or "(no command)")
def test_parse_with_one_subparser_matches_the_full_parser(capsys, tmp_path, monkeypatch, argv):
    """A parser that gives options to the subcommand named by argv[0] alone parses argv as the full
    parser does: namespace, output and exit. So no subcommand's options change another's parse."""
    monkeypatch.chdir(tmp_path)
    for name, text in PARSE_CONFIGS.items():
        (tmp_path / name).write_text(text)
    full = _parse_outcome(capsys, argv)
    add_arguments, given = cli._add_arguments, []
    monkeypatch.setattr(cli, "_add_arguments",
                        lambda p, command: command in argv[:1] and (given.append(command) or add_arguments(p, command)))
    assert _parse_outcome(capsys, argv) == full
    assert given == [command for command in argv[:1] if command in cli._COMMANDS]


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
    ["werner-sweep", "--points", "2"],
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
    "p_min": ["werner-sweep", "--points", "2"],
    "p_max": ["werner-sweep", "--points", "2"],
    "points": ["werner-sweep"],
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


def test_sweep_points_help_states_the_bound(capsys):
    _, out, _ = run_cli(capsys, "werner-sweep", "--help")
    assert f"2 to {MAX_SWEEP_POINTS}" in " ".join(out.split())


@pytest.mark.parametrize("command, key, low, high", [
    (["sample", "--preset", "optimal"], "trials", 1, MAX_TRIALS),
    (["lhv", "--preset", "uniform16"], "trials", 1, MAX_TRIALS),
    (["werner-sweep"], "points", 2, MAX_SWEEP_POINTS),
], ids=lambda v: v[0] if isinstance(v, list) else None)
@pytest.mark.parametrize("via_config", [False, True])
def test_integer_out_of_range_exits_two_naming_the_option(
    capsys, tmp_path, monkeypatch, command, key, low, high, via_config
):
    def no_work(*args, **kwargs):
        raise _Searched

    for target in ("bellsim.chsh.optimize_settings_traced", "numpy.random.default_rng"):
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
