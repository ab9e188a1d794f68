import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

WEIGHTS = ["0.5", "0", "0", "0.125", "0", "0.25", "0", "0", "0", "0", "0.0625", "0", "0", "0", "0", "0.0625"]
ANGLES = ["--a1", "0.3", "1.1", "--a2", "2.0", "5.5", "--b1", "1.2", "0.4", "--b2", "2.9", "3.3"]


def _fresh(code: str, *flags: str) -> str:
    return subprocess.run(
        [sys.executable, *flags, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout


#: Top-level modules that neither ``import bellsim`` nor an exact command loads: numpy is
#: imported on call, and dataclasses, with the inspect, ast and dis it imports, not at all.
NUMPY_FREE = ("numpy", "dataclasses", "inspect")


def _loaded(modules) -> str:
    """Code that prints, as JSON, which of ``modules`` the process has loaded.

    A top-level name counts as loaded once any of its submodules is.
    """
    return f"print(json.dumps(sorted(({{m.split('.')[0] for m in sys.modules}} | set(sys.modules)) & {set(modules)!r})))"


def test_cli_import_loads_no_scipy():
    """Nor ``bellsim.lhv``: only the lhv and sample commands import it."""
    absent = ("scipy", "bellsim.lhv") + NUMPY_FREE
    assert json.loads(_fresh("import json, sys, bellsim.cli\n" + _loaded(absent))) == []


def test_package_import_loads_no_numpy():
    assert json.loads(_fresh("import json, sys, bellsim\n" + _loaded(NUMPY_FREE))) == []


#: Code that prints, as JSON, the bellsim submodules the process has loaded.
_SUBMODULES = "json.dumps(sorted(m for m in sys.modules if m.startswith('bellsim.')))"


def test_package_import_loads_no_submodule():
    """Every public name is imported on first access, so a bare import compiles nothing else."""
    assert json.loads(_fresh(f"import json, sys, bellsim\nprint({_SUBMODULES})")) == []


def test_submodule_attribute_after_a_bare_import():
    """``bellsim.chsh`` imports the submodule, and its dependencies only, on first access."""
    code = f"import json, sys, bellsim\nvalue = bellsim.chsh.chsh_value\nprint({_SUBMODULES})"
    assert json.loads(_fresh(code)) == ["bellsim.chsh", "bellsim.correlators", "bellsim.linalg", "bellsim.observables", "bellsim.states"]


#: The bellsim modules that every command loads besides ``cli.py``, which ``python -m bellsim.cli``
#: runs as the main script: the report pieces the commands share, the exact quantum correlators,
#: and the states, directions and records under them. No command imports ``bellsim.cli``, which
#: would compile and run ``cli.py`` a second time, so no row lists it and an import of it fails
#: the row.
CORE = ("bellsim.cli_common", "bellsim.correlators", "bellsim.linalg", "bellsim.observables", "bellsim.states")
#: What the other commands add: the settings search and its runners, the exact LHV models and
#: the runners of lhv and sample, the samplers, and the config and CSV formats.
SEARCH = ("bellsim.chsh", "bellsim.cli_search")
EXACT_LHV = ("bellsim.cli_lhv", "bellsim.patterns")
SAMPLERS = ("bellsim.lhv",)
FORMATS = ("bellsim.cli_formats",)

#: Config files the runs below name, written to their working directory: one a command takes
#: and one with a key that chsh does not take.
CONFIGS = {"run.cfg": "state = werner:0.9\n", "bad.cfg": "trial_log = t.csv\n"}
#: The output flags of the benchmark's commands (perfbench/workloads.py).
OUT = ["--out", "r.json"]
SEEDED = ["--seed", "7", *OUT]

#: (argv, exit code, bellsim modules beyond CORE): the exact chsh and lhv commands, optimize
#: and werner-sweep on singlet and Werner states (whose diagonal T needs no LAPACK SVD), the
#: config and CSV formats, every help, every kind of input error and the benchmark's quick and
#: search commands.
PLAIN_RUNS = [
    (["chsh", "--preset", "optimal"], 0, ()),
    (["chsh", "--state", "werner:0.8", "--preset", "aligned"], 0, ()),
    (["chsh", *ANGLES], 0, ()),
    (["chsh", "--state", "werner:-0.25", *ANGLES], 0, ()),
    (["optimize", "--state", "singlet"], 0, SEARCH),
    (["optimize", "--state", "werner:0.9"], 0, SEARCH),
    (["optimize", "--state", "werner:-0.25"], 0, SEARCH),
    (["optimize", "--state", "werner:0"], 0, SEARCH),
    (["optimize", "--format", "csv"], 0, SEARCH + FORMATS),
    (["werner-sweep", "--points", "5"], 0, SEARCH),
    (["werner-sweep", "--points", "5", "--format", "csv"], 0, SEARCH + FORMATS),
    (["lhv", "--exhaustive"], 0, EXACT_LHV),
    (["lhv", "--weights", *WEIGHTS], 0, EXACT_LHV),
    (["lhv", "--preset", "uniform16"], 0, EXACT_LHV),
    (["lhv", "--exhaustive", "--format", "csv"], 0, EXACT_LHV + FORMATS),
    (["chsh", "--preset", "optimal", "--format", "csv"], 0, FORMATS),
    (["chsh", "--config", "run.cfg", "--preset", "optimal"], 0, FORMATS),
    (["optimize", "--config", "run.cfg"], 0, SEARCH + FORMATS),
    (["--help"], 0, ()),
    *(([command, "--help"], 0, ()) for command in ("chsh", "optimize", "werner-sweep", "lhv", "sample")),
    (["chsh", "--state", "werner:1.5", "--preset", "optimal"], 2, ()),
    (["chsh", "--bogus"], 2, ()),
    (["chsh", "--preset"], 2, ()),
    (["chsh", "--preset", "diagonal"], 2, ()),
    (["chsch", "--preset", "optimal"], 2, ()),
    ([], 2, ()),
    (["chsh", "--config", "bad.cfg", "--preset", "optimal"], 2, FORMATS),
    (["optimize", "--state", "bell"], 2, SEARCH),
    (["werner-sweep", "--p-min", "0.5", "--p-max", "0.2"], 2, SEARCH),
    (["sample", "--preset", "optimal"], 2, ("bellsim.cli_lhv",)),
    (["lhv", "--exhaustive", "--trials", "5"], 2, ("bellsim.cli_lhv",)),
    (["lhv", "--weights", *WEIGHTS[1:], "2"], 2, EXACT_LHV),
    (["chsh", "--state", "singlet", *ANGLES, *OUT], 0, ()),
    (["chsh", "--state", "werner:0.8", *ANGLES, *OUT], 0, ()),
    (["chsh", "--state", "singlet", "--preset", "optimal", *OUT], 0, ()),
    (["lhv", "--exhaustive", *OUT], 0, EXACT_LHV),
    (["lhv", "--weights", *WEIGHTS, *OUT], 0, EXACT_LHV),
    (["werner-sweep", "--points", "5", *SEEDED], 0, SEARCH),
    (["optimize", "--state", "werner:-0.25", *SEEDED], 0, SEARCH),
]
#: The sampling commands, alone and as the benchmark's sample workload runs them, without and
#: with a trial log.
SAMPLING = (["lhv", "--preset", "uniform16", "--trials", "10"], ["lhv", "--weights", *WEIGHTS, "--trials", "10"],
            ["sample", "--preset", "optimal", "--trials", "10"])

#: (argv, exit code, modules it must not load, the bellsim modules it loads): the PLAIN_RUNS
#: load none of NUMPY_FREE, and a sampled command, which needs numpy and so inspect, still
#: loads no dataclasses.
RUNS = [(argv, code, NUMPY_FREE, CORE + extra) for argv, code, extra in PLAIN_RUNS]
RUNS += [([*argv, *flags], 0, ("dataclasses",), CORE + EXACT_LHV + SAMPLERS)
         for argv in SAMPLING for flags in ([], SEEDED, [*SEEDED, "--trial-log", "t.csv"])]


def _command(argv: list[str], cwd) -> tuple[int, set[str]]:
    """Run ``python -X importtime -m bellsim.cli *argv`` in ``cwd``: its exit code and the modules it imported.

    ``-m`` runs ``cli.py`` as the main script, as the benchmark does, so ``-X importtime`` lists
    ``bellsim.cli`` only if something imports it.
    """
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "bellsim.cli", *argv], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=60)
    names = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    return proc.returncode, names - {"imported package"}


@pytest.mark.parametrize(("argv", "code", "absent", "modules"), RUNS,
                         ids=[" ".join(argv) or "(no command)" for argv, _, _, _ in RUNS])
def test_exact_commands_and_input_errors_load_no_numpy(argv, code, absent, modules, tmp_path):
    """Each command loads exactly its bellsim modules, and none of ``absent``, a top-level name
    counting as loaded once any of its submodules is."""
    for name, text in CONFIGS.items():
        (tmp_path / name).write_text(text)
    rc, loaded = _command(argv, tmp_path)
    assert rc == code
    assert {m.split(".")[0] for m in loaded} & set(absent) == set()
    assert sorted(m for m in loaded if m.startswith("bellsim.")) == sorted(modules)


def test_cli_import_loads_no_typing_or_pathlib():
    """Under ``-S`` no ``site`` hook preloads them, so this is bellsim's own import path."""
    assert json.loads(_fresh("import json, sys, bellsim.cli\n" + _loaded(("typing", "pathlib")), "-S")) == []


def test_package_import_loads_no_typing_or_pathlib():
    assert json.loads(_fresh("import json, sys, bellsim\n" + _loaded(("typing", "pathlib")), "-S")) == []


if __name__ == "__main__":
    # Each run's AST node total over the bellsim modules it loads, the package and cli.py
    # included: what a process that cannot write bytecode compiles. CI prints it for
    # information; the test above pins the modules themselves.
    import ast
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        for name, text in CONFIGS.items():
            Path(work, name).write_text(text)
        for argv, *_ in RUNS:
            modules = [m for m in _command(argv, work)[1] if m.startswith("bellsim.")]
            files = [SRC / "bellsim" / "__init__.py", SRC / "bellsim" / "cli.py",
                     *(SRC / (m.replace(".", "/") + ".py") for m in modules)]
            print(sum(len(list(ast.walk(ast.parse(f.read_text())))) for f in files), " ".join(argv) or "(no command)")
