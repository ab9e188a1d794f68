import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

WEIGHTS = ["0.5", "0", "0", "0.125", "0", "0.25", "0", "0", "0", "0", "0.0625", "0", "0", "0", "0", "0.0625"]
ANGLES = ["--a1", "0.3", "1.1", "--a2", "2.0", "5.5", "--b1", "1.2", "0.4", "--b2", "2.9", "3.3"]


def _fresh(code: str) -> str:
    return subprocess.run(
        [sys.executable, "-c", code],
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
    """Code that prints, as JSON, which of ``modules`` (top-level names) the process has loaded."""
    return f"print(json.dumps(sorted({{m.split('.')[0] for m in sys.modules}} & {set(modules)!r})))"


def test_cli_import_loads_no_scipy():
    assert json.loads(_fresh("import json, sys, bellsim.cli\n" + _loaded(("scipy",) + NUMPY_FREE))) == []


def test_package_import_loads_no_numpy():
    assert json.loads(_fresh("import json, sys, bellsim\n" + _loaded(NUMPY_FREE))) == []


#: (argv, exit code): the exact chsh and lhv commands, optimize and werner-sweep on
#: singlet and Werner states (whose diagonal T needs no LAPACK SVD), help and an input error.
PLAIN_RUNS = [
    (["chsh", "--preset", "optimal"], 0),
    (["chsh", "--state", "werner:0.8", "--preset", "aligned"], 0),
    (["chsh", *ANGLES], 0),
    (["chsh", "--state", "werner:-0.25", *ANGLES], 0),
    (["optimize", "--state", "singlet"], 0),
    (["optimize", "--state", "werner:0.9"], 0),
    (["optimize", "--state", "werner:-0.25"], 0),
    (["optimize", "--state", "werner:0"], 0),
    (["optimize", "--format", "csv"], 0),
    (["werner-sweep", "--points", "5"], 0),
    (["lhv", "--exhaustive"], 0),
    (["lhv", "--weights", *WEIGHTS], 0),
    (["lhv", "--preset", "uniform16"], 0),
    (["--help"], 0),
    (["chsh", "--state", "werner:1.5", "--preset", "optimal"], 2),
]


#: (argv, exit code, modules it must not load): the PLAIN_RUNS load none of NUMPY_FREE, and a
#: sampled command, which needs numpy and so inspect, still loads no dataclasses.
RUNS = [(argv, code, NUMPY_FREE) for argv, code in PLAIN_RUNS]
RUNS.append((["sample", "--preset", "optimal", "--trials", "10"], 0, ("dataclasses",)))


@pytest.mark.parametrize(("argv", "code", "absent"), RUNS, ids=[" ".join(argv) for argv, _, _ in RUNS])
def test_exact_commands_and_input_errors_load_no_numpy(argv, code, absent):
    script = ("import contextlib, io, json, sys\nfrom bellsim.cli import main\n"
              f"with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
              f"    rc = main({argv!r})\n"
              f"print(rc)\n{_loaded(absent)}")
    assert _fresh(script).splitlines() == [str(code), "[]"]
