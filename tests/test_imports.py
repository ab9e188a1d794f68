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


def test_cli_import_loads_no_scipy():
    code = "import sys, bellsim.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert _fresh(code).strip() == "[]"


def test_package_import_loads_no_numpy():
    assert _fresh("import sys, bellsim; print('numpy' in sys.modules)").strip() == "False"


#: (argv, exit code): the exact chsh and lhv commands, help and an input error.
PLAIN_RUNS = [
    (["chsh", "--preset", "optimal"], 0),
    (["chsh", "--state", "werner:0.8", "--preset", "aligned"], 0),
    (["chsh", *ANGLES], 0),
    (["chsh", "--state", "werner:-0.25", *ANGLES], 0),
    (["lhv", "--exhaustive"], 0),
    (["lhv", "--weights", *WEIGHTS], 0),
    (["lhv", "--preset", "uniform16"], 0),
    (["--help"], 0),
    (["chsh", "--state", "werner:1.5", "--preset", "optimal"], 2),
]


@pytest.mark.parametrize(("argv", "code"), PLAIN_RUNS, ids=[" ".join(argv) for argv, _ in PLAIN_RUNS])
def test_exact_commands_and_input_errors_load_no_numpy(argv, code):
    script = ("import contextlib, io, json, sys\nfrom bellsim.cli import main\n"
              f"with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
              f"    rc = main({argv!r})\n"
              "print(json.dumps([rc, sorted(m for m in sys.modules if m.split('.')[0] == 'numpy')]))")
    assert json.loads(_fresh(script)) == [code, []]
