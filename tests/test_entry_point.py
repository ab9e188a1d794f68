"""The console entry point against in-process ``main``.

``cli.run`` flushes the standard streams and ends the process with
``os._exit``, skipping the interpreter's teardown. So a fresh
``python -m bellsim.cli`` must print, write and exit exactly as ``main()``
does in process, including when stdout is closed or its reader has gone.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from bellsim.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

WEIGHTS = ["0.5", "0", "0", "0.125", "0", "0.25", "0", "0", "0", "0", "0.0625", "0", "0", "0", "0", "0.0625"]

#: (argv, exit code); every output file is named relative to the working directory.
PANEL = [
    (["chsh", "--preset", "optimal"], 0),
    (["optimize", "--format", "csv"], 0),
    (["sample", "--preset", "optimal", "--trials", "1001", "--out", "r.json", "--trial-log", "t.csv"], 0),
    (["lhv", "--weights", *WEIGHTS, "--trials", "7"], 0),
    (["--help"], 0),
    (["chsh", "--state", "werner:1.5", "--preset", "optimal"], 2),
]


def _env(**extra) -> dict:
    """The environment of a process with buffered standard streams, as a terminal user has them."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONPATH": str(SRC), **extra}


def _process(argv, cwd, **kwargs) -> subprocess.CompletedProcess:
    # COLUMNS fixes the width of argparse's help in both runs.
    return subprocess.run([sys.executable, "-m", "bellsim.cli", *argv], cwd=cwd, env=_env(COLUMNS="80"),
                          stderr=subprocess.PIPE, timeout=60, **kwargs)


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _in_process(argv, directory: Path, capsys, monkeypatch) -> tuple[int, str, str]:
    monkeypatch.chdir(directory)
    monkeypatch.setenv("COLUMNS", "80")
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(("argv", "code"), PANEL, ids=[" ".join(argv[:3]) for argv, _ in PANEL])
def test_process_matches_in_process_main(argv, code, tmp_path, capsys, monkeypatch):
    (tmp_path / "process").mkdir()
    (tmp_path / "main").mkdir()
    proc = _process(argv, tmp_path / "process", stdout=subprocess.PIPE, text=True)
    assert _in_process(argv, tmp_path / "main", capsys, monkeypatch) == (code, proc.stdout, proc.stderr)
    assert proc.returncode == code
    assert _files(tmp_path / "process") == _files(tmp_path / "main")


def test_out_with_stdout_closed_writes_the_report(tmp_path, capsys, monkeypatch):
    argv = ["chsh", "--preset", "optimal", "--out", "r.json"]
    (tmp_path / "main").mkdir()
    assert _in_process(argv, tmp_path / "main", capsys, monkeypatch)[0] == 0
    # The shell closes fd 1, so the process starts with sys.stdout set to None.
    proc = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "bellsim.cli", *argv],
                          cwd=tmp_path, env=_env(), stderr=subprocess.PIPE, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert (tmp_path / "r.json").read_bytes() == (tmp_path / "main" / "r.json").read_bytes()


def _without_reader(argv, cwd) -> subprocess.CompletedProcess:
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return _process(argv, cwd, stdout=write_end, text=True)
    finally:
        os.close(write_end)


def test_stdout_pipe_without_reader_exits_two(tmp_path):
    """A report larger than the stream buffer meets the broken pipe inside main()."""
    proc = _without_reader(["werner-sweep", "--points", "300"], tmp_path)
    assert (proc.returncode, proc.stderr) == (2, "error: [Errno 32] Broken pipe\n")


def test_broken_pipe_at_the_final_flush_exits_two(tmp_path):
    """Lines that fit the buffer fail only in run()'s flush, which reports them as main() would."""
    proc = _without_reader(["chsh", "--preset", "optimal", "--out", "r.json"], tmp_path)
    assert (proc.returncode, proc.stderr) == (2, "error: [Errno 32] Broken pipe\n")


#: The console entry point on a host without numpy: ``None`` in ``sys.modules`` makes every import of it fail.
WITHOUT_NUMPY = "import sys\nsys.modules['numpy'] = None\nfrom bellsim.cli import run\nrun()"


@pytest.mark.parametrize("argv", [["sample", "--preset", "optimal"], ["lhv", "--preset", "uniform16"]],
                         ids=["sample", "lhv"])
def test_sampling_without_numpy_exits_two_before_any_output(argv, tmp_path):
    """The samplers' module imports numpy as it loads, after the option checks and before the outputs open."""
    proc = subprocess.run([sys.executable, "-c", WITHOUT_NUMPY, *argv, "--trials", "10", "--out", "r.json",
                           "--trial-log", "t.csv"], cwd=tmp_path, env=_env(), capture_output=True, text=True,
                          timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: ") and "bellsim[sampling]" in line
    assert list(tmp_path.iterdir()) == []


def test_out_of_memory_exits_two(tmp_path):
    """10^8 trials need about 2 GB. Under a 512 MiB address-space limit, set in this one child only, the
    first column's 800 MB allocation fails before any of it is touched, and ``main`` reports the
    ``MemoryError`` as one line. One OpenBLAS thread keeps numpy's own start-up within the limit."""
    pytest.importorskip("resource")
    limit = 512 << 20
    code = (f"import resource\nresource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
            "from bellsim.cli import run\nrun()")
    argv = ["sample", "--preset", "optimal", "--trials", "100000000", "--out", "/dev/null"]
    proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=tmp_path, env=_env(OPENBLAS_NUM_THREADS="1"),
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: ") and "Traceback" not in proc.stderr
