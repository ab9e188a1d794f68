"""The README's library quick start and CLI examples run as written."""

import math
import re
import shlex
from pathlib import Path

import pytest

import bellsim as bs
from bellsim import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_code() -> str:
    section = README.read_text().split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def cli_commands() -> list[list[str]]:
    section = README.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines if line.strip()]


def test_library_quick_start_runs(capsys):
    namespace: dict = {}
    exec(quick_start_code(), namespace)
    estimate, records = namespace["estimate"], namespace["records"]
    assert isinstance(records, bs.TrialLog)
    assert len(records) == 10**6
    assert abs(estimate.s_estimate - bs.TSIRELSON_BOUND) <= 5.0 * estimate.s_std_error


@pytest.mark.parametrize("argv", cli_commands(), ids=" ".join)
def test_readme_cli_command_runs(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert argv[0] == "bellsim"
    assert cli.main(argv[1:]) == 0, capsys.readouterr().err
