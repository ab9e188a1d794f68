"""The README's library quick start runs as written."""

import math
import re
from pathlib import Path

import bellsim as bs

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_code() -> str:
    section = README.read_text().split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_runs(capsys):
    namespace: dict = {}
    exec(quick_start_code(), namespace)
    estimate, records = namespace["estimate"], namespace["records"]
    assert isinstance(records, bs.TrialLog)
    assert len(records) == 10**6
    assert abs(estimate.s_estimate - bs.TSIRELSON_BOUND) <= 5.0 * estimate.s_std_error
