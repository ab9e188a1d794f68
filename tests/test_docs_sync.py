"""The CLI help and the README state the defaults, config keys and count bounds that the CLI uses."""

import argparse
import re
from pathlib import Path

import pytest

from bellsim import cli
from bellsim.states import MAX_SWEEP_POINTS, MAX_TRIALS

README = Path(__file__).resolve().parents[1] / "README.md"
#: Options with a default on each subcommand, besides --format and --seed.
DEFAULTED = {
    "chsh": {"state"},
    "optimize": {"state"},
    "werner-sweep": {"p_min", "p_max", "points"},
    "lhv": set(),
    "sample": {"state"},
}
#: Each bounded count option: the README bullet that states its range, and its upper bound in the code.
BOUNDS = {
    "trials": (r"\* `--trials` \(on `sample` and `lhv`\) takes (\d+) to 10\^(\d+) trials", MAX_TRIALS),
    "points": (r"\* `werner-sweep --points` takes (\d+) to 10\^(\d+) points", MAX_SWEEP_POINTS),
}


def _subparser(command: str):
    (subparsers,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
    return subparsers.choices[command]


@pytest.mark.parametrize("command", sorted(DEFAULTED))
def test_help_states_the_default_the_parser_uses(command, capsys):
    used = cli.build_parser().parse_args([command])
    assert cli.main([command, "--help"]) == 0
    help_text = " ".join(capsys.readouterr().out.split())
    checked = set()
    for action in _subparser(command)._actions:
        if action.dest not in cli._OPTIONS or "default" not in cli._OPTIONS[action.dest]:
            continue
        value = getattr(used, action.dest)
        assert f"(default {value})" in action.help
        assert " ".join(action.help.split()) in help_text
        checked.add(action.dest)
    assert checked == DEFAULTED[command] | {"format", "seed"}


def test_readme_config_keys_match_the_cli():
    text = README.read_text()
    listed = re.search(r"Recognized keys: (.*?)\. ", text, re.S).group(1)
    keys = {k.strip(" `\n") for k in listed.split(",")}
    assert keys == set(cli._OPTIONS)


@pytest.mark.parametrize("option", sorted(BOUNDS))
def test_readme_states_the_bounds_the_cli_checks(option):
    section = README.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    pattern, high = BOUNDS[option]
    low, exponent = map(int, re.search(pattern, section).groups())
    assert 10**exponent == high
    check = cli._OPTIONS[option]["type"]
    assert (check(str(low)), check(str(high))) == (low, high)
    for outside in (low - 1, high + 1):
        with pytest.raises(argparse.ArgumentTypeError):
            check(str(outside))
