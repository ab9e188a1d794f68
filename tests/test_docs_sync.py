"""The CLI help and the README state the defaults and config keys that the CLI uses."""

import re
from pathlib import Path

import pytest

from bellsim import cli

README = Path(__file__).resolve().parents[1] / "README.md"
#: Options with a default on each subcommand, besides --format and --seed.
DEFAULTED = {
    "chsh": {"state"},
    "optimize": {"state"},
    "werner-sweep": {"p_min", "p_max", "points"},
    "lhv": set(),
    "sample": {"state"},
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
