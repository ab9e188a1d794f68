"""The two text formats of the CLI besides its JSON reports: ``key = value``
config files (``--config``) and CSV reports (``--format csv``). :mod:`bellsim.cli`
imports this module only when one of the two is asked for."""

from __future__ import annotations

import argparse
import re

#: A config line: a key, ``=``, then a value in matching quotes, taken whole with any '#' in it,
#: or else a value up to the first '#'; a '#' after the value starts a comment.
_LINE = re.compile(r"""([^#=]*)=\s*(?:(["'])(?P<quoted>.*?)\2|(?P<bare>[^#]*?))\s*(?:#.*)?""")


def _parse_config_file(path: str, args: argparse.Namespace, keys) -> list[str]:
    """Turn a flat ``key = value`` file into ``--key=value`` tokens.

    Matching quotes around a value are stripped, a '#' outside them starts
    a comment, and dashes and underscores mix in keys. A key that is not one
    of ``keys`` or not an option of the subcommand parsed into ``args`` is
    refused with its file:line.
    """
    try:
        with open(path) as stream:
            text = stream.read()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    tokens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.split("#", 1)[0].strip():
            continue
        if (line := _LINE.fullmatch(raw)) is None:
            raise ValueError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key = line[1].strip().replace("-", "_")
        if key not in keys or not hasattr(args, key):
            raise ValueError(f"{path}:{lineno}: {args.command} takes no config key {key!r}")
        value = line["bare"] if line["quoted"] is None else line["quoted"]
        tokens.append(f"--{key.replace('_', '-')}={value}")
    return tokens


def _csv_scalar(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, str) and any(c in value for c in ',"\r\n'):
        return '"' + value.replace('"', '""') + '"'
    return str(value)


def _flatten(obj, key: str) -> list[str]:
    """The ``key,value`` lines of ``obj``: nested keys joined by dots, list items indexed in brackets."""
    if isinstance(obj, dict):
        items = [(f"{key}.{k}" if key else k, v) for k, v in obj.items()]
    elif isinstance(obj, list):
        items = [(f"{key}[{i}]", v) for i, v in enumerate(obj)]
    else:
        return [f"{key},{_csv_scalar(obj)}"]
    return [line for k, v in items for line in _flatten(v, k)]


def _csv_text(report: dict, rows: list[tuple] | None) -> str:
    """The command's own CSV ``rows``, header first, or else the ``key,value`` lines of ``report``."""
    lines = [",".join(map(_csv_scalar, row)) for row in rows] if rows else ["key,value", *_flatten(report, "")]
    return "\n".join(lines) + "\n"
