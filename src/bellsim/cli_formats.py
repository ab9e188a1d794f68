"""The two text formats of the CLI besides its JSON reports: ``key = value``
config files (``--config``) and CSV reports (``--format csv``). :mod:`bellsim.cli`
imports this module only when one of the two is asked for."""

from __future__ import annotations

import argparse


def _parse_config_file(path: str, args: argparse.Namespace, keys) -> list[str]:
    """Turn a flat ``key = value`` file into ``--key=value`` tokens.

    '#' starts a comment, dashes and underscores mix in keys, and matching
    quotes around a value are stripped. A key that is not one of ``keys`` or
    not an option of the subcommand parsed into ``args`` is refused with its
    file:line.
    """
    try:
        with open(path) as stream:
            text = stream.read()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    tokens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in keys or not hasattr(args, key):
            raise ValueError(f"{path}:{lineno}: {args.command} takes no config key {key!r}")
        value = value.strip()
        if len(value) >= 2 and value[0] == value[-1] and value[0] in "'\"":
            value = value[1:-1]
        tokens.append(f"--{key.replace('_', '-')}={value}")
    return tokens


def _csv_scalar(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
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
