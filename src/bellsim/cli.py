"""Command-line front end: reproducible, machine-readable CHSH computations.

This module parses the command line and runs ``chsh``. Each other command's
runner, and the config file and CSV formats, are in modules imported only
when they run, so a process compiles no runner but its own: where Python
writes no bytecode, every module a process loads is compiled again.

A runner takes the parsed options and returns ``(inputs, results,
diagnostics, summary, rows)``: the report's three sections, the human
summary lines, and the CSV rows (None for ``key,value`` CSV). Only
:func:`_run` builds the report around them, so every report has one shape:
``command``, then ``inputs`` ending with ``seed``, ``results`` and
``diagnostics``.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys

from .cli_common import SETTINGS_PRESETS, _bound_lines, _exact_table, _fmt9, _result_dict
from .correlators import MAX_SWEEP_POINTS, MAX_TRIALS, ChshResult, chsh_value

#: Each subcommand and its help line, in the order ``bellsim --help`` lists them.
_COMMANDS = {
    "chsh": "evaluate the CHSH value at fixed settings",
    "optimize": "maximize |S| over measurement directions",
    "werner-sweep": "max |S| across Werner visibilities plus the violation threshold",
    "lhv": "exact and sampled hidden-variable statistics",
    "sample": "finite-statistics experiment on a quantum correlator table",
}

#: Shape of every machine-readable JSON report.
REPORT_SCHEMA = {
    "type": "object",
    "required": ["command", "inputs", "results", "diagnostics"],
    "properties": {
        "command": {"enum": list(_COMMANDS)},
        "inputs": {"type": "object"},
        "results": {"type": "object"},
        "diagnostics": {"type": "object"},
    },
    "additionalProperties": False,
}


def _integer(text: str) -> int:
    """The integer option type of flags and config files alike.

    ``int`` is tried first, so ``12`` and a seed above 2**53 keep every
    digit. A float spelling is accepted only when its exact decimal value is
    that integer: ``1e6`` and ``4.0`` are; ``1.9``, ``1e23`` (which a float
    rounds to another integer), ``nan``, ``inf`` and ``true`` are refused,
    not truncated.
    """
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = float(text)
        if value.is_integer():
            import decimal

            if decimal.Decimal(text) == value:
                return int(value)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")


def _bounded(low: int, high: int):
    """The :func:`_integer` type that also refuses values outside ``[low, high]``."""
    def bounded_integer(text: str) -> int:
        if not low <= (value := _integer(text)) <= high:
            raise argparse.ArgumentTypeError(f"expected an integer in [{low}, {high}], got {text!r}")
        return value
    return bounded_integer


def _path(text: str) -> str:
    """A path option as ``str(pathlib.PurePosixPath(text))`` spells it.

    Repeated slashes and ``.`` parts are dropped and an empty path is ``.``,
    so ``--trial-log ./t.csv`` is recorded as ``t.csv``. pathlib itself is
    not imported, to keep it off the start-up path of every command.
    """
    root = "//" if text[:2] == "//" and text[2:3] != "/" else "/" if text[:1] == "/" else ""
    return root + "/".join(part for part in text.split("/") if part not in ("", ".")) or "."


def _seed(text: str) -> int:
    """An :func:`_integer` of at least 0, the lower bound of numpy's seeds."""
    if (value := _integer(text)) < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


#: The options that a config file may also set, as argparse keywords. Each
#: default is written only here. A config line ``key = value`` is parsed as
#: ``--key=value`` ahead of the command line, so both sources pass the same
#: type and choices, and a flag overrides the file.
_OPTIONS = {
    "format": {"choices": ["json", "csv"], "default": "json", "help": "machine report format"},
    "out": {"type": _path, "help": "write the machine report to this file"},
    "seed": {"type": _seed, "default": 0, "help": "RNG seed"},
    "state": {"default": "singlet", "help": "'singlet' or 'werner:P'"},
    "preset": {"choices": sorted(SETTINGS_PRESETS), "help": "named measurement quadruple"},
    "trials": {"type": _bounded(1, MAX_TRIALS), "help": f"number of trials (required, at most {MAX_TRIALS})"},
    "trial_log": {"type": _path, "help": "write sampled trials as CSV"},
    "p_min": {"type": float, "default": 0.0, "help": "sweep start"},
    "p_max": {"type": float, "default": 1.0, "help": "sweep end"},
    "points": {"type": _bounded(2, MAX_SWEEP_POINTS), "default": 41, "help": f"sweep points, 2 to {MAX_SWEEP_POINTS}"},
}


# --- parsing and resolution --------------------------------------------------


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse the command line, and again with the lines of a --config file before its flags."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    from .cli_formats import _parse_config_file

    rest = argv[argv.index(args.command) + 1:]
    return parser.parse_args([args.command, *_parse_config_file(args.config, args, _OPTIONS), *rest])


# --- report plumbing ----------------------------------------------------------


def _machine_text(cfg: argparse.Namespace, report: dict, csv_rows: list[tuple] | None) -> str:
    if cfg.format == "json":
        return json.dumps(report, indent=2, allow_nan=False) + "\n"
    from .cli_formats import _csv_text

    return _csv_text(report, csv_rows)


# --- commands -----------------------------------------------------------------


def _run_chsh(cfg: argparse.Namespace):
    table, settings, inputs = _exact_table(cfg)
    result = ChshResult(chsh_value(table), settings)
    human = [f"chsh  state={cfg.state}"]
    human.extend(f"{k} = {_fmt9(v)}" for k, v in table.as_dict().items())
    human.extend(_bound_lines(result))
    return inputs, {"correlators": table.as_dict(), **_result_dict(result)}, {}, human, None


def _check_paths(cfg: argparse.Namespace) -> None:
    """Refuse, before any work, two of --config, --out and --trial-log naming one regular file or one new path:
    an output would overwrite it."""
    seen = {}
    for key in ("config", "out", "trial_log"):
        if path := getattr(cfg, key, None):
            flag = f"--{key.replace('_', '-')} {path}"
            try:
                st = os.stat(path)
            except OSError:
                file = os.path.realpath(path)  # a new file, which only another new path can name
            else:
                if not stat.S_ISREG(st.st_mode):
                    continue  # a device such as /dev/null, which no write overwrites
                file = st[1:3]  # (st_ino, st_dev): a hard link to an existing file matches it
            if (first := seen.setdefault(file, flag)) != flag:
                raise ValueError(f"{first} and {flag} name the same file")


def _run(cfg: argparse.Namespace):
    """The command's report, human summary lines and CSV rows (None for key,value CSV).

    The runners of the other commands are imported here, when their command runs.
    """
    _check_paths(cfg)
    if cfg.command == "chsh":
        runner = _run_chsh
    elif cfg.command == "optimize":
        from .cli_search import _run_optimize as runner
    elif cfg.command == "werner-sweep":
        from .cli_search import _run_werner_sweep as runner
    elif cfg.command == "lhv":
        from .cli_lhv import _run_lhv as runner
    else:
        from .cli_lhv import _run_sample as runner
    inputs, results, diagnostics, human, rows = runner(cfg)
    report = {"command": cfg.command, "inputs": {**inputs, "seed": cfg.seed}, "results": results,
              "diagnostics": diagnostics}
    return report, human, rows


# --- argument parsing -----------------------------------------------------------


def _add_option(p: argparse.ArgumentParser, key: str, **overrides) -> None:
    """Add ``--key`` as :data:`_OPTIONS` describes it; the help names the default."""
    spec = {**_OPTIONS[key], **overrides}
    if "default" in spec:
        spec["help"] += f" (default {spec['default']})"
    p.add_argument("--" + key.replace("_", "-"), **spec)


def _add_arguments(p: argparse.ArgumentParser, command: str) -> None:
    """Add the options of ``command`` to its subparser ``p``, in the order its help lists them."""
    if command == "werner-sweep":
        for key in ("p_min", "p_max", "points"):
            _add_option(p, key)
    elif command == "lhv":
        p.add_argument("--exhaustive", action="store_true",
                       help="enumerate all 16 deterministic strategies and report max |S|")
        _add_option(p, "preset", choices=["uniform16"], help="named model")
        p.add_argument("--weights", nargs=16, type=float, metavar="W", help="16 normalized pattern weights")
        _add_option(p, "trials", help=f"also sample this many trials (at most {MAX_TRIALS})")
        _add_option(p, "trial_log")
    else:
        _add_option(p, "state")
        if command != "optimize":
            _add_option(p, "preset")
            for name in ("a1", "a2", "b1", "b2"):
                p.add_argument(f"--{name}", nargs=2, type=float, metavar=("THETA", "PHI"),
                               help=f"polar angles of {name} in radians")
        if command == "sample":
            _add_option(p, "trials")
            _add_option(p, "trial_log")
    for key in ("format", "out", "seed"):
        _add_option(p, key)
    p.add_argument("--config", type=_path, help="key=value config file; explicit flags win")


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, each with its help line and its options."""
    parser = argparse.ArgumentParser(
        prog="bellsim",
        description="Two-qubit CHSH calculations: quantum correlators, bound "
                    "searches, and local hidden-variable simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help_line in _COMMANDS.items():
        _add_arguments(sub.add_parser(command, help=help_line), command)
    return parser


def _emit(machine_text: str, human_lines: list[str], out: str | None) -> None:
    """The report to ``out`` and the summary to stdout, or without ``out`` to stdout and stderr."""
    if out is None:
        sys.stdout.write(machine_text)
    else:
        with open(out, "w") as stream:
            stream.write(machine_text)
    print(*human_lines, sep="\n", file=sys.stderr if out is None else sys.stdout)


def main(argv: list[str] | None = None) -> int:
    try:
        cfg = _parse_args(sys.argv[1:] if argv is None else argv)
        report, human, csv_rows = _run(cfg)
        _emit(_machine_text(cfg, report, csv_rows), human, cfg.out)
        return 0
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """The console entry point: :func:`main`, then an exit without interpreter teardown.

    Once numpy is loaded, the interpreter's teardown (freeing every module and
    object) costs a sampling process 25 to 30 ms, and the output needs none of
    it. So the standard streams are flushed and ``os._exit`` ends the process.
    This is sound only because every file a command writes (``--out``,
    ``--trial-log``) is closed before :func:`main` returns. A stream closed
    at start-up is ``None`` and skipped. A flush that fails, such as stdout
    to a pipe whose reader has gone, is reported as :func:`main` reports a
    failed write: one ``error:`` line and exit code 2.
    """
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    os._exit(code)


if __name__ == "__main__":
    run()
