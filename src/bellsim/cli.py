"""Command-line front end: reproducible, machine-readable CHSH computations."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .chsh import (
    MAX_SWEEP_POINTS,
    MAX_TRIALS,
    THRESHOLD_TOL,
    ChshResult,
    InternalConsistencyError,
    MeasurementSettings,
    aligned_settings,
    correlator_table,
    chsh_value,
    optimize_settings_traced,
    settings_from_polar,
    singlet_optimal_settings,
    werner_threshold,
)
from .observables import UnitVector3, to_polar
from .states import VISIBILITY_MAX, VISIBILITY_MIN, DensityMatrix, make_singlet, make_werner

# .lhv is imported inside the lhv and sample commands, after their option checks, so
# the other commands and those checks never load it.

#: Shape of every machine-readable JSON report.
REPORT_SCHEMA = {
    "type": "object",
    "required": ["command", "inputs", "results", "diagnostics"],
    "properties": {
        "command": {"enum": ["chsh", "optimize", "werner-sweep", "lhv", "sample"]},
        "inputs": {"type": "object"},
        "results": {"type": "object"},
        "diagnostics": {"type": "object"},
    },
    "additionalProperties": False,
}

SETTINGS_PRESETS = {
    "optimal": singlet_optimal_settings,
    "aligned": aligned_settings,
}


def _integer(text: str) -> int:
    """The integer option type of flags and config files alike.

    ``12``, ``1e6`` and ``4.0`` are accepted; ``1.9``, ``nan``, ``inf`` and
    ``true`` are refused, not truncated. ``int`` is tried first, so a seed
    above 2**53 keeps every digit.
    """
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = float(text)
        if value.is_integer():
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


def _parse_config_file(path: str, args: argparse.Namespace) -> list[str]:
    """Turn a flat ``key = value`` file into ``--key=value`` tokens.

    '#' starts a comment, dashes and underscores mix in keys, and matching
    quotes around a value are stripped. A key that is not an option of the
    subcommand parsed into ``args`` is refused with its file:line.
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
        if key not in _OPTIONS or not hasattr(args, key):
            raise ValueError(f"{path}:{lineno}: {args.command} takes no config key {key!r}")
        value = value.strip()
        if len(value) >= 2 and value[0] == value[-1] and value[0] in "'\"":
            value = value[1:-1]
        tokens.append(f"--{key.replace('_', '-')}={value}")
    return tokens


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse the command line; the lines of a --config file come before its flags."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config is not None:
        rest = argv[argv.index(args.command) + 1:]
        args = parser.parse_args([args.command, *_parse_config_file(args.config, args), *rest])
    # The report would overwrite the trial log, so one file for both is refused before any work.
    log = getattr(args, "trial_log", None)
    if log and args.out and os.path.realpath(log) == os.path.realpath(args.out):
        raise ValueError(f"--out {args.out} and --trial-log {log} name the same file")
    return args


def parse_state_spec(spec: str) -> DensityMatrix:
    """Build the state named by 'singlet' or 'werner:P'."""
    if spec == "singlet":
        return make_singlet()
    if spec.startswith("werner:"):
        try:
            p = float(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ValueError(f"bad visibility in state spec {spec!r}") from exc
        return make_werner(p)
    raise ValueError(f"unknown state spec {spec!r}; use 'singlet' or 'werner:P'")


def _resolve_settings(cfg: argparse.Namespace) -> MeasurementSettings:
    pairs = [cfg.a1, cfg.a2, cfg.b1, cfg.b2]
    given = sum(pair is not None for pair in pairs)
    if given not in (0, 4):
        raise ValueError("explicit settings need all four of --a1 --a2 --b1 --b2")
    if cfg.preset is not None and given:
        raise ValueError("give either --preset or explicit angles, not both")
    if cfg.preset is not None:
        return SETTINGS_PRESETS[cfg.preset]()
    if given:
        return settings_from_polar(pairs)
    raise ValueError("specify --preset or all of --a1 --a2 --b1 --b2 (theta phi in radians)")


# --- report plumbing ----------------------------------------------------------


def _fmt9(x: float) -> str:
    return f"{x:.9g}"


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


def _machine_text(cfg: argparse.Namespace, report: dict, csv_text: str | None) -> str:
    if cfg.format == "json":
        return json.dumps(report, indent=2, allow_nan=False) + "\n"
    return csv_text or "\n".join(["key,value", *_flatten(report, "")]) + "\n"


def _direction_dict(v: UnitVector3) -> dict:
    theta, phi = to_polar(v)
    return {"theta": theta, "phi": phi, "x": v.x, "y": v.y, "z": v.z}


def _settings_dict(s: MeasurementSettings) -> dict:
    return {name: _direction_dict(getattr(s, name)) for name in s.__slots__}


def _estimate_dict(estimate) -> dict:
    """The estimate's fields; the infinite standard error of a setting pair with no trials, and so of S, is null."""
    errors = [se if se < math.inf else None for se in estimate.std_errors]
    return {
        "table": estimate.table.as_dict(),
        "counts": list(estimate.counts),
        "std_errors": errors,
        "s_estimate": estimate.s_estimate,
        "s_std_error": None if None in errors else estimate.s_std_error,
    }


def _result_dict(result: ChshResult) -> dict:
    return {
        "s_value": result.s_value,
        "abs_s": abs(result.s_value),
        "violates_classical": result.violates_classical,
        "within_tsirelson": result.within_tsirelson,
    }


def _bound_lines(result: ChshResult) -> list[str]:
    return [
        f"S   = {_fmt9(result.s_value)}",
        f"|S| = {_fmt9(abs(result.s_value))}",
        f"violates classical bound (|S| > 2): {'yes' if result.violates_classical else 'no'}",
        f"within Tsirelson bound (2*sqrt(2)): {'yes' if result.within_tsirelson else 'no'}",
    ]


# --- commands -----------------------------------------------------------------


def _exact_table(cfg: argparse.Namespace):
    """The exact correlator table of ``chsh`` and ``sample``, its settings, and the inputs both report."""
    rho = parse_state_spec(cfg.state)
    settings = _resolve_settings(cfg)
    inputs = {"state": cfg.state, "preset": cfg.preset, "settings": _settings_dict(settings)}
    return correlator_table(rho, settings), settings, inputs


def _run_chsh(cfg: argparse.Namespace):
    table, settings, inputs = _exact_table(cfg)
    result = ChshResult(chsh_value(table), settings)
    report = {
        "command": "chsh",
        "inputs": {**inputs, "seed": cfg.seed},
        "results": {"correlators": table.as_dict(), **_result_dict(result)},
        "diagnostics": {},
    }
    human = [f"chsh  state={cfg.state}"]
    human.extend(f"{k} = {_fmt9(v)}" for k, v in table.as_dict().items())
    human.extend(_bound_lines(result))
    return report, human, None


def _run_optimize(cfg: argparse.Namespace):
    result, trace_info = optimize_settings_traced(parse_state_spec(cfg.state))
    settings = _settings_dict(result.settings)
    report = {
        "command": "optimize",
        "inputs": {
            "state": cfg.state,
            "seed": cfg.seed,
        },
        "results": {**_result_dict(result), "settings": settings},
        "diagnostics": {
            "singular_values": list(trace_info.singular_values),
            "optimality_gap": trace_info.optimality_gap,
        },
    }
    human = [f"optimize  state={cfg.state}"]
    human.extend(_bound_lines(result))
    human.extend(f"{name}: theta = {_fmt9(d['theta'])}, phi = {_fmt9(d['phi'])}" for name, d in settings.items())
    human.append(
        "singular values of T: " + " ".join(_fmt9(v) for v in trace_info.singular_values)
        + f"; gap to the Horodecki maximum {trace_info.optimality_gap:.3g}"
    )
    return report, human, None


def _run_werner_sweep(cfg: argparse.Namespace):
    if not (VISIBILITY_MIN <= cfg.p_min < cfg.p_max <= VISIBILITY_MAX):
        raise ValueError(f"sweep range needs -1/3 <= p_min < p_max <= 1, got p_min={cfg.p_min}, p_max={cfg.p_max}")
    step = (cfg.p_max - cfg.p_min) / (cfg.points - 1)
    threshold = werner_threshold()
    # The grid's last row is p_max itself: p_min + (points - 1) * step can round past it.
    # The threshold row comes after it.
    rows, gaps = [], []
    for p in [cfg.p_min + i * step for i in range(cfg.points - 1)] + [cfg.p_max, threshold]:
        result, trace_info = optimize_settings_traced(make_werner(p))
        rows.append({"p": p, "max_s": result.s_value, "violates": result.violates_classical})
        gaps.append(trace_info.optimality_gap)
    report = {
        "command": "werner-sweep",
        "inputs": {
            "p_min": cfg.p_min,
            "p_max": cfg.p_max,
            "points": cfg.points,
            "seed": cfg.seed,
        },
        "results": {"rows": rows[:-1], "threshold": threshold, "threshold_row": rows[-1]},
        "diagnostics": {
            "bisection_tol": THRESHOLD_TOL,
            "optimality_gap": gaps[:-1],
            "threshold_row_optimality_gap": gaps[-1],
        },
    }
    csv_lines = ["p,max_s,violates", *(f"{r['p']!r},{r['max_s']!r},{_csv_scalar(r['violates'])}" for r in rows)]
    human = [
        f"werner-sweep  {cfg.points} points on [{_fmt9(cfg.p_min)}, {_fmt9(cfg.p_max)}]",
        f"threshold p* = {_fmt9(threshold)}  (max S there = {_fmt9(rows[-1]['max_s'])})",
        f"max S at p = {_fmt9(rows[-2]['p'])}: {_fmt9(rows[-2]['max_s'])}",
    ]
    return report, human, "\n".join(csv_lines) + "\n"


def _run_lhv(cfg: argparse.Namespace):
    chosen = sum([cfg.exhaustive, cfg.preset is not None, cfg.weights is not None])
    if chosen != 1:
        raise ValueError("give exactly one of --exhaustive, --preset, or --weights")
    if cfg.trial_log is not None and cfg.trials is None:
        raise ValueError("--trial-log needs --trials")
    if cfg.exhaustive and cfg.trials is not None:
        raise ValueError("--exhaustive does not take --trials")
    from .lhv import (
        PATTERN_LABELS,
        LhvModel,
        classical_bound_exhaustive,
        deterministic_chsh_values,
        lhv_correlators_exact,
        sample_lhv_experiment,
    )

    if cfg.exhaustive:
        values = deterministic_chsh_values()
        bound = classical_bound_exhaustive()
        report = {
            "command": "lhv",
            "inputs": {"model": "exhaustive", "seed": cfg.seed},
            "results": {
                "classical_bound": bound,
                "pattern_labels": list(PATTERN_LABELS),
                "pattern_values": list(values),
            },
            "diagnostics": {"patterns": len(values)},
        }
        human = [
            "lhv exhaustive enumeration of deterministic strategies",
            f"classical bound max|S| = {_fmt9(bound)}",
            "per-pattern S values: " + " ".join(_fmt9(v) for v in values),
        ]
        return report, human, None

    if cfg.preset is not None:
        model, model_name = LhvModel.uniform16(), "uniform16"
    else:
        model, model_name = LhvModel.from_pattern_weights(cfg.weights), "weights"
    table = lhv_correlators_exact(model)
    s = chsh_value(table)
    results = {
        "exact_table": table.as_dict(),
        "s_value": s,
        "abs_s": abs(s),
        "estimate": None,
    }
    human = [f"lhv  model={model_name}"]
    human.extend(f"{k} = {_fmt9(v)}" for k, v in table.as_dict().items())
    human.append(f"S   = {_fmt9(s)}")
    diagnostics: dict = {"labels": list(PATTERN_LABELS)}
    if cfg.trials is not None:
        estimate, log = sample_lhv_experiment(model, cfg.trials, cfg.seed)
        results["estimate"] = _estimate_dict(estimate)
        diagnostics["trial_log"] = _write_log_if_requested(cfg, log)
        human.append(
            f"sampled S = {_fmt9(estimate.s_estimate)} +- {_fmt9(estimate.s_std_error)} "
            f"({cfg.trials} trials, seed {cfg.seed})"
        )
    report = {
        "command": "lhv",
        "inputs": {
            "model": model_name,
            "weights": list(model.weights),
            "trials": cfg.trials,
            "seed": cfg.seed,
        },
        "results": results,
        "diagnostics": diagnostics,
    }
    return report, human, None


def _run_sample(cfg: argparse.Namespace):
    if cfg.trials is None:
        raise ValueError("sample requires --trials")
    exact, _, inputs = _exact_table(cfg)
    from .lhv import sample_quantum_experiment

    exact_s = chsh_value(exact)
    estimate, log = sample_quantum_experiment(exact, cfg.trials, cfg.seed)
    log_path = _write_log_if_requested(cfg, log)
    report = {
        "command": "sample",
        "inputs": {**inputs, "trials": cfg.trials, "seed": cfg.seed},
        "results": {
            "exact_table": exact.as_dict(),
            "exact_s": exact_s,
            "estimate": _estimate_dict(estimate),
        },
        "diagnostics": {"trial_log": log_path},
    }
    human = [
        f"sample  state={cfg.state}  trials={cfg.trials}  seed={cfg.seed}",
        f"exact S     = {_fmt9(exact_s)}",
        f"estimated S = {_fmt9(estimate.s_estimate)} +- {_fmt9(estimate.s_std_error)}",
        "per-pair trials: " + " ".join(str(n) for n in estimate.counts),
    ]
    if log_path:
        human.append(f"trial log written to {log_path}")
    return report, human, None


def _write_log_if_requested(cfg: argparse.Namespace, log) -> str | None:
    if cfg.trial_log is None:
        return None
    from .lhv import write_trial_log

    with open(cfg.trial_log, "w", encoding="ascii") as stream:
        write_trial_log(log, stream)
    return cfg.trial_log


_RUNNERS = {
    "chsh": _run_chsh,
    "optimize": _run_optimize,
    "werner-sweep": _run_werner_sweep,
    "lhv": _run_lhv,
    "sample": _run_sample,
}


# --- argument parsing -----------------------------------------------------------


def _add_option(p: argparse.ArgumentParser, key: str, **overrides) -> None:
    """Add ``--key`` as :data:`_OPTIONS` describes it; the help names the default."""
    spec = {**_OPTIONS[key], **overrides}
    if "default" in spec:
        spec["help"] += f" (default {spec['default']})"
    p.add_argument("--" + key.replace("_", "-"), **spec)


def _add_common(p: argparse.ArgumentParser) -> None:
    for key in ("format", "out", "seed"):
        _add_option(p, key)
    p.add_argument("--config", type=_path, help="key=value config file; explicit flags win")


def _add_settings(p: argparse.ArgumentParser) -> None:
    _add_option(p, "preset")
    for name in ("a1", "a2", "b1", "b2"):
        p.add_argument(f"--{name}", nargs=2, type=float, metavar=("THETA", "PHI"),
                       help=f"polar angles of {name} in radians")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellsim",
        description="Two-qubit CHSH calculations: quantum correlators, bound "
                    "searches, and local hidden-variable simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chsh", help="evaluate the CHSH value at fixed settings")
    _add_option(p, "state")
    _add_settings(p)
    _add_common(p)

    p = sub.add_parser("optimize", help="maximize |S| over measurement directions")
    _add_option(p, "state")
    _add_common(p)

    p = sub.add_parser("werner-sweep", help="max |S| across Werner visibilities plus the violation threshold")
    for key in ("p_min", "p_max", "points"):
        _add_option(p, key)
    _add_common(p)

    p = sub.add_parser("lhv", help="exact and sampled hidden-variable statistics")
    p.add_argument("--exhaustive", action="store_true",
                   help="enumerate all 16 deterministic strategies and report max |S|")
    _add_option(p, "preset", choices=["uniform16"], help="named model")
    p.add_argument("--weights", nargs=16, type=float, metavar="W", help="16 normalized pattern weights")
    _add_option(p, "trials", help=f"also sample this many trials (at most {MAX_TRIALS})")
    _add_option(p, "trial_log")
    _add_common(p)

    p = sub.add_parser("sample", help="finite-statistics experiment on a quantum correlator table")
    _add_option(p, "state")
    _add_settings(p)
    _add_option(p, "trials")
    _add_option(p, "trial_log")
    _add_common(p)

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
        report, human, csv_text = _RUNNERS[cfg.command](cfg)
        _emit(_machine_text(cfg, report, csv_text), human, cfg.out)
        return 0
    except SystemExit as exc:
        return int(exc.code or 0)
    except InternalConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
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
