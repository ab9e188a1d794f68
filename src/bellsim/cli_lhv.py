"""The ``lhv`` and ``sample`` commands, which :mod:`bellsim.cli` imports only for
these two. Each imports the exact models of :mod:`bellsim.patterns` or the
samplers of :mod:`bellsim.lhv` once its options have passed their checks, and
the samplers only when it draws trials."""

from __future__ import annotations

import argparse
import math

from .cli_common import _exact_table, _fmt9
from .states import chsh_value


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


def _run_lhv(cfg: argparse.Namespace):
    chosen = sum([cfg.exhaustive, cfg.preset is not None, cfg.weights is not None])
    if chosen != 1:
        raise ValueError("give exactly one of --exhaustive, --preset, or --weights")
    if cfg.trial_log is not None and cfg.trials is None:
        raise ValueError("--trial-log needs --trials")
    if cfg.exhaustive and cfg.trials is not None:
        raise ValueError("--exhaustive does not take --trials")
    from .patterns import (
        PATTERN_LABELS,
        LhvModel,
        classical_bound_exhaustive,
        deterministic_chsh_values,
        lhv_correlators_exact,
    )

    if cfg.exhaustive:
        # The bound enumerates the 16 patterns, and the per-pattern values enumerate them again.
        bound = classical_bound_exhaustive()
        values = deterministic_chsh_values()
        results = {"classical_bound": bound, "pattern_labels": list(PATTERN_LABELS), "pattern_values": list(values)}
        human = [
            "lhv exhaustive enumeration of deterministic strategies",
            f"classical bound max|S| = {_fmt9(bound)}",
            "per-pattern S values: " + " ".join(_fmt9(v) for v in values),
        ]
        return {"model": "exhaustive"}, results, {"patterns": len(values)}, human, None

    if cfg.preset is not None:
        model, model_name = LhvModel.uniform16(), "uniform16"
    else:
        model, model_name = LhvModel.from_pattern_weights(cfg.weights), "weights"
    table = lhv_correlators_exact(model)
    s = chsh_value(table)
    results = {"exact_table": table.as_dict(), "s_value": s, "abs_s": abs(s), "estimate": None}
    human = [f"lhv  model={model_name}"]
    human.extend(f"{k} = {_fmt9(v)}" for k, v in table.as_dict().items())
    human.append(f"S   = {_fmt9(s)}")
    diagnostics: dict = {"labels": list(PATTERN_LABELS)}
    if cfg.trials is not None:
        estimate = _sample(cfg, model)
        results["estimate"] = _estimate_dict(estimate)
        diagnostics["trial_log"] = cfg.trial_log
        human.append(
            f"sampled S = {_fmt9(estimate.s_estimate)} +- {_fmt9(estimate.s_std_error)} "
            f"({cfg.trials} trials, seed {cfg.seed})"
        )
    inputs = {"model": model_name, "weights": list(model.weights), "trials": cfg.trials}
    return inputs, results, diagnostics, human, None


def _run_sample(cfg: argparse.Namespace):
    if cfg.trials is None:
        raise ValueError("sample requires --trials")
    exact, _, inputs = _exact_table(cfg)
    exact_s = chsh_value(exact)
    estimate = _sample(cfg, exact)
    results = {"exact_table": exact.as_dict(), "exact_s": exact_s, "estimate": _estimate_dict(estimate)}
    human = [
        f"sample  state={cfg.state}  trials={cfg.trials}  seed={cfg.seed}",
        f"exact S     = {_fmt9(exact_s)}",
        f"estimated S = {_fmt9(estimate.s_estimate)} +- {_fmt9(estimate.s_std_error)}",
        "per-pair trials: " + " ".join(str(n) for n in estimate.counts),
    ]
    if cfg.trial_log is not None:
        human.append(f"trial log written to {cfg.trial_log}")
    return {**inputs, "trials": cfg.trials}, results, {"trial_log": cfg.trial_log}, human, None


def _sample(cfg: argparse.Namespace, source):
    """The estimate of ``cfg.trials`` trials drawn from ``source``, an LHV model or a correlator table. Each block
    of trials is tallied, and written to --trial-log if it is given, before the next is drawn. The log is opened
    before the first draw, so an unwritable path exits 2 without sampling."""
    from .lhv import sample_experiment

    if cfg.trial_log is None:
        return sample_experiment(source, cfg.trials, cfg.seed)[0]
    with open(cfg.trial_log, "wb") as stream:
        return sample_experiment(source, cfg.trials, cfg.seed, stream)[0]
