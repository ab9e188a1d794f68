"""The ``optimize`` and ``werner-sweep`` commands: the settings search and the
threshold bisection of :mod:`bellsim.chsh`, which :mod:`bellsim.cli` imports
only for these two. Each imports :mod:`bellsim.chsh` once its options have
passed their checks, so a usage error compiles no search."""

from __future__ import annotations

import argparse

from .cli_common import _bound_lines, _fmt9, _result_dict, _settings_dict, parse_state_spec
from .states import VISIBILITY_MAX, VISIBILITY_MIN, make_werner


def _run_optimize(cfg: argparse.Namespace):
    state = parse_state_spec(cfg.state)
    from .chsh import optimize_settings_traced

    result, trace_info = optimize_settings_traced(state)
    settings = _settings_dict(result.settings)
    results = {**_result_dict(result), "settings": settings}
    diagnostics = {"singular_values": list(trace_info.singular_values), "optimality_gap": trace_info.optimality_gap}
    human = [f"optimize  state={cfg.state}"]
    human.extend(_bound_lines(result))
    human.extend(f"{name}: theta = {_fmt9(d['theta'])}, phi = {_fmt9(d['phi'])}" for name, d in settings.items())
    human.append(
        "singular values of T: " + " ".join(_fmt9(v) for v in trace_info.singular_values)
        + f"; gap to the Horodecki maximum {trace_info.optimality_gap:.3g}"
    )
    return {"state": cfg.state}, results, diagnostics, human, None


def _run_werner_sweep(cfg: argparse.Namespace):
    if not (VISIBILITY_MIN <= cfg.p_min < cfg.p_max <= VISIBILITY_MAX):
        raise ValueError(f"sweep range needs -1/3 <= p_min < p_max <= 1, got p_min={cfg.p_min}, p_max={cfg.p_max}")
    from .chsh import THRESHOLD_TOL, optimize_settings_traced, werner_threshold

    step = (cfg.p_max - cfg.p_min) / (cfg.points - 1)
    threshold = werner_threshold()
    # The grid's last row is p_max itself: p_min + (points - 1) * step can round past it.
    # The threshold row comes after it.
    rows, gaps = [], []
    for p in [cfg.p_min + i * step for i in range(cfg.points - 1)] + [cfg.p_max, threshold]:
        result, trace_info = optimize_settings_traced(make_werner(p))
        rows.append({"p": p, "max_s": result.s_value, "violates": result.violates_classical})
        gaps.append(trace_info.optimality_gap)
    inputs = {"p_min": cfg.p_min, "p_max": cfg.p_max, "points": cfg.points}
    results = {"rows": rows[:-1], "threshold": threshold, "threshold_row": rows[-1]}
    diagnostics = {"bisection_tol": THRESHOLD_TOL, "optimality_gap": gaps[:-1],
                   "threshold_row_optimality_gap": gaps[-1]}
    human = [
        f"werner-sweep  {cfg.points} points on [{_fmt9(cfg.p_min)}, {_fmt9(cfg.p_max)}]",
        f"threshold p* = {_fmt9(threshold)}  (max S there = {_fmt9(rows[-1]['max_s'])})",
        f"max S at p = {_fmt9(rows[-2]['p'])}: {_fmt9(rows[-2]['max_s'])}",
    ]
    return inputs, results, diagnostics, human, [("p", "max_s", "violates"), *(tuple(r.values()) for r in rows)]
