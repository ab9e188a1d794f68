"""The inputs and report pieces that more than one command builds.

:mod:`bellsim.cli` runs ``chsh`` with these, and the runner modules it imports
for the other commands (:mod:`bellsim.cli_search`, :mod:`bellsim.cli_lhv`) use
them too. They live apart from ``cli`` because ``python -m bellsim.cli`` runs
``cli`` as ``__main__``: a runner that imported ``bellsim.cli`` would compile
and run it a second time.
"""

from __future__ import annotations

import argparse

from .observables import UnitVector3, to_polar
from .states import (
    ChshResult,
    DensityMatrix,
    MeasurementSettings,
    aligned_settings,
    correlator_table,
    make_singlet,
    make_werner,
    settings_from_polar,
    singlet_optimal_settings,
)

SETTINGS_PRESETS = {
    "optimal": singlet_optimal_settings,
    "aligned": aligned_settings,
}


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


def _fmt9(x: float) -> str:
    return f"{x:.9g}"


def _direction_dict(v: UnitVector3) -> dict:
    theta, phi = to_polar(v)
    return {"theta": theta, "phi": phi, "x": v.x, "y": v.y, "z": v.z}


def _settings_dict(s: MeasurementSettings) -> dict:
    return {name: _direction_dict(getattr(s, name)) for name in s.__slots__}


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


def _exact_table(cfg: argparse.Namespace):
    """The exact correlator table of ``chsh`` and ``sample``, its settings, and the inputs both report."""
    rho = parse_state_spec(cfg.state)
    settings = _resolve_settings(cfg)
    inputs = {"state": cfg.state, "preset": cfg.preset, "settings": _settings_dict(settings)}
    return correlator_table(rho, settings), settings, inputs
