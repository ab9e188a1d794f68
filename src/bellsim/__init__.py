"""Two-qubit CHSH laboratory.

Exact Born-rule correlators for the singlet and Werner states, maximization
of the CHSH functional up to 2*sqrt(2), the Werner visibility threshold at
1/sqrt(2), and a local hidden-variable engine certifying |S| <= 2, with
seeded finite-statistics experiment simulation on both sides.

Every public name below, and every submodule, is imported on first access,
so ``import bellsim`` loads no submodule and a command compiles only the
modules it runs. Each public name resolves from the module that defines it.
The exact core that the commands share is defined apart from what only some
commands run: ``states`` defines the settings, correlation tensor, correlator
table, CHSH value and bounds, which ``chsh`` re-exports as it adds the
Born-rule traces, the settings search and the Werner threshold; ``patterns``
defines the 16 patterns, ``LhvModel``, the exact correlators and the
exhaustive bound, which ``lhv`` re-exports as it adds what needs numpy. So
``bellsim.correlator_table`` loads no settings search, and
``bellsim.LhvModel`` no numpy.
The CLI is split the same way: ``cli`` parses and runs ``chsh`` with
``cli_common``, and imports ``cli_search``, ``cli_lhv`` or ``cli_formats``
only for the commands and formats that run them. ``linalg``, what only a
state given as a matrix runs, is imported on the first such state, so no
command loads it. Each module imports only modules below it.
"""

import sys

__version__ = "0.1.0"

#: The public names, each under the submodule that defines it: ``chsh`` and ``lhv`` list only the
#: names they add to those they re-export from ``states`` and ``patterns``.
_PUBLIC = {
    "chsh": (
        "InternalConsistencyError", "born_expectation", "chsh_quantum", "horodecki_max_s", "optimize_settings",
        "optimize_settings_traced", "quantum_correlator", "singlet_correlator_analytic", "werner_threshold",
    ),
    "lhv": (
        "EstimatedTable", "TrialLog", "estimate_from_records", "sample_experiment", "sample_lhv_experiment",
        "sample_quantum_experiment", "write_trial_log",
    ),
    "linalg": ("ComplexMatrix", "StateDiagnostics", "min_eigenvalue_hermitian", "validate"),
    "observables": ("UnitVector3", "X_AXIS", "Y_AXIS", "Z_AXIS", "from_polar", "spin_observable", "to_polar"),
    "patterns": ("LhvModel", "RESPONSE_PATTERNS", "classical_bound_exhaustive", "deterministic_chsh_values",
                 "lhv_correlators_exact"),
    "states": (
        "CLASSICAL_BOUND", "ChshResult", "CorrelatorTable", "DensityMatrix", "MAX_TRIALS", "MeasurementSettings",
        "TSIRELSON_BOUND", "aligned_settings", "chsh_value", "correlation_tensor", "correlator_table",
        "make_singlet", "make_werner", "settings_from_polar", "singlet_optimal_settings", "werner_matrix",
    ),
}

#: Each public name, and each submodule under its own name, to the submodule that defines it.
_EXPORTS = {name: module for module, names in _PUBLIC.items() for name in (module, *names)}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    """Import the submodule that defines ``name`` and bind the name here."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    qualified = f"{__name__}.{_EXPORTS[name]}"
    __import__(qualified)
    module = sys.modules[qualified]
    value = globals()[name] = module if name == _EXPORTS[name] else getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
