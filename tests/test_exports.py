"""The package namespace: every public name resolves, on first access, to its defining module's object."""

import pytest

import bellsim

#: Every name ``bellsim`` has exported since it imported its submodules eagerly, by the submodule that
#: exports it. ``MAX_TRIALS`` is defined in ``states`` and re-exported by ``chsh`` and ``lhv`` as the
#: same object.
PUBLIC = {
    "chsh": [
        "CLASSICAL_BOUND", "ChshResult", "CorrelatorTable", "InternalConsistencyError", "MAX_TRIALS",
        "MeasurementSettings", "TSIRELSON_BOUND", "aligned_settings", "born_expectation", "chsh_quantum",
        "chsh_value", "correlation_tensor", "correlator_table", "horodecki_max_s", "optimize_settings",
        "optimize_settings_traced", "quantum_correlator", "settings_from_polar", "singlet_correlator_analytic",
        "singlet_optimal_settings", "werner_threshold",
    ],
    "lhv": [
        "EstimatedTable", "LhvModel", "RESPONSE_PATTERNS", "TrialLog", "classical_bound_exhaustive",
        "deterministic_chsh_values", "estimate_from_records", "lhv_correlators_exact", "sample_lhv_experiment",
        "sample_quantum_experiment", "write_trial_log",
    ],
    "linalg": ["ComplexMatrix", "StateDiagnostics", "min_eigenvalue_hermitian", "validate"],
    "observables": ["UnitVector3", "X_AXIS", "Y_AXIS", "Z_AXIS", "from_polar", "spin_observable", "to_polar"],
    "states": ["DensityMatrix", "make_singlet", "make_werner", "werner_matrix"],
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names]
#: What ``from bellsim import *`` bound: every public name, the five submodules and ``patterns``, which
#: defines the exact LHV names that ``lhv`` re-exports.
STAR = {name for _, name in NAMES} | set(PUBLIC) | {"patterns"}


@pytest.mark.parametrize(("module", "name"), NAMES, ids=[name for _, name in NAMES])
def test_public_name_is_the_defining_modules_object(module, name):
    namespace: dict = {}
    exec(f"from bellsim import {name}", namespace)
    defined = getattr(getattr(bellsim, module), name)
    assert getattr(bellsim, name) is defined
    assert namespace[name] is defined


def test_max_trials_has_one_definition():
    assert bellsim.lhv.MAX_TRIALS is bellsim.chsh.MAX_TRIALS is bellsim.MAX_TRIALS


def test_star_import_and_dir_list_every_name():
    namespace: dict = {}
    exec("from bellsim import *", namespace)
    assert set(namespace) - {"__builtins__"} == STAR
    assert STAR <= set(dir(bellsim))
    assert "__version__" in dir(bellsim)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        bellsim.no_such_name
    with pytest.raises(ImportError):
        exec("from bellsim import no_such_name", {})

