"""Two-qubit CHSH laboratory.

Exact Born-rule correlators for the singlet and Werner states, maximization
of the CHSH functional up to 2*sqrt(2), the Werner visibility threshold at
1/sqrt(2), and a local hidden-variable engine certifying |S| <= 2, with
seeded finite-statistics experiment simulation on both sides.
"""

from .chsh import (
    CLASSICAL_BOUND,
    ChshResult,
    CorrelatorTable,
    InternalConsistencyError,
    MeasurementSettings,
    TSIRELSON_BOUND,
    aligned_settings,
    born_expectation,
    chsh_quantum,
    chsh_value,
    correlation_tensor,
    correlator_table,
    horodecki_max_s,
    optimize_settings,
    optimize_settings_traced,
    quantum_correlator,
    settings_from_polar,
    singlet_correlator_analytic,
    singlet_optimal_settings,
    tsirelson_check,
    werner_threshold,
)
from .lhv import (
    EstimatedTable,
    LhvModel,
    MAX_TRIALS,
    RESPONSE_PATTERNS,
    TrialLog,
    classical_bound_exhaustive,
    deterministic_chsh_values,
    estimate_from_records,
    lhv_correlators_exact,
    sample_lhv_experiment,
    sample_quantum_experiment,
    write_trial_log,
)
from .linalg import ComplexMatrix, min_eigenvalue_hermitian
from .observables import (
    UnitVector3,
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
    from_polar,
    spin_observable,
    to_polar,
)
from .states import (
    DensityMatrix,
    StateDiagnostics,
    make_singlet,
    make_werner,
    validate,
    werner_matrix,
)

__version__ = "0.1.0"
