import math

import numpy as np
import pytest

from bellsim.chsh import (
    CLASSICAL_BOUND,
    CLASSICAL_SLACK,
    ChshResult,
    CorrelatorTable,
    InternalConsistencyError,
    MeasurementSettings,
    TSIRELSON_BOUND,
    TSIRELSON_SLACK,
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
    singlet_correlator_analytic,
    singlet_optimal_settings,
    werner_threshold,
)
from bellsim.linalg import ComplexMatrix
from bellsim.observables import UnitVector3, X_AXIS, Z_AXIS, spin_observable
from bellsim.states import DensityMatrix, make_singlet, make_werner

rng = np.random.default_rng(7041)


def random_direction():
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return UnitVector3(*v)


def random_density():
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = a @ a.conj().T
    m /= np.trace(m).real
    return DensityMatrix(ComplexMatrix(m))


# --- correlators --------------------------------------------------------------


def test_singlet_correlator_aligned():
    oz = spin_observable(Z_AXIS)
    assert quantum_correlator(make_singlet(), oz, oz) == pytest.approx(-1.0, abs=1e-12)


def test_white_noise_uncorrelated():
    rho = make_werner(0.0)
    for _ in range(20):
        a, b = spin_observable(random_direction()), spin_observable(random_direction())
        assert abs(quantum_correlator(rho, a, b)) <= 1e-12


def test_werner_correlator_scales_with_p():
    oz = spin_observable(Z_AXIS)
    assert quantum_correlator(make_werner(0.5), oz, oz) == pytest.approx(-0.5, abs=1e-12)


def test_analytic_singlet_examples():
    assert singlet_correlator_analytic(Z_AXIS, Z_AXIS) == -1.0
    assert singlet_correlator_analytic(Z_AXIS, X_AXIS) == 0.0
    assert singlet_correlator_analytic(Z_AXIS, -Z_AXIS) == 1.0


def test_born_rule_matches_analytic_singlet():
    rho = make_singlet()
    for _ in range(1000):
        a, b = random_direction(), random_direction()
        born = quantum_correlator(rho, spin_observable(a), spin_observable(b))
        assert abs(born - singlet_correlator_analytic(a, b)) <= 1e-10


def test_werner_correlator_linearity():
    for _ in range(300):
        p = rng.uniform(-1.0 / 3.0, 1.0)
        rho = make_werner(p)
        a, b = random_direction(), random_direction()
        born = quantum_correlator(rho, spin_observable(a), spin_observable(b))
        assert abs(born - p * singlet_correlator_analytic(a, b)) <= 1e-10


def test_born_expectation_rejects_imaginary_residue():
    non_hermitian = ComplexMatrix([[0.5, 0.5j], [0.0, 0.5]])
    sigma_x = spin_observable(X_AXIS)
    with pytest.raises(InternalConsistencyError):
        born_expectation(non_hermitian, sigma_x)


# --- CHSH functional -------------------------------------------------------------


def test_chsh_value_examples():
    assert chsh_value(CorrelatorTable(1, 1, 1, -1)) == 4.0
    inv = 1 / math.sqrt(2)
    assert chsh_value(CorrelatorTable(-inv, -inv, -inv, inv)) == pytest.approx(
        -TSIRELSON_BOUND, abs=1e-14
    )
    assert chsh_value(CorrelatorTable(0, 0, 0, 0)) == 0.0


def test_correlator_table_rejects_out_of_range():
    with pytest.raises(ValueError):
        CorrelatorTable(1.1, 0, 0, 0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_correlator_table_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        CorrelatorTable(0.0, 0.0, bad, 0.0)


def test_chsh_result_flags():
    s = singlet_optimal_settings()
    assert ChshResult(2.5, s).violates_classical
    assert ChshResult(2.5, s).within_tsirelson
    assert not ChshResult(2.0, s).violates_classical
    assert ChshResult(-2.2, s).violates_classical
    assert not ChshResult(4.0, s).within_tsirelson
    classical_edge = CLASSICAL_BOUND + CLASSICAL_SLACK
    tsirelson_edge = TSIRELSON_BOUND + TSIRELSON_SLACK
    for sign in (1.0, -1.0):
        assert not ChshResult(sign * classical_edge, s).violates_classical
        assert ChshResult(sign * math.nextafter(classical_edge, math.inf), s).violates_classical
        assert ChshResult(sign * tsirelson_edge, s).within_tsirelson
        assert not ChshResult(sign * math.nextafter(tsirelson_edge, math.inf), s).within_tsirelson


def test_singlet_optimal_settings_reach_tsirelson():
    result = chsh_quantum(make_singlet(), singlet_optimal_settings())
    assert result.s_value == pytest.approx(TSIRELSON_BOUND, abs=1e-12)
    assert result.violates_classical
    assert result.within_tsirelson
    table = correlator_table(make_singlet(), singlet_optimal_settings())
    inv = 1 / math.sqrt(2)
    assert np.allclose(list(table.as_dict().values()), [inv, inv, inv, -inv], atol=1e-12)


def test_aligned_settings_give_minus_two():
    result = chsh_quantum(make_singlet(), aligned_settings())
    assert result.s_value == pytest.approx(-2.0, abs=1e-12)
    assert not result.violates_classical


def test_werner_half_at_optimal_settings():
    result = chsh_quantum(make_werner(0.5), singlet_optimal_settings())
    assert result.s_value == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_flip_b_negates_s():
    for _ in range(20):
        rho = random_density()
        settings = MeasurementSettings(*(random_direction() for _ in range(4)))
        s = chsh_quantum(rho, settings).s_value
        flipped = chsh_quantum(rho, settings.flip_b()).s_value
        assert abs(s + flipped) <= 1e-12


def test_equal_b_settings_cannot_violate():
    # e12 == e11 and e22 == e21 force S = 2*e11
    for k in range(500):
        rho = random_density() if k % 2 == 0 else make_werner(rng.uniform(-1 / 3, 1))
        a1, a2, b1 = (random_direction() for _ in range(3))
        b2 = b1 if k % 4 < 2 else -b1
        s = chsh_quantum(rho, MeasurementSettings(a1, a2, b1, b2)).s_value
        assert abs(s) <= 2.0 + 1e-10


def test_equal_a_settings_cannot_violate():
    for k in range(500):
        rho = random_density() if k % 2 == 0 else make_werner(rng.uniform(-1 / 3, 1))
        a1, b1, b2 = (random_direction() for _ in range(3))
        a2 = a1 if k % 4 < 2 else -a1
        s = chsh_quantum(rho, MeasurementSettings(a1, a2, b1, b2)).s_value
        assert abs(s) <= 2.0 + 1e-10


def test_tsirelson_ceiling_monte_carlo():
    results = []
    for _ in range(10000):
        rho = make_werner(rng.uniform(-1.0 / 3.0, 1.0))
        settings = MeasurementSettings(*(random_direction() for _ in range(4)))
        results.append(chsh_quantum(rho, settings))
    assert all(r.within_tsirelson for r in results)
    assert max(abs(r.s_value) for r in results) <= TSIRELSON_BOUND + 1e-8


# --- optimizer --------------------------------------------------------------------


def test_optimize_singlet_reaches_tsirelson():
    result = optimize_settings(make_singlet())
    assert result.s_value >= TSIRELSON_BOUND - 1e-6
    assert result.within_tsirelson


@pytest.mark.parametrize("seed", range(10))
def test_optimize_singlet_robust_across_seeds(seed):
    # the search draws nothing at random, and no settings drawn from the seed beat it
    result = optimize_settings(make_singlet())
    assert result == optimize_settings(make_singlet())
    assert result.s_value >= TSIRELSON_BOUND - 1e-15
    v = np.random.default_rng(seed).normal(size=(4, 3))
    drawn = MeasurementSettings(*(UnitVector3(*row) for row in v / np.linalg.norm(v, axis=1, keepdims=True)))
    assert abs(chsh_quantum(make_singlet(), drawn).s_value) <= result.s_value + 1e-12


def test_optimize_white_noise_is_flat():
    result = optimize_settings(make_werner(0.0))
    assert abs(result.s_value) <= 1e-6
    assert not result.violates_classical


def test_optimize_werner_scales_linearly():
    result = optimize_settings(make_werner(0.8))
    assert result.s_value == pytest.approx(0.8 * TSIRELSON_BOUND, abs=1e-5)


def test_optimize_negative_visibility():
    # the correlator flips sign with p; |S| still reaches |p| * 2*sqrt(2)
    result = optimize_settings(make_werner(-1.0 / 3.0))
    assert result.s_value == pytest.approx(TSIRELSON_BOUND / 3.0, abs=1e-5)


def test_optimize_reported_settings_reproduce_value():
    result = optimize_settings(make_werner(0.9))
    replay = chsh_quantum(make_werner(0.9), result.settings)
    assert replay.s_value == pytest.approx(result.s_value, abs=1e-12)


def test_threshold_predicate_endpoints():
    assert optimize_settings(make_werner(1.0)).violates_classical
    low = optimize_settings(make_werner(0.5))
    assert not low.violates_classical
    assert low.s_value == pytest.approx(math.sqrt(2.0), abs=1e-5)


def test_werner_threshold_matches_inverse_sqrt2(monkeypatch):
    probes = []

    def counted(rho):
        probes.append(rho.p)
        return optimize_settings(rho)

    monkeypatch.setattr("bellsim.chsh.optimize_settings", counted)
    threshold = werner_threshold()
    assert abs(threshold - 1.0 / math.sqrt(2.0)) <= 1e-4
    assert threshold == 0.7071070671081543  # the value of the earlier iterative search, bit for bit
    # bisection of [0, 1] down to 1e-6 takes ceil(log2(1e6)) = 20 halvings
    assert len(probes) == 20
    assert probes[0] == 0.5


def test_werner_threshold_takes_no_tolerance():
    # the width is the constant THRESHOLD_TOL: a NaN width would end the bisection at once, 0.0 never
    with pytest.raises(TypeError):
        werner_threshold(tol=float("nan"))


def test_horodecki_closed_form_examples():
    assert horodecki_max_s(make_singlet()) == pytest.approx(TSIRELSON_BOUND, abs=1e-12)
    assert horodecki_max_s(make_werner(0.5)) == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert horodecki_max_s(make_werner(0.0)) == 0.0


@pytest.mark.parametrize("p", [1e-300, 1e-158])
def test_horodecki_max_s_does_not_underflow(p):
    rho = make_werner(p)
    assert horodecki_max_s(rho) == pytest.approx(optimize_settings(rho).s_value, rel=1e-12, abs=0.0)


def test_trace_reports_gap_and_counts():
    rho = random_density()
    result, trace_info = optimize_settings_traced(rho)
    assert trace_info.optimality_gap == horodecki_max_s(rho) - result.s_value
    assert abs(trace_info.optimality_gap) <= 1e-14
    expected = np.linalg.svd(correlation_tensor(rho), compute_uv=False)
    assert trace_info.singular_values == pytest.approx(expected.tolist(), abs=1e-15)
    assert trace_info.grid_evaluations == trace_info.refine_evaluations == 0
