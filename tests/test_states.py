import math

import numpy as np
import pytest

from bellsim.chsh import born_expectation, correlation_tensor
from bellsim.linalg import _PAULIS, ComplexMatrix, min_eigenvalue_hermitian, validate
from bellsim.states import (
    DensityMatrix,
    make_singlet,
    make_werner,
    werner_matrix,
)

rng = np.random.default_rng(140)

SINGLET_EXPECTED = np.array(
    [
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.5, -0.5, 0.0],
        [0.0, -0.5, 0.5, 0.0],
        [0.0, 0.0, 0.0, 0.0],
    ]
)


def test_singlet_matrix_entries():
    rho = make_singlet()
    assert np.array_equal(rho.matrix, SINGLET_EXPECTED)
    assert abs(np.trace(rho.matrix) - 1.0) < 1e-15


def test_singlet_is_pure():
    rho = make_singlet()
    purity = np.trace(rho.matrix @ rho.matrix).real
    assert abs(purity - 1.0) <= 1e-12


def test_singlet_min_eigenvalue_zero():
    # projector spectrum {1, 0, 0, 0}
    assert abs(min_eigenvalue_hermitian(make_singlet().matrix)) <= 1e-10


def test_singlet_marginals_maximally_mixed():
    rho = make_singlet()
    for pauli in _PAULIS:
        assert abs(born_expectation(rho.matrix, np.kron(pauli, np.eye(2)))) <= 1e-12
        assert abs(born_expectation(rho.matrix, np.kron(np.eye(2), pauli))) <= 1e-12


def test_werner_p0_is_white_noise():
    rho = make_werner(0.0)
    assert np.allclose(rho.matrix, np.eye(4) / 4)


def test_werner_p1_is_singlet():
    rho = make_werner(1.0)
    assert np.allclose(rho.matrix, SINGLET_EXPECTED)


def test_werner_boundary_minus_third():
    # spectrum of the combination is {(1+3p)/4, (1-p)/4 x3}
    rho = make_werner(-1.0 / 3.0)
    assert abs(min_eigenvalue_hermitian(rho.matrix)) <= 1e-10


@pytest.mark.parametrize("p", [-1.0 / 3.0 - 1e-6, 1.0 + 1e-6, -0.5, 1.2, 2.0])
def test_werner_rejects_out_of_range(p):
    with pytest.raises(ValueError):
        make_werner(p)


@pytest.mark.parametrize("p", [-1.0 / 3.0, -0.2, 0.0, 0.3, 1.0 / np.sqrt(2.0), 1.0])
def test_werner_valid_across_range(p):
    diag = validate(make_werner(p).matrix)
    assert diag.is_valid


def test_werner_spectrum_matches_closed_form():
    # oracle: smallest eigenvalue plus power-trace identities pin the spectrum
    for p in rng.uniform(-1.0 / 3.0, 1.0, size=50):
        w = werner_matrix(p)
        lams = np.array([(1 + 3 * p) / 4, (1 - p) / 4, (1 - p) / 4, (1 - p) / 4])
        assert abs(min_eigenvalue_hermitian(w) - lams.min()) <= 1e-10
        assert abs(np.trace(w).real - lams.sum()) <= 1e-10
        w2 = w @ w
        assert abs(np.trace(w2).real - np.sum(lams**2)) <= 1e-10
        assert abs(np.trace(w2 @ w).real - np.sum(lams**3)) <= 1e-10


def test_validate_reports_negative_eigenvalue():
    diag = validate(werner_matrix(1.2))
    assert not diag.is_valid
    assert not diag.positive_ok
    # (1 - 1.2)/4 = -0.05
    assert diag.min_eigenvalue == pytest.approx(-0.05, abs=1e-12)


def test_validate_reports_trace_failure():
    diag = validate(np.eye(4))
    assert not diag.is_valid
    assert not diag.trace_ok
    assert diag.trace_error == pytest.approx(3.0, abs=1e-12)
    assert diag.hermitian_ok


def test_validate_reports_hermiticity_failure():
    diag = validate(np.eye(4) / 4 + np.diag([1j * 1e-3, 0, 0, 0], 1)[:4, :4])
    assert not diag.hermitian_ok
    assert diag.hermiticity_error == pytest.approx(1e-3, rel=1e-6)


def test_validate_requires_4x4():
    with pytest.raises(ValueError):
        validate(np.eye(2))


def test_density_matrix_rejects_invalid():
    with pytest.raises(ValueError):
        DensityMatrix(werner_matrix(1.2))
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(4))


@pytest.mark.parametrize("bad", [
    np.where(np.eye(4) == 1, np.nan, 0.0),
    np.where(np.eye(4) == 1, np.inf, 0.0),
    np.eye(3) / 3,
    np.eye(2) / 2,
], ids=["nan", "inf", "3x3", "2x2"])
def test_density_matrix_rejects_non_finite_and_wrong_shape(bad):
    with pytest.raises(ValueError):
        DensityMatrix(bad)


def _ginibre(seed):
    g = np.random.default_rng(seed).normal(size=(4, 4, 2)) @ [1, 1j]
    m = g @ g.conj().T
    return m / np.trace(m).real


@pytest.mark.parametrize("seed", range(5))
def test_density_matrix_from_list_array_or_complex_matrix(seed):
    m = _ginibre(seed)
    states = [DensityMatrix(m.tolist()), DensityMatrix(m), DensityMatrix(ComplexMatrix(m))]
    for rho in states:
        assert rho.matrix.dtype == np.complex128
        assert np.array_equal(rho.matrix, states[0].matrix)
        assert np.array_equal(correlation_tensor(rho), correlation_tensor(states[0]))


def test_density_matrix_is_read_only_and_owns_its_entries():
    source = SINGLET_EXPECTED.copy()
    rho = DensityMatrix(source)
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 1.0
    source[1, 1] = source[2, 2] = 0.0
    source[0, 0] = source[3, 3] = 0.5
    assert np.array_equal(rho.matrix, SINGLET_EXPECTED)


def test_visibility_range():
    assert np.array_equal(make_werner(1.0).matrix, werner_matrix(1.0))
    assert np.array_equal(make_werner(-1.0 / 3.0).matrix, werner_matrix(-1.0 / 3.0))
    for p in (1.0 + 1e-9, -1.0 / 3.0 - 1e-9, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="outside"):
            make_werner(p)


def test_each_state_copies_and_checks_its_array_once(monkeypatch):
    calls = []

    def counting(entries):
        calls.append(entries)
        return ComplexMatrix(entries)

    monkeypatch.setattr("bellsim.linalg.ComplexMatrix", counting)
    # A Werner state copies and checks nothing until its matrix is first read, then keeps that copy.
    for build in (make_singlet, lambda: make_werner(0.5)):
        calls.clear()
        rho = build()
        assert not calls
        assert rho.matrix is rho.matrix
        assert len(calls) == 1
    for build in (lambda: DensityMatrix(_ginibre(0)), lambda: validate(werner_matrix(1.2))):
        calls.clear()
        build()
        assert len(calls) == 1
    for bad in (np.eye(3) / 3, np.eye(2) / 2, np.where(np.eye(4) == 1, np.nan, 0.0)):
        with pytest.raises(ValueError):
            validate(bad)
