import numpy as np
import pytest

from bellsim.chsh import born_expectation, quantum_correlator
from bellsim.linalg import _PAULIS, ComplexMatrix, min_eigenvalue_hermitian, validate
from bellsim.observables import X_AXIS, Z_AXIS, spin_observable
from bellsim.states import DensityMatrix, make_singlet, werner_matrix

rng = np.random.default_rng(917)
PAULI_X, PAULI_Y, PAULI_Z = np.array(_PAULIS)


def random_hermitian(dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return ComplexMatrix((a + a.conj().T) / 2)


# --- construction ---------------------------------------------------------


def test_rejects_unsupported_dimensions():
    for shape in ((3, 3), (2, 4), (4,), (1, 1), (2, 2, 2)):
        with pytest.raises(ValueError):
            ComplexMatrix(np.zeros(shape))


def test_rejects_non_finite_entries():
    with pytest.raises(ValueError):
        ComplexMatrix([[np.nan, 0], [0, 0]])
    with pytest.raises(ValueError):
        ComplexMatrix([[0, 1j * np.inf], [0, 0]])


def test_entries_are_read_only():
    source = np.eye(2)
    m = ComplexMatrix(source)
    assert isinstance(m, np.ndarray) and m.dtype == np.complex128
    with pytest.raises(ValueError):
        m[0, 0] = 5.0
    source[0, 0] = 5.0
    assert m[0, 0] == 1.0


# --- the Pauli table of the correlation tensor ---------------------------------


def test_pauli_involution():
    for pauli in (PAULI_X, PAULI_Y, PAULI_Z):
        assert np.array_equal(pauli @ pauli, np.eye(2))


def test_pauli_product_x_y():
    # hand multiplication: sigma_x sigma_y = i sigma_z
    assert np.array_equal(PAULI_X @ PAULI_Y, 1j * PAULI_Z)


def test_trace_examples():
    for pauli in (PAULI_X, PAULI_Y, PAULI_Z):
        assert np.trace(pauli) == 0
    assert abs(np.trace(make_singlet().matrix) - 1.0) < 1e-15


# --- the products of the Born-rule oracle ----------------------------------------


def test_matmul_dimension_mismatch():
    with pytest.raises(ValueError):
        born_expectation(make_singlet().matrix, PAULI_X)


def test_tensor_sigma_z_sigma_z():
    # sigma_z (x) sigma_z = diag(1, -1, -1, 1) in the basis (uu, ud, du, dd)
    oz = spin_observable(Z_AXIS)
    for index, sign in enumerate((1.0, -1.0, -1.0, 1.0)):
        basis_state = DensityMatrix(np.diag(np.eye(4)[index]))
        assert quantum_correlator(basis_state, oz, oz) == sign


def test_born_oracle_puts_a_first():
    # |u> (x) |+x>: A along z and B along x are perfectly correlated; swapped, not at all
    ket = np.kron([1.0, 0.0], [1.0, 1.0]) / np.sqrt(2.0)
    rho = DensityMatrix(np.outer(ket, ket))
    oz, ox = spin_observable(Z_AXIS), spin_observable(X_AXIS)
    assert abs(quantum_correlator(rho, oz, ox) - 1.0) <= 1e-15
    assert abs(quantum_correlator(rho, ox, oz)) <= 1e-15


# --- smallest eigenvalue ------------------------------------------------------


def test_min_eigenvalue_examples():
    assert abs(min_eigenvalue_hermitian(np.eye(4)) - 1.0) <= 1e-10
    assert abs(min_eigenvalue_hermitian(np.kron(PAULI_Z, np.eye(2))) + 1.0) <= 1e-10
    # singlet projector spectrum is {1, 0, 0, 0}
    assert abs(min_eigenvalue_hermitian(werner_matrix(1.0))) <= 1e-10


def test_min_eigenvalue_rejects_non_hermitian():
    with pytest.raises(ValueError):
        min_eigenvalue_hermitian(ComplexMatrix([[0, 1], [0, 0]]))


def test_min_eigenvalue_reads_the_spectrum_validate_reads():
    """Within the hermiticity tolerance, both measure the Hermitian part (m + m^H)/2, not one triangle of m:
    on this matrix the lower triangle alone reads about -1.165e-10, past the -1e-10 that validation accepts."""
    d = 0.95e-10
    m = (1 + d) * werner_matrix(1.0) - d * np.diag([1, 0, 0, 0]) + 0.5e-10j * np.kron(PAULI_X, PAULI_X)
    diag = validate(m)
    assert diag.is_valid
    assert abs(min_eigenvalue_hermitian(m) - diag.min_eigenvalue) <= 1e-15
    assert abs(diag.min_eigenvalue + d) <= 1e-15


def _charpoly_coefficients(matrix):
    # Faddeev-LeVerrier recursion; uses only products and traces
    n = matrix.shape[0]
    coeffs = [1.0]
    m = np.eye(n, dtype=complex)
    for k in range(1, n + 1):
        am = matrix @ m
        c = -np.trace(am).real / k
        coeffs.append(c)
        m = am + c * np.eye(n)
    return np.array(coeffs)


def _min_eigenvalue_by_sign_scan(matrix):
    """Brute-force oracle: locate the leftmost sign change of the
    characteristic polynomial and bisect it down."""
    coeffs = _charpoly_coefficients(matrix)
    radius = float(np.max(np.sum(np.abs(matrix), axis=1)))
    xs = np.linspace(-radius - 1.0, radius + 1.0, 40001)
    vals = np.polyval(coeffs, xs)
    idx = np.nonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))[0]
    assert idx.size > 0, "no sign change found; spectrum not simple enough for the oracle"
    lo, hi = xs[idx[0]], xs[idx[0] + 1]
    flo = np.polyval(coeffs, lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = np.polyval(coeffs, mid)
        if np.sign(fmid) == np.sign(flo):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_min_eigenvalue_matches_charpoly_oracle():
    for _ in range(100):
        m = random_hermitian(4)
        got = min_eigenvalue_hermitian(m)
        want = _min_eigenvalue_by_sign_scan(m)
        assert abs(got - want) <= 1e-8
