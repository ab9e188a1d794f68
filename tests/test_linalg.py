import numpy as np
import pytest

from bellsim.linalg import (
    ComplexMatrix,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    identity,
    matmul,
    min_eigenvalue_hermitian,
    tensor_product,
    trace,
)
from bellsim.states import werner_matrix

rng = np.random.default_rng(917)


def random_hermitian(dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return ComplexMatrix((a + a.conj().T) / 2)


def random_matrix(dim):
    return ComplexMatrix(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))


# --- construction ---------------------------------------------------------


def test_rejects_unsupported_dimensions():
    with pytest.raises(ValueError):
        ComplexMatrix(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        ComplexMatrix(np.zeros((2, 4)))
    with pytest.raises(ValueError):
        identity(3)


def test_rejects_non_finite_entries():
    with pytest.raises(ValueError):
        ComplexMatrix([[np.nan, 0], [0, 0]])
    with pytest.raises(ValueError):
        ComplexMatrix([[0, 1j * np.inf], [0, 0]])


def test_entries_are_read_only():
    m = identity(2)
    with pytest.raises(ValueError):
        m.entries[0, 0] = 5.0


# --- matmul ---------------------------------------------------------------


def test_matmul_identity():
    out = matmul(identity(2), identity(2))
    assert np.allclose(out.entries, np.eye(2))


def test_pauli_involution():
    assert np.allclose(matmul(PAULI_X, PAULI_X).entries, np.eye(2))


def test_pauli_product_x_y():
    # hand multiplication: sigma_x sigma_y = i sigma_z
    out = matmul(PAULI_X, PAULI_Y)
    assert np.allclose(out.entries, [[1j, 0], [0, -1j]], atol=1e-15)


def test_matmul_dimension_mismatch():
    with pytest.raises(ValueError):
        matmul(identity(2), identity(4))


def test_matmul_associative():
    for _ in range(50):
        a, b, c = (random_matrix(4) for _ in range(3))
        left = matmul(matmul(a, b), c)
        right = matmul(a, matmul(b, c))
        assert np.max(np.abs(left.entries - right.entries)) <= 1e-12


# --- tensor product ---------------------------------------------------------


def test_tensor_identity():
    assert np.allclose(tensor_product(identity(2), identity(2)).entries, np.eye(4))


def test_tensor_sigma_z_identity():
    out = tensor_product(PAULI_Z, identity(2))
    assert np.allclose(out.entries, np.diag([1, 1, -1, -1]))


def test_tensor_sigma_z_sigma_z():
    # hand Kronecker product
    out = tensor_product(PAULI_Z, PAULI_Z)
    assert np.allclose(out.entries, np.diag([1, -1, -1, 1]))


def test_tensor_requires_2x2():
    with pytest.raises(ValueError):
        tensor_product(identity(4), identity(2))


def test_tensor_trace_multiplicative():
    for _ in range(200):
        a, b = random_hermitian(2), random_hermitian(2)
        lhs = trace(tensor_product(a, b))
        rhs = trace(a) * trace(b)
        assert abs(lhs - rhs) <= 1e-12


# --- trace ------------------------------------------------------------------


def test_trace_examples():
    assert trace(identity(4)) == 4
    assert trace(PAULI_X) == 0
    singlet = ComplexMatrix(
        [[0, 0, 0, 0], [0, 0.5, -0.5, 0], [0, -0.5, 0.5, 0], [0, 0, 0, 0]]
    )
    assert abs(trace(singlet) - 1.0) < 1e-15


# --- smallest eigenvalue ------------------------------------------------------


def test_min_eigenvalue_examples():
    assert abs(min_eigenvalue_hermitian(identity(4)) - 1.0) <= 1e-10
    assert abs(min_eigenvalue_hermitian(tensor_product(PAULI_Z, identity(2))) + 1.0) <= 1e-10
    # singlet projector spectrum is {1, 0, 0, 0}
    assert abs(min_eigenvalue_hermitian(werner_matrix(1.0))) <= 1e-10


def test_min_eigenvalue_rejects_non_hermitian():
    with pytest.raises(ValueError):
        min_eigenvalue_hermitian(ComplexMatrix([[0, 1], [0, 0]]))


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
        want = _min_eigenvalue_by_sign_scan(m.entries)
        assert abs(got - want) <= 1e-8
