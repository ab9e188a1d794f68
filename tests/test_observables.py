import math

import numpy as np
import pytest

from bellsim.linalg import _PAULIS
from bellsim.observables import (
    UnitVector3,
    X_AXIS,
    Z_AXIS,
    from_polar,
    spin_observable,
    to_polar,
)

rng = np.random.default_rng(52)


def random_direction():
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return UnitVector3(*v)


# --- directions ---------------------------------------------------------------


def test_unit_vector_rejects_far_from_unit():
    with pytest.raises(ValueError):
        UnitVector3(1.1, 0.0, 0.0)
    with pytest.raises(ValueError):
        UnitVector3(0.0, 0.0, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_unit_vector_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        UnitVector3(bad, 0.0, 0.0)
    with pytest.raises(ValueError):
        UnitVector3(0.0, 1.0, bad)


def test_unit_vector_renormalizes_small_drift():
    v = UnitVector3(1.0 + 5e-10, 0.0, 0.0)
    assert v.x == 1.0
    norm = math.sqrt(v.x**2 + v.y**2 + v.z**2)
    assert abs(norm - 1.0) <= 1e-15


def test_polar_angles_ranges():
    from_polar(0.0, 0.0)
    from_polar(math.pi, 2 * math.pi - 1e-12)
    bad_theta = [-0.1, math.pi + 0.1, math.nan, math.inf, -math.inf]
    bad_phi = [-0.1, 2 * math.pi, math.nan, math.inf, -math.inf]
    for theta in bad_theta:
        with pytest.raises(ValueError, match="theta="):
            from_polar(theta, 0.0)
    for phi in bad_phi:
        with pytest.raises(ValueError, match="phi="):
            from_polar(0.5, phi)


def test_from_polar_examples():
    north = from_polar(0.0, 0.0)
    assert (north.x, north.y, north.z) == (0.0, 0.0, 1.0)

    equator = from_polar(math.pi / 2, 0.0)
    assert abs(equator.x - 1.0) <= 1e-15
    assert abs(equator.z) <= 1e-15

    diag = from_polar(math.pi / 4, 0.0)
    assert abs(diag.x - 1 / math.sqrt(2)) <= 1e-15
    assert abs(diag.z - 1 / math.sqrt(2)) <= 1e-15


def test_to_polar_roundtrip():
    for _ in range(200):
        v = random_direction()
        w = from_polar(*to_polar(v))
        assert abs(v.x - w.x) <= 1e-12
        assert abs(v.y - w.y) <= 1e-12
        assert abs(v.z - w.z) <= 1e-12


# --- spin observables ------------------------------------------------------------


def test_spin_observable_axes():
    pauli_x, _, pauli_z = _PAULIS
    assert np.allclose(spin_observable(Z_AXIS), pauli_z)
    assert np.allclose(spin_observable(X_AXIS), pauli_x)


def test_spin_observable_diagonal_direction():
    inv = 1 / math.sqrt(2)
    obs = spin_observable(UnitVector3(inv, 0.0, inv))
    assert np.allclose(obs, [[inv, inv], [inv, -inv]])
    eigs = np.linalg.eigvalsh(obs)
    assert np.allclose(eigs, [-1.0, 1.0], atol=1e-12)


def test_spin_observable_random_directions():
    for _ in range(1000):
        m = spin_observable(random_direction())
        assert np.max(np.abs(m @ m - np.eye(2))) <= 1e-12
        assert abs(np.trace(m)) <= 1e-15
        assert np.max(np.abs(m - m.conj().T)) <= 1e-15


def test_spin_observable_matrix_is_read_only():
    m = spin_observable(random_direction())
    assert isinstance(m, np.ndarray)
    assert m.shape == (2, 2) and m.dtype == np.complex128
    with pytest.raises(ValueError):
        m[0, 0] = 0.0
