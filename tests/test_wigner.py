import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsdesitter import wigner

HALF_J = st.sampled_from([0.5, 1.5, 2.5, 3.5])


def _projections(j):
    two_j = int(round(2 * j))
    return [m / 2.0 for m in range(-two_j, two_j + 1, 2)]


def test_zero_angle_is_kronecker_delta():
    for j in (0.5, 1.5, 2.5):
        for mp in _projections(j):
            for m in _projections(j):
                val = wigner.wigner_d(j, mp, m, 0.0)
                assert abs(val - (1.0 if mp == m else 0.0)) < 1e-15


def test_half_spin_matches_spinor_rotation_entry():
    theta = 0.77
    assert abs(wigner.wigner_d(0.5, 0.5, 0.5, theta) - np.cos(theta / 2)) < 1e-15
    assert abs(wigner.wigner_d(0.5, 0.5, -0.5, theta) + np.sin(theta / 2)) < 1e-15


@given(j=HALF_J, theta=st.floats(0.05, 3.05))
@settings(max_examples=60, deadline=None)
def test_row_normalization(j, theta):
    # unitarity of the rotation matrix, summed by brute force
    for m in _projections(j):
        total = sum(
            wigner.wigner_d(j, -m, sigma, theta) ** 2 for sigma in _projections(j)
        )
        assert abs(total - 1.0) < 1e-12


def test_angular_coefficients():
    co = wigner.angular_coefficients(0.5)
    assert co.a == 1.0 and co.b == 0.0 and co.c == 0.0
    co = wigner.angular_coefficients(1.5)
    assert co.a == 2.0
    assert abs(co.b - np.sqrt(3.0)) < 1e-15
    assert co.c == 0.0
    co = wigner.angular_coefficients(2.5)
    assert abs(co.b - np.sqrt(2.0 * 4.0)) < 1e-15
    assert abs(co.c - np.sqrt(1.0 * 5.0)) < 1e-15


def test_recurrences_all_j_all_m():
    thetas = np.linspace(0.02, np.pi - 0.02, 100)
    for j in (0.5, 1.5, 2.5, 3.5):
        for m in _projections(j):
            rows = wigner.recurrence_residuals(j, m, thetas)
            for row in rows:
                assert row["residual"] < 1e-9, (j, m, row)
                assert row["fd_vs_analytic"] < 1e-6, (j, m, row)


def test_minimal_j_has_no_three_half_relations():
    rows = wigner.recurrence_residuals(0.5, 0.5, np.linspace(0.1, 3.0, 20))
    names = {row["relation"] for row in rows}
    assert all("1.5" not in name.replace("+", "").replace("-", "") for name in names)
    assert len(rows) == 4  # only the +-1/2 ladder survives


def test_higher_j_exercises_eight_relations():
    rows = wigner.recurrence_residuals(2.5, 0.5, np.linspace(0.05, 3.05, 100))
    assert len(rows) == 8
    assert max(row["residual"] for row in rows) < 1e-9


def test_orthogonality_quadrature():
    # Gauss-Legendre quadrature oracle for the theta inner product
    nodes, weights = np.polynomial.legendre.leggauss(120)
    theta = 0.5 * np.pi * (nodes + 1.0)
    w = 0.5 * np.pi * weights
    m, sigma = 0.5, 0.5
    js = [0.5, 1.5, 2.5]
    for ja in js:
        for jb in js:
            vals_a = wigner.wigner_d(ja, -m, sigma, theta)
            vals_b = wigner.wigner_d(jb, -m, sigma, theta)
            integral = np.sum(w * vals_a * vals_b * np.sin(theta))
            expected = (2.0 / (2.0 * ja + 1.0)) if ja == jb else 0.0
            assert abs(integral - expected) < 1e-6 * max(1.0, abs(expected))


def test_full_function_phase():
    j, m, sigma = 1.5, 0.5, -0.5
    theta, phi = 0.9, 1.3
    val = wigner.wigner_D(j, m, sigma, theta, phi)
    expected = np.exp(1j * m * phi) * wigner.wigner_d(j, -m, sigma, theta)
    assert abs(val - expected) < 1e-15


def test_invalid_labels_rejected():
    with pytest.raises(ValueError):
        wigner.wigner_d(0.7, 0.5, 0.5, 0.3)
    with pytest.raises(ValueError):
        wigner.wigner_d(0.5, 1.5, 0.5, 0.3)
    with pytest.raises(ValueError):
        wigner.wigner_D(0.5, 0.5, 1.5, 0.3, 0.0)  # slot label beyond j
    with pytest.raises(ValueError):
        wigner.recurrence_residuals(1.5, 0.5, np.array([0.0, 0.5]))  # grid pole


@pytest.mark.parametrize(
    "j, mp, m",
    [(0.7, 0.5, 0.5), (0.5, 1.5, 0.5), (1.5, 0.5, 1.0), (1.5, -2.5, 0.5), (-0.5, 0.5, 0.5)],
)
def test_value_and_derivative_reject_the_same_labels(j, mp, m):
    for fun in (wigner.wigner_d, wigner.wigner_d_dtheta):
        with pytest.raises(ValueError):
            fun(j, mp, m, 0.3)


def test_derivative_matches_finite_difference():
    rng = np.random.default_rng(8)
    h = 1e-6
    for _ in range(20):
        j = rng.choice([0.5, 1.5, 2.5, 3.5])
        ms = _projections(j)
        m = ms[rng.integers(len(ms))]
        sig = ms[rng.integers(len(ms))]
        theta = rng.uniform(0.1, np.pi - 0.1)
        ana = wigner.wigner_d_dtheta(j, m, sig, theta)
        fd = (wigner.wigner_d(j, m, sig, theta + h) - wigner.wigner_d(j, m, sig, theta - h)) / (2 * h)
        assert abs(ana - fd) < 1e-6
