import numpy as np
import pytest

from rsdesitter import algebra, geometry
from rsdesitter.geometry import RadialPoint


def test_radial_point_consistency():
    pt = RadialPoint.from_omega(0.7)
    assert abs(pt.r - np.sin(0.7)) < 1e-15
    assert abs(pt.sqrt_phi - np.cos(0.7)) < 1e-14
    assert pt.phi_prime == -2.0 * pt.r
    pt2 = RadialPoint.from_radius(0.5)
    assert abs(pt2.omega - np.arcsin(0.5)) < 1e-15


def test_radial_point_rejects_inconsistent_data():
    with pytest.raises(ValueError):
        RadialPoint(r=0.5, omega=0.7, phi_metric=0.75, phi_prime=-1.0)
    with pytest.raises(ValueError):
        RadialPoint.from_radius(1.2)
    with pytest.raises(ValueError):
        RadialPoint.from_omega(0.0)


def test_metric_diagonal_and_values():
    # direct evaluation of the closed form is the oracle here
    pt = RadialPoint.from_radius(np.sin(np.pi / 4))
    g = geometry.metric(pt, 1.1)
    assert abs(g[0, 0] - 0.5) < 1e-15
    assert abs(g[1, 1] + 2.0) < 1e-14
    assert abs(g[2, 2] + pt.r**2) < 1e-15
    assert abs(g[3, 3] + (pt.r * np.sin(1.1)) ** 2) < 1e-15
    assert np.abs(g - np.diag(np.diag(g))).max() == 0.0


def test_metric_determinant_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(10):
        pt = RadialPoint.from_omega(rng.uniform(0.1, 1.4))
        theta = rng.uniform(0.2, np.pi - 0.2)
        det = np.linalg.det(geometry.metric(pt, theta))
        assert abs(det + pt.r**4 * np.sin(theta) ** 2) < 1e-12


def test_metric_flat_origin_limit():
    pt = RadialPoint.from_radius(1e-6)
    g = geometry.metric(pt, 0.9)
    assert abs(g[0, 0] - 1.0) < 1e-11
    assert abs(g[1, 1] + 1.0) < 1e-11


def test_metric_domain_errors():
    pt = RadialPoint.from_omega(0.7)
    with pytest.raises(ValueError):
        geometry.metric(pt, 0.0)
    with pytest.raises(ValueError):
        geometry.metric(pt, np.pi)


def test_tetrad_orthonormality_many_points():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(50):
        pt = RadialPoint.from_omega(rng.uniform(0.1, 1.4))
        theta = rng.uniform(0.2, np.pi - 0.2)
        e = geometry.tetrad(pt, theta)
        gram = e @ geometry.metric(pt, theta) @ e.T
        worst = max(worst, np.abs(gram - algebra.METRIC).max())
    assert worst < 1e-12


def test_connection_closed_forms():
    pt = RadialPoint.from_omega(0.8)
    theta = 1.0
    gammas, ells = geometry.connections(pt, theta)
    assert np.abs(gammas[1]).max() == 0.0  # radial connection vanishes
    assert np.abs(ells[1]).max() == 0.0
    expected_l_theta = np.cos(0.8) * algebra.vector_generator(3, 1)
    assert np.abs(ells[2] - expected_l_theta).max() < 1e-15
    # time components combine into (phi'/2)(sigma03 x I + I x j03)
    combined = np.kron(gammas[0], np.eye(4)) + np.kron(np.eye(4), ells[0])
    expected = 0.5 * pt.phi_prime * (
        np.kron(algebra.bispinor_generator(0, 3), np.eye(4))
        + np.kron(np.eye(4), algebra.vector_generator(0, 3))
    )
    assert np.abs(combined - expected).max() < 1e-15


def test_connections_match_finite_difference_oracle():
    rng = np.random.default_rng(7)
    worst_g = worst_l = 0.0
    for _ in range(20):
        pt = RadialPoint.from_omega(rng.uniform(0.15, 1.35))
        theta = rng.uniform(0.3, np.pi - 0.3)
        closed_g, closed_l = geometry.connections(pt, theta)
        fd_g, fd_l = geometry.connections_fd(pt, theta, h=1e-5)
        worst_g = max(worst_g, max(np.abs(a - b).max() for a, b in zip(closed_g, fd_g)))
        worst_l = max(worst_l, max(np.abs(a - b).max() for a, b in zip(closed_l, fd_l)))
    assert worst_g < 1e-6
    assert worst_l < 1e-6


def test_tetrad_divergences():
    pt = RadialPoint.from_omega(np.pi / 4)
    theta = 0.9
    div = geometry.tetrad_divergences(pt, theta)
    assert div[0] == 0.0
    assert div[2] == 0.0
    assert abs(div[1] + 1.0 / (pt.r * np.tan(theta))) < 1e-15
    fd = geometry.tetrad_divergences_fd(pt, theta)
    assert np.abs(div - fd).max() < 1e-6


def test_tetrad_divergences_pole_rejected():
    pt = RadialPoint.from_omega(0.7)
    with pytest.raises(ValueError):
        geometry.tetrad_divergences(pt, 0.0)
