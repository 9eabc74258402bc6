import numpy as np
import pytest

from rsdesitter import algebra, cli, geometry
from rsdesitter.geometry import RadialPoint


def point_at_radius(r):
    """The RadialPoint at radius r in (0, 1), with omega = arcsin(r)."""
    return RadialPoint(r=r, omega=float(np.arcsin(r)), phi_metric=1.0 - r * r, phi_prime=-2.0 * r)


def test_radial_point_consistency():
    pt = RadialPoint.from_omega(0.7)
    assert abs(pt.r - np.sin(0.7)) < 1e-15
    assert abs(pt.sqrt_phi - np.cos(0.7)) < 1e-14
    assert pt.phi_prime == -2.0 * pt.r
    pt2 = point_at_radius(0.5)
    assert abs(pt2.omega - np.arcsin(0.5)) < 1e-15


def test_radial_point_rejects_inconsistent_data():
    with pytest.raises(ValueError):
        RadialPoint(r=0.5, omega=0.7, phi_metric=0.75, phi_prime=-1.0)
    with pytest.raises(ValueError, match="radius"):
        RadialPoint(r=1.2, omega=0.7, phi_metric=-0.44, phi_prime=-2.4)
    with pytest.raises(ValueError):
        RadialPoint.from_omega(0.0)


def test_metric_diagonal_and_values():
    # direct evaluation of the closed form is the oracle here
    pt = point_at_radius(np.sin(np.pi / 4))
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
    pt = point_at_radius(1e-6)
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
    expected_l_theta = np.cos(0.8) * algebra.generator_table("vector")[3, 1]
    assert np.abs(ells[2] - expected_l_theta).max() < 1e-15
    # time components combine into (phi'/2)(sigma03 x I + I x j03)
    combined = np.kron(gammas[0], np.eye(4)) + np.kron(np.eye(4), ells[0])
    expected = 0.5 * pt.phi_prime * (
        np.kron(algebra.bispinor_generator(0, 3), np.eye(4))
        + np.kron(np.eye(4), algebra.generator_table("vector")[0, 3])
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


@pytest.mark.parametrize("oracle", [geometry.connections_fd, geometry.tetrad_divergences_fd])
@pytest.mark.parametrize(
    "theta, h, message",
    [(0.0, 1e-5, "theta"), (np.pi, 1e-5, "theta"), (4.0, 1e-5, "theta"), (np.nan, 1e-5, "theta"),
     (0.9, 0.0, "step"), (0.9, -1e-5, "step"), (0.9, np.nan, "step")],
)
def test_finite_difference_oracles_reject_bad_theta_and_step(oracle, theta, h, message):
    with pytest.raises(ValueError, match=message):
        oracle(RadialPoint.from_omega(0.7), theta, h)


def _loop_christoffels(r, theta, h=1e-5):
    g_inv = np.linalg.inv(geometry._metric_at(r, theta))
    dg = geometry._metric_partials(r, theta, h)
    gam = np.zeros((4, 4, 4))
    for lam in range(4):
        for mu in range(4):
            for nu in range(4):
                acc = 0.0
                for rho in range(4):
                    acc += g_inv[lam, rho] * (
                        dg[mu, rho, nu] + dg[nu, rho, mu] - dg[rho, mu, nu]
                    )
                gam[lam, mu, nu] = 0.5 * acc
    return gam


def _loop_tetrad_nabla(r, theta, h=1e-5):
    gam = _loop_christoffels(r, theta, h)

    def lowered(rr, tt):
        return (geometry._metric_at(rr, tt) @ geometry._tetrad_at(rr, tt).T).T

    e_low = lowered(r, theta)
    de = np.zeros((4, 4, 4))
    de[1] = (lowered(r + h, theta) - lowered(r - h, theta)) / (2 * h)
    de[2] = (lowered(r, theta + h) - lowered(r, theta - h)) / (2 * h)
    nabla = np.zeros((4, 4, 4))
    for alpha in range(4):
        for b in range(4):
            for beta in range(4):
                nabla[alpha, b, beta] = de[alpha, b, beta] - np.dot(
                    gam[:, alpha, beta], e_low[b, :]
                )
    return nabla


def _loop_connections(point, theta, h=1e-5):
    nabla = _loop_tetrad_nabla(point.r, theta, h)
    e_up = geometry._tetrad_at(point.r, theta)
    gammas, ells = [], []
    for alpha in range(4):
        coeff = np.zeros((4, 4))
        for a in range(4):
            for b in range(4):
                coeff[a, b] = np.dot(e_up[a, :], nabla[alpha, b, :])
        gam = np.zeros((4, 4), dtype=complex)
        ell = np.zeros((4, 4), dtype=complex)
        for a in range(4):
            for b in range(4):
                if a == b:
                    continue
                gam += 0.5 * coeff[a, b] * algebra.bispinor_generator(a, b)
                ell += 0.5 * coeff[a, b] * algebra.generator_table("vector")[a, b]
        gammas.append(gam)
        ells.append(ell)
    return gammas, ells


def _seeded_points(n=10, seed=11):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        yield RadialPoint.from_omega(rng.uniform(0.15, 1.35)), rng.uniform(0.3, np.pi - 0.3)


def _rel(a, b):
    return np.abs(np.asarray(a) - np.asarray(b)).max() / np.abs(np.asarray(b)).max()


def test_contracted_oracles_match_the_index_loops():
    for pt, theta in _seeded_points():
        assert _rel(geometry.christoffels_fd(pt.r, theta), _loop_christoffels(pt.r, theta)) <= 1e-15
        nabla = geometry._tetrad_covariant_derivatives(pt.r, theta, 1e-5)
        assert _rel(nabla, _loop_tetrad_nabla(pt.r, theta)) <= 1e-15
        fd_g, fd_l = geometry.connections_fd(pt, theta)
        loop_g, loop_l = _loop_connections(pt, theta)
        assert _rel(fd_g, loop_g) <= 1e-15
        assert _rel(fd_l, loop_l) <= 1e-15


def test_christoffels_fd_match_the_static_metric():
    # the O(h^2) truncation error grows toward the horizon (5.6e-9 at r = 0.8,
    # 7.7e-7 at r = 0.96), so the 1e-8 bound is checked for r <= 0.8
    rng = np.random.default_rng(12)
    for _ in range(10):
        r, theta = rng.uniform(0.1, 0.8), rng.uniform(0.3, np.pi - 0.3)
        p = 1.0 - r * r
        st, ct = np.sin(theta), np.cos(theta)
        exact = np.zeros((4, 4, 4))  # [lam, mu, nu], coordinates (t, r, theta, phi)
        exact[0, 0, 1] = exact[0, 1, 0] = -r / p
        exact[1, 0, 0] = -r * p
        exact[1, 1, 1] = r / p
        exact[1, 2, 2] = -r * p
        exact[1, 3, 3] = -r * p * st**2
        exact[2, 1, 2] = exact[2, 2, 1] = 1.0 / r
        exact[2, 3, 3] = -st * ct
        exact[3, 1, 3] = exact[3, 3, 1] = 1.0 / r
        exact[3, 2, 3] = exact[3, 3, 2] = ct / st
        assert np.abs(geometry.christoffels_fd(r, theta) - exact).max() <= 1e-8


def _per_point_geometry_battery(n_points, seed):
    """The ``verify geometry`` residuals, one scalar call per quantity and point."""
    rng = np.random.default_rng(seed)
    worst = {"orthonormal": 0.0, "gamma": 0.0, "ell": 0.0, "divergence": 0.0}
    for _ in range(n_points):
        pt = geometry.RadialPoint.from_omega(rng.uniform(0.15, 1.35))
        theta = rng.uniform(0.3, np.pi - 0.3)
        e = geometry.tetrad(pt, theta)
        gram = e @ geometry.metric(pt, theta) @ e.T
        worst["orthonormal"] = max(
            worst["orthonormal"], float(np.abs(gram - algebra.METRIC).max())
        )
        closed_g, closed_l = geometry.connections(pt, theta)
        fd_g, fd_l = geometry.connections_fd(pt, theta)
        worst["gamma"] = max(
            worst["gamma"], max(float(np.abs(a - b).max()) for a, b in zip(closed_g, fd_g))
        )
        worst["ell"] = max(
            worst["ell"], max(float(np.abs(a - b).max()) for a, b in zip(closed_l, fd_l))
        )
        dv = geometry.tetrad_divergences(pt, theta)
        worst["divergence"] = max(
            worst["divergence"],
            float(np.abs(dv - geometry.tetrad_divergences_fd(pt, theta)).max()),
        )
    return worst


def _battery_residuals(n_points, seed):
    manifest = cli.Manifest("verify geometry", {})
    cli.run_verify_geometry(manifest, n_points, seed)
    return {c["name"]: c["residual"] for c in manifest.data["checks"]}


@pytest.mark.parametrize("n_points", [1, 20])
@pytest.mark.parametrize("seed", range(6))
def test_batched_geometry_battery_equals_the_per_point_loop(seed, n_points):
    loop = _per_point_geometry_battery(n_points, seed)
    assert _battery_residuals(n_points, seed) == {
        "tetrad-orthonormality": loop["orthonormal"],
        "bispinor-connection-oracle": loop["gamma"],
        "vector-connection-oracle": loop["ell"],
        "divergence-oracle": loop["divergence"],
    }


def test_broadcast_helpers_equal_the_single_point_calls():
    rng = np.random.default_rng(4)
    omega, theta = rng.uniform(0.15, 1.35, 12), rng.uniform(0.3, np.pi - 0.3, 12)
    r = np.sin(omega)
    gam, ell = geometry._connections_at(r, theta)
    fd_gam, fd_ell = geometry._connections_fd_at(r, theta, 1e-5)
    div = geometry._tetrad_divergences_at(r, theta)
    div_fd = geometry._tetrad_divergences_fd_at(r, theta, 1e-5)
    for k in range(12):
        pt, th = RadialPoint.from_omega(omega[k]), float(theta[k])
        assert np.array_equal(geometry.metric(pt, th), geometry._metric_at(r, theta)[k])
        assert np.array_equal(geometry.tetrad(pt, th), geometry._closed_tetrad_at(r, theta)[k])
        assert np.array_equal(geometry._tetrad_at(pt.r, th), geometry._tetrad_at(r, theta)[k])
        assert np.array_equal(geometry.christoffels_fd(pt.r, th), geometry.christoffels_fd(r, theta)[k])
        assert np.array_equal(np.array(geometry.connections(pt, th)), np.stack([gam[k], ell[k]]))
        assert np.array_equal(np.array(geometry.connections_fd(pt, th)), np.stack([fd_gam[k], fd_ell[k]]))
        assert np.array_equal(geometry.tetrad_divergences(pt, th), div[k])
        assert np.array_equal(geometry.tetrad_divergences_fd(pt, th), div_fd[k])


@pytest.mark.parametrize("n_points", [0, -3])
def test_geometry_battery_without_points_raises(n_points):
    with pytest.raises(ValueError, match="--points"):
        cli.run_verify_geometry(cli.Manifest("verify geometry", {}), n_points, 0)


def test_perturbed_bispinor_generator_fails_the_batched_connection_oracle(monkeypatch):
    geometry._connection_basis()  # the closed form keeps the true table, and the cache stays clean
    table = geometry.generator_table
    bad = table("bispinor").copy()
    bad[1, 2, 0, 1] += 1e-3
    monkeypatch.setattr(
        geometry, "generator_table", lambda fam: bad if fam == "bispinor" else table(fam)
    )
    checks = _battery_residuals(20, 0)
    assert checks["bispinor-connection-oracle"] > 1e-4
    assert checks["vector-connection-oracle"] < 1e-6


def test_array_formulas_keep_the_bits_of_the_scalar_ones():
    # the scalar formulas raise to a power with pow(); an array ``x ** 2`` is x * x
    # and an array ``x ** 0.5`` is sqrt(x), each a last bit away for ~0.1 % of x
    rng = np.random.default_rng(8)
    r, theta = np.sin(rng.uniform(0.05, 1.5, 4000)), rng.uniform(0.05, np.pi - 0.05, 4000)
    g, e = geometry._metric_at(r, theta), geometry._tetrad_at(r, theta)
    closed = geometry._closed_tetrad_at(r, theta)
    for k in range(r.size):
        rk, tk = float(r[k]), float(theta[k])
        p = 1.0 - rk * rk
        assert g[k, 3, 3] == -(rk * np.sin(tk)) ** 2
        assert e[k, 0, 0] == p ** -0.5 and e[k, 3, 1] == p ** 0.5
        assert closed[k, 3, 1] == np.sqrt(p)
