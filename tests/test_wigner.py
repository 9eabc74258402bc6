import os
import subprocess
import sys
from math import factorial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsdesitter import ansatz, wigner

HALF_J = st.sampled_from([0.5, 1.5, 2.5, 3.5])


def _projections(j):
    two_j = int(round(2 * j))
    return [m / 2.0 for m in range(-two_j, two_j + 1, 2)]


def _explicit_sum(j, mp, m, theta, deriv=False):
    """Oracle: d^j_{mp, m}(theta), or its theta-derivative, term by term in floats.

    The factorial sum of Varshalovich, Moskalev & Khersonskii, section 4.3,
    each term c^p s^q (c = cos(theta/2), s = sin(theta/2)) evaluated and
    differentiated on its own.
    """
    two_j, two_mp, two_m = (int(round(2 * x)) for x in (j, mp, m))
    jm, jmm = (two_j + two_m) // 2, (two_j - two_m) // 2
    jmp, jmmp = (two_j + two_mp) // 2, (two_j - two_mp) // 2
    dm = (two_mp - two_m) // 2
    pref = np.sqrt(float(factorial(jmp)) * factorial(jmmp) * factorial(jm) * factorial(jmm))
    c = np.cos(np.asarray(theta) / 2.0)
    s = np.sin(np.asarray(theta) / 2.0)
    total = np.zeros_like(np.asarray(theta, dtype=float))
    for k in range(max(0, -dm), min(jm, jmmp) + 1):
        denom = factorial(jm - k) * factorial(k) * factorial(jmmp - k) * factorial(dm + k)
        sign = -1.0 if (dm + k) % 2 else 1.0
        p, q = jm + jmmp - 2 * k, dm + 2 * k
        if not deriv:
            total = total + (sign / denom) * c**p * s**q
            continue
        term = np.zeros_like(total)
        if q > 0:
            term = term + 0.5 * q * c ** (p + 1) * s ** (q - 1)
        if p > 0:
            term = term - 0.5 * p * c ** (p - 1) * s ** (q + 1)
        total = total + (sign / denom) * term
    return pref * total


ORACLE_THETAS = np.concatenate([[0.0, np.pi], np.linspace(0.0, np.pi, 61)[1:-1], [1e-8, np.pi - 1e-8]])


def test_table_matches_explicit_sum_for_every_label():
    for two_j in range(1, 8, 2):
        j = two_j / 2
        for mp in _projections(j):
            for m in _projections(j):
                for deriv, fun in ((False, wigner.wigner_d), (True, wigner.wigner_d_dtheta)):
                    expected = _explicit_sum(j, mp, m, ORACLE_THETAS, deriv)
                    got = fun(j, mp, m, ORACLE_THETAS)
                    assert got.shape == ORACLE_THETAS.shape
                    assert np.abs(got - expected).max() < 1e-14, (j, mp, m, deriv)
                    for theta in (0.0, 1.1, np.pi):
                        scalar = fun(j, mp, m, theta)
                        assert isinstance(scalar, float)
                        assert abs(scalar - _explicit_sum(j, mp, m, theta, deriv)) < 1e-14


def test_slot_functions_match_explicit_sum_per_helicity():
    thetas = np.linspace(0.2, 2.9, 7).reshape(7, 1)
    phis = np.linspace(-1.0, 4.0, 3).reshape(1, 3)
    for two_j in range(1, 8, 2):
        for two_m in range(-two_j, two_j + 1, 2):
            mode = ansatz.ModeLabel(j=two_j / 2, m_j=two_m / 2)
            table = ansatz.slot_functions(mode, thetas, phis)
            assert table.shape == (2, 6, 7, 3)
            phase = np.exp(1j * mode.m_j * phis)
            for two_sigma in (-5, -3, -1, 1, 3, 5):  # |sigma| > j included
                values, dtheta = table[:, (two_sigma + 5) // 2]
                if abs(two_sigma) > two_j:
                    assert not values.any() and not dtheta.any()
                    continue
                labels = (mode.j, -mode.m_j, two_sigma / 2, thetas)
                assert np.abs(values - phase * _explicit_sum(*labels)).max() < 1e-14
                assert np.abs(dtheta - phase * _explicit_sum(*labels, deriv=True)).max() < 1e-14
            assert ansatz.slot_functions(mode, 0.7, 1.3).shape == (2, 6)


def _stacked_slot_functions(mode, theta, phi):
    """Oracle: exp(i m phi) times one product of a locally stacked d_weights table."""
    theta, phi = np.broadcast_arrays(np.asarray(theta, dtype=float), np.asarray(phi, dtype=float))
    two_sigmas = (-5, -3, -1, 1, 3, 5)
    table = np.zeros((2, len(two_sigmas), mode.two_j + 1))
    for i, two_sigma in enumerate(two_sigmas):
        if abs(two_sigma) <= mode.two_j:
            table[:, i] = wigner.d_weights(mode.two_j, -mode.two_m, two_sigma)
    weights = table.reshape(2 * len(two_sigmas), mode.two_j + 1)
    basis = wigner.power_basis(mode.two_j, theta).reshape(mode.two_j + 1, -1)
    table = (weights @ basis) * np.exp(1j * mode.m_j * phi).ravel()
    return table.reshape((2, len(two_sigmas)) + theta.shape)


def test_slot_functions_equal_the_stacked_weight_product():
    grid = (np.linspace(0.3, 2.8, 5).reshape(5, 1), np.linspace(-0.5, 5.0, 3).reshape(1, 3))
    angles = [grid, (0.9, 2.1), (np.array([1.2]), np.array([0.4]))]
    for two_j in range(1, 8, 2):
        for two_m in sorted({1, -1, two_j, -two_j}):
            mode = ansatz.ModeLabel(j=two_j / 2, m_j=two_m / 2)
            for theta, phi in angles:
                got = ansatz.slot_functions(mode, theta, phi)
                want = _stacked_slot_functions(mode, theta, phi)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_d_rows_shape_and_zero_rows_beyond_j():
    thetas = np.linspace(0.1, 3.0, 12).reshape(4, 3)
    two_ms = (-5, -3, -1, 1, 3, 5)
    for two_j in (1, 3, 5, 7):
        for two_mp in (-two_j, 1, two_j):
            rows = wigner.d_rows(two_j, two_mp, two_ms, thetas)
            assert rows.shape == (2, 6, 4, 3)
            for i, two_m in enumerate(two_ms):
                if abs(two_m) > two_j:
                    assert not rows[:, i].any()
                    continue
                labels = (two_j / 2, two_mp / 2, two_m / 2, thetas)
                assert np.abs(rows[0, i] - _explicit_sum(*labels)).max() < 1e-14
                assert np.abs(rows[1, i] - _explicit_sum(*labels, deriv=True)).max() < 1e-14
    assert wigner.d_rows(3, 1, (1, -1), 0.4).shape == (2, 2)


def _worst_row_normalization(d, max_two_j):
    # rows m > 0 only: d^j_{m, -sigma} = (-1)^(m + sigma) d^j_{-m, sigma} mirrors the rest
    thetas = np.linspace(0.0, np.pi, 41)
    worst = 0.0
    for two_j in range(1, max_two_j + 1, 2):
        sigmas = _projections(two_j / 2)
        for m in sigmas[len(sigmas) // 2:]:
            total = sum(d(two_j / 2, -m, sigma, thetas) ** 2 for sigma in sigmas)
            worst = max(worst, float(np.abs(total - 1.0).max()))
    return worst


def test_row_normalization_to_large_j_no_worse_than_explicit_sum():
    # both lose digits to the alternating sum as j grows (ROADMAP item 6)
    table = _worst_row_normalization(wigner.wigner_d, 41)
    assert table <= _worst_row_normalization(_explicit_sum, 41)
    assert table < 1e-10


def test_weight_caches_are_bounded_read_only_and_empty_after_import():
    rows = wigner.d_weights(3, 1, -1)
    with pytest.raises(ValueError):
        rows[0, 0] = 1.0
    stack = wigner._weight_stack(3, -1, (1, -1, 5))
    with pytest.raises(ValueError):
        stack[0, 0] = 1.0
    assert not stack[[2, 5]].any()  # sigma = 5/2 does not exist at j = 3/2
    assert wigner.d_weights.cache_info().maxsize
    assert wigner._weight_stack.cache_info().maxsize

    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = (
        "import rsdesitter.cli, rsdesitter.wigner as w; "
        "print(w.d_weights.cache_info().currsize, w._weight_stack.cache_info().currsize)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.split() == ["0", "0"]


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


def _per_label_recurrence_residuals(j, m, thetas, fd_step=1e-6):
    """Oracle: the ladder residuals with one weight-row product per label."""
    two_j, two_m = int(round(2 * j)), int(round(2 * m))

    def d(row, sigma, th):
        two_s = int(round(2 * sigma))
        if abs(two_s) > two_j:
            return np.zeros_like(th)
        return wigner.d_weights(two_j, -two_m, two_s)[row] @ wigner.power_basis(two_j, th)

    rows = []
    for two_s in (1, -1, 3, -3):
        if abs(two_s) > two_j:
            continue
        sigma = two_s / 2.0
        low, high = wigner.ladder_coefficients(j, sigma)
        for kind in ("dtheta", "mixed"):
            rhs = 0.5 * ((low if kind == "dtheta" else -low) * d(0, sigma - 1.0, thetas)
                         - high * d(0, sigma + 1.0, thetas))
            if kind == "dtheta":
                lhs = d(1, sigma, thetas)
                lhs_fd = d(0, sigma, thetas + fd_step) - d(0, sigma, thetas - fd_step)
                lhs_fd = lhs_fd / (2.0 * fd_step)
            else:
                lhs = lhs_fd = wigner.mixed_weight(m, sigma, thetas) * d(0, sigma, thetas)
            rows.append({
                "relation": f"{kind} sigma={sigma:+.1f}",
                "residual": float(np.abs(lhs - rhs).max()),
                "residual_fd": float(np.abs(lhs_fd - rhs).max()),
                "fd_vs_analytic": float(np.abs(lhs - lhs_fd).max()),
            })
    return rows


def test_recurrence_residuals_match_the_per_label_oracle():
    thetas = np.linspace(0.02, np.pi - 0.02, 100)
    for two_j in range(1, 12, 2):
        for m in _projections(two_j / 2):
            got = wigner.recurrence_residuals(two_j / 2, m, thetas)
            want = _per_label_recurrence_residuals(two_j / 2, m, thetas)
            assert [r["relation"] for r in got] == [r["relation"] for r in want]
            for g, w in zip(got, want):
                assert abs(g["residual"] - w["residual"]) < 1e-14, (two_j, m, g, w)
                for key in ("residual_fd", "fd_vs_analytic"):
                    assert abs(g[key] - w[key]) < 1e-9, (two_j, m, key, g, w)


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
