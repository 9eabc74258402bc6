import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsdesitter import algebra, cli

SQ2 = np.sqrt(2.0)
PAIRS = [(a, b) for a in range(4) for b in range(4) if a != b]
# generator family -> public constructor copying its table slices
CONSTRUCTORS = {
    "bispinor": algebra.bispinor_generator,
    "cyclic": algebra.tilde_generator,
}


def vector_generator(a, b):
    """Lorentz generator j^{ab} on the tetrad-vector index, from its defining formula.

    Entries are (j^{ab})[k, l] = delta^a_k g^{bl} - delta^b_k g^{al},
    real and in {0, +1, -1}.
    """
    j = np.zeros((4, 4), dtype=complex)
    j[a, b], j[b, a] = algebra.METRIC[b, b], -algebra.METRIC[a, a]
    return j


def test_gamma_entries_are_exact_unit_values():
    allowed = np.array([0, 1, -1, 1j, -1j])
    for a in range(4):
        g = algebra.gamma_matrix(a)
        for entry in g.ravel():
            assert np.abs(allowed - entry).min() < 1e-15


def test_gamma0_blocks_off_diagonal_identity():
    g0 = algebra.gamma_matrix(0)
    assert np.array_equal(g0[:2, 2:], np.eye(2))
    assert np.array_equal(g0[2:, :2], np.eye(2))
    assert np.abs(g0[:2, :2]).max() == 0
    assert np.abs(g0[2:, 2:]).max() == 0


def test_gamma0_squared_is_identity():
    g0 = algebra.gamma_matrix(0)
    assert np.abs(g0 @ g0 - np.eye(4)).max() < 1e-15


def test_clifford_relation_all_pairs():
    assert algebra.clifford_residual() < 1e-15


def test_gamma_contraction_identities():
    for name, res in algebra.gamma_contraction_residuals().items():
        assert res < 1e-15, name


def test_double_boost_contraction():
    lhs = 2.0 * algebra.gamma_matrix(0) @ algebra.bispinor_generator(0, 3)
    assert np.abs(lhs - algebra.gamma_matrix(3)).max() < 1e-15


def test_bispinor_generator_antisymmetry():
    s12 = algebra.bispinor_generator(1, 2)
    s21 = algebra.bispinor_generator(2, 1)
    assert np.abs(s12 + s21).max() < 1e-15


def test_commutator_structure_constants():
    # brute-force commutators against the so(3,1) structure terms
    for family in ("bispinor", "vector", "tilde"):
        assert algebra.lorentz_algebra_residual(family) < 1e-13, family


def test_vector_generator_entries():
    table = algebra.generator_table("vector")
    j12 = table[1, 2]
    assert j12[1, 2] == -1.0  # delta^1_1 g^{22}
    assert j12[2, 1] == 1.0
    for a in range(4):
        for b in range(4):
            if a == b:
                continue
            s = table[a, b] + table[b, a]
            assert np.abs(s).max() == 0.0
            entries = table[a, b].ravel()
            assert set(np.round(entries.real, 12)) <= {0.0, 1.0, -1.0}
            assert np.abs(entries.imag).max() == 0.0


def test_spin_projection_diagonal_in_cyclic_basis():
    diag = 1j * algebra.tilde_generator(1, 2)
    assert np.abs(diag - np.diag([0.0, 1.0, 0.0, -1.0])).max() < 1e-15


def test_cyclic_transform_unitary_and_columns():
    u = algebra.cyclic_transform()
    assert np.abs(u @ u.conj().T - np.eye(4)).max() < 1e-15
    col = u @ np.array([0.0, 1.0, 0.0, 0.0])
    assert np.abs(col - np.array([0.0, -1 / SQ2, 0.0, 1 / SQ2])).max() < 1e-15
    uinv = algebra.cyclic_transform_inverse()
    assert np.abs(uinv @ u - np.eye(4)).max() < 1e-15


def test_tilde_generators_match_explicit_matrices():
    s = 1 / SQ2
    t1_expected = s * np.array(
        [[0, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    t2_expected = s * np.array(
        [[0, 0, 0, 0], [0, 0, -1j, 0], [0, 1j, 0, -1j], [0, 0, 1j, 0]], dtype=complex
    )
    boost_expected = np.zeros((4, 4), dtype=complex)
    boost_expected[0, 2] = boost_expected[2, 0] = -1.0

    t1, t2, t3 = algebra.tilde_spin_matrices()
    assert np.abs(t1 - t1_expected).max() < 1e-15
    assert np.abs(t2 - t2_expected).max() < 1e-15
    assert np.abs(algebra.tilde_generator(0, 3) - boost_expected).max() < 1e-15
    # spin +1 basis vector is an eigenvector of the diagonal projection
    e1 = np.zeros(4)
    e1[1] = 1.0
    assert np.abs(t3 @ e1 - e1).max() < 1e-15
    # ladder entries are all 0 or 1/sqrt(2)
    mags = sorted(set(np.round(np.abs(t1.ravel()), 12)))
    assert mags == [0.0, round(s, 12)]


def test_tilde_t2_action_on_spin0_vector():
    t2 = algebra.tilde_spin_matrices()[1]
    e2 = np.zeros(4)
    e2[2] = 1.0
    expected = (1j / SQ2) * (np.eye(4)[3] - np.eye(4)[1])
    assert np.abs(t2 @ e2 - expected).max() < 1e-15


def test_parity_operators_printed_form():
    pb, pv, combined = algebra.parity_operators()
    assert np.array_equal(pb, -np.fliplr(np.eye(4)))
    expected_pv = np.array(
        [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
    )
    assert np.array_equal(pv, expected_pv)
    assert np.abs(combined @ combined - np.eye(16)).max() == 0.0
    e1, e3 = np.eye(4)[1], np.eye(4)[3]
    assert np.array_equal(pv @ e1, e3)
    assert np.array_equal(pv @ e3, e1)


def test_combined_parity_eigenvalues_split_evenly():
    combined = algebra.parity_operators()[2]
    vals = np.sort(np.linalg.eigvalsh(np.real(combined)))
    assert np.abs(vals[:8] + 1).max() < 1e-13
    assert np.abs(vals[8:] - 1).max() < 1e-13


def test_spatial_rotation_orthogonal():
    o = algebra.spatial_rotation(0.7, 1.3)
    assert np.abs(o @ o.T - np.eye(3)).max() < 1e-13
    assert abs(np.linalg.det(o) - 1.0) < 1e-13


def test_spinor_rotation_entry():
    theta, phi = 0.9, 0.4
    u2 = algebra.spinor_rotation(theta, phi)
    assert abs(u2[0, 0] - np.cos(theta / 2) * np.exp(1j * phi / 2)) < 1e-15
    assert np.abs(u2 @ u2.conj().T - np.eye(2)).max() < 1e-14


def test_schrodinger_rotation_inverse_closed_form():
    rng = np.random.default_rng(1)
    for _ in range(5):
        th, ph = rng.uniform(0.2, np.pi - 0.2), rng.uniform(0, 2 * np.pi)
        s = algebra.schrodinger_rotation(th, ph)
        sinv = algebra._rotation_stack(th, ph, inverse=True)
        assert np.abs(s @ sinv - np.eye(16)).max() < 1e-13
        assert np.abs(sinv - np.linalg.inv(s)).max() < 1e-12


def test_schrodinger_rotation_polar_axis_warns():
    with pytest.warns(UserWarning):
        algebra.schrodinger_rotation(0.0, 0.3)


def test_total_momentum_conjugation():
    # finite-difference check of the spherical-frame momentum components
    assert algebra.total_momentum_conjugation_residual(n_points=20, seed=0) < 1e-6


def test_spin_matrix_third_component_explicit():
    s3 = algebra._spin_table()[2]
    sigma_part = 0.5 * np.kron(np.kron(np.eye(2), np.diag([1.0, -1.0])), np.eye(4))
    tau = np.zeros((4, 4), dtype=complex)
    tau[1, 2], tau[2, 1] = -1j, 1j
    assert np.abs(s3 - sigma_part - np.kron(np.eye(4), tau)).max() < 1e-15


@given(a=st.integers(-3, 7), b=st.integers(-3, 7))
@settings(max_examples=40, deadline=None)
def test_generator_index_validation(a, b):
    valid = a in range(4) and b in range(4) and a != b
    if valid:
        algebra.bispinor_generator(a, b)
        algebra.tilde_generator(a, b)
    else:
        with pytest.raises(ValueError):
            algebra.bispinor_generator(a, b)
        with pytest.raises(ValueError):
            algebra.tilde_generator(a, b)


def test_gamma_index_validation():
    with pytest.raises(ValueError):
        algebra.gamma_matrix(4)
    with pytest.raises(ValueError):
        algebra.gamma_matrix(-1)


def test_generator_tables_are_read_only_with_zero_diagonal():
    for family, n in (("bispinor", 4), ("vector", 4), ("cyclic", 4), ("tilde", 16)):
        table = algebra.generator_table(family)
        assert table.shape == (4, 4, n, n)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 1, 0, 0] = 1.0
        for a in range(4):
            assert not table[a, a].any()
        assert algebra.generator_table(family) is table
    with pytest.raises(ValueError):
        algebra.generator_table("spinor")


def test_generator_tables_follow_the_defining_formulas():
    eye = np.eye(4)
    u = algebra.cyclic_transform()
    for a, b in PAIRS:
        ga, gb = algebra.gamma_matrix(a), algebra.gamma_matrix(b)
        sigma = 0.25 * (ga @ gb - gb @ ga)
        j = np.zeros((4, 4), dtype=complex)
        j[a, b], j[b, a] = algebra.METRIC[b, b], -algebra.METRIC[a, a]
        cyclic = u @ j @ u.conj().T
        assert np.array_equal(algebra.generator_table("bispinor")[a, b], sigma)
        assert np.array_equal(algebra.generator_table("vector")[a, b], j)
        assert np.array_equal(algebra.generator_table("cyclic")[a, b], cyclic)
        full = np.kron(sigma, eye) + np.kron(eye, cyclic)
        assert np.array_equal(algebra.generator_table("tilde")[a, b], full)


def test_constructors_return_fresh_copies_of_table_slices():
    for family, make in CONSTRUCTORS.items():
        table = algebra.generator_table(family)
        for a, b in PAIRS:
            g = make(a, b)
            assert g.flags.writeable
            assert g.dtype == table.dtype and g.tobytes() == table[a, b].tobytes()
            assert not np.shares_memory(g, table)
            g[...] = 7.0
            assert make(a, b).tobytes() == table[a, b].tobytes()
    for a in range(4):
        g = algebra.gamma_matrix(a)
        kept = g.copy()
        assert g.flags.writeable
        g[...] = 7.0
        assert np.array_equal(algebra.gamma_matrix(a), kept)


def test_importing_the_cli_builds_no_table():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = (
        "import rsdesitter.cli, rsdesitter.algebra as a, rsdesitter.geometry as g, "
        "rsdesitter.ansatz as z, rsdesitter.radial as r; "
        "print(a.generator_table.cache_info().currsize, a._spin_table.cache_info().currsize, "
        "g._connection_basis.cache_info().currsize, z._xi_operators.cache_info().currsize, "
        "r._angular_operators.cache_info().currsize)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.split() == ["0"] * 5


def _per_pair_lorentz_residual(family):
    """Commutators checked one (a, b), (c, d) pair at a time, each generator rebuilt."""

    def gen(a, b):
        if a == b:
            n = 4 if family in ("bispinor", "vector") else 16
            return np.zeros((n, n), dtype=complex)
        if family == "bispinor":
            return algebra.bispinor_generator(a, b)
        if family == "vector":
            return vector_generator(a, b)
        return np.kron(algebra.bispinor_generator(a, b), np.eye(4)) + np.kron(
            np.eye(4), algebra.tilde_generator(a, b)
        )

    metric = algebra.METRIC
    worst = 0.0
    for a, b in PAIRS:
        gab = gen(a, b)
        for c, d in PAIRS:
            lhs = gab @ gen(c, d) - gen(c, d) @ gab
            rhs = (
                metric[a, d] * gen(b, c)
                + metric[b, c] * gen(a, d)
                - metric[a, c] * gen(b, d)
                - metric[b, d] * gen(a, c)
            )
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


def _per_component_momentum_residual(n_points, seed):
    """Conjugated total momentum with every derivative taken anew per component."""
    rng = np.random.default_rng(seed)
    h = 1e-6
    k = np.arange(16)

    def section(theta, phi):
        return np.cos((k + 1) * 0.3 * theta + 0.1 * k) * np.exp(
            1j * 0.2 * (k % 3) * phi
        ) + 0.3 * k * np.sin(theta)

    def orbital(i, fun, theta, phi):
        dth = (fun(theta + h, phi) - fun(theta - h, phi)) / (2 * h)
        dph = (fun(theta, phi + h) - fun(theta, phi - h)) / (2 * h)
        ct = 1.0 / np.tan(theta)
        if i == 1:
            return 1j * (np.sin(phi) * dth + ct * np.cos(phi) * dph)
        if i == 2:
            return 1j * (-np.cos(phi) * dth + ct * np.sin(phi) * dph)
        return -1j * dph

    def rotated(tt, pp):
        return algebra._rotation_stack(tt, pp, inverse=True) @ section(tt, pp)

    spins = algebra._spin_table()
    s3 = spins[2]
    worst = 0.0
    for _ in range(n_points):
        th = rng.uniform(0.3, np.pi - 0.3)
        ph = rng.uniform(0.0, 2 * np.pi)
        f = section(th, ph)
        for i in (1, 2, 3):
            conj = algebra.schrodinger_rotation(th, ph) @ (
                orbital(i, rotated, th, ph) + spins[i - 1] @ rotated(th, ph)
            )
            if i == 1:
                expect = orbital(1, section, th, ph) + (np.cos(ph) / np.sin(th)) * (s3 @ f)
            elif i == 2:
                expect = orbital(2, section, th, ph) + (np.sin(ph) / np.sin(th)) * (s3 @ f)
            else:
                expect = orbital(3, section, th, ph)
            worst = max(worst, float(np.abs(conj - expect).max()))
    return worst


@pytest.mark.parametrize("family", ["bispinor", "vector", "tilde"])
def test_contracted_lorentz_residual_equals_per_pair_loop(family):
    assert algebra.lorentz_algebra_residual(family) == _per_pair_lorentz_residual(family)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_shared_partials_momentum_residual_equals_per_component_loop(seed):
    assert algebra.total_momentum_conjugation_residual(
        n_points=20, seed=seed
    ) == _per_component_momentum_residual(20, seed)


@pytest.mark.parametrize("family", ["bispinor", "vector", "tilde"])
def test_lorentz_residual_sees_one_perturbed_entry(family, monkeypatch):
    bad = algebra.generator_table(family).copy()
    bad[1, 2, 0, 1] += 1e-3
    monkeypatch.setattr(algebra, "generator_table", lambda fam: bad)
    assert algebra.lorentz_algebra_residual(family) > 1e-4


def test_verify_algebra_builds_each_table_once(monkeypatch):
    algebra.generator_table.cache_clear()
    built = []
    formula = algebra._generator

    def counting(family, a, b):
        built.append(family)
        return formula(family, a, b)

    monkeypatch.setattr(algebra, "_generator", counting)
    counts = []
    for _ in range(2):
        before = len(built)
        cli.run_verify_algebra(cli.Manifest("verify algebra", {}))
        counts.append(len(built) - before)
    # bispinor, vector, tilde and the cyclic table the tilde one is built from
    assert counts == [4 * len(PAIRS), 0]


def _stencil_angles(seed, n_points=20, h=1e-6):
    """The angles at which the momentum check evaluates S^{-1} and S."""
    rng = np.random.default_rng(seed)
    for _ in range(n_points):
        th = rng.uniform(0.3, np.pi - 0.3)
        ph = rng.uniform(0.0, 2 * np.pi)
        yield from ((th, ph), (th + h, ph), (th - h, ph), (th, ph + h), (th, ph - h))


def _kron_rotation(theta, phi):
    """S(theta, phi) and S^{-1} from the 2x2 and 3x3 rotations through ``np.kron``."""
    bisp = np.zeros((4, 4), dtype=complex)
    bisp[:2, :2] = bisp[2:, 2:] = algebra.spinor_rotation(theta, phi)
    vec = np.zeros((4, 4), dtype=complex)
    vec[0, 0] = 1.0
    vec[1:, 1:] = algebra.spatial_rotation(theta, phi)
    return bisp, vec, np.kron(bisp, vec), np.kron(bisp.conj().T, vec.conj().T)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_broadcast_rotations_equal_the_scalar_ones_at_every_stencil_angle(seed):
    angles = list(_stencil_angles(seed))
    th, ph = np.array(angles).T
    bisp, vec = algebra._schrodinger_blocks(th, ph)
    s, sinv = algebra._rotation_stack(th, ph), algebra._rotation_stack(th, ph, inverse=True)
    for k, (t, p) in enumerate(angles):
        ref_bisp, ref_vec, ref_s, ref_sinv = _kron_rotation(t, p)
        assert np.array_equal(bisp[k], ref_bisp) and np.array_equal(vec[k], ref_vec)
        assert np.array_equal(s[k], ref_s) and np.array_equal(sinv[k], ref_sinv)
        assert np.array_equal(algebra.schrodinger_rotation(t, p), ref_s)
        assert np.array_equal(algebra._rotation_stack(t, p, inverse=True), ref_sinv)


def test_momentum_residual_sees_exchanged_spin_components(monkeypatch):
    swapped = algebra._spin_table()[[1, 0, 2]]
    monkeypatch.setattr(algebra, "_spin_table", lambda: swapped)
    assert algebra.total_momentum_conjugation_residual() > 1e-3


@pytest.mark.parametrize("n_points", [0, -1])
def test_momentum_residual_without_points_raises(n_points):
    with pytest.raises(ValueError, match="n_points"):
        algebra.total_momentum_conjugation_residual(n_points=n_points)


def test_spin_table_is_read_only_and_copied():
    table = algebra._spin_table()
    assert not table.flags.writeable and table.shape == (3, 16, 16)
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0, 0] = 7.0
    assert algebra._spin_table() is table
