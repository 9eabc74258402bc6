import numpy as np
import pytest

from rsdesitter import algebra, ansatz, cli, radial, wigner
from rsdesitter.ansatz import SLOT_TWO_SIGMA, ModeLabel
from rsdesitter.geometry import RadialPoint, connections, tetrad_divergences
from rsdesitter.wigner import mixed_weight, wigner_D

JS = (0.5, 1.5, 2.5)

# row of each slot's own function in a slot_functions table
SLOT_ROW = (SLOT_TWO_SIGMA + 5) // 2

# amplitude-level image of the combined inversion matrix: the vector part
# swaps the spin +-1 slots, the bispinor part swaps the xi and eta blocks
_PARITY_SLOT = (0, 3, 2, 1)


def parity_image(mode, state):
    """Amplitude-level action of the inversion operator (eigenvalue +-1).

    Image amplitudes: f <- nu, g <- h, h <- g, nu <- f, with the vector
    slots permuted by (0, 3, 2, 1).  States built from the inversion
    restrictions are eigenvectors with eigenvalue delta.
    """
    state = ansatz.validate_state(mode, state)
    out = np.empty(16, dtype=complex)
    for l in range(4):
        lp = _PARITY_SLOT[l]
        out[0 + l] = state[12 + lp]
        out[4 + l] = state[8 + lp]
        out[8 + l] = state[4 + lp]
        out[12 + l] = state[0 + lp]
    return out


def apply_inversion(mode, state, theta, phi):
    """(Pi x Pi~) Phi evaluated at the inverted point (pi - theta, phi + pi)."""
    combined = algebra.parity_operators()[2]
    return combined @ ansatz.assemble(mode, state, np.pi - theta, phi + np.pi)


def _assemble_terms(mode, amps_and_sigmas, theta, phi):
    """Sum of (slot, amplitude, two_sigma) contributions as a field vector."""
    slots, amps, two_sigmas = zip(*amps_and_sigmas)
    rows = (np.array(two_sigmas) + 5) // 2
    out = np.zeros(16, dtype=complex)
    np.add.at(out, list(slots), np.array(amps) * ansatz.slot_functions(mode, theta, phi)[0, rows])
    return out


def _angular_action_block(mode, state, theta, phi):
    """Direct action of the angular operator on the assembled xi block.

    i sigma_1 d_theta + sigma_2 (i d_phi + S~3 cos theta)/sin theta with
    the derivatives taken analytically on the slot functions.
    """
    values, dtheta = ansatz.slot_functions(mode, theta, phi)[:, SLOT_ROW[:8]]
    mixed = mixed_weight(mode.m_j, SLOT_TWO_SIGMA[:8] / 2.0, theta) * values
    s1, s2 = np.kron(algebra.pauli(1), np.eye(4)), np.kron(algebra.pauli(2), np.eye(4))
    return 1j * (s1 @ (state[:8] * dtheta)) + s2 @ (state[:8] * mixed)


def verify_radial_derivative(mode, state_deriv, theta, phi):
    """Residual of the radial-derivative slot pattern on the xi block.

    Applies i (sigma_3 x 1) to the assembled derivative amplitudes and
    compares with +i on the upper (f) and -i on the lower (g) slots.
    """
    state_deriv = ansatz.validate_state(mode, state_deriv)
    df = state_deriv[0:4]
    dg = state_deriv[4:8]
    field = ansatz.assemble(mode, state_deriv, theta, phi)[:8]
    direct = 1j * (np.kron(algebra.pauli(3), np.eye(4)) @ field)
    expected = _assemble_terms(
        mode,
        [(l, 1j * df[l], SLOT_TWO_SIGMA[l]) for l in range(4)]
        + [(4 + l, -1j * dg[l], SLOT_TWO_SIGMA[4 + l]) for l in range(4)],
        theta,
        phi,
    )
    return float(np.abs(direct - expected[:8]).max())


def inversion_phase(mode):
    """Phase relating the inverted field to the parity image, -exp(i pi j)."""
    return -np.exp(1j * np.pi * mode.j)


def _mode(j, **kw):
    kw.setdefault("m_j", 0.5)
    kw.setdefault("eps", 1.3)
    kw.setdefault("mass", 0.7)
    return ModeLabel(j=j, **kw)


def test_mode_label_validation():
    with pytest.raises(ValueError):
        ModeLabel(j=1.0, m_j=0.5)
    with pytest.raises(ValueError):
        ModeLabel(j=0.5, m_j=1.5)
    with pytest.raises(ValueError):
        ModeLabel(j=0.5, m_j=0.5, delta=2)
    for bad in ({"eps": complex("nan")}, {"eps": 1j * np.inf}, {"mass": np.inf}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            ModeLabel(j=0.5, m_j=0.5, **bad)


def test_assemble_zero_state():
    mode = _mode(1.5)
    out = ansatz.assemble(mode, np.zeros(16, dtype=complex), 0.9, 0.3)
    assert np.abs(out).max() == 0.0


def test_assemble_single_amplitude():
    mode = _mode(1.5)
    state = np.zeros(16, dtype=complex)
    state[0] = 1.0
    out = ansatz.assemble(mode, state, 0.9, 0.3)
    assert np.count_nonzero(out) == 1
    assert abs(out[0] - wigner_D(1.5, 0.5, -0.5, 0.9, 0.3)) < 1e-15


def test_minimal_j_rejects_forbidden_amplitudes():
    mode = _mode(0.5)
    state = np.zeros(16, dtype=complex)
    state[1] = 1.0  # the |sigma| = 3/2 slot next to f0
    with pytest.raises(ValueError):
        ansatz.assemble(mode, state, 0.9, 0.3)


def test_forced_zero_slots_minimal_j():
    mode = _mode(0.5)
    assert list(ansatz.forced_zero_slots(mode)) == [1, 7, 9, 15]
    assert list(ansatz.forced_zero_slots(_mode(1.5))) == []


def test_ladder_action_random_states():
    rng = np.random.default_rng(42)
    for j in JS:
        mode = _mode(j)
        for _ in range(10):
            state = ansatz.random_state(mode, rng)
            theta = rng.uniform(0.25, np.pi - 0.25)
            phi = rng.uniform(0.0, 2 * np.pi)
            res = ansatz.verify_T_action(mode, state, theta, phi)
            assert max(res.values()) < 1e-12, (j, res)


def test_ladder_action_single_g2():
    mode = _mode(1.5)
    state = np.zeros(16, dtype=complex)
    state[6] = 1.0  # g2
    theta, phi = 0.8, 0.4
    m25, m26 = ansatz._xi_operators()[:2]
    out = (m25 + m26) @ ansatz.assemble(mode, state, theta, phi)[:8]
    expected = np.zeros(8, dtype=complex)
    expected[3] = 1j * np.sqrt(2.0) * wigner_D(1.5, 0.5, 0.5, theta, phi)
    assert np.abs(out - expected).max() < 1e-14


def test_ladder_action_zero_state():
    mode = _mode(1.5)
    res = ansatz.verify_T_action(mode, np.zeros(16, dtype=complex), 0.9, 0.1)
    assert max(res.values()) == 0.0


def test_boost_action():
    rng = np.random.default_rng(9)
    for j in JS:
        mode = _mode(j)
        for _ in range(5):
            state = ansatz.random_state(mode, rng)
            res = ansatz.verify_j03_action(mode, state, 1.0, 0.7, omega=0.9)
            assert res < 1e-12

    # single-amplitude structure: f0 feeds the spin-0 slot, f1 is annihilated
    mode = _mode(1.5)
    state = np.zeros(16, dtype=complex)
    state[0] = 1.0
    mat = np.kron(np.eye(2), algebra.tilde_generator(0, 3))
    out = mat @ ansatz.assemble(mode, state, 0.8, 0.2)[:8]
    assert np.count_nonzero(np.abs(out) > 1e-15) == 1
    assert abs(out[2]) > 0.0
    state = np.zeros(16, dtype=complex)
    state[1] = 1.0
    out = mat @ ansatz.assemble(mode, state, 0.8, 0.2)[:8]
    assert np.abs(out).max() == 0.0


def test_angular_operator_random_states():
    rng = np.random.default_rng(5)
    for j in JS:
        mode = _mode(j)
        for _ in range(10):
            state = ansatz.random_state(mode, rng)
            theta = rng.uniform(0.25, np.pi - 0.25)
            phi = rng.uniform(0.0, 2 * np.pi)
            assert ansatz.verify_angular_operator(mode, state, theta, phi) < 1e-9


def test_angular_operator_minimal_j_single_g0():
    mode = _mode(0.5)
    state = np.zeros(16, dtype=complex)
    state[4] = 2.0  # g0
    theta, phi = 0.9, 0.3
    out = _angular_action_block(mode, state, theta, phi)
    expected = np.zeros(8, dtype=complex)
    # a = 1 at minimal j
    expected[0] = 1j * 1.0 * 2.0 * wigner_D(0.5, 0.5, -0.5, theta, phi)
    assert np.abs(out - expected).max() < 1e-14


def test_angular_operator_uses_b_at_higher_j():
    mode = _mode(2.5)
    state = np.zeros(16, dtype=complex)
    state[1] = 1.0  # f1
    theta, phi = 1.1, 0.6
    out = _angular_action_block(mode, state, theta, phi)
    b = mode.coefficients().b
    expected = np.zeros(8, dtype=complex)
    expected[5] = -1j * b * wigner_D(2.5, 0.5, -0.5, theta, phi)
    assert np.abs(out - expected).max() < 1e-13


def test_radial_derivative_slot_pattern():
    mode = _mode(1.5)
    rng = np.random.default_rng(3)
    deriv = ansatz.random_state(mode, rng)
    assert verify_radial_derivative(mode, deriv, 1.0, 0.2) < 1e-14


def test_trace_constraint_iff():
    rng = np.random.default_rng(12)
    mode = _mode(1.5)
    s2 = np.sqrt(2.0)

    state = ansatz.random_state(mode, rng)
    state[0] = s2 * state[5] - state[2]
    state[4] = state[6] - s2 * state[3]
    state[8] = state[10] - s2 * state[13]
    state[12] = s2 * state[11] - state[14]
    chk = ansatz.verify_trace_constraint(mode, state, 0.9, 1.2)
    assert chk.field_residual < 1e-13
    assert np.abs(chk.relations).max() < 1e-13

    generic = ansatz.random_state(mode, rng)
    chk2 = ansatz.verify_trace_constraint(mode, generic, 0.9, 1.2)
    assert chk2.field_residual > 1e-3
    assert chk2.consistency < 1e-13  # contraction always collapses to the relations


def test_trace_constraint_parity_restricted():
    # under the inversion restrictions the eta relations repeat the xi ones
    rng = np.random.default_rng(1)
    for delta in (1, -1):
        mode = _mode(1.5, delta=delta)
        y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        state = radial.parity_embed(delta) @ y
        chk = ansatz.verify_trace_constraint(mode, state, 1.0, 0.5)
        assert abs(chk.relations[2] - delta * chk.relations[1]) < 1e-13
        assert abs(chk.relations[3] - delta * chk.relations[0]) < 1e-13


def test_divergence_assembly_random_data():
    rng = np.random.default_rng(21)
    for j in JS:
        mode = _mode(j)
        state = ansatz.random_state(mode, rng)
        dstate = ansatz.random_state(mode, rng)
        chk = ansatz.verify_divergence_constraint(mode, state, dstate, 0.7, 0.9, 1.1)
        assert chk.collapse_residual < 1e-8
        assert chk.residual < 1e-8
        # the transcription without the radial-slope term fails by O(1)
        assert chk.printed_variant_residual > 1e-2


@pytest.mark.parametrize("theta", [0.0, np.pi, 4.0, np.nan])
def test_divergence_check_rejects_sample_angles_outside_the_open_interval(theta):
    mode = _mode(1.5)
    rng = np.random.default_rng(22)
    state, dstate = ansatz.random_state(mode, rng), ansatz.random_state(mode, rng)
    for thetas in (theta, [0.9, theta, 1.4]):
        phis = np.zeros(np.size(thetas))
        with pytest.raises(ValueError, match="theta samples"):
            ansatz.verify_divergence_constraint(mode, state, dstate, 0.7, thetas, phis)


@pytest.mark.parametrize("bad", ["short", "nan", "forced-zero"])
def test_divergence_relations_reject_a_bad_derivative(bad):
    # at j = 1/2 the f1 slot (index 1) is forced to zero, in the derivative too
    mode = _mode(0.5)
    rng = np.random.default_rng(31)
    state, dstate = ansatz.random_state(mode, rng), ansatz.random_state(mode, rng)
    dstate = {
        "short": dstate[:3],
        "nan": np.full(16, np.nan + 0j),
        "forced-zero": np.where(np.arange(16) == 1, 1.0, dstate),
    }[bad]
    with pytest.raises(ValueError):
        ansatz.divergence_relations(mode, state, dstate, 0.7)
    with pytest.raises(ValueError):
        ansatz.verify_divergence_constraint(mode, state, dstate, 0.7, 0.9, 1.1)


def test_divergence_satisfied_component_vanishes():
    mode = _mode(1.5)
    rng = np.random.default_rng(30)
    state = ansatz.random_state(mode, rng)
    dstate = ansatz.random_state(mode, rng)
    # solve the first relation for the f2 derivative slot
    rel = ansatz.divergence_relations(mode, state, dstate, 0.7)
    dstate = dstate.copy()
    dstate[2] += rel[0]
    chk = ansatz.verify_divergence_constraint(mode, state, dstate, 0.7, 0.9, 1.1)
    assert abs(chk.relations[0]) < 1e-8
    assert abs(chk.closed_form[0]) < 1e-14


def test_divergence_parity_reduction():
    # restricted data leaves two independent relations
    for delta in (1, -1):
        mode = _mode(1.5, delta=delta)
        rng = np.random.default_rng(17)
        y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        dy = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        emb = radial.parity_embed(delta)
        rel = ansatz.divergence_relations(mode, emb @ y, emb @ dy, 0.8)
        assert abs(rel[2] - delta * rel[1]) < 1e-13
        assert abs(rel[3] - delta * rel[0]) < 1e-13


def test_inversion_field_identity():
    rng = np.random.default_rng(4)
    for j in (0.5, 1.5):
        mode = _mode(j)
        state = ansatz.random_state(mode, rng)
        theta, phi = 0.8, 0.3
        lhs = apply_inversion(mode, state, theta, phi)
        rhs = inversion_phase(mode) * ansatz.assemble(
            mode, parity_image(mode, state), theta, phi
        )
        assert np.abs(lhs - rhs).max() < 1e-14


def test_embedded_states_are_inversion_eigenstates():
    rng = np.random.default_rng(6)
    for delta in (1, -1):
        mode = _mode(1.5, delta=delta)
        y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        state = radial.parity_embed(delta) @ y
        image = parity_image(mode, state)
        assert np.abs(image - delta * state).max() < 1e-14
        # and at the field level, with the accompanying phase
        theta, phi = 1.1, 0.9
        lhs = apply_inversion(mode, state, theta, phi)
        parity = delta * inversion_phase(mode)
        rhs = parity * ansatz.assemble(mode, state, theta, phi)
        assert np.abs(lhs - rhs).max() < 1e-13


def test_operator_closure_no_leakage():
    # each operator term keeps assembled states inside the sixteen slots
    rng = np.random.default_rng(55)
    thetas, phis = ansatz.projection_angles(8)
    for j in JS:
        mode = _mode(j)
        state = ansatz.random_state(mode, rng)
        m25, m26 = ansatz._xi_operators()[:2]
        samples = np.zeros((16, len(thetas)), dtype=complex)
        for n, (th, ph) in enumerate(zip(thetas, phis)):
            field = ansatz.assemble(mode, state, th, ph)
            upper = (m25 + m26) @ field[:8]
            samples[:8, n] = upper
            samples[8:, n] = _angular_action_block(mode, state, th, ph)
        _, leak = ansatz.project_to_amplitudes(mode, samples, thetas, phis)
        assert leak < 1e-9


def test_batched_projection_matches_single_columns():
    rng = np.random.default_rng(8)
    thetas, phis = ansatz.projection_angles(8)
    for j in JS:
        mode = _mode(j)
        states = np.stack([ansatz.random_state(mode, rng) for _ in range(5)], axis=1)
        values = ansatz.slot_table(mode, thetas, phis)[0]
        # (16, K, n): K states sampled, plus noise off the slot functions
        samples = states[:, :, None] * values[:, None, :]
        samples += 1e-3 * rng.normal(size=samples.shape)
        amps, leak = ansatz.project_to_amplitudes(mode, samples, thetas, phis)
        singles = [
            ansatz.project_to_amplitudes(mode, samples[:, k], thetas, phis) for k in range(5)
        ]
        assert amps.shape == (16, 5)
        assert np.abs(amps - np.stack([a for a, _ in singles], axis=1)).max() < 1e-13
        assert abs(leak - max(lk for _, lk in singles)) < 1e-13
        assert leak > 1e-4


def _trace_by_loop(mode, state, theta, phi):
    """(field residual, consistency) of the gamma trace, one cyclic bispinor at a time."""
    field = ansatz.assemble(mode, state, theta, phi)
    uinv = algebra.cyclic_transform_inverse()
    psi = [field[np.array([0, 4, 8, 12]) + k] for k in range(4)]  # cyclic bispinors
    total = np.zeros(4, dtype=complex)
    for l in range(4):
        bisp = sum(uinv[l, k] * psi[k] for k in range(4))
        total += algebra.gamma_matrix(l) @ bisp
    rel = ansatz.trace_relations(state)
    expected = _assemble_terms(
        mode, [(0, rel[2], -1), (4, rel[3], 1), (8, rel[0], -1), (12, rel[1], 1)], theta, phi
    )
    return float(np.abs(total).max()), float(np.abs(total - expected[[0, 4, 8, 12]]).max())


def _divergence_value(mode, state, dstate, pt, theta, phi):
    """The divergence constraint at one angle, each Psi_l rebuilt by an explicit sum."""
    r, sq, p = pt.r, pt.sqrt_phi, pt.phi_metric
    uinv = algebra.cyclic_transform_inverse()

    def cyclic_bispinors(field):
        return [field[np.array([0, 4, 8, 12]) + k] for k in range(4)]

    values, dtheta = ansatz.slot_functions(mode, theta, phi)[:, SLOT_ROW]
    psi = cyclic_bispinors(state * values)
    dpsi_w = cyclic_bispinors(dstate * values)
    dpsi_th = cyclic_bispinors(state * dtheta)

    def spherical(psis, l):
        return sum(uinv[l, k] * psis[k] for k in range(4))

    total = (-1j * mode.eps / sq) * spherical(psi, 0)
    prefactor_slope = -1.0 / r - pt.phi_prime / (4.0 * p)
    total += -sq * (spherical(dpsi_w, 3) / sq + prefactor_slope * spherical(psi, 3))
    total += -(1.0 / r) * spherical(dpsi_th, 1)
    total += -(1j * mode.m_j / (r * np.sin(theta))) * spherical(psi, 2)
    div = tetrad_divergences(pt, theta)
    total += div[1] * spherical(psi, 1) + div[3] * spherical(psi, 3)
    gam = connections(pt, theta)[0]
    total += (1.0 / sq) * (gam[0] @ spherical(psi, 0))
    total += -(1.0 / r) * (gam[2] @ spherical(psi, 1))
    total += -(1.0 / (r * np.sin(theta))) * (gam[3] @ spherical(psi, 2))
    return total


def _sample_modes():
    for j in (0.5, 1.5, 2.5, 3.5):
        for m_j in dict.fromkeys((0.5, -0.5, j, -j)):
            yield _mode(j, m_j=m_j)


def test_trace_constraint_equals_the_loop_contraction():
    rng = np.random.default_rng(71)
    for mode in _sample_modes():
        for _ in range(10):
            state = ansatz.random_state(mode, rng)
            theta, phi = rng.uniform(0.25, np.pi - 0.25), rng.uniform(0.0, 2 * np.pi)
            chk = ansatz.verify_trace_constraint(mode, state, theta, phi)
            assert (chk.field_residual, chk.consistency) == _trace_by_loop(mode, state, theta, phi)


def test_divergence_values_equal_the_per_angle_sums():
    rng = np.random.default_rng(72)
    for mode in _sample_modes():
        for n in (1, 3, 7):
            state, dstate = ansatz.random_state(mode, rng), ansatz.random_state(mode, rng)
            pt = RadialPoint.from_omega(rng.uniform(0.1, 1.45))
            thetas = rng.uniform(0.05, np.pi - 0.05, n)
            phis = rng.uniform(0.0, 2 * np.pi, n)
            tables = np.stack(
                [ansatz.slot_functions(mode, th, ph) for th, ph in zip(thetas, phis)], axis=1
            )
            batched = ansatz._divergence_values(mode, state, dstate, pt, thetas, tables)
            loop = [_divergence_value(mode, state, dstate, pt, th, ph)
                    for th, ph in zip(thetas, phis)]
            assert batched.shape == (4, n)
            assert np.array_equal(batched, np.stack(loop, axis=1))


def test_xi_operator_table_is_built_once_and_read_only():
    table = ansatz._xi_operators()
    assert ansatz._xi_operators() is table
    assert table.shape == (5, 8, 8) and not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0, 0] = 1.0
    t1, t2, _ = algebra.tilde_spin_matrices()
    s1, s2 = algebra.pauli(1), algebra.pauli(2)
    eye4 = np.eye(4)
    factors = (
        np.kron(s1, t2), -np.kron(s2, t1), np.kron(np.eye(2), algebra.tilde_generator(0, 3)),
        np.kron(s1, eye4), np.kron(s2, eye4),
    )
    for entry, expected in zip(table, factors):
        assert entry.tobytes() == expected.tobytes()


def test_verify_ansatz_builds_one_slot_table_per_check_and_divergence_angle(tmp_path, monkeypatch):
    # ten points, each with four one-angle checks and a three-angle divergence check
    calls = []
    d_rows = wigner.d_rows
    monkeypatch.setattr(wigner, "d_rows", lambda *args: calls.append(args) or d_rows(*args))
    assert cli.main(["verify", "ansatz", "--j", "5/2", "--out", str(tmp_path)]) == 0
    assert 0 < len(calls) <= 70
    assert not hasattr(ansatz, "_assemble_terms")
    assert not hasattr(ansatz, "_angular_action_block")
