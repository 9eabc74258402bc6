import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsdesitter import algebra, ansatz, radial
from rsdesitter.ansatz import ModeLabel
from rsdesitter.geometry import RadialPoint

FORBIDDEN_MIN_J = (1, 7, 9, 15)


def _mode(j=1.5, eps=1.3, mass=0.7, delta=None):
    return ModeLabel(j=j, m_j=0.5, eps=eps, mass=mass, delta=delta)


def build_dA8(mode, omega):
    """Exact omega-derivative of the reduced coefficient matrix."""
    stack = radial.RadialSystem(mode, 8).stack
    _, derivatives = _scalar_weights(mode.eps, mode.mass, omega)
    return (np.array(derivatives, dtype=complex) @ stack).reshape(8, 8)


def amplitude_parity_matrix():
    """16x16 amplitude-level inversion with eigenvalues +-1.

    The embedding columns of ``radial.parity_embed`` are eigenvectors with
    eigenvalue delta; the matrix is the composition of the combined
    inversion operator with the helicity flip of the slot functions.
    """
    m = np.zeros((16, 16))
    f, g, h, n = 0, 4, 8, 12
    for l, lp in enumerate((0, 3, 2, 1)):
        m[f + l, n + lp] = 1.0
        m[g + l, h + lp] = 1.0
        m[h + l, g + lp] = 1.0
        m[n + l, f + lp] = 1.0
    return m


def constraint_matrix_printed_variant(mode, omega):
    """Constraint rows with the non-derivative radial-slot term dropped.

    This transcription fails both the brute-force assembly and the
    flow-invariance certificate.
    """
    (_, t, _, inv_t, _), _ = _scalar_weights(mode.eps, mode.mass, omega)
    slope = inv_t - t / 2.0
    c = radial.constraint_matrix(mode, omega).copy()
    c[2, 2] += slope
    c[3, 6] += slope
    return c


def test_energy_diagonal_entry():
    omega = 0.7
    a16 = radial.build_A16(_mode(), omega)
    assert abs(a16[0, 0] - 1j * 1.3 / np.cos(omega)) < 1e-15


def test_massless_blocks_decouple():
    a16 = radial.build_A16(_mode(mass=0.0), 0.9)
    assert np.abs(a16[:8, 8:]).max() == 0.0
    assert np.abs(a16[8:, :8]).max() == 0.0
    coupled = radial.build_A16(_mode(mass=0.5), 0.9)
    assert np.abs(coupled[:8, 8:]).max() > 0.0


def test_minimal_j_forbidden_slots_decouple():
    a16 = radial.build_A16(_mode(j=0.5), 0.8)
    admissible = [k for k in range(16) if k not in FORBIDDEN_MIN_J]
    assert np.abs(a16[np.ix_(admissible, FORBIDDEN_MIN_J)]).max() == 0.0
    assert np.abs(a16[np.ix_(FORBIDDEN_MIN_J, admissible)]).max() == 0.0


def test_parity_embed_columns():
    emb = radial.parity_embed(+1)
    e_f0 = emb @ np.eye(8)[0]
    expected = np.zeros(16)
    expected[0] = expected[12] = 1.0  # f0 and nu0
    assert np.array_equal(e_f0, expected)
    # columns orthogonal with norm sqrt(2)
    gram = emb.T @ emb
    assert np.abs(gram - 2.0 * np.eye(8)).max() == 0.0
    # delta only flips the dependent rows
    diff = radial.parity_embed(+1) - radial.parity_embed(-1)
    assert np.abs(diff[:8]).max() == 0.0
    assert np.abs(diff[8:]).max() == 2.0


def test_embedded_states_eigenvectors_of_amplitude_parity():
    m = amplitude_parity_matrix()
    assert np.array_equal(m @ m, np.eye(16))
    rng = np.random.default_rng(2)
    for delta in (1, -1):
        y = rng.standard_normal(8)
        x = radial.parity_embed(delta) @ y
        assert np.abs(m @ x - delta * x).max() == 0.0


@given(
    j=st.sampled_from([0.5, 1.5, 2.5]),
    omega=st.floats(0.05, 1.5),
    eps=st.floats(-3.0, 3.0),
    mass=st.floats(0.0, 3.0),
    delta=st.sampled_from([1, -1]),
)
@settings(max_examples=60, deadline=None)
def test_reduction_exactness(j, omega, eps, mass, delta):
    mode = _mode(j=j, eps=eps, mass=mass, delta=delta)
    a16 = radial.build_A16(mode, omega)
    a8 = radial.build_A8(mode, omega)
    emb = radial.parity_embed(delta)
    assert np.abs(a16 @ emb - emb @ a8).max() < 1e-13


def test_parity_mass_duality_exact():
    for j in (0.5, 1.5, 2.5):
        flipped = radial.build_A8(_mode(j=j, mass=0.7, delta=-1), 0.6)
        negated = radial.build_A8(_mode(j=j, mass=-0.7, delta=+1), 0.6)
        assert np.array_equal(flipped, negated)


def test_reduced_system_spot_entries():
    # entries of the reduced system, rearranged for the derivatives
    mode = _mode(j=1.5, eps=1.1, mass=0.4, delta=+1)
    omega = 0.8
    a8 = radial.build_A8(mode, omega)
    e = 1.1 / np.cos(omega)
    b = mode.coefficients().b
    a = mode.coefficients().a
    s, t = np.sin(omega), np.tan(omega)
    assert abs(a8[0, 0] - 1j * e) < 1e-15
    assert abs(a8[0, 2] + t) < 1e-15
    assert abs(a8[0, 4] - (-a / s - 1j * 0.4)) < 1e-15
    assert abs(a8[5, 2] + np.sqrt(2.0) / t) < 1e-15
    assert abs(a8[5, 1] + b / s) < 1e-15
    assert abs(a8[7, 3] + b / s) < 1e-15
    assert abs(a8[7, 1] - 1j * 0.4) < 1e-15


def test_minimal_j_reduces_to_six_equations():
    mode = _mode(j=0.5, delta=+1)
    a8 = radial.build_A8(mode, 0.7)
    admissible = [0, 2, 3, 4, 5, 6]
    forbidden = [1, 7]
    assert np.abs(a8[np.ix_(admissible, forbidden)]).max() == 0.0
    assert np.abs(a8[np.ix_(forbidden, admissible)]).max() == 0.0


def test_angular_extraction_matches_hand_coded():
    for j in (1.5, 2.5, 3.5):
        for m_j in (-0.5, 0.5, j):
            mode = ModeLabel(j=j, m_j=m_j, eps=1.3, mass=0.7)
            for omega in (0.3, 0.8, 1.3):
                ext = radial.assemble_from_angular(mode, omega)
                hand = radial.build_A16(mode, omega)
                assert np.abs(ext - hand).max() < 1e-10, (j, m_j, omega)


def test_angular_extraction_raises_on_leakage(monkeypatch):
    monkeypatch.setattr(radial, "_LEAKAGE_TOL", -1.0)
    with pytest.raises(ArithmeticError, match="leaked"):
        radial.assemble_from_angular(_mode(), 0.7)


def test_angular_extraction_minimal_j():
    mode = _mode(j=0.5)
    ext = radial.assemble_from_angular(mode, 0.7)
    hand = radial.build_A16(mode, 0.7)
    admissible = [k for k in range(16) if k not in FORBIDDEN_MIN_J]
    assert np.abs(ext[:, admissible] - hand[:, admissible]).max() < 1e-10
    # nothing can feed the slots that do not exist at this j, nor probe them
    assert np.abs(ext[np.ix_(FORBIDDEN_MIN_J, admissible)]).max() == 0.0
    assert np.abs(ext[:, FORBIDDEN_MIN_J]).max() == 0.0


def test_angular_extraction_adjudicates_disputed_slots():
    # the two coefficient slots with conflicting printed transcriptions
    mode = _mode(j=1.5)
    omega = 0.9
    ext = radial.assemble_from_angular(mode, omega)
    a = mode.coefficients().a
    s, t = np.sin(omega), np.tan(omega)
    # first row: the angular ladder couples f0' to g0, not to g3
    assert abs(ext[0, 4] + a / s) < 1e-10
    assert abs(ext[0, 7]) < 1e-10
    # g2 row: the spin-0 ladder couples to f3; f2 appears once, with a/sin
    assert abs(ext[6, 3] + np.sqrt(2.0) / t) < 1e-10
    assert abs(ext[6, 2] + a / s) < 1e-10


def test_constraint_rows_algebraic_part():
    mode = _mode(j=1.5, delta=+1)
    c = radial.constraint_matrix(mode, 0.8)
    rng = np.random.default_rng(3)
    y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    y[5] = (y[0] + y[2]) / np.sqrt(2.0)  # g1 from f0, f2
    y[3] = (y[6] - y[4]) / np.sqrt(2.0)  # f3 from g2, g0
    assert abs(c[0] @ y) < 1e-14
    assert abs(c[1] @ y) < 1e-14
    assert np.abs(c @ np.zeros(8)).max() == 0.0


def test_constraint_rows_match_divergence_relations():
    # substitution oracle: eliminate the derivative through the flow and
    # compare against the assembled divergence relation
    rng = np.random.default_rng(14)
    for delta in (1, -1):
        mode = _mode(j=1.5, delta=delta)
        omega = 0.75
        y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        emb = radial.parity_embed(delta)
        state = emb @ y
        dstate = emb @ (radial.build_A8(mode, omega) @ y)
        rel = ansatz.divergence_relations(mode, state, dstate, omega)
        c = radial.constraint_matrix(mode, omega)
        assert abs(c[2] @ y - rel[0]) < 1e-12
        assert abs(c[3] @ y - rel[1]) < 1e-12


def test_constraint_derivative_is_exact():
    mode = _mode(j=1.5, delta=+1)
    h = 1e-6
    dc = radial.ConstraintSet(mode).derivatives(0.8)[0]
    fd = (radial.constraint_matrix(mode, 0.8 + h) - radial.constraint_matrix(mode, 0.8 - h)) / (2 * h)
    assert np.abs(dc - fd).max() < 1e-7


def test_flow_invariance_of_constraint_surface():
    omegas, fit_omegas = np.linspace(0.05, 1.52, 9), np.array([0.3, 0.7, 1.2])
    for two_j in range(1, 43, 2):
        for delta in (1, -1):
            for eps in (0.0, 1.3, 1.3 + 0.4j, 5 - 2j):
                for mass in (0.0, 0.7, -2.0):
                    mode = _mode(j=two_j / 2, eps=eps, mass=mass, delta=delta)
                    for entry in radial.consistency_check(mode, omegas):
                        assert entry["residual"] < 1e-10, (two_j, delta, eps, mass, entry)
                        assert entry["relative_residual"] <= 1e-13, (two_j, delta, eps, mass)
                        assert entry["constraint_rank"] == 4
                # C has full row rank, so the least-squares fit of Lambda is unique
                mode = _mode(j=two_j / 2, eps=eps, delta=delta)
                cons = radial.ConstraintSet(mode)
                c = cons.matrices(fit_omegas)
                a8 = radial.RadialSystem(mode, 8).matrices(fit_omegas)
                fit = (cons.derivatives(fit_omegas) + c @ a8) @ np.linalg.pinv(c)
                lam = radial.flow_mixing(mode, fit_omegas)
                assert np.abs(lam - fit).max() < 1e-10, (two_j, delta, eps)


def test_printed_variant_rows_are_not_flow_invariant():
    mode = _mode(j=1.5, delta=+1)
    omega = 0.7
    c = constraint_matrix_printed_variant(mode, omega)
    a8 = radial.build_A8(mode, omega)
    h = 1e-6
    dc = (
        constraint_matrix_printed_variant(mode, omega + h)
        - constraint_matrix_printed_variant(mode, omega - h)
    ) / (2 * h)
    total = dc + c @ a8
    lam = total @ np.linalg.pinv(c)
    assert np.abs(total - lam @ c).max() > 1e-3


def test_residue_matrices_and_convergence_rates():
    mode = _mode(j=0.5, delta=+1)
    origin, horizon = radial.singular_residues(mode)
    # origin couplings carry +-a = +-1 at minimal j
    assert abs(origin[0, 4] + 1.0) < 1e-15
    assert abs(origin[4, 0] + 1.0) < 1e-15
    # Richardson-extrapolated sequence converges at second order, the raw
    # sequence only at first
    raw, extr = [], []
    for omega in (4e-2, 2e-2, 1e-2):
        g1 = omega * radial.build_A8(mode, omega)
        g2 = (omega / 2) * radial.build_A8(mode, omega / 2)
        raw.append(np.abs(g1 - origin).max())
        extr.append(np.abs(2 * g2 - g1 - origin).max())
    rate_raw = np.polyfit(np.log([4e-2, 2e-2, 1e-2]), np.log(raw), 1)[0]
    rate_extr = np.polyfit(np.log([4e-2, 2e-2, 1e-2]), np.log(extr), 1)[0]
    assert 0.8 < rate_raw < 1.2
    assert 1.8 < rate_extr < 2.2
    # horizon residue reproduces the energy and tangent weights
    assert abs(horizon[0, 0] + 1j * mode.eps) < 1e-15
    assert abs(horizon[0, 2] - 1.0) < 1e-15


def test_radial_system_domain_errors():
    mode = _mode(delta=+1)
    with pytest.raises(ValueError):
        radial.build_A8(mode, 0.0)
    with pytest.raises(ValueError):
        radial.build_A16(mode, np.pi / 2)
    with pytest.raises(ValueError):
        radial.build_A8(_mode(delta=None), 0.5)
    with pytest.raises(ValueError):
        radial.RadialSystem(mode=_mode(delta=None), dimension=8)
    with pytest.raises(ValueError):
        radial.ConstraintSet(_mode(delta=None))
    with pytest.raises(ValueError):
        radial.constraint_matrix(_mode(delta=None), 0.5)
    with pytest.raises(ValueError):
        radial.parity_embed(0)


# ---------------------------------------------------------------------------
# the cached coefficient stacks against the per-table formulas
# ---------------------------------------------------------------------------

_SIGN16 = np.array([1] * 4 + [-1] * 4 + [-1] * 4 + [1] * 4)
_SIGN8 = np.array([1] * 4 + [-1] * 4)


def _per_table(tables, scalars, sign):
    """Row sum i s_k (E M_E + i T M_T + i/sin M_S + i/tan M_iT + m M_m), table by table."""
    me, mt, ms, mit, mm = tables
    e, t, inv_s, inv_t, m = scalars
    r = e * me + 1j * t * mt + 1j * inv_s * ms + 1j * inv_t * mit + m * mm
    return (1j * sign)[:, None] * r


def _scalar_weights(eps, mass, omega):
    s, c, t = np.sin(omega), np.cos(omega), np.tan(omega)
    values = (eps / c, t, 1.0 / s, 1.0 / t, mass)
    derivatives = (eps * t / c, 1.0 / c**2, -c / s**2, -1.0 / s**2, 0.0)
    return values, derivatives


def _rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


_STACK_CASES = [
    (j, delta, omega, eps, mass)
    for j in (0.5, 1.5, 2.5)
    for delta in (1, -1)
    for omega, eps, mass in ((0.07, 1.3 + 0.2j, 0.7), (0.8, -2.1, 0.0), (1.5, 0.4, 2.6))
]


@pytest.mark.parametrize("j, delta, omega, eps, mass", _STACK_CASES)
def test_stack_products_match_per_table_formula(j, delta, omega, eps, mass):
    mode = _mode(j=j, eps=eps, mass=mass, delta=delta)
    t16 = radial._coefficient_tables_16(mode.two_j)
    t8 = [t[:8] @ radial.parity_embed(delta) for t in t16]
    values, derivatives = _scalar_weights(eps, mass, omega)
    assert _rel(radial.build_A16(mode, omega), _per_table(t16, values, _SIGN16)) <= 1e-15
    assert _rel(radial.build_A8(mode, omega), _per_table(t8, values, _SIGN8)) <= 1e-15
    assert _rel(build_dA8(mode, omega), _per_table(t8, derivatives, _SIGN8)) <= 1e-15
    for dim, tables, sign in ((8, t8, _SIGN8), (16, t16, _SIGN16)):
        origin, horizon = radial.singular_residues(mode, dim)
        assert _rel(origin, _per_table(tables, (0, 0, 1, 1, 0), sign)) <= 1e-15
        assert _rel(horizon, _per_table(tables, (-eps, -1, 0, 0, 0), sign)) <= 1e-15
        constants = {"origin": (eps, 0, 0, 0, mass), "horizon": (0, 0, 1, 0, mass)}
        for endpoint, constant in constants.items():
            subleading = radial.RadialSystem(mode, dim).laurent(endpoint)[1]
            assert _rel(subleading, _per_table(tables, constant, sign)) <= 1e-15


def _divergence_rows(mode, scalars):
    """Non-derivative parts of the divergence rows, entry by entry."""
    co = mode.coefficients()
    a, b = co.a, co.b
    e, t, inv_s, inv_t, _ = scalars
    slope = inv_t - t / 2.0
    l1 = np.zeros(8, dtype=complex)
    l1[0] = -1j * e - t / 2.0
    l1[2] = -slope
    l1[5] = -inv_t / np.sqrt(2.0)
    l1[1] = -b * inv_s / np.sqrt(2.0)
    l1[3] = -a * inv_s / np.sqrt(2.0)
    l2 = np.zeros(8, dtype=complex)
    l2[4] = -1j * e + t / 2.0
    l2[6] = -slope
    l2[3] = -inv_t / np.sqrt(2.0)
    l2[5] = -a * inv_s / np.sqrt(2.0)
    l2[7] = -b * inv_s / np.sqrt(2.0)
    return l1, l2


@pytest.mark.parametrize("j, delta, omega, eps, mass", _STACK_CASES)
def test_constraint_stack_matches_row_formula(j, delta, omega, eps, mass):
    mode = _mode(j=j, eps=eps, mass=mass, delta=delta)
    values, derivatives = _scalar_weights(eps, mass, omega)
    r2 = 1.0 / np.sqrt(2.0)
    expected = np.zeros((4, 8), dtype=complex)
    expected[0, [5, 0, 2]] = (1.0, -r2, -r2)
    expected[1, [3, 6, 4]] = (1.0, -r2, r2)
    a8 = radial.build_A8(mode, omega)
    l1, l2 = _divergence_rows(mode, values)
    expected[2], expected[3] = l1 - a8[2], l2 - a8[6]
    assert _rel(radial.constraint_matrix(mode, omega), expected) <= 1e-15

    expected_d = np.zeros((4, 8), dtype=complex)
    da8 = build_dA8(mode, omega)
    dl1, dl2 = _divergence_rows(mode, derivatives)
    expected_d[2], expected_d[3] = dl1 - da8[2], dl2 - da8[6]
    assert _rel(radial.ConstraintSet(mode).derivatives(omega)[0], expected_d) <= 1e-15


def pointwise_residuals(c, y):
    """|C_k . y| / (|C_k| |y|) of each row of c, one point at a time; zero for y = 0."""
    ynorm = np.linalg.norm(y)
    if ynorm == 0.0:
        return np.zeros(len(c))
    return np.abs(c @ y) / (np.linalg.norm(c, axis=1) * ynorm)


def test_residuals_many_matches_pointwise():
    rng = np.random.default_rng(21)
    for j in (0.5, 1.5, 2.5):
        for delta in (1, -1):
            cons = radial.ConstraintSet(mode=_mode(j=j, eps=1.3 + 0.1j, mass=0.7, delta=delta))
            omegas = rng.uniform(0.02, 1.55, 300)  # more than one block
            states = rng.standard_normal((300, 8)) + 1j * rng.standard_normal((300, 8))
            for k in range(20):  # on the constraint surface: residuals from cancellation
                _, _, vh = np.linalg.svd(cons.matrix(omegas[k]))
                null = vh[4:].conj().T
                states[k] = null @ (null.conj().T @ states[k])
            states[-1] = 0.0
            batch = cons.residuals_many(omegas, states)
            pointwise = np.array(
                [pointwise_residuals(cons.matrix(w), y) for w, y in zip(omegas, states)]
            )
            single = np.array([cons.residuals(w, y) for w, y in zip(omegas, states)])
            assert batch.shape == single.shape == (300, 4)
            assert np.abs(batch - pointwise).max() <= 1e-15
            assert np.abs(single - pointwise).max() <= 1e-15
            assert np.abs(batch[-1]).max() == 0.0
    with pytest.raises(ValueError):
        cons.residuals_many([0.3, 1.6], np.ones((2, 8)))


def test_returned_matrices_are_fresh_copies():
    mode = _mode(j=1.5, delta=-1)
    calls = (
        lambda: radial.build_A8(mode, 0.6),
        lambda: radial.build_A16(mode, 0.6),
        lambda: build_dA8(mode, 0.6),
        lambda: radial.constraint_matrix(mode, 0.6),
        lambda: radial.ConstraintSet(mode).derivatives(0.6)[0],
        lambda: radial.flow_mixing(mode, 0.6)[0],
        lambda: radial.singular_residues(mode)[1],
    )
    for call in calls:
        first = call()
        kept = first.copy()
        first[...] = 99.0
        assert np.array_equal(call(), kept)
    with pytest.raises(ValueError):
        radial._system_stack(mode.two_j, mode.delta, 8)[0, 0] = 1.0


def test_table_cache_is_bounded_by_j_and_delta():
    radial._system_stack.cache_clear()
    radial._constraint_stack.cache_clear()
    rng = np.random.default_rng(4)
    for eps, mass in zip(rng.uniform(-3, 3, 200), rng.uniform(0, 3, 200)):
        for j in (0.5, 1.5, 2.5):
            for delta in (1, -1):
                mode = _mode(j=j, eps=eps, mass=mass, delta=delta)
                radial.build_A8(mode, 0.9)
                radial.constraint_matrix(mode, 0.9)
    assert radial._system_stack.cache_info().currsize <= 6
    assert radial._constraint_stack.cache_info().currsize <= 6


@pytest.mark.parametrize("j", (0.5, 1.5, 2.5))
def test_batched_matrices_match_single_point_route(j):
    # every slice against the table-by-table formula at its own omega
    omegas = np.array([0.013, 0.3, 0.7, 1.1, 1.5, 1.557])
    eps, mass = 1.3 - 0.6j, 0.7
    t16 = radial._coefficient_tables_16(int(2 * j))
    for delta, dim in ((1, 8), (-1, 8), (None, 16)):
        if dim == 16:
            tables, sign = t16, _SIGN16
        else:
            tables, sign = [t[:8] @ radial.parity_embed(delta) for t in t16], _SIGN8
        mode = _mode(j=j, eps=eps, mass=mass, delta=delta)
        batch = radial.RadialSystem(mode=mode, dimension=dim).matrices(omegas)
        assert batch.shape == (len(omegas), dim, dim)
        for omega, a in zip(omegas, batch):
            values, _ = _scalar_weights(eps, mass, omega)
            assert _rel(a, _per_table(tables, values, sign)) <= 1e-15, (j, delta, omega)


def test_batched_matrices_parity_mass_duality_exact():
    rng = np.random.default_rng(8)
    omegas = rng.uniform(0.05, 1.5, 5)
    for j in (0.5, 1.5, 2.5):
        for eps, mass in zip(rng.uniform(-3, 3, 5) + 0.3j, rng.uniform(0, 3, 5)):
            minus = radial.RadialSystem(_mode(j=j, eps=eps, mass=mass, delta=-1)).matrices(omegas)
            plus = radial.RadialSystem(_mode(j=j, eps=eps, mass=-mass, delta=1)).matrices(omegas)
            assert np.array_equal(plus, minus)


def test_batched_matrices_reject_out_of_range_omegas():
    system = radial.RadialSystem(_mode(delta=1))
    for bad in ([0.3, 0.0], [np.pi / 2, 0.3], [-0.1], [0.4, np.nan], [2.0]):
        with pytest.raises(ValueError):
            system.matrices(np.array(bad))


def test_single_points_and_batches_reject_out_of_range_omegas():
    mode = _mode(delta=1)
    batch = radial.SystemBatch.of([radial.RadialSystem(mode)] * 2)
    for bad in (0.0, np.pi / 2, -0.1, np.nan, 2.0):
        for omega in (bad, np.float64(bad)):
            with pytest.raises(ValueError):
                radial.build_A8(mode, omega)
            with pytest.raises(ValueError):
                radial.constraint_matrix(mode, omega)
        with pytest.raises(ValueError):
            batch.matrices(np.array([[0.3, 0.4], [0.5, bad]]))


def test_system_batch_matches_each_member():
    rng = np.random.default_rng(17)
    for dim in (8, 16):
        systems = [
            radial.RadialSystem(
                ModeLabel(j=j, m_j=0.5, eps=eps, mass=mass, delta=delta if dim == 8 else None),
                dimension=dim,
            )
            for j, eps, mass, delta in (
                (0.5, 1.3, 0.7, 1), (1.5, 0.4 + 0.9j, -1.2, -1), (2.5, -2.0 + 0.1j, 0.0, 1),
                (1.5, 1.3, 0.7, 1),
            )
        ]
        omegas = rng.uniform(1e-3, 1.57, (len(systems), 5))
        batch = radial.SystemBatch.of(systems)
        got = batch.matrices(omegas)
        assert got.shape == (len(systems), 5, dim, dim)
        for b, system in enumerate(systems):
            assert np.array_equal(batch.stacks[b], system.stack)
            assert np.array_equal(got[b], system.matrices(omegas[b]))
        taken = batch.take([3, 0])
        assert np.array_equal(taken.matrices(omegas[[3, 0]]), got[[3, 0]])
    with pytest.raises(ValueError):
        radial.SystemBatch.of([])


def test_batched_matrices_share_the_stack_cache():
    radial._system_stack.cache_clear()
    rng = np.random.default_rng(6)
    omegas = np.array([0.2, 0.9])
    for eps, mass in zip(rng.uniform(-3, 3, 50), rng.uniform(0, 3, 50)):
        for j in (0.5, 1.5, 2.5):
            for delta, dim in ((1, 8), (-1, 8), (1, 16)):
                mode = _mode(j=j, eps=eps, mass=mass, delta=delta)
                radial.RadialSystem(mode=mode, dimension=dim).matrices(omegas)
    assert radial._system_stack.cache_info().currsize <= 9


def test_systems_hold_their_cached_read_only_stack():
    for j in (0.5, 1.5, 2.5):
        for delta in (1, -1):
            mode = _mode(j=j, eps=1.3 - 0.2j, mass=0.7, delta=delta)
            for dim, key in ((8, delta), (16, None)):
                system = radial.RadialSystem(mode, dim)
                assert system.stack is radial._system_stack(mode.two_j, key, dim)
                assert not system.stack.flags.writeable
            cons = radial.ConstraintSet(mode)
            assert cons.stack is radial._constraint_stack(mode.two_j, delta)
            assert not cons.stack.flags.writeable


def test_systems_of_one_mode_compare_and_hash_equal():
    for dim in (8, 16):
        first, second = (radial.RadialSystem(_mode(delta=1), dim) for _ in range(2))
        assert first == second and hash(first) == hash(second)
        assert first != radial.RadialSystem(_mode(delta=1, mass=0.6), dim)
        assert "stack" not in repr(first)
    first, second = (radial.ConstraintSet(_mode(delta=-1)) for _ in range(2))
    assert first == second and hash(first) == hash(second)
    assert first != radial.ConstraintSet(_mode(delta=1))


def test_constraint_matrices_match_single_points():
    cons = radial.ConstraintSet(_mode(j=2.5, eps=0.9 + 0.25j, mass=0.7, delta=-1))
    omegas = np.array([0.013, 0.4, 0.9, 1.3, 1.557])
    batch = cons.matrices(omegas)
    assert batch.shape == (len(omegas), 4, 8)
    for omega, c in zip(omegas, batch):
        assert np.array_equal(c, cons.matrix(omega))
        assert np.array_equal(c, radial.constraint_matrix(cons.mode, omega))


def test_angular_route_reads_no_system_stack():
    radial._system_stack.cache_clear()
    radial.assemble_from_angular(_mode(j=1.5), 0.7)
    info = radial._system_stack.cache_info()
    assert info.hits == info.misses == 0


def _gamma3_amplitude_map():
    """Amplitude-level action of gamma^3 on assembled states, entry by entry."""
    g3 = np.zeros((16, 16))
    for l in range(4):
        g3[0 + l, 8 + l] = -1.0
        g3[4 + l, 12 + l] = 1.0
        g3[8 + l, 0 + l] = 1.0
        g3[12 + l, 4 + l] = -1.0
    return g3


def test_angular_operator_table_is_built_once_and_read_only():
    table = radial._angular_operators()
    assert radial._angular_operators() is table
    assert table.shape == (6, 16, 16) and not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0, 0] = 1.0
    g0, g1, g2, _ = (algebra.gamma_matrix(a) for a in range(4))
    t1, t2, _ = algebra.tilde_spin_matrices()
    eye4 = np.eye(4)
    expected = (
        np.kron(g0, eye4), np.kron(g1, t2) - np.kron(g2, t1),
        np.kron(g0, algebra.tilde_generator(0, 3)), np.kron(g1, eye4), np.kron(g2, eye4),
        -1j * _gamma3_amplitude_map(),
    )
    for entry, value in zip(table, expected):
        assert np.array_equal(entry, value)


def _assemble_from_angular_by_kron(mode, omega):
    """The angular route with every operator rebuilt by np.kron, as it was per call."""
    pt = RadialPoint.from_omega(omega)
    r, sq, p = pt.r, pt.sqrt_phi, pt.phi_metric
    thetas, phis = ansatz.projection_angles()
    t1, t2, _ = algebra.tilde_spin_matrices()
    g0, g1, g2 = (algebra.gamma_matrix(a) for a in range(3))
    eye4 = np.eye(4)
    m_alg = (
        (mode.eps / sq) * np.kron(g0, eye4)
        + (sq / r) * (np.kron(g1, t2) - np.kron(g2, t1))
        + 1j * sq * (pt.phi_prime / (2.0 * p)) * np.kron(g0, algebra.tilde_generator(0, 3))
        - mode.mass * np.eye(16)
    )
    s1, s2 = np.kron(g1, eye4), np.kron(g2, eye4)
    values, dtheta, mixed = ansatz.slot_table(mode, thetas, phis)
    samples = m_alg[:, :, None] * values + (1.0 / r) * (
        1j * s1[:, :, None] * dtheta + s2[:, :, None] * mixed
    )
    b, _ = ansatz.project_to_amplitudes(mode, samples, thetas, phis)
    return -1j * _gamma3_amplitude_map() @ b


def test_angular_route_equals_the_per_call_kron_route_bitwise():
    rng = np.random.default_rng(19)
    for j in (0.5, 1.5, 2.5):
        for m_j in dict.fromkeys((0.5, -0.5, j)):
            mode = ModeLabel(j=j, m_j=m_j, eps=complex(rng.uniform(0.5, 2.0), 0.2),
                             mass=rng.uniform(0.0, 1.5))
            for omega in (0.4, 0.9, 1.3):
                fast = radial.assemble_from_angular(mode, omega)
                assert fast.tobytes() == _assemble_from_angular_by_kron(mode, omega).tobytes()
