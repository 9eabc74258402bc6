"""Exact symbolic certificates of the reduced radial system, for every j at once.

The file carries its own sympy transcription of the five coefficient
tables, the parity embedding, the constraint rows and the flow mixing
Lambda, with the ladder coefficients a and b as symbols.  It imports none
of them from ``radial``: they are what it checks.  The transcription is
compared entry by entry with the cached stacks at a few j; the identities
are then proved for symbolic a, eps, m and omega, with sin and cos as the
symbols s, c, so d/domega = c d/ds - s d/dc.  A numerator vanishes on
b^2 = a^2 - 1 and s^2 + c^2 = 1 exactly when its remainder modulo those two
polynomials (a Groebner basis: their leading terms b^2, c^2 are coprime)
is zero.
"""

import numpy as np
import pytest

from rsdesitter import radial
from rsdesitter.ansatz import ModeLabel

sp = pytest.importorskip("sympy", reason="the symbolic proofs need sympy")

a, b, eps, m, s, c = sp.symbols("a b eps m s c")
# the five scalars (E, T, 1/sin, 1/tan, m) that weight the constant tables
SCALARS = sp.symbols("E T S Ti M")
E, T, S, TI, M = SCALARS
ON_OMEGA = {E: eps / c, T: s / c, S: 1 / s, TI: c / s, M: m}
RELATIONS = [b**2 - a**2 + 1, s**2 + c**2 - 1]
R2 = sp.sqrt(2)

NAMES = [f"{x}{l}" for x in ("f", "g", "h", "nu") for l in range(4)]
IDX = {name: k for k, name in enumerate(NAMES)}
PARTNER = (0, 3, 2, 1)


def system16():
    """The 16 rows X_k' = i s_k (E X_k + i T t_k + i S q_k + i Ti r_k + M n_k).

    s_k = +1 on the f and nu rows, -1 on g and h.  In the xi half (f rows
    coupled to g) the couplings are t: f0 <-> f2, g0 <-> g2; q: f_l -> +k_l g_l,
    g_l -> -k_l f_l with k = (a, b, a, b); r: f2 -> +sqrt2 g1, f3 -> +sqrt2 g2,
    g1 -> -sqrt2 f2, g2 -> -sqrt2 f3.  The eta half (h rows coupled to nu)
    has the same t and the q, r signs reversed.  The mass couples each f_l
    with h_l and each g_l with nu_l, weight -1 both ways.
    """
    rows = {name: sp.Integer(0) for name in NAMES}
    x = {name: sp.Symbol(name) for name in NAMES}
    ladder = (a, b, a, b)
    for up, down, sgn in (("f", "g", 1), ("h", "nu", -1)):
        for p, q in ((0, 2), (2, 0)):
            rows[f"{up}{p}"] += sp.I * T * x[f"{up}{q}"]
            rows[f"{down}{p}"] += sp.I * T * x[f"{down}{q}"]
        for l in range(4):
            rows[f"{up}{l}"] += sp.I * S * sgn * ladder[l] * x[f"{down}{l}"]
            rows[f"{down}{l}"] -= sp.I * S * sgn * ladder[l] * x[f"{up}{l}"]
        for p, q in ((2, 1), (3, 2)):
            rows[f"{up}{p}"] += sp.I * TI * sgn * R2 * x[f"{down}{q}"]
            rows[f"{down}{q}"] -= sp.I * TI * sgn * R2 * x[f"{up}{p}"]
    for l in range(4):
        for p, q in (("f", "h"), ("g", "nu")):
            rows[f"{p}{l}"] -= M * x[f"{q}{l}"]
            rows[f"{q}{l}"] -= M * x[f"{p}{l}"]
    sign = {"f": 1, "nu": 1, "g": -1, "h": -1}
    return sp.Matrix(
        [
            [sp.I * sign[name.rstrip("0123")] * sp.expand(E * x[name] + rows[name]).coeff(x[col])
             for col in NAMES]
            for name in NAMES
        ]
    )


def embedding(delta):
    """16x8 P: Y = (f, g) -> X with h_l = delta g_p(l), nu_l = delta f_p(l)."""
    P = sp.zeros(16, 8)
    for l in range(4):
        P[IDX[f"f{l}"], l] = 1
        P[IDX[f"g{l}"], 4 + l] = 1
        P[IDX[f"h{l}"], 4 + PARTNER[l]] = delta
        P[IDX[f"nu{l}"], PARTNER[l]] = delta
    return P


def system8(delta):
    """The reduced 8x8 matrix: the f and g rows of the 16-row system on P_delta."""
    return system16()[:8, :] * embedding(delta)


def constraint_rows(delta):
    """C: the two gamma-trace rows, then the divergence relations minus the f2 and g2 rows."""
    C = sp.zeros(4, 8)
    C[0, 5], C[0, 0], C[0, 2] = 1, -1 / R2, -1 / R2
    C[1, 3], C[1, 6], C[1, 4] = 1, -1 / R2, 1 / R2
    slope = TI - T / 2
    l1 = {0: -sp.I * E - T / 2, 2: -slope, 1: -b * S / R2, 3: -a * S / R2, 5: -TI / R2}
    l2 = {4: -sp.I * E + T / 2, 6: -slope, 5: -a * S / R2, 7: -b * S / R2, 3: -TI / R2}
    a8 = system8(delta)
    for row, (terms, eliminated) in enumerate(((l1, 2), (l2, 6)), start=2):
        for col in range(8):
            C[row, col] = terms.get(col, 0) - a8[eliminated, col]
    return C


def flow_mixing(delta):
    """Lambda = [[L, sqrt2 I], [-(3/sqrt2) I, -L]] with m_eff = delta * m."""
    L = sp.Matrix([[-sp.I * E, a * S + sp.I * delta * M], [a * S - sp.I * delta * M, sp.I * E]])
    return sp.Matrix(sp.BlockMatrix([[L, R2 * sp.eye(2)], [-3 / R2 * sp.eye(2), -L]]))


def d_omega(expr):
    return sp.diff(expr, s) * c - sp.diff(expr, c) * s


def vanishes_on_the_relations(expr) -> bool:
    numerator = sp.numer(sp.together(sp.expand(expr)))
    _, remainder = sp.reduced(sp.expand(numerator), RELATIONS, b, c, s, a, eps, m)
    return remainder == 0


def _tables(matrix, values):
    """(5, rows, cols) complex weights of (E, T, 1/sin, 1/tan, m), at numeric a and b."""
    return np.array(
        [np.array(matrix.diff(x).subs(values), dtype=complex) for x in SCALARS]
    )


# ---------------------------------------------------------------------------
# the transcription against the cached stacks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("two_j", [1, 3, 7, 23])
@pytest.mark.parametrize("delta", [1, -1])
def test_transcription_matches_the_cached_stacks(two_j, delta):
    mode = ModeLabel(j=two_j / 2, m_j=0.5, eps=1.3 + 0.4j, mass=0.7, delta=delta)
    co = mode.coefficients()
    values = {a: co.a, b: co.b}
    a8, cons = system8(delta), constraint_rows(delta)
    stack8 = radial.RadialSystem(mode, 8).stack.reshape(5, 8, 8)
    assert np.abs(_tables(a8, values) - stack8).max() <= 1e-15
    stack_c = radial.ConstraintSet(mode).stack.reshape(5, 4, 8)
    assert np.abs(_tables(cons, values) - stack_c).max() <= 1e-15

    # whole matrices at a point: the constant trace rows and the scalar weights too
    omega = 0.7
    point = dict(values)
    point.update({k: v.subs({eps: mode.eps, m: mode.mass, s: np.sin(omega), c: np.cos(omega)})
                  for k, v in ON_OMEGA.items()})
    for symbolic, numeric in (
        (a8, radial.RadialSystem(mode, 8).matrix(omega)),
        (cons, radial.ConstraintSet(mode).matrix(omega)),
        (flow_mixing(delta), radial.flow_mixing(mode, omega)[0]),
    ):
        expected = np.array(symbolic.subs(point).evalf(), dtype=complex)
        assert np.abs(expected - numeric).max() <= 1e-13 * max(np.abs(numeric).max(), 1.0)


# ---------------------------------------------------------------------------
# proofs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("delta", [1, -1])
def test_constraint_surface_is_flow_invariant_for_every_j(delta):
    C = constraint_rows(delta).subs(ON_OMEGA)
    A = system8(delta).subs(ON_OMEGA)
    residual = d_omega(C) + C * A - flow_mixing(delta).subs(ON_OMEGA) * C
    failed = [(i, j) for i in range(4) for j in range(8)
              if not vanishes_on_the_relations(residual[i, j])]
    assert failed == []


def test_the_proof_needs_the_ladder_relation():
    # off b^2 = a^2 - 1 the same Lambda does not close the flow
    C = constraint_rows(1).subs(ON_OMEGA)
    residual = d_omega(C) + C * system8(1).subs(ON_OMEGA) - flow_mixing(1).subs(ON_OMEGA) * C
    point = {a: sp.Rational(7, 2), b: sp.Rational(17, 10), eps: sp.Rational(13, 10),
             m: sp.Rational(7, 10), s: sp.Rational(3, 5), c: sp.Rational(4, 5)}
    assert max(abs(complex(v)) for v in residual.subs(point)) > 1e-3


def test_parity_sign_is_the_sign_of_the_mass():
    for build in (system8, constraint_rows):
        flipped = build(-1) - build(1).subs(M, -M)
        assert sp.expand(flipped) == sp.zeros(*flipped.shape)


@pytest.mark.parametrize("delta", [1, -1])
def test_embedding_intertwines_the_full_and_reduced_systems(delta):
    P = embedding(delta)
    assert sp.expand(system16() * P - P * system8(delta)) == sp.zeros(16, 8)
