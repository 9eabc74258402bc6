"""Spherical-wave substitution for the 16-component vector-bispinor field.

A mode is labelled by total momentum j, its projection m_j, dimensionless
energy eps and mass, and (optionally) the inversion sign delta.  The field
value at a point factorizes into sixteen radial amplitudes

    X = (f0..f3, g0..g3, h0..h3, nu0..nu3)

times fixed angular functions: slot 4*s + l carries the Wigner function
D_sigma with helicity label

    sigma = (-1/2, -3/2, -1/2, +1/2)  on the upper spinor rows (f, h),
    sigma = (+1/2, -1/2, +1/2, +3/2)  on the lower spinor rows (g, nu),

l being the cyclic vector index.  At j = 1/2 the |sigma| = 3/2 slots do not
exist and the amplitudes f1, g3, h1, nu3 are forced to zero.

The ``verify_*`` operations apply each matrix or differential operator of
the separated wave equation directly to an assembled state and compare
against the closed slot-by-slot reduction formulas; they are the numerical
adjudicators for every coefficient of the radial system.  Where a printed
transcription of a reduction disagrees with the direct matrix action, the
corrected form is implemented here and the discrepancy is recorded in
:data:`ADJUDICATIONS`.

Every angular value is read from one table: :func:`slot_functions` holds
D_sigma and its theta-derivative for sigma = -5/2 .. 5/2, the rows of one
:func:`rsdesitter.wigner.d_rows` call (the package's one product of Wigner
weight rows with the power basis) times exp(i m_j phi).  Each check builds
that table once per sample angle.  Each closed-form reduction is one module-level tuple of (slot, source amplitude,
coefficient, 2 sigma) terms, so every choice in :data:`ADJUDICATIONS` is a
visible entry, and one evaluator reads them all against the table.

The constant 8x8 operators on the upper (xi) block are built once per
process, on first use, as one read-only table.  The constraint checks read
the four spherical bispinors Psi_l off an assembled field in one
contraction of its (bispinor row, cyclic index) reshape with U^{-1}.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import algebra, wigner
from .geometry import RadialPoint, connections, tetrad_divergences
from .wigner import _doubled, angular_coefficients, mixed_weight
from .wigner import wigner_d, wigner_d_dtheta  # noqa: F401  (bench/spans.py wraps these names)

# doubled helicity labels per slot, bispinor-major ordering
SLOT_TWO_SIGMA = np.array(
    [-1, -3, -1, 1, 1, -1, 1, 3, -1, -3, -1, 1, 1, -1, 1, 3], dtype=int
)
SLOT_TWO_SIGMA.flags.writeable = False

# a slot-function table holds helicities -5/2 .. 5/2; slot k reads row _SLOT_ROW[k]
_TABLE_TWO_SIGMA = (-5, -3, -1, 1, 3, 5)
_SLOT_ROW = (SLOT_TWO_SIGMA + 5) // 2

AMPLITUDE_NAMES = tuple(
    f"{grp}{l}" for grp in ("f", "g", "h", "nu") for l in range(4)
)

@dataclass(frozen=True)
class ModeLabel:
    """Quantum numbers of one spherical mode."""

    j: float
    m_j: float
    eps: complex = 0.0
    mass: float = 0.0
    delta: int | None = None

    def __post_init__(self) -> None:
        wigner._validate_jm(self.two_j, self.two_m, "m_j")
        if self.delta not in (None, 1, -1):
            raise ValueError(f"delta must be +1, -1 or None, got {self.delta}")
        if not np.isfinite(self.eps):
            raise ValueError(f"eps must be finite, got {self.eps}")
        if not np.isfinite(self.mass):
            raise ValueError(f"mass must be finite, got {self.mass}")

    @functools.cached_property
    def two_j(self) -> int:
        return _doubled(self.j, "j")

    @functools.cached_property
    def two_m(self) -> int:
        return _doubled(self.m_j, "m_j")

    def coefficients(self) -> wigner.AngularCoefficients:
        return angular_coefficients(self.j)


def forced_zero_slots(mode: ModeLabel) -> np.ndarray:
    """Amplitude indices whose angular functions do not exist at this j."""
    return np.nonzero(np.abs(SLOT_TWO_SIGMA) > mode.two_j)[0]


def validate_state(mode: ModeLabel, state: np.ndarray) -> np.ndarray:
    state = np.asarray(state, dtype=complex)
    if state.shape != (16,):
        raise ValueError(f"state must have 16 amplitudes, got shape {state.shape}")
    if not np.all(np.isfinite(state)):
        raise ValueError("state amplitudes must be finite")
    bad = [k for k in forced_zero_slots(mode) if state[k] != 0]
    if bad:
        names = ", ".join(AMPLITUDE_NAMES[k] for k in bad)
        raise ValueError(f"amplitudes {names} must vanish at j = {mode.j}")
    return state


def random_state(mode: ModeLabel, rng: np.random.Generator) -> np.ndarray:
    """Amplitudes drawn uniformly from the unit disc, zero pattern imposed."""
    rad = np.sqrt(rng.uniform(0.0, 1.0, 16))
    ang = rng.uniform(0.0, 2 * np.pi, 16)
    state = rad * np.exp(1j * ang)
    state[forced_zero_slots(mode)] = 0.0
    return state


def slot_functions(mode: ModeLabel, theta, phi) -> np.ndarray:
    """exp(i m phi) d^j_{-m, sigma}(theta) and its theta-derivative for sigma = -5/2 .. 5/2.

    theta and phi are scalars or arrays of one shape.  Returns one table of
    shape (2, 6) + that shape, values first, then derivatives: the rows of
    :func:`~rsdesitter.wigner.d_rows` times the phase.  Row
    (2 sigma + 5) // 2 holds helicity sigma, so slot k reads row
    ``_SLOT_ROW[k]``.  A helicity with |sigma| > j has no function at this
    j and gives zero rows.
    """
    theta, phi = np.broadcast_arrays(np.asarray(theta, dtype=float), np.asarray(phi, dtype=float))
    phase = np.exp(1j * mode.m_j * phi)
    return wigner.d_rows(mode.two_j, -mode.two_m, _TABLE_TWO_SIGMA, theta) * phase


def slot_table(mode: ModeLabel, theta, phi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three angular factors of the separated operator on every slot.

    Returns (D, d_theta D, W D) over the sixteen slots, each of shape
    (16,) + shape of theta, where W = (i d_phi + S~3 cos theta)/sin theta
    and the diagonal spin projection S~3 is -sigma on each slot, so W is
    :func:`~rsdesitter.wigner.mixed_weight`.  Forced-zero slots give zero
    rows.  theta must lie inside (0, pi).
    """
    values, dtheta = slot_functions(mode, theta, phi)[:, _SLOT_ROW]
    sigma = (SLOT_TWO_SIGMA / 2.0).reshape((16,) + (1,) * np.ndim(theta))
    return values, dtheta, mixed_weight(mode.m_j, sigma, theta) * values


def assemble(mode: ModeLabel, state: np.ndarray, theta: float, phi: float) -> np.ndarray:
    """Field value Phi(theta, phi): amplitude times slot angular function."""
    state = validate_state(mode, state)
    return state * slot_functions(mode, theta, phi)[0, _SLOT_ROW]


def _closed_form(terms, values: np.ndarray, amplitudes: np.ndarray) -> np.ndarray:
    """Field vector of a closed-form reduction, from the value rows of one table.

    Each (slot, source, coefficient, 2 sigma) term adds coefficient *
    amplitudes[source] * D_sigma to its slot, in the order listed.  The
    products are taken as arrays: a scalar complex product can round
    differently.
    """
    slots, sources, coefs, two_sigmas = map(np.array, zip(*terms))
    out = np.zeros(16, dtype=complex)
    np.add.at(out, slots, coefs * amplitudes[sources] * values[(two_sigmas + 5) // 2])
    return out


# ---------------------------------------------------------------------------
# operator verifications on the upper (xi) 8-block
# ---------------------------------------------------------------------------

@functools.cache
def _xi_operators() -> np.ndarray:
    """Read-only (5, 8, 8) stack of the constant xi-block operators, built on first use.

    In order: sigma_1 x T~2, -sigma_2 x T~1, 1 x T~03, sigma_1 x 1 and
    sigma_2 x 1.
    """
    t1, t2, _ = algebra.tilde_spin_matrices()
    s1, s2 = algebra.pauli(1), algebra.pauli(2)
    eye2, eye4 = np.eye(2), np.eye(4)
    table = np.stack(
        [
            np.kron(s1, t2), -np.kron(s2, t1), np.kron(eye2, algebra.tilde_generator(0, 3)),
            np.kron(s1, eye4), np.kron(s2, eye4),
        ]
    )
    table.flags.writeable = False
    return table


# Closed-form reductions: (slot, source amplitude, coefficient, 2 sigma)
# terms, read by _closed_form.  Sources 0-3 are f0..f3, 4-7 are g0..g3.
_C = 1j / np.sqrt(2.0)
_C2 = 1j * np.sqrt(2.0)
# sigma_1 x T~2: the +-1-helicity slots feed the spin-0 slot and back
_LADDER_T2_TERMS = (
    (1, 6, -_C, 1), (2, 5, _C, -1), (2, 7, -_C, 3), (3, 6, _C, 1),
    (5, 2, -_C, -1), (6, 1, _C, -3), (6, 3, -_C, 1), (7, 2, _C, -1),
)
# -sigma_2 x T~1
_LADDER_T1_TERMS = (
    (1, 6, _C, 1), (2, 5, _C, -1), (2, 7, _C, 3), (3, 6, _C, 1),
    (5, 2, -_C, -1), (6, 1, -_C, -3), (6, 3, -_C, 1), (7, 2, -_C, -1),
)
# their sum: only four slots survive; the second lower source is f3 (the g3
# of one printed transcription fails the direct action)
_LADDER_SUM_TERMS = ((2, 5, _C2, -1), (3, 6, _C2, 1), (5, 2, -_C2, -1), (6, 3, -_C2, 1))
# 1 x T~03, on sources already scaled by the boost prefactor: minus signs on
# both components (the plus variant of one printed transcription fails the
# direct action)
_BOOST_TERMS = ((2, 0, -1, -1), (0, 2, -1, -1), (6, 4, -1, 1), (4, 6, -1, 1))
# angular operator, on sources scaled by the ladder coefficient a (X0, X2)
# or b (X1, X3): the spin-0 lower slot takes -a f2 (the +a f2 of one
# printed transcription fails the direct action)
_ANGULAR_TERMS = (
    (0, 4, 1j, -1), (1, 5, 1j, -3), (2, 6, 1j, -1), (3, 7, 1j, 1),
    (4, 0, -1j, 1), (5, 1, -1j, -1), (6, 2, -1j, 1), (7, 3, -1j, 3),
)


def verify_T_action(mode: ModeLabel, state: np.ndarray, theta: float, phi: float) -> dict:
    """Residuals of the spin-ladder reductions on the xi block.

    Applies sigma_1 x T~2 and -sigma_2 x T~1 (and their sum) to the
    assembled upper block and compares with the closed slot formulas.
    """
    state = validate_state(mode, state)
    values = slot_functions(mode, theta, phi)[0]
    xi = state[:8] * values[_SLOT_ROW[:8]]
    m25, m26 = _xi_operators()[:2]
    return {
        name: float(np.abs(mat @ xi - _closed_form(terms, values, state)[:8]).max())
        for name, mat, terms in (
            ("t2_part", m25, _LADDER_T2_TERMS),
            ("t1_part", m26, _LADDER_T1_TERMS),
            ("combined", m25 + m26, _LADDER_SUM_TERMS),
        )
    }


def verify_j03_action(
    mode: ModeLabel, state: np.ndarray, theta: float, phi: float, omega: float
) -> float:
    """Residual of the boost-block reduction on the xi block.

    The boost generator couples the time and spin-0 slots with -1 entries.
    The physical prefactor i phi'/(2 phi) at ``omega`` is included.
    """
    state = validate_state(mode, state)
    pt = RadialPoint.from_omega(omega)
    pref = 1j * pt.phi_prime / (2.0 * pt.phi_metric)
    values = slot_functions(mode, theta, phi)[0]
    xi = state[:8] * values[_SLOT_ROW[:8]]
    expected = _closed_form(_BOOST_TERMS, values, pref * state)
    return float(np.abs((pref * _xi_operators()[2]) @ xi - expected[:8]).max())


def verify_angular_operator(mode: ModeLabel, state: np.ndarray, theta: float, phi: float) -> float:
    """Residual of the angular-operator reduction on the xi block.

    The direct action is i sigma_1 d_theta + sigma_2 (i d_phi + S~3 cos
    theta)/sin theta, the derivatives taken analytically on the slot
    functions.  The closed form carries ladder coefficients (a, b).
    """
    state = validate_state(mode, state)
    if not 0.0 < theta < np.pi:
        raise ValueError(f"theta must be interior to (0, pi), got {theta}")
    table = slot_functions(mode, theta, phi)
    values, dtheta = table[:, _SLOT_ROW[:8]]
    mixed = mixed_weight(mode.m_j, SLOT_TWO_SIGMA[:8] / 2.0, theta) * values
    s1, s2 = _xi_operators()[3:5]
    direct = 1j * (s1 @ (state[:8] * dtheta)) + s2 @ (state[:8] * mixed)
    co = mode.coefficients()
    expected = _closed_form(_ANGULAR_TERMS, table[0], state * np.tile((co.a, co.b), 8))
    return float(np.abs(direct - expected[:8]).max())


# ---------------------------------------------------------------------------
# constraints
# ---------------------------------------------------------------------------

def _spherical_bispinors(fields: np.ndarray) -> np.ndarray:
    """Spherical bispinors Psi_l of assembled fields (..., 16), indexed [..., l, row].

    Slot 4*s + k holds row s of the cyclic bispinor psi_k, so a field
    reshapes to [s, k] and Psi_l = sum_k U^{-1}[l, k] psi_k is one
    contraction.  einsum sums over k in order, as the explicit sum does; a
    matmul would round differently.
    """
    cyclic = fields.reshape(fields.shape[:-1] + (4, 4))
    return np.einsum("lk,...sk->...ls", algebra.cyclic_transform_inverse(), cyclic)


@dataclass(frozen=True)
class TraceCheck:
    """Result of contracting the field with the tetrad gamma matrices."""

    field_residual: float
    relations: np.ndarray
    consistency: float


def trace_relations(state: np.ndarray) -> np.ndarray:
    """The four algebraic combinations that the gamma trace reduces to."""
    f, g, h, nu = state[0:4], state[4:8], state[8:12], state[12:16]
    s2 = np.sqrt(2.0)
    return np.array(
        [
            f[0] - s2 * g[1] + f[2],
            g[0] + s2 * f[3] - g[2],
            h[0] + s2 * nu[1] - h[2],
            nu[0] - s2 * h[3] + nu[2],
        ]
    )


# gamma^l Psi_l, row s in slot 4 s, on the sources of trace_relations
_TRACE_TERMS = ((0, 2, 1, -1), (4, 3, 1, 1), (8, 0, 1, -1), (12, 1, 1, 1))


def verify_trace_constraint(
    mode: ModeLabel, state: np.ndarray, theta: float, phi: float
) -> TraceCheck:
    """Evaluate gamma^l Psi_l on the assembled state.

    The contraction vanishes exactly when the four algebraic relations do;
    under the inversion restrictions the eta-side pair coincides with the
    xi-side pair up to the overall sign delta.
    """
    state = validate_state(mode, state)
    values = slot_functions(mode, theta, phi)[0]
    bisp = _spherical_bispinors(state * values[_SLOT_ROW])
    total = sum(algebra.gamma_matrix(l) @ bisp[l] for l in range(4))

    rel = trace_relations(state)
    expected = _closed_form(_TRACE_TERMS, values, rel)[::4]
    return TraceCheck(
        field_residual=float(np.abs(total).max()),
        relations=rel,
        consistency=float(np.abs(total - expected).max()),
    )


@dataclass(frozen=True)
class DivergenceCheck:
    """Brute-force assembly of the covariant-divergence constraint."""

    collapse_residual: float
    relations: np.ndarray
    closed_form: np.ndarray
    residual: float
    printed_variant_residual: float


def divergence_relations(
    mode: ModeLabel, state: np.ndarray, state_deriv: np.ndarray, omega: float
) -> np.ndarray:
    """Closed-form values of the four divergence relations (corrected form).

    Each relation reads, on the (f, g, h, nu) block with upper sign for the
    f/nu rows and lower for g/h,

      -i eps/cos(w) X0 -/+ (tan(w)/2) X0 - X2' - (cot(w) - tan(w)/2) X2
      - cot(w)/sqrt2 * partner1 - (bc1 X1 + ac2 X3)/(sqrt2 sin(w))

    The (cot - tan/2) X2 term is required for the brute-force assembly to
    collapse and for the constraint surface to be flow-invariant; printed
    transcriptions that drop it are recorded in :data:`ADJUDICATIONS`.
    """
    state = validate_state(mode, state)
    dstate = validate_state(mode, state_deriv)
    co = mode.coefficients()
    a, b = co.a, co.b
    s2 = np.sqrt(2.0)
    tw, cw, sw = np.tan(omega), np.cos(omega), np.sin(omega)
    ie = 1j * mode.eps / cw
    slope = 1.0 / tw - tw / 2.0

    f, g, h, nu = state[0:4], state[4:8], state[8:12], state[12:16]
    df2, dg2, dh2, dnu2 = dstate[2], dstate[6], dstate[10], dstate[14]
    return np.array(
        [
            -ie * f[0] - (tw / 2) * f[0] - df2 - slope * f[2]
            - g[1] / (s2 * tw) - (b * f[1] + a * f[3]) / (s2 * sw),
            -ie * g[0] + (tw / 2) * g[0] - dg2 - slope * g[2]
            - f[3] / (s2 * tw) - (a * g[1] + b * g[3]) / (s2 * sw),
            -ie * h[0] + (tw / 2) * h[0] - dh2 - slope * h[2]
            - nu[1] / (s2 * tw) - (b * h[1] + a * h[3]) / (s2 * sw),
            -ie * nu[0] - (tw / 2) * nu[0] - dnu2 - slope * nu[2]
            - h[3] / (s2 * tw) - (a * nu[1] + b * nu[3]) / (s2 * sw),
        ]
    )


def verify_divergence_constraint(
    mode: ModeLabel,
    state: np.ndarray,
    state_deriv: np.ndarray,
    omega: float,
    theta,
    phi,
) -> DivergenceCheck:
    """Assemble the covariant divergence term by term and reduce it.

    Checks that (i) the angular dependence of every bispinor component
    collapses onto the two base helicity functions, and (ii) the collapsed
    coefficients match :func:`divergence_relations`.  theta/phi may be
    scalars (companion angles are added) or equal-length sequences.
    """
    if not 0.0 < omega < 0.5 * np.pi:
        raise ValueError(f"omega must lie in (0, pi/2), got {omega}")
    closed = divergence_relations(mode, state, state_deriv, omega)  # validates both
    state, dstate = np.asarray(state, dtype=complex), np.asarray(state_deriv, dtype=complex)
    thetas = np.atleast_1d(np.asarray(theta, dtype=float))
    phis = np.atleast_1d(np.asarray(phi, dtype=float))
    if thetas.size == 1:
        t0 = thetas[0]
        thetas = np.array([t0, 0.5 * (t0 + np.pi / 2), 0.25 * t0 + 0.55])
        phis = np.array([phis[0], phis[0] + 0.9, phis[0] + 1.7])
    if thetas.shape != phis.shape:
        raise ValueError("theta and phi sample arrays must have equal length")
    if not np.all((thetas > 0.0) & (thetas < np.pi)):
        raise ValueError(f"theta samples must be interior to (0, pi), got {thetas}")

    # one table per angle, stacked [values/derivatives, angle, helicity]: a
    # slot_functions call over all angles is one gemm, which rounds differently
    tables = np.stack([slot_functions(mode, th, ph) for th, ph in zip(thetas, phis)], axis=1)
    values = _divergence_values(mode, state, dstate, RadialPoint.from_omega(omega), thetas, tables)

    # the bispinor components collapse onto helicities (-1/2, +1/2, -1/2, +1/2)
    coeffs = values / tables[0][:, [2, 3, 2, 3]].T
    extracted = coeffs.mean(axis=1)
    collapse = float(np.abs(coeffs - extracted[:, None]).max())

    slope = 1.0 / np.tan(omega) - np.tan(omega) / 2.0
    printed = closed + slope * state[np.array([2, 6, 10, 14])]
    return DivergenceCheck(
        collapse_residual=collapse,
        relations=extracted,
        closed_form=closed,
        residual=float(np.abs(extracted - closed).max()),
        printed_variant_residual=float(np.abs(extracted - printed).max()),
    )


def _divergence_values(
    mode: ModeLabel,
    state: np.ndarray,
    dstate: np.ndarray,
    pt: RadialPoint,
    thetas: np.ndarray,
    tables: np.ndarray,
) -> np.ndarray:
    """The divergence constraint (a 4-component bispinor) at every sample angle, shape (4, n).

    ``tables`` stacks the :func:`slot_functions` table of each angle on
    axis 1.  Sums the coordinate-derivative, tetrad-divergence and
    spinor-connection terms of (nabla + Gamma) e Psi with the separation
    prefactor divided out; the radial derivative therefore picks up the
    prefactor slope -1/r - phi'/(4 phi).
    """
    r, sq, p = pt.r, pt.sqrt_phi, pt.phi_metric
    values, dtheta = tables[..., _SLOT_ROW]
    # [n, l, row]: Psi_l of the field, of its radial and of its theta derivative
    psi, dpsi_w, dpsi_th = _spherical_bispinors(
        np.stack([state * values, dstate * values, state * dtheta])
    )
    rs = (r * np.sin(thetas))[:, None]

    # coordinate-derivative terms; e^{(l)alpha} carries frame signs (+,-,-,-)
    total = (-1j * mode.eps / sq) * psi[:, 0]
    prefactor_slope = -1.0 / r - pt.phi_prime / (4.0 * p)
    total += -sq * (dpsi_w[:, 3] / sq + prefactor_slope * psi[:, 3])
    total += -(1.0 / r) * dpsi_th[:, 1]
    # the real quotient first: a complex one rounds m_j / (r sin theta) twice
    total += -1j * (mode.m_j / rs) * psi[:, 2]

    # tetrad-divergence terms
    div = np.array([tetrad_divergences(pt, th) for th in thetas])
    total += div[:, 1:2] * psi[:, 1] + div[:, 3:4] * psi[:, 3]

    # spinor-connection terms e^{(l)alpha} Gamma_alpha Psi_l for alpha = t, theta, phi
    gam = np.array([connections(pt, th)[0] for th in thetas])
    conn = (gam[:, [0, 2, 3]] @ psi[:, :3, :, None])[..., 0]
    total += (1.0 / sq) * conn[:, 0]
    total += -(1.0 / r) * conn[:, 1]
    total += -(1.0 / rs) * conn[:, 2]
    return total.T


# ---------------------------------------------------------------------------
# slot projection (used by the radial-coefficient extraction)
# ---------------------------------------------------------------------------

def projection_angles(n: int = 8) -> tuple[np.ndarray, np.ndarray]:
    """Fixed, well-spread angular samples used for slot projections."""
    k = np.arange(n)
    thetas = 0.35 + (np.pi - 0.7) * (k + 0.5) / n
    phis = 0.4 + 5.3 * k / n
    return thetas, phis


def project_to_amplitudes(
    mode: ModeLabel, values: np.ndarray, thetas: np.ndarray, phis: np.ndarray
) -> tuple[np.ndarray, float]:
    """Least-squares projection of sampled field values onto the slots.

    values[k, ..., n] are samples of component k at the n angles; any
    middle axes are independent samples.  Each slot is expanded over every
    admissible helicity function at this j (|sigma| up to 5/2), all
    right-hand sides in one least-squares solve.  The slot's own
    coefficient is the amplitude, of shape values.shape[:-1]; the largest
    weight on the other functions or fit residual is the leakage.
    """
    values = np.asarray(values, dtype=complex)
    two_sigmas = np.array([ts for ts in _TABLE_TWO_SIGMA if abs(ts) <= mode.two_j])
    basis = slot_functions(mode, thetas, phis)[0, (two_sigmas + 5) // 2].T  # [n_angles, n_sigma]
    rhs = values.reshape(-1, values.shape[-1]).T
    coef = np.linalg.lstsq(basis, rhs, rcond=None)[0]
    fit_residual = float(np.abs(rhs - basis @ coef).max())
    coef = coef.T.reshape(16, -1, two_sigmas.size)
    own = (SLOT_TWO_SIGMA[:, None] == two_sigmas)[:, None, :]
    amps = np.where(own, coef, 0.0).sum(axis=-1).reshape(values.shape[:-1])
    leakage = max(float(np.where(own, 0.0, np.abs(coef)).max()), fit_residual)
    return amps, leakage


ADJUDICATIONS: tuple[dict, ...] = (
    {
        "id": "radial-f0-row-angular-partner",
        "where": "first radial equation, angular coupling",
        "candidates": ["g0", "g3"],
        "implemented": "g0",
        "oracle": "angular reduction of the separated operator",
    },
    {
        "id": "radial-g2-row-spin0-partner",
        "where": "sixth radial equation, sqrt(2)/tan coupling",
        "candidates": ["f3", "f2"],
        "implemented": "f3",
        "oracle": "angular reduction of the separated operator",
    },
    {
        "id": "ladder-sum-lower-second-amplitude",
        "where": "combined spin-ladder action, lower spin-0 slot",
        "candidates": ["f3", "g3"],
        "implemented": "f3",
        "oracle": "direct 8x8 matrix action",
    },
    {
        "id": "boost-action-sign",
        "where": "boost-block action on the assembled state",
        "candidates": ["overall minus", "overall plus"],
        "implemented": "overall minus",
        "oracle": "direct 8x8 matrix action",
    },
    {
        "id": "angular-action-lower-spin0-sign",
        "where": "angular operator, lower spin-0 slot coefficient",
        "candidates": ["-a f2", "+a f2"],
        "implemented": "-a f2",
        "oracle": "analytic-derivative action plus ladder relations",
    },
    {
        "id": "divergence-energy-denominator",
        "where": "divergence relations, energy term",
        "candidates": ["cos(omega)", "cos(theta)"],
        "implemented": "cos(omega)",
        "oracle": "term-by-term assembly",
    },
    {
        "id": "divergence-radial-slope-term",
        "where": "divergence relations, non-derivative radial-slot term",
        "candidates": ["-(cot - tan/2) X2 present", "absent"],
        "implemented": "present",
        "oracle": "term-by-term assembly and flow invariance of the constraints",
    },
    {
        "id": "ladder-recurrence-raising-coefficient",
        "where": "theta-recurrence at helicity +3/2, raising term",
        "candidates": ["c", "b"],
        "implemented": "c",
        "oracle": "explicit-sum differentiation",
    },
    {
        "id": "total-momentum-transverse-pairing",
        "where": "conjugated momentum components, matrix terms",
        "candidates": ["J1 ~ cos(phi), J2 ~ sin(phi)", "J1 ~ sin(phi), J2 ~ cos(phi)"],
        "implemented": "J1 ~ cos(phi), J2 ~ sin(phi)",
        "oracle": "finite-difference conjugation of the Cartesian operator",
    },
    {
        "id": "lower-bispinor-transverse-sign",
        "where": "transverse ladder term of the lower-bispinor block equation",
        "candidates": ["minus", "plus"],
        "implemented": "minus",
        "oracle": "blockwise reduction of the 16-component operator; confirmed "
        "by the extracted radial couplings of the dependent amplitudes",
    },
)
