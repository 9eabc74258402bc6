"""Radial first-order systems for the separated spin-3/2 mode.

In the compact radial angle omega (r = sin omega) the separated wave
equation becomes X' = A(omega) X for the sixteen amplitudes, with A built
from five constant coefficient matrices weighted by the scalars

    E = eps / cos(omega),   T = tan(omega),
    1/sin(omega),           1/tan(omega),      and the mass.

Every entry is therefore analytic in the mode parameters, derivatives in
omega are exact, and the simple poles at omega = 0 and omega = pi/2 have
closed-form residues.

The constant matrices depend on j (and delta) alone, so they are built
once per (j, delta, dimension) into a read-only (5, n*n) stack held in a
bounded cache.  A :class:`RadialSystem` and a :class:`ConstraintSet` look
their stack up once, when they are made, which is also the one place
where the dimension and delta are checked; every evaluation reads the
stack they hold.  One routine computes the five weights, at one omega or
at each omega of an array, as a (k, 5) table; the coefficient matrices
and the divergence constraint rows at those omegas are one (k, 5) @ stack
product, and a single point is the k = 1 case.  A :class:`SystemBatch`
holds the stacks of many systems and takes their weights at once, with
one energy and mass per member.  The omega-derivative of the constraint
rows (:meth:`ConstraintSet.derivatives`) and the endpoint residues and
subleading terms (:meth:`RadialSystem.laurent`) are fixed weights on the
same stacks.  ``build_A8``, ``build_A16``, ``constraint_matrix`` and
``singular_residues`` make such an object for their mode and read it.

Diagonalizing spatial inversion halves the system: amplitudes (h, nu) are
tied to (g, f) by the sign delta, and the reduced 8x8 generator equals the
16x16 one compressed through the embedding, with effective mass delta * M.

The gamma-trace constraint supplies two algebraic rows; the divergence
constraint supplies two differential rows which become algebraic once the
radial derivatives are eliminated through the flow.  The resulting
four-row constraint surface is invariant under the flow, C' + C A = Lambda C
with Lambda in closed form (:func:`flow_mixing`); :func:`consistency_check`
certifies it at any omegas.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import algebra, ansatz
from .ansatz import ModeLabel
from .geometry import RadialPoint
from .wigner import angular_coefficients

_S2 = np.sqrt(2.0)
_HALF_PI = 0.5 * np.pi

# amplitude index helpers for the 16-state (f, g, h, nu) and the 8-state (f, g)
_F, _G, _H, _N = 0, 4, 8, 12
_PARTNER = (0, 3, 2, 1)  # vector-slot pairing induced by inversion

# row sign of the i d/domega term: +1 on f and nu rows, -1 on g and h rows
_SIGN16 = np.array([1] * 4 + [-1] * 4 + [-1] * 4 + [1] * 4)
_SIGN8 = np.array([1] * 4 + [-1] * 4)
# factor each scalar carries in the row sum: E and m enter real, T, 1/sin, 1/tan with i
_SCALAR_PHASE = np.array([1.0, 1j, 1j, 1j, 1.0])


def _coefficient_tables_16(two_j: int) -> np.ndarray:
    """Constant matrices (M_E, M_T, M_S, M_iT, M_m) of the 16-row system.

    Row k of the system reads  E X_k + s_k i X_k' + (couplings) = 0 with
    couplings = i T (M_T row) + (i/sin) (M_S row) + (i/tan) (M_iT row)
    - m (M_m row); the tables hold the amplitude weights of each scalar.
    Returned as one real (5, 16, 16) array in that order.
    """
    co = angular_coefficients(two_j / 2.0)
    a, b = co.a, co.b
    me, mt, ms, mit, mm = tables = np.zeros((5, 16, 16))
    me[:] = np.eye(16)

    def fill(base: int, other: int, sgn: float) -> None:
        """Couplings of one bispinor half: base in {f, h}, other in {g, nu}."""
        mt[base + 0, base + 2] = 1.0
        mt[base + 2, base + 0] = 1.0
        mt[other + 0, other + 2] = 1.0
        mt[other + 2, other + 0] = 1.0
        ms[base + 0, other + 0] = sgn * a
        ms[base + 1, other + 1] = sgn * b
        ms[base + 2, other + 2] = sgn * a
        ms[base + 3, other + 3] = sgn * b
        ms[other + 0, base + 0] = -sgn * a
        ms[other + 1, base + 1] = -sgn * b
        ms[other + 2, base + 2] = -sgn * a
        ms[other + 3, base + 3] = -sgn * b
        mit[base + 2, other + 1] = sgn * _S2
        mit[base + 3, other + 2] = sgn * _S2
        mit[other + 1, base + 2] = -sgn * _S2
        mit[other + 2, base + 3] = -sgn * _S2

    # xi half: f rows couple to g, mass partner is (h, nu)
    fill(_F, _G, +1.0)
    # eta half: h rows couple to nu with the transverse terms reversed
    fill(_H, _N, -1.0)

    for l in range(4):
        mm[_F + l, _H + l] = -1.0
        mm[_G + l, _N + l] = -1.0
        mm[_H + l, _F + l] = -1.0
        mm[_N + l, _G + l] = -1.0
    return tables


@functools.lru_cache(maxsize=32)
def _system_stack(two_j: int, delta: int | None, dimension: int) -> np.ndarray:
    """Read-only (5, n*n) stack with A(omega) = scalars(omega) @ stack.

    Folds the row factor i * sign and the i carried by the T, 1/sin and
    1/tan terms into the tables; both are multiplications by +-1 or +-i,
    hence exact.  The tables depend on j alone (and on delta through the
    embedding), never on eps, mass or m_j, so modes that differ only in
    those share one entry.  ``delta`` is ignored (pass None) at n = 16.
    """
    tables = _coefficient_tables_16(two_j)
    if dimension == 8:
        # the xi rows of the 16-row tables compress exactly through the embedding
        tables = tables[:, :8, :] @ parity_embed(delta)
        sign = _SIGN8
    else:
        sign = _SIGN16
    stack = (_SCALAR_PHASE[:, None, None] * (1j * sign)[None, :, None]) * tables
    stack = stack.reshape(5, dimension * dimension)
    stack.flags.writeable = False
    return stack


def _scalar_rows(omegas, eps, mass) -> np.ndarray:
    """Complex weights (E, T, 1/sin, 1/tan, m) at each omega, on a last axis of 5.

    ``omegas`` is a scalar (one row, shape (1, 5)) or an array of any shape;
    ``eps`` and ``mass`` are one value or arrays that broadcast against it,
    e.g. one value per member of a batch.  E is divided componentwise, as
    Python divides a complex by a float.
    """
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    if not (omegas.min() > 0.0 and omegas.max() < _HALF_PI):
        raise ValueError(f"omega must lie in (0, pi/2), got {omegas}")
    cos, sin, tan = np.cos(omegas), np.sin(omegas), np.tan(omegas)
    rows = np.zeros(omegas.shape + (5,), dtype=complex)
    parts = rows.view(float)  # real and imaginary part of each weight
    parts[..., 0] = eps.real / cos
    parts[..., 1] = eps.imag / cos
    parts[..., 2] = tan
    parts[..., 4] = 1.0 / sin
    parts[..., 6] = 1.0 / tan
    parts[..., 8] = mass
    return rows


def build_A16(mode: ModeLabel, omega: float) -> np.ndarray:
    """Coefficient matrix of X' = A(omega) X for the full 16-amplitude state.

    State ordering (f0..f3, g0..g3, h0..h3, nu0..nu3).  The two coefficient
    slots on which printed transcriptions of the system disagree carry the
    values fixed by :func:`assemble_from_angular`.
    """
    return RadialSystem(mode, 16).matrices(omega)[0]


def parity_embed(delta: int) -> np.ndarray:
    """16x8 embedding of the inversion-restricted state.

    Maps Y = (f0..f3, g0..g3) to the 16-state with h_l = delta g_{p(l)} and
    nu_l = delta f_{p(l)}, p = (0, 3, 2, 1).  Columns are orthogonal with
    norm sqrt(2).
    """
    if delta not in (1, -1):
        raise ValueError(f"delta must be +1 or -1, got {delta}")
    emb = np.zeros((16, 8))
    for l in range(4):
        emb[_F + l, l] = 1.0
        emb[_G + l, 4 + l] = 1.0
        emb[_H + l, 4 + _PARTNER[l]] = float(delta)
        emb[_N + l, _PARTNER[l]] = float(delta)
    return emb


def build_A8(mode: ModeLabel, omega: float) -> np.ndarray:
    """Reduced 8x8 coefficient matrix at inversion sign delta.

    Satisfies A16(omega) P_delta = P_delta A8(omega) exactly, and flipping
    delta is the same as flipping the sign of the mass.
    """
    return RadialSystem(mode, 8).matrices(omega)[0]


def singular_residues(mode: ModeLabel, dimension: int = 8):
    """Closed-form residues lim (omega - w0) A(omega) at both endpoints.

    Returns (origin, horizon).  At the origin only the 1/sin and 1/tan
    couplings survive; at the horizon the energy and tan terms contribute
    -eps and -1 weights.
    """
    system = RadialSystem(mode, dimension)
    return tuple(system.laurent(e)[0] for e in ("origin", "horizon"))


@dataclass(frozen=True)
class RadialSystem:
    """Immutable first-order radial system X' = A(omega) X.

    ``stack`` is the mode's cached read-only (5, n*n) stack, looked up once
    here; it takes no part in comparison or hashing.
    """

    mode: ModeLabel
    dimension: int = 8
    stack: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.dimension not in (8, 16):
            raise ValueError("dimension must be 8 or 16")
        delta = None if self.dimension == 16 else self.mode.delta
        if self.dimension == 8 and delta not in (1, -1):
            raise ValueError("the reduced system needs delta = +1 or -1 in the mode label")
        object.__setattr__(self, "stack", _system_stack(self.mode.two_j, delta, self.dimension))

    def matrix(self, omega: float) -> np.ndarray:
        return self.matrices(omega)[0]

    def matrices(self, omegas) -> np.ndarray:
        """A at a scalar or 1-d array of omegas: (k, n, n) from one (k, 5) @ (5, n*n) product."""
        rows = _scalar_rows(omegas, self.mode.eps, self.mode.mass)
        return (rows @ self.stack).reshape(-1, self.dimension, self.dimension)

    def laurent(self, endpoint: str) -> tuple[np.ndarray, np.ndarray]:
        """Closed-form residue and subleading (constant) term of A at an endpoint.

        A(w0 + d u) = residue / (d u) + subleading + O(u), with d = +1 at the
        origin and -1 at the horizon (Coddington & Levinson, ch. 4).  Both are
        fixed weights of (E, T, 1/sin, 1/tan, m) on the stack, read off from

            origin:   E = eps + O(u^2),  T = O(u),  1/sin, 1/tan = 1/u + O(u);
            horizon:  E = eps/u + O(u),  T = 1/u + O(u),  1/sin = 1 + O(u^2),
                      1/tan = O(u).
        """
        eps, m = self.mode.eps, float(self.mode.mass)
        weights = {
            "origin": ((0.0, 0.0, 1.0, 1.0, 0.0), (eps, 0.0, 0.0, 0.0, m)),
            "horizon": ((-eps, -1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0, m)),
        }
        if endpoint not in weights:
            raise ValueError(f"endpoint must be 'origin' or 'horizon', got {endpoint!r}")
        pair = np.array(weights[endpoint], dtype=complex) @ self.stack
        residue, constant = pair.reshape(2, self.dimension, self.dimension)
        return residue, constant


@dataclass(frozen=True, eq=False)
class SystemBatch:
    """Radial systems of one dimension whose matrices come from one batched product.

    Row b holds the stack, eps and mass of member b.  Its matrices
    are the (k, 5) @ (5, n*n) product of :meth:`RadialSystem.matrices`,
    made for every member in one (B, k, 5) @ (B, 5, n*n) matmul.
    """

    stacks: np.ndarray  # (B, 5, n*n)
    eps: np.ndarray  # (B, 1) complex
    mass: np.ndarray  # (B, 1)
    dimension: int

    @classmethod
    def of(cls, systems) -> "SystemBatch":
        dims = {s.dimension for s in systems}
        if len(dims) != 1:
            raise ValueError("a batch needs at least one system, all of one dimension")
        (n,) = dims
        return cls(
            stacks=np.stack([s.stack for s in systems]),
            eps=np.array([[complex(s.mode.eps)] for s in systems]),
            mass=np.array([[float(s.mode.mass)] for s in systems]),
            dimension=n,
        )

    def take(self, members) -> "SystemBatch":
        """The batch of the listed members, in that order."""
        return SystemBatch(
            self.stacks[members], self.eps[members], self.mass[members], self.dimension
        )

    def matrices(self, omegas: np.ndarray) -> np.ndarray:
        """(B, k) omegas, row b for member b -> (B, k, n, n)."""
        n = self.dimension
        rows = _scalar_rows(omegas, self.eps, self.mass)
        return (rows @ self.stacks).reshape(*omegas.shape, n, n)


# ---------------------------------------------------------------------------
# constraints
# ---------------------------------------------------------------------------

# rows 1-2: the algebraic gamma-trace relations, constant in omega
_TRACE_ROWS = np.zeros((4, 8), dtype=complex)
_TRACE_ROWS[0, 5] = 1.0
_TRACE_ROWS[0, 0] = _TRACE_ROWS[0, 2] = -1.0 / _S2
_TRACE_ROWS[1, 3] = 1.0
_TRACE_ROWS[1, 6] = -1.0 / _S2
_TRACE_ROWS[1, 4] = 1.0 / _S2
_TRACE_ROWS.flags.writeable = False
# singular values of the constraint rows below this fraction of the largest
# count as zero; s4/s1 >= 2.5e-5 for j <= 15/2, both deltas, eps in
# {0, 1.3, 5+0.5i}, mass in {0, 0.7, -2} and omega in [0.01, 1.56]
_RANK_RTOL = 1e-10
# points per block in ConstraintSet.residuals_many
_RESIDUAL_BLOCK = 128


@functools.lru_cache(maxsize=32)
def _constraint_stack(two_j: int, delta: int) -> np.ndarray:
    """Read-only (5, 32) stack with C(omega) = _TRACE_ROWS + scalars @ stack.

    Only rows 3-4 are nonzero: the divergence relations with the radial
    derivatives f2', g2' eliminated through the flow, i.e. L_1 minus the f2
    row and L_2 minus the g2 row of the reduced system.  The non-derivative
    parts L_1, L_2 are linear in the same five scalars:

        L_1 = (-iE - T/2) f0 - (1/tan - T/2) f2 - (b f1 + a f3)/(sqrt2 sin)
              - g1/(sqrt2 tan),
        L_2 = (-iE + T/2) g0 - (1/tan - T/2) g2 - (a g1 + b g3)/(sqrt2 sin)
              - f3/(sqrt2 tan).
    """
    co = angular_coefficients(two_j / 2.0)
    a, b = co.a, co.b
    w = np.zeros((4, 8, 5), dtype=complex)  # weights of (E, T, 1/sin, 1/tan, m)
    w[2, 0] = (-1j, -0.5, 0.0, 0.0, 0.0)
    w[2, 1] = (0.0, 0.0, -b / _S2, 0.0, 0.0)
    w[2, 2] = (0.0, 0.5, 0.0, -1.0, 0.0)
    w[2, 3] = (0.0, 0.0, -a / _S2, 0.0, 0.0)
    w[2, 5] = (0.0, 0.0, 0.0, -1.0 / _S2, 0.0)
    w[3, 3] = (0.0, 0.0, 0.0, -1.0 / _S2, 0.0)
    w[3, 4] = (-1j, 0.5, 0.0, 0.0, 0.0)
    w[3, 5] = (0.0, 0.0, -a / _S2, 0.0, 0.0)
    w[3, 6] = (0.0, 0.5, 0.0, -1.0, 0.0)
    w[3, 7] = (0.0, 0.0, -b / _S2, 0.0, 0.0)
    rows = np.ascontiguousarray(np.moveaxis(w, 2, 0))
    system = _system_stack(two_j, delta, 8).reshape(5, 8, 8)
    rows[:, 2] -= system[:, 2]
    rows[:, 3] -= system[:, 6]
    stack = rows.reshape(5, 32)
    stack.flags.writeable = False
    return stack


def constraint_matrix(mode: ModeLabel, omega: float) -> np.ndarray:
    """4x8 constraint rows on the reduced state Y = (f0..f3, g0..g3).

    Rows 1-2 are the algebraic gamma-trace relations; rows 3-4 are the
    divergence relations with the radial derivatives eliminated through
    the flow, hence purely algebraic functionals of Y.
    """
    return ConstraintSet(mode).matrices(omega)[0]


def constraint_rank(svals: np.ndarray) -> int:
    """Numerical rank of constraint rows from their descending singular values."""
    return int((svals > _RANK_RTOL * svals[0]).sum())


@dataclass(frozen=True)
class ConstraintSet:
    """Constraint rows C(omega) attached to a reduced radial system.

    ``stack`` is the mode's cached read-only (5, 32) stack, looked up once
    here; it takes no part in comparison or hashing.
    """

    mode: ModeLabel
    stack: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.mode.delta not in (1, -1):
            raise ValueError("the constraint rows need delta = +1 or -1 in the mode label")
        object.__setattr__(self, "stack", _constraint_stack(self.mode.two_j, self.mode.delta))

    def matrix(self, omega: float) -> np.ndarray:
        return self.matrices(omega)[0]

    def matrices(self, omegas) -> np.ndarray:
        """C at a scalar or 1-d array of omegas: (k, 4, 8) from one (k, 5) @ (5, 32) product."""
        rows = _scalar_rows(omegas, self.mode.eps, self.mode.mass)
        c = (rows @ self.stack).reshape(-1, 4, 8)
        c += _TRACE_ROWS
        return c

    def derivatives(self, omegas) -> np.ndarray:
        """Exact C' at a scalar or 1-d array of omegas: (k, 4, 8), on the same stack.

        The five scalars' derivatives are E T, 1 + T^2, -1/(sin tan), -1/sin^2 and 0.
        """
        e, t, inv_s, inv_t, m = _scalar_rows(omegas, self.mode.eps, self.mode.mass).T
        weights = np.stack([e * t, 1.0 + t * t, -inv_s * inv_t, -inv_s * inv_s, 0.0 * m], axis=1)
        return (weights @ self.stack).reshape(-1, 4, 8)

    def residuals(self, omega: float, state: np.ndarray) -> np.ndarray:
        """Normalized residuals of the four rows at one point: a one-point :meth:`residuals_many`."""
        return self.residuals_many([omega], [state])[0]

    def residuals_many(self, omegas, states) -> np.ndarray:
        """Normalized residuals |C_k . Y| / (|C_k| |Y|): omegas (k,), states (k, 8) -> (k, 4).

        Each block of points takes one (block, 5) @ (5, 32) product for its
        constraint matrices, then row norms; blocks keep the temporaries
        small however long the trace.  A zero state has zero residuals.
        """
        omegas = np.asarray(omegas, dtype=float)
        states = np.asarray(states, dtype=complex)
        out = np.zeros((len(omegas), 4))
        for lo in range(0, len(omegas), _RESIDUAL_BLOCK):
            w, y = omegas[lo:lo + _RESIDUAL_BLOCK], states[lo:lo + _RESIDUAL_BLOCK]
            c = self.matrices(w)
            vals = np.abs(np.einsum("kij,kj->ki", c, y))
            row_norms = np.sqrt(
                np.einsum("kij,kij->ki", c.real, c.real)
                + np.einsum("kij,kij->ki", c.imag, c.imag)
            )
            ynorm = np.linalg.norm(y, axis=1)[:, None]
            np.divide(vals, row_norms * ynorm, out=out[lo:lo + len(w)], where=ynorm != 0.0)
        return out


def flow_mixing(mode: ModeLabel, omegas) -> np.ndarray:
    """Closed-form Lambda of C' + C A = Lambda C: (k, 4, 4) at a scalar or 1-d array of omegas.

    Lambda = [[L, sqrt2 I], [-(3/sqrt2) I, -L]] with L = [[-iE, a/sin + i m_eff],
    [a/sin - i m_eff, iE]] and m_eff = delta * mass.  It does not involve b, and
    holds for every j because the ladder coefficients satisfy b^2 = a^2 - 1.
    """
    if mode.delta not in (1, -1):
        raise ValueError("the flow mixing needs delta = +1 or -1 in the mode label")
    rows = _scalar_rows(omegas, mode.eps, mode.delta * float(mode.mass))
    ie, s, im = 1j * rows[:, 0], mode.coefficients().a * rows[:, 2], 1j * rows[:, 4]
    lam = np.zeros((len(rows), 4, 4), dtype=complex)
    lam[:, 0, 0], lam[:, 0, 1] = -ie, s + im
    lam[:, 1, 0], lam[:, 1, 1] = s - im, ie
    lam[:, 2:, 2:] = -lam[:, :2, :2]
    lam[:, [0, 1], [2, 3]] = _S2
    lam[:, [2, 3], [0, 1]] = -3.0 / _S2
    return lam


def consistency_check(mode: ModeLabel, omegas) -> list[dict]:
    """Certify that the constraint surface is invariant under the flow.

    Reports at each omega the largest entry of C' + C A - Lambda C (Lambda
    from :func:`flow_mixing`), absolute and relative to max(|C' + C A|, 1),
    and the rank of C, the codimension of the surface.  A residual at
    rounding level means the flow cannot leave the surface.
    """
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    cons = ConstraintSet(mode)
    c = cons.matrices(omegas)
    total = cons.derivatives(omegas) + c @ RadialSystem(mode, 8).matrices(omegas)
    resid = np.abs(total - flow_mixing(mode, omegas) @ c).max(axis=(1, 2))
    scale = np.maximum(np.abs(total).max(axis=(1, 2)), 1.0)
    svals = np.linalg.svd(c, compute_uv=False)
    return [
        {"omega": float(w), "residual": float(r), "relative_residual": float(r / sc),
         "constraint_rank": constraint_rank(sv)}
        for w, r, sc, sv in zip(omegas, resid, scale, svals)
    ]


# ---------------------------------------------------------------------------
# extraction of the radial system from the angular reduction
# ---------------------------------------------------------------------------

# largest projection weight outside the sixteen slot functions that counts
# as rounding
_LEAKAGE_TOL = 1e-9


@functools.cache
def _angular_operators() -> np.ndarray:
    """Read-only (6, 16, 16) stack of the constant operators of the angular route.

    Built on first use, in order: gamma^0 x 1, gamma^1 x T~2 - gamma^2 x T~1,
    gamma^0 x T~03, gamma^1 x 1, gamma^2 x 1 and -i gamma^3 x 1.  The last
    solves for the derivative couplings: gamma^3 pairs the f with the h
    slots and the g with the nu slots, which carry the same angular
    functions, so it acts on amplitudes as it does on assembled states.
    """
    t1, t2, _ = algebra.tilde_spin_matrices()
    g0, g1, g2, g3 = (algebra.gamma_matrix(a) for a in range(4))
    eye4 = np.eye(4)
    table = np.stack(
        [
            np.kron(g0, eye4),
            np.kron(g1, t2) - np.kron(g2, t1),
            np.kron(g0, algebra.tilde_generator(0, 3)),
            np.kron(g1, eye4),
            np.kron(g2, eye4),
            -1j * np.kron(g3, eye4),
        ]
    )
    table.flags.writeable = False
    return table


def assemble_from_angular(mode: ModeLabel, omega: float) -> np.ndarray:
    """Re-derive the 16x16 coefficient matrix from the separated operator.

    Applies the full matrix/differential operator (energy, transverse
    ladder, boost, angular and mass terms) to every basis state at once,
    projects the results back onto the slot functions in one solve, and
    solves for the derivative couplings through the gamma^3 structure of
    the radial term.  Forced-zero columns at low j are left empty: no
    angular basis function exists to probe them.

    Raises ArithmeticError if the projection leaks outside the sixteen
    slot functions beyond rounding.
    """
    pt = RadialPoint.from_omega(omega)
    r, sq, p = pt.r, pt.sqrt_phi, pt.phi_metric
    thetas, phis = ansatz.projection_angles()
    energy, ladder, boost, s1, s2, gamma3 = _angular_operators()

    m_alg = (
        (mode.eps / sq) * energy
        + (sq / r) * ladder
        + 1j * sq * (pt.phi_prime / (2.0 * p)) * boost
        - mode.mass * np.eye(16)
    )

    # basis state k excites slot k alone, so samples[:, k] is column k of
    # each operator times that slot's angular factor
    values, dtheta, mixed = ansatz.slot_table(mode, thetas, phis)
    samples = m_alg[:, :, None] * values + (1.0 / r) * (
        1j * s1[:, :, None] * dtheta + s2[:, :, None] * mixed
    )
    b, leak = ansatz.project_to_amplitudes(mode, samples, thetas, phis)
    if leak > _LEAKAGE_TOL:
        raise ArithmeticError(f"angular reduction leaked outside the slot functions: {leak:.3e}")
    return gamma3 @ b
