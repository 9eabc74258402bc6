"""Static de Sitter geometry: metric, diagonal spherical tetrad, connections.

Dimensionless coordinates (t, r, theta, phi) with the horizon at r = 1 and
metric factor phi = 1 - r^2; the compact radial angle omega obeys
r = sin(omega), sqrt(phi) = cos(omega).

Closed-form connection and divergence expressions are paired with
finite-difference oracles (Christoffel symbols from central differences of
the metric) so that every identity can be cross-checked numerically.

Each quantity has one formula, written for arrays of (r, theta): the
``_*_at`` helpers and :func:`christoffels_fd` broadcast over leading
axes.  The public functions taking a :class:`RadialPoint` are their
single-point case, and the ``verify geometry`` battery evaluates each
quantity once for all of its sample points.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .algebra import generator_table

_HALF_PI = 0.5 * np.pi


@dataclass(frozen=True)
class RadialPoint:
    """Radial location strictly between the origin and the horizon."""

    r: float
    omega: float
    phi_metric: float
    phi_prime: float

    def __post_init__(self) -> None:
        if not 0.0 < self.r < 1.0:
            raise ValueError(f"radius must lie in (0, 1), got {self.r}")
        if not 0.0 < self.omega < _HALF_PI:
            raise ValueError(f"omega must lie in (0, pi/2), got {self.omega}")
        if abs(self.r - np.sin(self.omega)) > 1e-14:
            raise ValueError("inconsistent point: r != sin(omega)")
        if abs(self.phi_metric - (1.0 - self.r**2)) > 1e-14:
            raise ValueError("inconsistent point: phi != 1 - r^2")
        if self.phi_prime != -2.0 * self.r:
            raise ValueError("inconsistent point: phi' != -2 r")

    @classmethod
    def from_omega(cls, omega: float) -> "RadialPoint":
        r = float(np.sin(omega))
        return cls(r=r, omega=float(omega), phi_metric=1.0 - r * r, phi_prime=-2.0 * r)

    @property
    def sqrt_phi(self) -> float:
        return float(np.sqrt(self.phi_metric))


def _check_theta(theta: float) -> None:
    if not 0.0 < theta < np.pi:
        raise ValueError(f"theta must lie in (0, pi), got {theta}")


def _check_theta_and_step(theta: float, h: float) -> None:
    _check_theta(theta)
    if not 0.0 < h < np.inf:
        raise ValueError(f"finite-difference step must be finite and positive, got {h}")


def metric(point: RadialPoint, theta: float) -> np.ndarray:
    """Metric diag(phi, -1/phi, -r^2, -r^2 sin^2 theta) at (r, theta)."""
    _check_theta(theta)
    return _metric_at(point.r, theta)


def tetrad(point: RadialPoint, theta: float) -> np.ndarray:
    """Tetrad vectors E[a, alpha] = e_(a)^alpha of the diagonal spherical frame."""
    _check_theta(theta)
    return _closed_tetrad_at(point.r, theta)


def connections(
    point: RadialPoint, theta: float
) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Closed-form connections: four bispinor matrices and four vector ones.

    Order is (t, r, theta, phi). The combined connection of the
    vector-bispinor field is Gamma_alpha x I + I x L_alpha.
    """
    _check_theta(theta)
    gammas, ells = _connections_at(point.r, theta)
    return tuple(gammas), tuple(ells)


def tetrad_divergences(point: RadialPoint, theta: float) -> np.ndarray:
    """Covariant divergences of the index-raised tetrad vectors e^{(a)alpha}.

    Returns (0, -cot(theta)/r, 0, -sqrt(phi)(2/r + phi'/(2 phi))); the
    brute-force divergence (1/sqrt|g|) d_alpha (sqrt|g| e^{(a)alpha}) is
    :func:`tetrad_divergences_fd`.
    """
    _check_theta(theta)
    return _tetrad_divergences_at(point.r, theta)


def connections_fd(
    point: RadialPoint, theta: float, h: float = 1e-5
) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Connection oracle: (1/2) G^{ab} e_(a)^beta nabla_alpha e_{(b) beta}.

    Evaluated with G the bispinor generators (first tuple) and the vector
    generators (second tuple), everything else by central differences.
    """
    _check_theta_and_step(theta, h)
    gammas, ells = _connections_fd_at(point.r, theta, h)
    return tuple(gammas), tuple(ells)


def tetrad_divergences_fd(
    point: RadialPoint, theta: float, h: float = 1e-5
) -> np.ndarray:
    """Brute-force (1/sqrt|g|) d_alpha (sqrt|g| e^{(a)alpha})."""
    _check_theta_and_step(theta, h)
    return _tetrad_divergences_fd_at(point.r, theta, h)


# ---------------------------------------------------------------------------
# closed forms over arrays of (r, theta)
# ---------------------------------------------------------------------------

def _metric_at(r, theta) -> np.ndarray:
    r, theta = np.broadcast_arrays(r, theta)
    p = 1.0 - r * r
    g = np.zeros(r.shape + (4, 4))
    g[..., 0, 0] = p
    g[..., 1, 1] = -1.0 / p
    g[..., 2, 2] = -r * r
    # float_power is pow() per element, as a scalar ``x ** 2`` evaluates it;
    # an array ``x ** 2`` is x * x, which differs in the last bit for ~0.1 % of x
    g[..., 3, 3] = -np.float_power(r * np.sin(theta), 2)
    return g


def _tetrad_at(r, theta) -> np.ndarray:
    r, theta = np.broadcast_arrays(r, theta)
    p = 1.0 - r * r
    e = np.zeros(r.shape + (4, 4))
    e[..., 0, 0] = np.float_power(p, -0.5)
    e[..., 3, 1] = np.float_power(p, 0.5)
    e[..., 1, 2] = 1.0 / r
    e[..., 2, 3] = 1.0 / (r * np.sin(theta))
    return e


def _closed_tetrad_at(r, theta) -> np.ndarray:
    """The frame with e_(3)^r = sqrt(phi); the oracles' :func:`_tetrad_at`
    evaluates it as pow(phi, 1/2), which differs in the last bit for ~0.1 % of r."""
    e = _tetrad_at(r, theta)
    e[..., 3, 1] = np.sqrt(1.0 - r * r)
    return e


@functools.cache
def _connection_basis() -> np.ndarray:
    """Constant factors of the closed-form connections, as real (4, 1024) rows.

    Row k holds the generator that coefficient k multiplies, at [family,
    alpha, i, j] with complex entries as (real, imaginary) pairs: G^{03} at
    t, G^{31} at theta, G^{32} and G^{12} at phi.  Every entry is 0, +-1/2
    or +-1, so each product is exact and the row sum keeps the bits of the
    two-term sum at phi.
    """
    sig, j = generator_table("bispinor"), generator_table("vector")
    rows = np.zeros((4, 2, 4, 4, 4), dtype=complex)
    for k, (alpha, a, b) in enumerate(((0, 0, 3), (2, 3, 1), (3, 3, 2), (3, 1, 2))):
        rows[k, 0, alpha] = sig[a, b]
        rows[k, 1, alpha] = j[a, b]
    rows = rows.reshape(4, -1).view(float)
    rows.flags.writeable = False
    return rows


def _connections_at(r, theta) -> tuple[np.ndarray, np.ndarray]:
    """(..., alpha, i, j) bispinor and vector connections, alpha = (t, r, theta, phi).

    r and theta are scalars or arrays of one shape.
    """
    sq = np.sqrt(1.0 - r * r)
    ct, st = np.cos(theta), np.sin(theta)
    # coefficients of the basis rows: phi'/2 = -r, sqrt(phi), sqrt(phi) sin(theta), cos(theta)
    coef = np.moveaxis(np.array([-r, sq, sq * st, ct]), 0, -1)
    conn = (coef @ _connection_basis()).view(complex).reshape(coef.shape[:-1] + (2, 4, 4, 4))
    return conn[..., 0, :, :, :], conn[..., 1, :, :, :]


def _tetrad_divergences_at(r, theta) -> np.ndarray:
    p = 1.0 - r * r
    cot = -1.0 / (r * np.tan(theta))
    div = np.zeros(np.shape(cot) + (4,))
    div[..., 1] = cot
    div[..., 3] = -np.sqrt(p) * (2.0 / r + (-2.0 * r) / (2.0 * p))
    return div


# ---------------------------------------------------------------------------
# finite-difference oracles, over arrays of (r, theta) likewise
# ---------------------------------------------------------------------------

def _metric_partials(r, theta, h: float) -> np.ndarray:
    """dg[..., alpha, mu, nu] = partial_alpha g_{mu nu} by central differences."""
    r, theta = np.broadcast_arrays(r, theta)
    dg = np.zeros(r.shape + (4, 4, 4))
    dg[..., 1, :, :] = (_metric_at(r + h, theta) - _metric_at(r - h, theta)) / (2 * h)
    dg[..., 2, :, :] = (_metric_at(r, theta + h) - _metric_at(r, theta - h)) / (2 * h)
    return dg


def christoffels_fd(r, theta, h: float = 1e-5) -> np.ndarray:
    """Christoffel symbols Gamma^lam_{mu nu} from central differences.

    Arrays of (r, theta) broadcast; the result has shape (..., 4, 4, 4).
    """
    g_inv = np.linalg.inv(_metric_at(r, theta))
    dg = _metric_partials(r, theta, h)
    # [mu, rho, nu]: d_mu g_{rho nu} + d_nu g_{rho mu} - d_rho g_{mu nu}
    bracket = dg + np.swapaxes(dg, -3, -1) - np.swapaxes(dg, -3, -2)
    return 0.5 * np.einsum("...lr,...mrn->...lmn", g_inv, bracket)


def _lowered_tetrad(r, theta) -> np.ndarray:
    """e_{(b) beta}, indexed [..., b, beta]."""
    return np.swapaxes(_metric_at(r, theta) @ np.swapaxes(_tetrad_at(r, theta), -1, -2), -1, -2)


def _tetrad_covariant_derivatives(r, theta, h: float) -> np.ndarray:
    """nabla[..., alpha, b, beta] = covariant derivative of e_{(b) beta}."""
    r, theta = np.broadcast_arrays(r, theta)
    gam = christoffels_fd(r, theta, h)
    e_low = _lowered_tetrad(r, theta)
    de = np.zeros(r.shape + (4, 4, 4))  # [alpha, b, beta]
    de[..., 1, :, :] = (_lowered_tetrad(r + h, theta) - _lowered_tetrad(r - h, theta)) / (2 * h)
    de[..., 2, :, :] = (_lowered_tetrad(r, theta + h) - _lowered_tetrad(r, theta - h)) / (2 * h)
    return de - np.einsum("...lab,...cl->...acb", gam, e_low)


def _connections_fd_at(r, theta, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Oracle for :func:`_connections_at`, indexed the same way."""
    nabla = _tetrad_covariant_derivatives(r, theta, h)
    e_up = _tetrad_at(r, theta)
    half = 0.5 * np.einsum("...ak,...xbk->...xab", e_up, nabla)  # [alpha, a, b]
    gammas = np.einsum("...xab,abij->...xij", half, generator_table("bispinor"))
    ells = np.einsum("...xab,abij->...xij", half, generator_table("vector"))
    return gammas, ells


def _tetrad_divergences_fd_at(r, theta, h: float) -> np.ndarray:
    """Oracle for :func:`_tetrad_divergences_at`."""
    # raise the tetrad label with the frame metric (+,-,-,-)
    signs = np.array([1.0, -1.0, -1.0, -1.0])

    def sqrt_det(rr, tt) -> np.ndarray:
        return np.sqrt(np.abs(np.linalg.det(_metric_at(rr, tt))))

    def weighted(rr, tt) -> np.ndarray:
        return sqrt_det(rr, tt)[..., None, None] * (signs[:, None] * _tetrad_at(rr, tt))

    dr = (weighted(r + h, theta) - weighted(r - h, theta)) / (2 * h)
    dth = (weighted(r, theta + h) - weighted(r, theta - h)) / (2 * h)
    return (dr[..., :, 1] + dth[..., :, 2]) / sqrt_det(r, theta)[..., None]
