"""Static de Sitter geometry: metric, diagonal spherical tetrad, connections.

Dimensionless coordinates (t, r, theta, phi) with the horizon at r = 1 and
metric factor phi = 1 - r^2; the compact radial angle omega obeys
r = sin(omega), sqrt(phi) = cos(omega).

Closed-form connection and divergence expressions are paired with
finite-difference oracles (Christoffel symbols from central differences of
the metric) so that every identity can be cross-checked numerically.
"""

from __future__ import annotations

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

    @classmethod
    def from_radius(cls, r: float) -> "RadialPoint":
        r = float(r)
        if not 0.0 < r < 1.0:
            raise ValueError(f"radius must lie in (0, 1), got {r}")
        return cls(
            r=r,
            omega=float(np.arcsin(r)),
            phi_metric=1.0 - r * r,
            phi_prime=-2.0 * r,
        )

    @property
    def sqrt_phi(self) -> float:
        return float(np.sqrt(self.phi_metric))


def _check_theta(theta: float) -> None:
    if not 0.0 < theta < np.pi:
        raise ValueError(f"theta must lie in (0, pi), got {theta}")


def metric(point: RadialPoint, theta: float) -> np.ndarray:
    """Metric diag(phi, -1/phi, -r^2, -r^2 sin^2 theta) at (r, theta)."""
    _check_theta(theta)
    p, r = point.phi_metric, point.r
    return np.diag([p, -1.0 / p, -r * r, -(r * np.sin(theta)) ** 2])


def tetrad(point: RadialPoint, theta: float) -> np.ndarray:
    """Tetrad vectors E[a, alpha] = e_(a)^alpha of the diagonal spherical frame."""
    _check_theta(theta)
    e = np.zeros((4, 4))
    e[0, 0] = point.phi_metric ** -0.5
    e[3, 1] = point.sqrt_phi
    e[1, 2] = 1.0 / point.r
    e[2, 3] = 1.0 / (point.r * np.sin(theta))
    return e


def connections(
    point: RadialPoint, theta: float
) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Closed-form connections: four bispinor matrices and four vector ones.

    Order is (t, r, theta, phi). The combined connection of the
    vector-bispinor field is Gamma_alpha x I + I x L_alpha.
    """
    _check_theta(theta)
    sq = point.sqrt_phi
    ct, st = np.cos(theta), np.sin(theta)
    half_dphi = 0.5 * point.phi_prime
    sig, j = generator_table("bispinor"), generator_table("vector")

    gam_t = half_dphi * sig[0, 3]
    gam_r = np.zeros((4, 4), dtype=complex)
    gam_th = sq * sig[3, 1]
    gam_ph = sq * st * sig[3, 2] + ct * sig[1, 2]

    l_t = half_dphi * j[0, 3]
    l_r = np.zeros((4, 4), dtype=complex)
    l_th = sq * j[3, 1]
    l_ph = sq * st * j[3, 2] + ct * j[1, 2]

    return (gam_t, gam_r, gam_th, gam_ph), (l_t, l_r, l_th, l_ph)


def tetrad_divergences(point: RadialPoint, theta: float) -> np.ndarray:
    """Covariant divergences of the index-raised tetrad vectors e^{(a)alpha}.

    Returns (0, -cot(theta)/r, 0, -sqrt(phi)(2/r + phi'/(2 phi))); the
    brute-force divergence (1/sqrt|g|) d_alpha (sqrt|g| e^{(a)alpha}) is
    :func:`tetrad_divergences_fd`.
    """
    _check_theta(theta)
    r, p, sq = point.r, point.phi_metric, point.sqrt_phi
    return np.array(
        [
            0.0,
            -1.0 / (r * np.tan(theta)),
            0.0,
            -sq * (2.0 / r + point.phi_prime / (2.0 * p)),
        ]
    )


# ---------------------------------------------------------------------------
# finite-difference oracles
# ---------------------------------------------------------------------------

def _metric_at(r: float, theta: float) -> np.ndarray:
    p = 1.0 - r * r
    return np.diag([p, -1.0 / p, -r * r, -(r * np.sin(theta)) ** 2])


def _tetrad_at(r: float, theta: float) -> np.ndarray:
    p = 1.0 - r * r
    e = np.zeros((4, 4))
    e[0, 0] = p ** -0.5
    e[3, 1] = p ** 0.5
    e[1, 2] = 1.0 / r
    e[2, 3] = 1.0 / (r * np.sin(theta))
    return e


def _metric_partials(r: float, theta: float, h: float) -> np.ndarray:
    """dg[alpha, mu, nu] = partial_alpha g_{mu nu} by central differences."""
    dg = np.zeros((4, 4, 4))
    dg[1] = (_metric_at(r + h, theta) - _metric_at(r - h, theta)) / (2 * h)
    dg[2] = (_metric_at(r, theta + h) - _metric_at(r, theta - h)) / (2 * h)
    return dg


def christoffels_fd(r: float, theta: float, h: float = 1e-5) -> np.ndarray:
    """Christoffel symbols Gamma^lam_{mu nu} from central differences."""
    g_inv = np.linalg.inv(_metric_at(r, theta))
    dg = _metric_partials(r, theta, h)
    # [mu, rho, nu]: d_mu g_{rho nu} + d_nu g_{rho mu} - d_rho g_{mu nu}
    bracket = dg + dg.transpose(2, 1, 0) - dg.transpose(1, 0, 2)
    return 0.5 * np.einsum("lr,mrn->lmn", g_inv, bracket)


def _tetrad_covariant_derivatives(r: float, theta: float, h: float) -> np.ndarray:
    """nabla[alpha, b, beta] = covariant derivative of e_{(b) beta}."""
    gam = christoffels_fd(r, theta, h)

    def lowered(rr: float, tt: float) -> np.ndarray:
        return (_metric_at(rr, tt) @ _tetrad_at(rr, tt).T).T  # [b, beta]

    e_low = lowered(r, theta)
    de = np.zeros((4, 4, 4))  # [alpha, b, beta]
    de[1] = (lowered(r + h, theta) - lowered(r - h, theta)) / (2 * h)
    de[2] = (lowered(r, theta + h) - lowered(r, theta - h)) / (2 * h)
    return de - np.einsum("lab,cl->acb", gam, e_low)


def connections_fd(
    point: RadialPoint, theta: float, h: float = 1e-5
) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Connection oracle: (1/2) G^{ab} e_(a)^beta nabla_alpha e_{(b) beta}.

    Evaluated with G the bispinor generators (first tuple) and the vector
    generators (second tuple), everything else by central differences.
    """
    r = point.r
    nabla = _tetrad_covariant_derivatives(r, theta, h)
    e_up = _tetrad_at(r, theta)
    half = 0.5 * np.einsum("ak,xbk->xab", e_up, nabla)  # [alpha, a, b]
    gammas = np.einsum("xab,abij->xij", half, generator_table("bispinor"))
    ells = np.einsum("xab,abij->xij", half, generator_table("vector"))
    return tuple(gammas), tuple(ells)


def tetrad_divergences_fd(
    point: RadialPoint, theta: float, h: float = 1e-5
) -> np.ndarray:
    """Brute-force (1/sqrt|g|) d_alpha (sqrt|g| e^{(a)alpha})."""

    def weighted(rr: float, tt: float) -> np.ndarray:
        g = _metric_at(rr, tt)
        sqrt_det = np.sqrt(abs(np.linalg.det(g)))
        e_up = _tetrad_at(rr, tt)
        # raise the tetrad label with the frame metric (+,-,-,-)
        signs = np.array([1.0, -1.0, -1.0, -1.0])
        return sqrt_det * (signs[:, None] * e_up)

    dr = (weighted(point.r + h, theta) - weighted(point.r - h, theta)) / (2 * h)
    dth = (weighted(point.r, theta + h) - weighted(point.r, theta - h)) / (2 * h)

    sqrt_det = np.sqrt(abs(np.linalg.det(_metric_at(point.r, theta))))
    return (dr[:, 1] + dth[:, 2]) / sqrt_det
