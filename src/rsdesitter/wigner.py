"""Half-integer Wigner functions for the spherical-wave substitution.

The angular factor attached to a slot with helicity label sigma is

    D_sigma(theta, phi) = exp(i m phi) d^j_{-m, sigma}(theta),

with the small d-function taken from the explicit factorial sum.  Every term
of that sum, and of its theta-derivative, is a power-basis function
c^(2j-q) s^q with c = cos(theta/2), s = sin(theta/2), so for fixed labels
both functions are constant weight rows over one basis.  :func:`d_weights`
builds the two rows once per label triple, in exact integer arithmetic, and
caches them read-only.  :func:`d_rows` is the one product of weights with
:func:`power_basis`, over a cached stack of the rows of several helicities;
every value and derivative in the package is read from it.

This sign convention is the one under which the raising/lowering
recurrences in theta (listed in :func:`recurrence_residuals`) hold with the
coefficients

    a = j + 1/2,
    b = sqrt((j - 1/2)(j + 3/2)),
    c = sqrt((j - 3/2)(j + 5/2)),

where b vanishes at j = 1/2 and c is defined as zero below j = 5/2 (there it
would multiply functions that do not exist for the given j, so the value is
irrelevant; zero avoids an imaginary square root).

Half-integers are validated exactly by doubling to odd integers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from math import comb, factorial

import numpy as np


def _doubled(x, name: str = "value") -> int:
    """Exact doubled-integer representation of a (half-)integer label."""
    d = 2.0 * float(x)
    rounded = int(round(d))
    if abs(d - rounded) > 1e-9:
        raise ValueError(f"{name} = {x!r} is not a half-integer")
    return rounded


def _validate_jm(two_j: int, two_m: int, name: str) -> None:
    if two_j <= 0 or two_j % 2 == 0:
        raise ValueError(f"j must be a positive half-odd integer, got {two_j / 2}")
    if abs(two_m) > two_j or (two_j - two_m) % 2 != 0:
        raise ValueError(f"{name} = {two_m / 2} incompatible with j = {two_j / 2}")


@dataclass(frozen=True)
class AngularCoefficients:
    """Ladder coefficients (a, b, c) attached to total momentum j."""

    j: float
    a: float
    b: float
    c: float


def angular_coefficients(j) -> AngularCoefficients:
    two_j = _doubled(j, "j")
    _validate_jm(two_j, two_j, "j")
    jf = two_j / 2.0
    # b and c are the raising coefficients at sigma = 1/2 and 3/2
    b = ladder_coefficients(jf, 0.5)[1]
    c = ladder_coefficients(jf, 1.5)[1]
    return AngularCoefficients(j=jf, a=jf + 0.5, b=b, c=c)


def ladder_coefficients(j, sigma) -> tuple[float, float]:
    """(lowering, raising) coefficients for the helicity ladder at sigma.

    lowering = sqrt((j + sigma)(j - sigma + 1)) multiplies the sigma-1
    function, raising = sqrt((j - sigma)(j + sigma + 1)) the sigma+1 one.
    """
    jf = _doubled(j, "j") / 2.0
    sf = _doubled(sigma, "sigma") / 2.0
    low = (jf + sf) * (jf - sf + 1.0)
    high = (jf - sf) * (jf + sf + 1.0)
    return float(np.sqrt(max(low, 0.0))), float(np.sqrt(max(high, 0.0)))


@functools.lru_cache(maxsize=1024)
def d_weights(two_j: int, two_mp: int, two_m: int) -> np.ndarray:
    """Weights of d^j_{mp, m} and its theta-derivative on :func:`power_basis`.

    Labels are doubled.  In the factorial sum (Varshalovich, Moskalev &
    Khersonskii, section 4.3)

        d^j_{mp, m} = sqrt((j+mp)! (j-mp)! / ((j+m)! (j-m)!))
                      * sum_k (-1)^(mp-m+k) C(j+m, k) C(j-m, mp-m+k) c^p s^q,

    with c = cos(theta/2), s = sin(theta/2), p = 2j - q and q = mp - m + 2k,
    every term is a power-basis function, and so is every term of its
    theta-derivative.  Row 0 holds the value weights, row 1 the derivative
    weights, column q the weight of c^(2j-q) s^q.  The binomial rows are
    exact integers; each weight is rounded once.  The returned (2, 2j+1)
    array is cached and read-only.
    """
    if two_j < 0:
        raise ValueError("j must be non-negative")
    for lbl, val in (("mp", two_mp), ("m", two_m)):
        if abs(val) > two_j or (two_j - val) % 2 != 0:
            raise ValueError(f"{lbl} = {val / 2} incompatible with j = {two_j / 2}")

    jm = (two_j + two_m) // 2
    jmm = (two_j - two_m) // 2
    dm = (two_mp - two_m) // 2  # mp - m
    value = [0] * (two_j + 1)
    twice_dtheta = [0] * (two_j + 1)
    for k in range(max(0, -dm), min(jm, jmm - dm) + 1):
        term = (-1) ** (dm + k) * comb(jm, k) * comb(jmm, dm + k)
        q = dm + 2 * k  # power of sin(theta/2); two_j - q is the power of cos
        value[q] = term
        if q > 0:
            twice_dtheta[q - 1] += q * term
        if q < two_j:
            twice_dtheta[q + 1] -= (two_j - q) * term
    num = factorial((two_j + two_mp) // 2) * factorial((two_j - two_mp) // 2)
    den = factorial(jm) * factorial(jmm)
    table = np.array(
        [
            [math.copysign(math.sqrt(w * w * num / den), w) for w in value],
            [math.copysign(math.sqrt(w * w * num / (4 * den)), w) for w in twice_dtheta],
        ]
    )
    table.flags.writeable = False
    return table


def power_basis(two_j: int, theta) -> np.ndarray:
    """P_q(theta) = cos(theta/2)^(2j-q) sin(theta/2)^q for q = 0..2j.

    Shape (2j+1,) + shape of theta; the basis of :func:`d_weights`.
    """
    half = np.asarray(theta, dtype=float) / 2.0
    q = np.arange(two_j + 1).reshape((-1,) + (1,) * half.ndim)
    return np.cos(half) ** (two_j - q) * np.sin(half) ** q


@functools.lru_cache(maxsize=128)
def _weight_stack(two_j: int, two_mp: int, two_ms: tuple[int, ...]) -> np.ndarray:
    """Value rows, then derivative rows, of d^j_{mp, m} for each m in ``two_ms``.

    Shape (2 * len(two_ms), 2j+1); a helicity with |m| > j gets zero rows.
    Cached per labels and read-only.
    """
    table = np.zeros((2, len(two_ms), two_j + 1))
    for i, two_m in enumerate(two_ms):
        if abs(two_m) <= two_j:
            table[:, i] = d_weights(two_j, two_mp, two_m)
    table = table.reshape(2 * len(two_ms), two_j + 1)
    table.flags.writeable = False
    return table


def d_rows(two_j: int, two_mp: int, two_ms: tuple[int, ...], theta) -> np.ndarray:
    """d^j_{mp, m}(theta) and its theta-derivative for every m in ``two_ms``.

    Labels are doubled; a helicity with |m| > j has no function at this j
    and gives zero rows.  Returns shape (2, len(two_ms)) + shape of theta:
    values first, then derivatives, from one product of the cached weight
    stack with :func:`power_basis`.
    """
    basis = power_basis(two_j, theta)
    table = _weight_stack(two_j, two_mp, two_ms) @ basis.reshape(two_j + 1, -1)
    return table.reshape((2, len(two_ms)) + basis.shape[1:])


def _label_rows(j, mp, m, theta) -> np.ndarray:
    """(value, derivative) of d^j_{mp, m}(theta), the labels checked as d_weights does."""
    two_j, two_mp, two_m = _doubled(j, "j"), _doubled(mp, "mp"), _doubled(m, "m")
    d_weights(two_j, two_mp, two_m)  # raises on labels it has no rows for
    return d_rows(two_j, two_mp, (two_m,), theta)[:, 0]


def wigner_d(j, mp, m, theta):
    """Small Wigner function d^j_{mp, m}(theta), the value row of :func:`d_rows`.

    ``theta`` may be a scalar or an ndarray.  Labels may be any
    (half-)integers with |mp|, |m| <= j and j - mp, j - m integral.
    """
    out = _label_rows(j, mp, m, theta)[0]
    return out if out.ndim else float(out)


def wigner_d_dtheta(j, mp, m, theta):
    """Analytic theta-derivative of the small d-function, the derivative row.

    Takes the labels of :func:`wigner_d` and rejects the same invalid ones.
    """
    out = _label_rows(j, mp, m, theta)[1]
    return out if out.ndim else float(out)


def wigner_D(j, m, sigma, theta, phi):
    """Slot angular function exp(i m phi) d^j_{-m, sigma}(theta)."""
    two_j = _doubled(j, "j")
    two_m = _doubled(m, "m")
    two_s = _doubled(sigma, "sigma")
    _validate_jm(two_j, two_m, "m")
    if abs(two_s) > two_j or abs(two_s) > 3 or (two_j - two_s) % 2 != 0:
        raise ValueError(
            f"sigma = {two_s / 2} invalid for a vector-bispinor slot at j = {two_j / 2}"
        )
    return np.exp(1j * (two_m / 2.0) * np.asarray(phi)) * wigner_d(j, -m, sigma, theta)


def mixed_weight(m, sigma, theta):
    """(i d_phi - sigma cos theta)/sin theta on exp(i m phi) d^j_{-m, sigma}(theta).

    Equals (-m - sigma cos theta)/sin theta; theta must lie inside (0, pi).
    """
    return (-m - sigma * np.cos(theta)) / np.sin(theta)


def recurrence_residuals(j, m, thetas, fd_step: float = 1e-6):
    """Residual table for the helicity ladder relations on a theta grid.

    At each helicity sigma = +-1/2, +-3/2 with |sigma| <= j the function
    D_sigma = exp(i m phi) d^j_{-m, sigma}(theta) obeys

        dtheta:  d_theta D_sigma = ( low D_{sigma-1} - high D_{sigma+1}) / 2
        mixed:   ((i d_phi - sigma cos)/sin) D_sigma
                                 = (-low D_{sigma-1} - high D_{sigma+1}) / 2

    with (low, high) from :func:`ladder_coefficients`.  Returns a list of
    dict rows with the analytic residual, the residual with the
    theta-derivative replaced by central finite differences, and the worst
    analytic/finite-difference derivative disagreement.  Every value comes
    from three :func:`d_rows` calls, at theta and theta +- fd_step.  Grid
    points must be interior to (0, pi).
    """
    thetas = np.asarray(thetas, dtype=float)
    if thetas.min() <= 0.0 or thetas.max() >= np.pi:
        raise ValueError("theta grid must be interior to (0, pi)")
    two_j = _doubled(j, "j")
    two_m = _doubled(m, "m")
    _validate_jm(two_j, two_m, "m")
    # helicities -5/2 .. 5/2: row (two_s + 5) // 2 holds sigma = two_s / 2
    (d, dtheta), (d_up, _), (d_down, _) = (
        d_rows(two_j, -two_m, (-5, -3, -1, 1, 3, 5), th)
        for th in (thetas, thetas + fd_step, thetas - fd_step)
    )

    rows = []
    for two_s in (1, -1, 3, -3):
        if abs(two_s) > two_j:
            continue
        sigma, i = two_s / 2.0, (two_s + 5) // 2
        low, high = ladder_coefficients(j, sigma)
        mixed = mixed_weight(two_m / 2.0, sigma, thetas) * d[i]
        fd = (d_up[i] - d_down[i]) / (2.0 * fd_step)
        for kind, lhs, lhs_fd, sign in (
            ("dtheta", dtheta[i], fd, 1.0), ("mixed", mixed, mixed, -1.0)
        ):
            rhs = 0.5 * (sign * low * d[i - 1] - high * d[i + 1])
            rows.append(
                {
                    "relation": f"{kind} sigma={sigma:+.1f}",
                    "residual": float(np.abs(lhs - rhs).max()),
                    "residual_fd": float(np.abs(lhs_fd - rhs).max()),
                    "fd_vs_analytic": float(np.abs(lhs - lhs_fd).max()),
                }
            )
    return rows
