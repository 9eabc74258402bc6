"""Constant matrices of the spin-3/2 formalism in the spherical tetrad gauge.

Conventions used throughout the package:

* metric signature (+, -, -, -), tetrad labels a, b in {0, 1, 2, 3};
* the bispinor is kept in the two-spinor split Phi = (xi, eta), so gamma^0
  has off-diagonal 2x2 identity blocks and gamma^k has off-diagonal
  -/+ sigma_k blocks (the sign choice is the one that reduces the curved
  Dirac-type operator blockwise to the coupled xi/eta system and makes the
  bispinor inversion matrix the exact anti-diagonal below);
* bispinor generators sigma^{ab} = [gamma^a, gamma^b] / 4;
* vector generators act on the tetrad-vector index as
  (j^{ab})[k, l] = delta^a_k g^{bl} - delta^b_k g^{al};
* the cyclic transform U rotates the three spatial vector components into
  the basis diagonalizing the spin-1 projection; tilde generators are the
  U-conjugated vector generators.

16-component objects are ordered bispinor-major: index = 4*s + l with
s in (xi_upper, xi_lower, eta_upper, eta_lower) and l the cyclic vector
index, so a product operator is ``np.kron(bispinor_part, vector_part)``.

The frame rotation S(theta, phi) and its inverse are built for arrays of
angles at once, as a Kronecker product of (..., 4, 4) block stacks;
:func:`schrodinger_rotation` is the one-angle case, and the unitarity and
momentum-conjugation checks evaluate all of their sample angles in one pass.

All functions are pure and return fresh arrays, except
:func:`generator_table`, which hands out one cached read-only table per
generator family; it and the read-only (3, 16, 16) table of the spin
projections S_i are built on first use, and values may be shared freely
between threads.
"""

from __future__ import annotations

import functools
import warnings

import numpy as np

METRIC = np.diag([1.0, -1.0, -1.0, -1.0])

_SQ2 = np.sqrt(2.0)

_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

_ID2 = np.eye(2, dtype=complex)


def _check_index(a: int) -> None:
    if a not in (0, 1, 2, 3):
        raise ValueError(f"tetrad index must be 0..3, got {a!r}")


def _check_pair(a: int, b: int) -> None:
    _check_index(a)
    _check_index(b)
    if a == b:
        raise ValueError(f"generator indices must differ, got ({a}, {b})")


def pauli(k: int) -> np.ndarray:
    """Pauli matrix sigma_k, k in {1, 2, 3}."""
    if k not in (1, 2, 3):
        raise ValueError(f"Pauli index must be 1..3, got {k!r}")
    return _PAULI[k - 1].copy()


def _gamma_formula(a: int) -> np.ndarray:
    g = np.zeros((4, 4), dtype=complex)
    if a == 0:
        g[:2, 2:] = _ID2
        g[2:, :2] = _ID2
    else:
        g[:2, 2:] = -_PAULI[a - 1]
        g[2:, :2] = _PAULI[a - 1]
    return g


_GAMMA = np.stack([_gamma_formula(a) for a in range(4)])
_GAMMA.flags.writeable = False


def gamma_matrix(a: int) -> np.ndarray:
    """Dirac matrix gamma^a (4x4) in the two-spinor split representation."""
    _check_index(a)
    return _GAMMA[a].copy()


def bispinor_generator(a: int, b: int) -> np.ndarray:
    """Lorentz generator sigma^{ab} = [gamma^a, gamma^b]/4 on bispinors."""
    _check_pair(a, b)
    return generator_table("bispinor")[a, b].copy()


def cyclic_transform() -> np.ndarray:
    """Unitary U mapping the spatial vector components to the cyclic basis.

    Row order: (time, spin +1, spin 0, spin -1); U^{-1} = U^dagger.
    """
    s = 1.0 / _SQ2
    return np.array(
        [
            [1, 0, 0, 0],
            [0, -s, 1j * s, 0],
            [0, 0, 0, 1],
            [0, s, 1j * s, 0],
        ],
        dtype=complex,
    )


def cyclic_transform_inverse() -> np.ndarray:
    """Closed-form inverse of the cyclic transform (its adjoint)."""
    return cyclic_transform().conj().T


def tilde_generator(a: int, b: int) -> np.ndarray:
    """Vector generator conjugated into the cyclic basis, U j^{ab} U^{-1}."""
    _check_pair(a, b)
    return generator_table("cyclic")[a, b].copy()


def _generator(family: str, a: int, b: int) -> np.ndarray:
    """G^{ab} of one family from its defining formula (a != b)."""
    if family == "bispinor":
        ga, gb = _GAMMA[a], _GAMMA[b]
        return 0.25 * (ga @ gb - gb @ ga)
    if family == "vector":
        m = np.zeros((4, 4))
        m[a, b] = METRIC[b, b]
        m[b, a] = -METRIC[a, a]
        return m.astype(complex)
    if family == "cyclic":
        u = cyclic_transform()
        return u @ generator_table("vector")[a, b] @ u.conj().T
    if family == "tilde":
        # full transformed generator: bispinor part plus cyclic vector part
        return np.kron(generator_table("bispinor")[a, b], np.eye(4)) + np.kron(
            np.eye(4), generator_table("cyclic")[a, b]
        )
    raise ValueError(f"unknown generator family {family!r}")


@functools.lru_cache(maxsize=None)  # at most the four families below
def generator_table(family: str) -> np.ndarray:
    """Read-only table G[a, b] of one generator family, zero on a == b.

    Families: ``"bispinor"`` (sigma^{ab}, 4x4), ``"vector"`` (j^{ab}, 4x4),
    ``"cyclic"`` (U j^{ab} U^{-1}, 4x4) and ``"tilde"`` (the full 16x16
    generator sigma^{ab} x 1 + 1 x U j^{ab} U^{-1}).  Built once per
    process on first use; the public constructors return copies of its
    slices.
    """
    n = 16 if family == "tilde" else 4
    table = np.zeros((4, 4, n, n), dtype=complex)
    for a in range(4):
        for b in range(4):
            if a != b:
                table[a, b] = _generator(family, a, b)
    table.flags.writeable = False
    return table


def tilde_spin_matrices() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hermitian spin-1 projections (T~1, T~2, T~3) in the cyclic basis.

    T~1 = i * tilde(j^{23}), T~2 = i * tilde(j^{31}), T~3 = i * tilde(j^{12});
    T~3 is diagonal with eigenvalues (0, +1, 0, -1).
    """
    return (
        1j * tilde_generator(2, 3),
        1j * tilde_generator(3, 1),
        1j * tilde_generator(1, 2),
    )


def parity_bispinor() -> np.ndarray:
    """Spatial-inversion matrix on the bispinor index (spherical gauge)."""
    return -np.fliplr(np.eye(4)).astype(complex)


def parity_vector() -> np.ndarray:
    """Spatial-inversion matrix on the cyclic vector index."""
    return np.array(
        [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]],
        dtype=complex,
    )


def parity_operators() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inversion matrices: (bispinor 4x4, vector 4x4, combined 16x16).

    The combined operator is the Kronecker product and squares to the
    identity exactly.
    """
    pb = parity_bispinor()
    pv = parity_vector()
    return pb, pv, np.kron(pb, pv)


def _stacked_matrix(rows: list) -> np.ndarray:
    """Matrix of the given entries, each broadcast over the leading angle axes."""
    return np.stack([np.stack(np.broadcast_arrays(*row), axis=-1) for row in rows], axis=-2)


def spinor_rotation(theta, phi) -> np.ndarray:
    """2x2 rotation U_2(theta, phi) from the Cartesian to the spherical frame.

    Angle arrays broadcast; the result then has shape (..., 2, 2).
    """
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    ep, em = np.exp(1j * phi / 2.0), np.exp(-1j * phi / 2.0)
    return _stacked_matrix([[c * ep, s * em], [-s * ep, c * em]])


def spatial_rotation(theta, phi) -> np.ndarray:
    """3x3 real rotation carrying Cartesian vector components to spherical.

    Angle arrays broadcast; the result then has shape (..., 3, 3).
    """
    ct, st = np.cos(theta), np.sin(theta)
    cp, sp = np.cos(phi), np.sin(phi)
    return _stacked_matrix(
        [
            [ct * cp, ct * sp, -st],
            [-sp, cp, 0.0],
            [st * cp, st * sp, ct],
        ]
    )


def _schrodinger_blocks(theta, phi) -> tuple[np.ndarray, np.ndarray]:
    """Bispinor and vector factors of S(theta, phi), each of shape (..., 4, 4)."""
    u2 = spinor_rotation(theta, phi)
    bisp = np.zeros(u2.shape[:-2] + (4, 4), dtype=complex)
    bisp[..., :2, :2] = u2
    bisp[..., 2:, 2:] = u2
    vec = np.zeros_like(bisp)
    vec[..., 0, 0] = 1.0
    vec[..., 1:, 1:] = spatial_rotation(theta, phi)
    return bisp, vec


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of the trailing matrices, broadcast over leading axes.

    Entry (4 i + k, 4 j + l) is the single product a[i, j] * b[k, l], the
    value ``np.kron`` gives for each pair of matrices.
    """
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    n, m = a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]
    return out.reshape(out.shape[:-4] + (n, m))


def _rotation_stack(theta, phi, inverse: bool = False) -> np.ndarray:
    """S(theta, phi), or its closed-form inverse, shape (..., 16, 16)."""
    bisp, vec = _schrodinger_blocks(theta, phi)
    if inverse:
        bisp, vec = np.swapaxes(bisp.conj(), -1, -2), np.swapaxes(vec.conj(), -1, -2)
    return _kron(bisp, vec)


def schrodinger_rotation(theta: float, phi: float) -> np.ndarray:
    """16x16 gauge rotation S(theta, phi) from Cartesian to spherical tetrad.

    theta in {0, pi} is allowed but the frame is coordinate-singular there,
    so a warning is emitted.
    """
    if min(abs(theta), abs(np.pi - theta)) < 1e-12:
        warnings.warn(
            "schrodinger_rotation evaluated on the polar axis; "
            "the spherical frame is coordinate-singular there",
            stacklevel=2,
        )
    return _rotation_stack(theta, phi)


@functools.cache
def _spin_table() -> np.ndarray:
    """Read-only (3, 16, 16) stack of S_1, S_2, S_3, built on first use."""
    eye = np.eye(4)
    table = np.zeros((3, 16, 16), dtype=complex)
    for i in (1, 2, 3):
        sigma_block = np.kron(_ID2, _PAULI[i - 1])  # diag(sigma_i, sigma_i)
        tau = np.zeros((4, 4), dtype=complex)
        for j in range(1, 4):
            for k in range(1, 4):
                tau[j, k] = -1j * _levi_civita(i, j, k)
        table[i - 1] = 0.5 * np.kron(sigma_block, eye) + np.kron(eye, tau)
    table.flags.writeable = False
    return table


def _levi_civita(i: int, j: int, k: int) -> int:
    return (i - j) * (j - k) * (k - i) // 2


# ---------------------------------------------------------------------------
# identity battery (consumed by the tests and the ``verify algebra`` command)
# ---------------------------------------------------------------------------

def clifford_residual() -> float:
    """max |gamma^a gamma^b + gamma^b gamma^a - 2 g^{ab} I| over all pairs."""
    worst = 0.0
    eye = np.eye(4)
    for a in range(4):
        for b in range(4):
            ga, gb = gamma_matrix(a), gamma_matrix(b)
            dev = ga @ gb + gb @ ga - 2.0 * METRIC[a, b] * eye
            worst = max(worst, float(np.abs(dev).max()))
    return worst


def lorentz_algebra_residual(family: str) -> float:
    """max deviation of [G^{ab}, G^{cd}] from the so(3,1) structure terms.

    The commutator must equal
    g^{ad} G^{bc} + g^{bc} G^{ad} - g^{ac} G^{bd} - g^{bd} G^{ac}
    for every pair of index pairs.  Each (a, b) is checked against all
    (c, d) at once; a == b and c == d are skipped.
    """
    gen = generator_table(family)
    g_c = METRIC[:, :, None, None, None]  # g_c[a] = g^{ac} along the c axis
    g_d = METRIC[:, None, :, None, None]  # g_d[a] = g^{ad} along the d axis
    off = ~np.eye(4, dtype=bool)
    worst = 0.0
    for a, b in zip(*np.nonzero(off)):
        gab = gen[a, b]
        lhs = gab @ gen - gen @ gab  # [c, d] = [G^{ab}, G^{cd}]
        rhs = (
            g_d[a] * gen[b][:, None]
            + g_c[b] * gen[a][None]
            - g_c[a] * gen[b][None]
            - g_d[b] * gen[a][:, None]
        )
        worst = max(worst, float(np.abs(lhs - rhs)[off].max()))
    return worst


def gamma_contraction_residuals() -> dict[str, float]:
    """Deviations of the two contraction identities used by the radial split.

    gamma^1 sigma^{31} + gamma^2 sigma^{32} = gamma^3 and
    gamma^0 sigma^{03} = gamma^3 / 2.
    """
    lhs1 = gamma_matrix(1) @ bispinor_generator(3, 1) + gamma_matrix(2) @ bispinor_generator(3, 2)
    lhs2 = gamma_matrix(0) @ bispinor_generator(0, 3)
    g3 = gamma_matrix(3)
    return {
        "gamma1.sigma31 + gamma2.sigma32 == gamma3": float(np.abs(lhs1 - g3).max()),
        "gamma0.sigma03 == gamma3/2": float(np.abs(lhs2 - 0.5 * g3).max()),
    }


def reference_tilde_matrices() -> dict[str, np.ndarray]:
    """Closed-form cyclic-basis spin matrices used as entrywise references.

    T~1 and T~2 are the standard spherical-basis spin-1 matrices embedded in
    the (1, 2, 3) cyclic slots, T~3 their diagonal projection, and the boost
    block couples the time slot to the spin-0 slot with -1 entries.
    """
    s = 1.0 / _SQ2
    t1 = np.array(
        [[0, 0, 0, 0], [0, 0, s, 0], [0, s, 0, s], [0, 0, s, 0]], dtype=complex
    )
    t2 = np.array(
        [[0, 0, 0, 0], [0, 0, -1j * s, 0], [0, 1j * s, 0, -1j * s], [0, 0, 1j * s, 0]],
        dtype=complex,
    )
    t3 = np.diag([0, 1.0, 0, -1.0]).astype(complex)
    boost = np.zeros((4, 4), dtype=complex)
    boost[0, 2] = boost[2, 0] = -1.0
    return {"T1": t1, "T2": t2, "T3": t3, "boost03": boost}


def tilde_similarity_residuals() -> dict[str, float]:
    """Entrywise deviation of U j^{ab} U^{-1} from the closed references."""
    ref = reference_tilde_matrices()
    t1, t2, t3 = tilde_spin_matrices()
    return {
        "T1": float(np.abs(t1 - ref["T1"]).max()),
        "T2": float(np.abs(t2 - ref["T2"]).max()),
        "T3": float(np.abs(t3 - ref["T3"]).max()),
        "boost03": float(np.abs(tilde_generator(0, 3) - ref["boost03"]).max()),
    }


def unitarity_residuals() -> dict[str, float]:
    """Deviations of U U^dagger and of S S^{-1} (five seeded angles) from I."""
    u = cyclic_transform()
    out = {"U.Udagger": float(np.abs(u @ u.conj().T - np.eye(4)).max())}
    rng = np.random.default_rng(7)
    th, ph = _angle_draws(rng, 5, (0.2, np.pi - 0.2), (0.0, 2 * np.pi))
    s = _rotation_stack(th, ph)
    sinv = _rotation_stack(th, ph, inverse=True)
    out["S.Sinv"] = max(
        float(np.abs(s @ sinv - np.eye(16)).max()),
        float(np.abs(sinv - np.linalg.inv(s)).max()),
    )
    return out


def parity_involution_residual() -> float:
    combined = parity_operators()[2]
    return float(np.abs(combined @ combined - np.eye(16)).max())


def _angle_draws(rng, n: int, theta_range, phi_range) -> tuple[np.ndarray, np.ndarray]:
    """n (theta, phi) pairs, drawn pair by pair as the scalar batteries drew them."""
    pairs = [(rng.uniform(*theta_range), rng.uniform(*phi_range)) for _ in range(n)]
    return tuple(np.array(pairs).T)


def total_momentum_conjugation_residual(n_points: int = 20, seed: int = 0) -> float:
    """Check the spherical-frame form of the conjugated total momentum.

    S (l_i + S_i) S^{-1} applied to smooth test sections must equal
    l_3 for the third component and l_{1,2} plus S_3 cos(phi)/sin(theta)
    resp. S_3 sin(phi)/sin(theta) for the transverse ones (the pairing is
    fixed numerically; a transcription with sin and cos swapped fails this
    check).  Derivatives are taken by central differences.

    All points are evaluated at once, one stencil angle at a time, so each
    stack of S^{-1} is (n, 16, 16).
    """
    if n_points < 1:
        raise ValueError(f"n_points must be at least 1, got {n_points}")
    rng = np.random.default_rng(seed)
    h = 1e-6
    k = np.arange(16)
    th, ph = _angle_draws(rng, n_points, (0.3, np.pi - 0.3), (0.0, 2 * np.pi))
    col_th, col_ph = th[:, None], ph[:, None]

    def section(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
        return np.cos((k + 1) * 0.3 * theta[:, None] + 0.1 * k) * np.exp(
            1j * 0.2 * (k % 3) * phi[:, None]
        ) + 0.3 * k * np.sin(theta[:, None])

    def apply(mat: np.ndarray, vecs: np.ndarray) -> np.ndarray:
        return (mat @ vecs[..., None])[..., 0]

    def rotated(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
        return apply(_rotation_stack(theta, phi, inverse=True), section(theta, phi))

    def partials(fun) -> tuple[np.ndarray, np.ndarray]:
        dth = (fun(th + h, ph) - fun(th - h, ph)) / (2 * h)
        dph = (fun(th, ph + h) - fun(th, ph - h)) / (2 * h)
        return dth, dph

    def orbital(i: int, dth: np.ndarray, dph: np.ndarray) -> np.ndarray:
        ct = 1.0 / np.tan(col_th)
        if i == 1:
            return 1j * (np.sin(col_ph) * dth + ct * np.cos(col_ph) * dph)
        if i == 2:
            return 1j * (-np.cos(col_ph) * dth + ct * np.sin(col_ph) * dph)
        return -1j * dph

    spins = _spin_table()
    f = section(th, ph)
    rot = rotated(th, ph)
    d_rot = partials(rotated)
    d_sec = partials(section)
    frame = _rotation_stack(th, ph)
    s3f = apply(spins[2], f)
    worst = 0.0
    for i in (1, 2, 3):
        conj = apply(frame, orbital(i, *d_rot) + apply(spins[i - 1], rot))
        expect = orbital(i, *d_sec)
        if i == 1:
            expect = expect + (np.cos(col_ph) / np.sin(col_th)) * s3f
        elif i == 2:
            expect = expect + (np.sin(col_ph) / np.sin(col_th)) * s3f
        worst = max(worst, float(np.abs(conj - expect).max()))
    return worst
