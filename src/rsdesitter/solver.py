"""Numerical integration of the radial system with singular-endpoint tools.

Both endpoints of the radial interval (0, pi/2) are regular singular
points: the coefficient matrix has a simple pole with closed-form residue
and constant term.  :func:`frobenius` takes both from the radial system and
returns the residue's eigen-structure (the local power-law exponents), and
:func:`endpoint_launch` builds first-order-accurate solution data near an
endpoint from a chosen exponent.

:func:`integrate` is an adaptive embedded Runge-Kutta pair of orders
5(4) (Dormand-Prince coefficients) with PI step-size control and a
continuous (dense) output on every accepted step.  Each attempted step
takes its coefficient matrices from one batched call; the dense output and
the constraint residuals of the accepted steps are computed in one batch
once the run ends, so that drift of the algebraic relations can be
monitored directly.  :func:`integrate_many` runs many integrations in one
lockstep loop, batching each attempt's coefficient call and stage products
over the members.  Both loops drive the same step controller, one
:class:`_Member` per run, so each member's trace is bit for bit its lone
:func:`integrate` run.  The stage arithmetic keeps its two shapes, one
vector and a batch of them: a batch of one costs more per attempt than
the lone loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .radial import ConstraintSet, RadialSystem, SystemBatch, constraint_rank

_HALF_PI = 0.5 * np.pi
# frobenius counts as equal two exponents' real parts that differ by less than
# this fraction of the largest |exponent|, and two eigenvector components whose
# moduli differ by less than this fraction
_TIE_RTOL = 1e-8

# Dormand-Prince 5(4) tableau: row i < 5 holds the weights of stages 0..i in
# the input of stage i + 1; row 5 those of stages 0..5 in the fifth-order
# solution, which is also the input of stage 6 (FSAL); row 6 those of all
# seven stages in the error estimate
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_TABLEAU = np.zeros((7, 7))
_TABLEAU[0, :1] = [1 / 5]
_TABLEAU[1, :2] = [3 / 40, 9 / 40]
_TABLEAU[2, :3] = [44 / 45, -56 / 15, 32 / 9]
_TABLEAU[3, :4] = [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]
_TABLEAU[4, :5] = [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]
_TABLEAU[5, :6] = [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]
_TABLEAU[6] = [
    35 / 384 - 5179 / 57600,
    0.0,
    500 / 1113 - 7571 / 16695,
    125 / 192 - 393 / 640,
    -2187 / 6784 + 92097 / 339200,
    11 / 84 - 187 / 2100,
    -1 / 40,
]
# dense-output weights (classic order-4 continuous extension)
_D = np.array(
    [
        -12715105075 / 11282082432,
        0.0,
        87487479700 / 32700410799,
        -10690763975 / 1880347072,
        701980252875 / 199316789632,
        -1453857185 / 822651844,
        69997945 / 29380423,
    ]
)


class SingularityError(RuntimeError):
    """Step size underflowed, typically while approaching an endpoint."""

    def __init__(self, message: str, trace: "SolutionTrace | None" = None):
        super().__init__(message)
        self.trace = trace


class ToleranceError(RuntimeError):
    """The requested local tolerance could not be met."""


@dataclass(frozen=True)
class IndicialData:
    """Local power-law data of a singular endpoint.

    ``exponents`` are the eigenvalues of the residue matrix
    lim (omega - w0) A(omega), sorted by descending real part (then by
    descending imaginary part where real parts tie, see :func:`frobenius`);
    solutions behave like |omega - w0|^exponent near the endpoint.
    """

    endpoint: str
    direction: int
    residue: np.ndarray
    subleading: np.ndarray
    exponents: np.ndarray
    vectors: np.ndarray
    eigen_residuals: np.ndarray

    def regular_indices(self, tol: float = 1e-12) -> list[int]:
        """Indices of exponents with non-negative real part (bounded data)."""
        return [k for k in range(len(self.exponents)) if self.exponents[k].real >= -tol]


@dataclass
class SolutionTrace:
    """Accepted-step samples of one integration.

    ``residuals`` holds the normalized constraint-row values at each
    sample; ``steps`` and ``errors`` are the step sizes and local error
    estimates.  ``rejected_steps`` counts the rejected attempts and
    ``rhs_evals`` the products A(omega) Y (one at the start, six per
    attempt).  ``evaluate`` interpolates with the integrator's dense
    output (fourth-order accurate between samples); row i of ``_dense``
    holds the five coefficient vectors of the segment from ``omegas[i]``
    over the step ``steps[i + 1]``.
    """

    omegas: np.ndarray
    states: np.ndarray
    residuals: np.ndarray
    steps: np.ndarray
    errors: np.ndarray
    rejected_steps: int = 0
    rhs_evals: int = 0
    _dense: np.ndarray = field(default_factory=lambda: np.zeros((0, 5, 0)), repr=False)

    @property
    def n_steps(self) -> int:
        return len(self.omegas) - 1

    @property
    def step_range(self) -> tuple[float, float]:
        """Smallest and largest |h| of the accepted steps (0, 0 without one)."""
        if self.n_steps == 0:
            return 0.0, 0.0
        sizes = np.abs(self.steps[1:])
        return float(sizes.min()), float(sizes.max())

    def evaluate(self, omega: float) -> np.ndarray:
        lo, hi = sorted((self.omegas[0], self.omegas[-1]))
        if not lo <= omega <= hi:
            raise ValueError(f"omega = {omega} outside the integrated range")
        if len(self._dense) == 0:
            raise ValueError(f"no dense segment covers omega = {omega}")
        # segment i runs from omegas[i] to omegas[i + 1]; a shared end goes
        # to the earlier segment
        sign = 1.0 if self.omegas[-1] >= self.omegas[0] else -1.0
        i = int(np.searchsorted(sign * self.omegas, sign * omega, side="left")) - 1
        i = min(max(i, 0), len(self._dense) - 1)
        t = min(max((omega - self.omegas[i]) / self.steps[i + 1], 0.0), 1.0)
        r1, r2, r3, r4, r5 = self._dense[i]
        return r1 + t * (r2 + (1 - t) * (r3 + t * (r4 + (1 - t) * r5)))


def integrate(
    system: RadialSystem,
    constraints: ConstraintSet | None,
    omega_start: float,
    omega_end: float,
    y0: np.ndarray,
    tol: float = 1e-10,
    max_steps: int = 200_000,
) -> SolutionTrace:
    """Integrate Y' = A(omega) Y from omega_start to omega_end.

    The local error per step is controlled to ``tol`` (used as both the
    absolute and relative weight), which must be finite and positive.  Each attempted step takes the matrices
    of its stages 1-5 from one :meth:`RadialSystem.matrices` call; stage 6
    sits at w + h like stage 5 and reuses its matrix, and is the first
    stage of the next step (FSAL).  The dense output of the accepted steps
    and their constraint residuals are built in one batch after the loop
    (also for the partial trace of a failed run).  Near a singular endpoint
    the step size can underflow; that raises :class:`SingularityError`
    carrying the partial trace, while a persistently rejected step raises
    :class:`ToleranceError`.
    """
    run = _Member(system, constraints, omega_start, omega_end, y0, tol, max_steps)
    y = run.states[0]
    n = y.size
    k_first = system.matrix(run.w) @ y

    while (outcome := run.before_attempt()) is None:
        h = run.h
        a = system.matrices(run.w + _C[1:6] * h)
        k = np.empty((7, n), dtype=complex)
        k[0] = k_first
        for i in range(5):
            k[i + 1] = a[i] @ (y + h * (_TABLEAU[i, : i + 1] @ k[: i + 1]))
        y_new = y + h * (_TABLEAU[5, :6] @ k[:6])
        k[6] = a[4] @ y_new
        scale = tol + tol * np.maximum(np.abs(y), np.abs(y_new))
        err = math.sqrt((np.abs(h * (_TABLEAU[6] @ k) / scale) ** 2).sum() / n)
        if run.after_attempt(err, y_new, k):
            y, k_first = y_new, k[6]

    if isinstance(outcome, Exception):
        raise outcome
    return outcome


class _Member:
    """Step control and accepted steps of one Dormand-Prince run.

    The one step controller of :func:`integrate` and of every member of
    :func:`integrate_many`; the loops only do the stage arithmetic.
    :meth:`before_attempt` ends the run or clips the step to the end, and
    :meth:`after_attempt` accepts or rejects an attempt and sets the next
    step (PI control, Hairer, Norsett & Wanner, *Solving ODEs I*, II.4).
    """

    def __init__(self, system, constraints, omega_start, omega_end, y0, tol, max_steps):
        lo, hi = sorted((omega_start, omega_end))
        if not (0.0 < lo and hi < _HALF_PI):
            raise ValueError("integration range must be inside (0, pi/2)")
        y = np.asarray(y0, dtype=complex).copy()
        if y.shape != (system.dimension,):
            raise ValueError(f"state must have shape ({system.dimension},)")
        if not np.all(np.isfinite(y)):
            raise ValueError("initial state must be finite")
        if not (math.isfinite(tol) and tol > 0.0):
            raise ValueError(f"tol must be finite and positive, got {tol!r}")
        self.direction = 1.0 if omega_end >= omega_start else -1.0
        span = abs(omega_end - omega_start)
        self.h = self.direction * min(1e-2, 0.1 * span)
        self.h_min = max(1e-14, 4.0 * np.finfo(float).eps * span)
        self.constraints, self.end, self.tol, self.max_steps = (
            constraints, omega_end, tol, max_steps
        )
        self.w = float(omega_start)
        self.omegas, self.states, self.steps, self.errors = [self.w], [y], [0.0], [0.0]
        self.stages = []
        self.rhs_evals, self.rejected, self.attempts = 1, 0, 0
        self.err_prev, self.rejected_in_a_row = 1.0, 0
        self.failure = None

    def before_attempt(self):
        """None if another attempt is due (its step clipped to the end), else the outcome.

        The outcome is the trace, the :class:`SingularityError` of an
        underflowed step or the :class:`ToleranceError` of a run that is
        out of attempts or was rejected too often in a row.
        """
        if self.failure is not None:
            return self.failure
        if self.attempts == self.max_steps:
            return ToleranceError(f"exceeded {self.max_steps} steps before reaching omega_end")
        if self.direction * (self.end - self.w) <= 0:
            return self.trace()
        if abs(self.h) < self.h_min:
            return SingularityError(
                f"step size underflow at omega = {self.w:.6g} (h = {abs(self.h):.3e})",
                self.trace(),
            )
        if self.direction * (self.w + self.h - self.end) > 0:
            self.h = self.end - self.w
        return None

    def after_attempt(self, err: float, y_new: np.ndarray, k: np.ndarray) -> bool:
        """Accept or reject the attempt with error norm ``err``; True if accepted.

        An accepted step keeps ``y_new`` and the stages ``k`` (views are
        fine: the loops never write into them afterwards).
        """
        self.attempts += 1
        self.rhs_evals += 6
        accepted = err <= 1.0
        if accepted:
            self.stages.append(k)
            self.w = self.w + self.h
            self.omegas.append(self.w)
            self.states.append(y_new)
            self.steps.append(self.h)
            self.errors.append(err)
            fac = 0.9 * err ** -0.14 * self.err_prev ** 0.08 if err > 0 else 5.0
            self.err_prev = max(err, 1e-4)
            self.rejected_in_a_row = 0
        else:
            fac = max(0.2, 0.9 * err ** -0.2)
            self.rejected += 1
            self.rejected_in_a_row += 1
            if self.rejected_in_a_row > 60:
                self.failure = ToleranceError(
                    f"unable to meet tol = {self.tol:.1e} at omega = {self.w:.6g} "
                    f"(error estimate {err:.3e})"
                )
        self.h = self.h * min(5.0, max(0.2, fac))
        return accepted

    def trace(self) -> SolutionTrace:
        """Trace of the accepted steps, with every dense-output segment built in one pass.

        Empties the stage list after copying it into one array, so the
        per-step arrays are freed before the segments are built.
        """
        omegas, states, steps = np.array(self.omegas), np.array(self.states), np.array(self.steps)
        if self.constraints is None:
            residuals = np.zeros((len(omegas), 4))
        else:
            residuals = self.constraints.residuals_many(omegas, states)
        dense = np.zeros((0, 5, states.shape[1]), dtype=complex)
        if self.stages:
            k, h = np.array(self.stages), steps[1:, None]
            self.stages.clear()
            ydiff = states[1:] - states[:-1]
            bspl = h * k[:, 0] - ydiff
            dense = np.stack(
                (states[:-1], ydiff, bspl, ydiff - h * k[:, 6] - bspl, h * (_D @ k)), axis=1
            )
        return SolutionTrace(
            omegas=omegas,
            states=states,
            residuals=residuals,
            steps=steps,
            errors=np.array(self.errors),
            rejected_steps=self.rejected,
            rhs_evals=self.rhs_evals,
            _dense=dense,
        )


def integrate_many(
    systems,
    constraints,
    omega_start,
    omega_end,
    y0s,
    tol,
    max_steps: int = 200_000,
) -> list:
    """Integrate several systems of one dimension in one lockstep Dormand-Prince loop.

    Member b integrates ``systems[b]`` from ``y0s[b]``, with the residuals
    of ``constraints[b]`` (``constraints`` may be None for none at all).
    ``omega_start``, ``omega_end`` and ``tol`` are one value for every
    member or one value each.  Every iteration makes one attempt for each
    unfinished member: one batched coefficient call for all their stage
    abscissae (:class:`~rsdesitter.radial.SystemBatch`), stage products
    batched over the members, then each member's own step control, the
    :class:`_Member` that :func:`integrate` drives too.  Each member's
    arithmetic is that of :func:`integrate`, so its trace equals a lone
    run's: the same omegas, states, errors, dense output, residuals and
    counts.

    Returns one entry per member: its :class:`SolutionTrace`, or the
    :class:`SingularityError` (with its partial trace) or
    :class:`ToleranceError` that :func:`integrate` would raise.  A failed
    member leaves the loop; the others run on.
    """
    systems, y0s = list(systems), list(y0s)
    count = len(systems)
    constraints = [None] * count if constraints is None else list(constraints)
    if not len(y0s) == len(constraints) == count:
        raise ValueError("need one initial state and one constraint set (or None) per system")
    per_member = [
        np.broadcast_to(np.asarray(v, dtype=float), (count,)).tolist()
        for v in (omega_start, omega_end, tol)
    ]
    members = [
        _Member(s, c, w0, w1, y0, t, max_steps)
        for s, c, y0, w0, w1, t in zip(systems, constraints, y0s, *per_member)
    ]
    batch = SystemBatch.of(systems)
    n = batch.dimension
    results = [None] * count
    active = list(range(count))
    y = np.array([m.states[0] for m in members])
    start = np.array([[m.w] for m in members])
    k_first = (batch.matrices(start)[:, 0] @ y[..., None])[..., 0]
    tols = np.array([[m.tol] for m in members])

    while active:
        keep = []
        for pos, b in enumerate(active):
            results[b] = members[b].before_attempt()
            if results[b] is None:
                keep.append(pos)
        if len(keep) < len(active):
            active = [active[p] for p in keep]
            if not active:
                break
            batch, y, k_first, tols = batch.take(keep), y[keep], k_first[keep], tols[keep]

        # one attempt per member; every batched product below makes, for each
        # member, the BLAS call integrate makes, so the bits agree
        run = [members[b] for b in active]
        h = np.array([m.h for m in run])[:, None]
        w = np.array([m.w for m in run])[:, None]
        a = batch.matrices(w + _C[1:6] * h)
        k = np.empty((len(run), 7, n), dtype=complex)
        k[:, 0] = k_first
        for i in range(5):
            stage = y + h * (_TABLEAU[i, : i + 1] @ k[:, : i + 1])
            k[:, i + 1] = (a[:, i] @ stage[..., None])[..., 0]
        y_new = y + h * (_TABLEAU[5, :6] @ k[:, :6])
        k[:, 6] = (a[:, 4] @ y_new[..., None])[..., 0]
        scale = tols + tols * np.maximum(np.abs(y), np.abs(y_new))
        squares = (np.abs(h * (_TABLEAU[6] @ k) / scale) ** 2).sum(axis=1).tolist()
        accepted = np.array(
            [m.after_attempt(math.sqrt(sq / n), y_new[pos], k[pos])
             for pos, (m, sq) in enumerate(zip(run, squares))]
        )
        # new arrays, never writes into y_new or k: the traces keep views of them
        y = np.where(accepted[:, None], y_new, y)
        k_first = np.where(accepted[:, None], k[:, 6], k_first)
    return results


# ---------------------------------------------------------------------------
# singular endpoints
# ---------------------------------------------------------------------------

def frobenius(system: RadialSystem, endpoint: str) -> IndicialData:
    """Residue matrix and indicial exponents of a singular endpoint.

    The residue lim (omega - w0) A(omega) and the subleading constant term
    are the closed forms of :meth:`RadialSystem.laurent`.  Exponents come
    sorted by descending real part, real parts equal to within ``_TIE_RTOL``
    by descending imaginary part, with unit eigenvectors as matching columns
    of ``vectors``.  Each eigenvector's largest-modulus component is real
    and positive; where several are equal in modulus to within
    ``_TIE_RTOL``, the lowest index is taken.  So neither the order nor the
    vectors depend on last-bit changes of the residue, except inside a
    degenerate eigenspace, whose basis is still ``np.linalg.eig``'s choice.
    """
    residue, subleading = system.laurent(endpoint)
    lam, vec = np.linalg.eig(residue)
    # a real part within _TIE_RTOL of the one before it sorts as equal to
    # it, so the imaginary parts order such runs and not rounding noise
    order = np.argsort(-lam.real, kind="stable")
    real_key = lam.real[order]
    for i in range(1, len(real_key)):
        if real_key[i - 1] - real_key[i] <= _TIE_RTOL * np.abs(lam).max():
            real_key[i] = real_key[i - 1]
    order = order[np.lexsort((-lam.imag[order], -real_key))]
    lam, vec = lam[order], vec[:, order]
    # fix each vector's free phase: its largest component becomes real and
    # positive, and of components equal in modulus to rounding the first wins
    mags = np.abs(vec)
    lead = np.argmax(mags >= (1.0 - _TIE_RTOL) * mags.max(axis=0), axis=0)
    pivot = vec[lead, np.arange(len(lam))]
    vec = vec * (pivot.conj() / np.abs(pivot))
    eig_res = np.array(
        [np.abs(residue @ vec[:, k] - lam[k] * vec[:, k]).max() for k in range(len(lam))]
    )
    return IndicialData(
        endpoint=endpoint,
        direction=1 if endpoint == "origin" else -1,
        residue=residue,
        subleading=subleading,
        exponents=lam,
        vectors=vec,
        eigen_residuals=eig_res,
    )


@dataclass(frozen=True)
class LaunchState:
    """First-order Frobenius data launched a small offset from an endpoint."""

    omega: float
    state: np.ndarray
    exponent: complex
    resonant: bool


def endpoint_launch(
    system: RadialSystem,
    indicial: IndicialData,
    exponent_index: int,
    offset: float = 1e-3,
) -> LaunchState:
    """Solution data Y = u^lam (v + u w) at local distance u = offset.

    The first-order correction solves (R - (lam + 1) I) w = -d A0 v with R
    the residue and A0 the subleading term; if lam + 1 resonates with
    another exponent the correction is taken in the least-squares sense
    and flagged.  ``offset`` must lie inside (0, pi/2) and
    ``exponent_index`` must name one of the exponents.
    """
    if not 0 <= exponent_index < len(indicial.exponents):
        raise ValueError(
            f"exponent index must be in [0, {len(indicial.exponents)}), got {exponent_index!r}"
        )
    u = float(offset)
    if not 0.0 < u < _HALF_PI:
        raise ValueError(f"offset must be inside (0, pi/2), got {offset!r}")
    lam = indicial.exponents[exponent_index]
    if indicial.endpoint == "origin" and lam.real < -1e-12:
        raise ValueError(
            f"exponent {lam} has negative real part; launch at the origin "
            "requires a bounded (regular) solution"
        )
    v = indicial.vectors[:, exponent_index]
    rhs = -indicial.direction * (indicial.subleading @ v)
    shifted = indicial.residue - (lam + 1.0) * np.eye(len(v))
    resonant = bool(np.min(np.abs(indicial.exponents - (lam + 1.0))) < 1e-8)
    if resonant:
        w = np.linalg.lstsq(shifted, rhs, rcond=None)[0]
    else:
        w = np.linalg.solve(shifted, rhs)
    state = u**lam * (v + u * w)
    omega = u if indicial.endpoint == "origin" else _HALF_PI - u
    return LaunchState(omega=omega, state=state, exponent=lam, resonant=resonant)


def constraint_kernel_state(
    constraints: ConstraintSet,
    omega: float,
    seed_state: np.ndarray,
    zero_slots=(),
) -> np.ndarray:
    """Project a state onto the null space of the constraint rows.

    ``zero_slots`` are additionally zeroed (the amplitudes that a low-j
    mode forbids) before and after the projection.
    """
    c = constraints.matrix(omega)
    y = np.asarray(seed_state, dtype=complex).copy()
    y[list(zero_slots)] = 0.0
    # null-space projector from the SVD
    _, s, vh = np.linalg.svd(c)
    rank = constraint_rank(s)
    null = vh[rank:].conj().T
    y = null @ (null.conj().T @ y)
    y[list(zero_slots)] = 0.0
    return y
