from types import SimpleNamespace

import numpy as np
import pytest

from rsdesitter import radial, solver
from rsdesitter.ansatz import ModeLabel
from test_radial import pointwise_residuals


def _system(j=0.5, eps=1.3, mass=0.7, delta=1):
    mode = ModeLabel(j=j, m_j=0.5, eps=eps, mass=mass, delta=delta)
    return radial.RadialSystem(mode=mode, dimension=8), radial.ConstraintSet(mode=mode)


def test_frobenius_takes_the_closed_forms():
    system, _ = _system()
    for endpoint in ("origin", "horizon"):
        data = solver.frobenius(system, endpoint)
        residue, subleading = system.laurent(endpoint)
        assert np.array_equal(data.residue, residue)
        assert np.array_equal(data.subleading, subleading)
        assert data.eigen_residuals.max() < 1e-10
        # exponents sorted by descending real part
        assert np.all(np.diff(data.exponents.real) < 1e-12)


def _richardson(fun, base=2e-2, levels=8):
    """Richardson table for fun(u) = F + c1 u + c2 u^2 + ... as u -> 0."""
    table = [np.asarray(fun(base / 2**k), dtype=complex) for k in range(levels)]
    for m in range(1, levels):
        fac = 2.0**m
        table = [(fac * table[k + 1] - table[k]) / (fac - 1.0) for k in range(len(table) - 1)]
    return table[0]


def test_frobenius_residues_match_closed_forms():
    # the closed forms against Richardson extrapolation of d u A(w0 + d u)
    # and of A(w0 + d u) - residue / (d u), which never use the weight table
    for j in (0.5, 1.5, 2.5, 3.5):
        for delta, dim in ((1, 8), (-1, 8), (1, 16)):
            mode = ModeLabel(j=j, m_j=0.5, eps=1.3 + 0.4j, mass=0.7, delta=delta)
            system = radial.RadialSystem(mode=mode, dimension=dim)
            for endpoint, w0, d in (("origin", 0.0, 1), ("horizon", np.pi / 2, -1)):
                data = solver.frobenius(system, endpoint)
                residue = _richardson(lambda u: d * u * system.matrix(w0 + d * u))
                subleading = _richardson(
                    lambda u: system.matrix(w0 + d * u) - residue / (d * u)
                )
                case = (j, delta, dim, endpoint)
                assert np.abs(data.residue - residue).max() <= 1e-10, case
                rel = np.abs(data.subleading - subleading).max() / np.abs(subleading).max()
                assert rel <= 1e-6, (case, rel)


def test_origin_exponents_minimal_j():
    system, _ = _system()
    data = solver.frobenius(system, "origin")
    # couplings of strength a = 1 produce integer exponents +-1, +-2
    expected = np.array([2.0, 1.0, 1.0, 0.0, 0.0, -1.0, -1.0, -2.0])
    assert np.abs(np.sort(data.exponents.real)[::-1] - expected).max() < 1e-9
    assert np.abs(data.exponents.imag).max() < 1e-9


def test_horizon_exponents_carry_energy_shifts():
    system, _ = _system(eps=1.3)
    data = solver.frobenius(system, "horizon")
    imags = np.sort(data.exponents.imag)
    assert np.abs(imags[:4] + 1.3).max() < 1e-9
    assert np.abs(imags[4:] - 1.3).max() < 1e-9


def test_static_massless_exponents_real():
    system, _ = _system(eps=0.0, mass=0.0)
    data = solver.frobenius(system, "origin")
    assert np.abs(data.exponents.imag).max() < 1e-10
    assert np.abs(data.residue.imag).max() < 1e-12


def test_zero_initial_state_stays_zero():
    system, cons = _system()
    trace = solver.integrate(system, cons, 0.3, 1.2, np.zeros(8, dtype=complex), tol=1e-10)
    assert np.abs(trace.states).max() == 0.0
    assert np.abs(trace.residuals).max() == 0.0


def test_linearity_of_the_flow():
    system, cons = _system()
    rng = np.random.default_rng(0)
    y0 = solver.constraint_kernel_state(cons, 0.3, rng.standard_normal(8) + 0j, zero_slots=(1, 7))
    t1 = solver.integrate(system, cons, 0.3, 1.2, y0, tol=1e-11)
    t2 = solver.integrate(system, cons, 0.3, 1.2, 2.0 * y0, tol=1e-11)
    mid = 0.777
    assert np.abs(t2.evaluate(mid) - 2.0 * t1.evaluate(mid)).max() < 1e-8


def test_constraint_drift_stays_small():
    system, cons = _system()
    rng = np.random.default_rng(1)
    seed = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    y0 = solver.constraint_kernel_state(cons, 0.3, seed, zero_slots=(1, 7))
    trace = solver.integrate(system, cons, 0.3, 1.2, y0, tol=1e-10)
    assert trace.residuals.max() < 1e-7
    reference = solver.integrate(system, cons, 0.3, 1.2, y0, tol=1e-13)
    assert np.abs(trace.states[-1] - reference.states[-1]).max() < 1e-8


def test_trace_structure():
    system, cons = _system()
    y0 = np.ones(8, dtype=complex)
    trace = solver.integrate(system, cons, 0.4, 1.0, y0, tol=1e-9)
    assert np.all(np.diff(trace.omegas) > 0)
    assert np.all(np.isfinite(trace.states))
    assert np.all(trace.residuals >= 0.0)
    assert trace.n_steps == len(trace.omegas) - 1
    with pytest.raises(ValueError):
        trace.evaluate(1.4)


def test_dense_output_accuracy():
    system, _ = _system()
    rng = np.random.default_rng(5)
    y0 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    trace = solver.integrate(system, None, 0.3, 1.2, y0, tol=1e-10)
    mid = 0.81234
    direct = solver.integrate(system, None, 0.3, mid, y0, tol=1e-13)
    assert np.abs(trace.evaluate(mid) - direct.states[-1]).max() < 1e-8


def test_singularity_near_horizon_raises_with_partial_trace():
    system, _ = _system()
    with pytest.raises(solver.SingularityError) as info:
        solver.integrate(system, None, 0.5, np.pi / 2 - 1e-13, np.ones(8, dtype=complex), tol=1e-10)
    assert info.value.trace is not None
    assert len(info.value.trace.omegas) > 10


def test_max_steps_diagnostic():
    system, _ = _system()
    with pytest.raises(solver.ToleranceError):
        solver.integrate(
            system, None, 0.3, 1.2, np.ones(8, dtype=complex), tol=1e-10, max_steps=3
        )


def test_endpoint_launch_scaling_consistency():
    # launching closer in and integrating outward reproduces the direct
    # launch with an O(offset^2) relative error
    system, _ = _system()
    u0 = 1e-3
    for endpoint, index in (("horizon", 0), ("origin", 0)):
        data = solver.frobenius(system, endpoint)
        near = solver.endpoint_launch(system, data, index, offset=u0 / 2)
        far = solver.endpoint_launch(system, data, index, offset=u0)
        trace = solver.integrate(system, None, near.omega, far.omega, near.state, tol=1e-13)
        rel = np.abs(trace.states[-1] - far.state).max() / np.abs(far.state).max()
        assert rel < 50.0 * u0**2, (endpoint, rel)


def test_endpoint_launch_zero_vector_gives_zero_state():
    system, _ = _system()
    data = solver.frobenius(system, "origin")
    zeroed = solver.IndicialData(
        endpoint=data.endpoint,
        direction=data.direction,
        residue=data.residue,
        subleading=data.subleading,
        exponents=data.exponents,
        vectors=np.zeros_like(data.vectors),
        eigen_residuals=data.eigen_residuals,
    )
    launch = solver.endpoint_launch(system, zeroed, 0, offset=1e-3)
    assert np.abs(launch.state).max() == 0.0


def test_endpoint_launch_constraint_compatible_subspace():
    system, cons = _system()
    data = solver.frobenius(system, "origin")
    # the unit-exponent eigenvectors at minimal j include a
    # constraint-compatible direction
    zero_idx = [k for k in data.regular_indices() if abs(data.exponents[k]) < 1e-8]
    assert zero_idx
    launch = solver.endpoint_launch(system, data, zero_idx[0], offset=1e-3)
    resid = np.abs(cons.matrix(launch.omega) @ launch.state).max()
    assert resid < 1e-8 * np.abs(launch.state).max()


def test_endpoint_launch_rejects_decaying_origin_exponent():
    system, _ = _system()
    data = solver.frobenius(system, "origin")
    falling = int(np.argmin(data.exponents.real))
    with pytest.raises(ValueError):
        solver.endpoint_launch(system, data, falling, offset=1e-3)


@pytest.mark.parametrize(
    "endpoint, offset",
    [("origin", -0.1), ("origin", 0.0), ("origin", np.pi / 2), ("horizon", 0.0),
     ("horizon", 2.0), ("horizon", np.nan)],
)
def test_endpoint_launch_rejects_offsets_outside_the_range(endpoint, offset):
    system, _ = _system(j=1.5)
    data = solver.frobenius(system, endpoint)
    index = data.regular_indices()[0] if endpoint == "origin" else 0
    with pytest.raises(ValueError, match="offset"):
        solver.endpoint_launch(system, data, index, offset=offset)


@pytest.mark.parametrize("index", [-1, 8, 9])
def test_endpoint_launch_rejects_indices_outside_the_exponents(index):
    system, _ = _system(j=1.5)
    data = solver.frobenius(system, "horizon")
    with pytest.raises(ValueError, match="exponent index"):
        solver.endpoint_launch(system, data, index, offset=1e-3)


def test_resonant_launch_flagged():
    system, _ = _system()
    data = solver.frobenius(system, "origin")
    # exponent 1 has exponent+1 = 2 in the spectrum
    idx = int(np.argmin(np.abs(data.exponents - 1.0)))
    launch = solver.endpoint_launch(system, data, idx, offset=1e-3)
    assert launch.resonant


def test_effective_convergence_order():
    system, _ = _system()
    rng = np.random.default_rng(9)
    y0 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    reference = solver.integrate(system, None, 0.3, 1.2, y0, tol=1e-13)
    errs, steps = [], []
    for tol in (1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10):
        trace = solver.integrate(system, None, 0.3, 1.2, y0, tol=tol)
        errs.append(np.abs(trace.states[-1] - reference.states[-1]).max())
        steps.append(0.9 / trace.n_steps)
    slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
    assert slope >= 4.0


def test_integrate_validation():
    system, _ = _system()
    with pytest.raises(ValueError):
        solver.integrate(system, None, 0.0, 1.0, np.ones(8, dtype=complex))
    with pytest.raises(ValueError):
        solver.integrate(system, None, 0.3, 1.0, np.ones(4, dtype=complex))
    with pytest.raises(ValueError):
        solver.frobenius(system, "middle")


@pytest.mark.parametrize("tol", [-1e-8, 0.0, np.nan, np.inf])
def test_integrate_rejects_a_tolerance_that_is_not_finite_and_positive(tol):
    system, _ = _system()
    with pytest.raises(ValueError, match="tol"):
        solver.integrate(system, None, 0.3, 1.2, np.ones(8, dtype=complex), tol=tol)


@pytest.mark.parametrize("tol", [-1e-8, 0.0, np.nan, np.inf])
def test_integrate_many_rejects_any_bad_member_tolerance_up_front(tol, monkeypatch):
    systems = [_system(eps=eps)[0] for eps in (0.5, 1.3, 2.0)]
    y0s = [np.ones(8, dtype=complex)] * 3
    # every member is built before the batch, so a bad one fails before any step
    monkeypatch.setattr(radial.SystemBatch, "of", lambda systems: pytest.fail("stepped"))
    with pytest.raises(ValueError, match="tol"):
        solver.integrate_many(systems, None, 0.3, 1.2, y0s, tol=[1e-9, tol, 1e-9])
    with pytest.raises(ValueError, match="tol"):
        solver.integrate_many(systems, None, 0.3, 1.2, y0s, tol=tol)


def _scan_evaluate(trace, omega):
    """Dense output by a linear scan: the first segment covering omega."""
    for w0, h, cont in zip(trace.omegas[:-1], trace.steps[1:], trace._dense):
        t = (omega - w0) / h
        if -1e-12 <= t <= 1.0 + 1e-12:
            t = min(max(t, 0.0), 1.0)
            r1, r2, r3, r4, r5 = cont
            return r1 + t * (r2 + (1 - t) * (r3 + t * (r4 + (1 - t) * r5)))
    raise AssertionError("no segment covers omega")


def test_evaluate_bisection_matches_linear_scan():
    system, _ = _system(j=1.5)
    rng = np.random.default_rng(12)
    y0 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    for start, end in ((0.3, 1.2), (1.4, 0.2)):  # outward, then inward
        trace = solver.integrate(system, None, start, end, y0, tol=1e-9)
        mids = 0.5 * (trace.omegas[1:] + trace.omegas[:-1])
        inner = rng.uniform(min(start, end), max(start, end), 50)
        for omega in np.concatenate([trace.omegas, mids, inner]):
            assert np.array_equal(trace.evaluate(omega), _scan_evaluate(trace, omega))


def test_trace_residuals_match_pointwise_on_success_and_failure():
    system, cons = _system()
    rng = np.random.default_rng(3)
    y0 = solver.constraint_kernel_state(
        cons, 1.3, rng.standard_normal(8) + 1j * rng.standard_normal(8), zero_slots=(1, 7)
    )
    with pytest.raises(solver.SingularityError) as info:
        solver.integrate(system, cons, 1.3, np.pi / 2 - 1e-13, y0, tol=1e-8)
    partial = info.value.trace
    done = solver.integrate(system, cons, 0.3, 1.2, y0, tol=1e-8)
    for trace in (partial, done):
        pointwise = [
            pointwise_residuals(cons.matrix(w), y) for w, y in zip(trace.omegas, trace.states)
        ]
        assert trace.residuals.shape == (len(trace.omegas), 4)
        assert np.abs(trace.residuals - np.array(pointwise)).max() <= 1e-15


# the per-stage Dormand-Prince loop as it ran before the batched coefficient
# call: six A(omega) evaluations per attempt and one dense segment per step
_REF_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_REF_A = (
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
)
_REF_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_REF_E = np.array(
    [
        35 / 384 - 5179 / 57600,
        0.0,
        500 / 1113 - 7571 / 16695,
        125 / 192 - 393 / 640,
        -2187 / 6784 + 92097 / 339200,
        11 / 84 - 187 / 2100,
        -1 / 40,
    ]
)
_REF_D = np.array(
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


def _per_stage_integrate(system, omega_start, omega_end, y0, tol):
    """(omegas, states, dense, underflowed) of the per-stage loop."""
    y = np.asarray(y0, dtype=complex).copy()
    direction = 1.0 if omega_end >= omega_start else -1.0
    span = abs(omega_end - omega_start)
    h = direction * min(1e-2, 0.1 * span)
    h_min = max(1e-14, 4.0 * np.finfo(float).eps * span)

    def rhs(w, state):
        return system.matrix(w) @ state

    w = float(omega_start)
    k_last = rhs(w, y)
    omegas, states, dense = [w], [y.copy()], []
    err_prev = 1.0
    while direction * (omega_end - w) > 0:
        if abs(h) < h_min:
            return np.array(omegas), np.array(states), dense, True
        if direction * (w + h - omega_end) > 0:
            h = omega_end - w
        k = np.empty((7, y.size), dtype=complex)
        k[0] = k_last
        for i, row in enumerate(_REF_A):
            k[i + 1] = rhs(w + _REF_C[i + 1] * h, y + h * (row @ k[: i + 1]))
        y_new = y + h * (_REF_B5 @ k)
        scale = tol + tol * np.maximum(np.abs(y), np.abs(y_new))
        err = float(np.sqrt(np.mean(np.abs(h * (_REF_E @ k) / scale) ** 2)))
        if err <= 1.0:
            ydiff = y_new - y
            bspl = h * k[0] - ydiff
            cont = (y.copy(), ydiff, bspl, ydiff - h * k[6] - bspl, h * (_REF_D @ k))
            dense.append((w, h, cont))
            w, y, k_last = w + h, y_new, k[6]
            omegas.append(w)
            states.append(y.copy())
            fac = 0.9 * err ** -0.14 * err_prev ** 0.08 if err > 0 else 5.0
            err_prev = max(err, 1e-4)
        else:
            fac = max(0.2, 0.9 * err ** -0.2)
        h = h * min(5.0, max(0.2, fac))
    return np.array(omegas), np.array(states), dense, False


def _assert_matches_oracle(trace, oracle, case):
    omegas, states, dense, _ = oracle
    assert trace.n_steps == len(omegas) - 1, case
    assert np.abs(trace.omegas - omegas).max() <= 1e-14, case
    scale = np.abs(states).max(axis=1, keepdims=True)
    assert (np.abs(trace.states - states) / scale).max() <= 1e-12, case
    assert trace._dense.shape == (len(dense), 5, states.shape[1]), case
    segments = zip(trace.omegas[:-1], trace.steps[1:], trace._dense)
    for (w0, h, cont), (w0_ref, h_ref, cont_ref) in zip(segments, dense):
        assert abs(w0 - w0_ref) <= 1e-14 and abs(h - h_ref) <= 1e-14, case
        assert np.abs(np.array(cont) - np.array(cont_ref)).max() <= 1e-12 * scale.max(), case


_ORACLE_CASES = [
    (j, delta, dim, start, end, tol)
    for j in (0.5, 1.5, 2.5)
    for delta, dim in ((1, 8), (-1, 8), (None, 16))
    for start, end in ((0.2, 1.3), (1.3, 0.2))
    for tol in (1e-10, 1e-12)
]


@pytest.mark.parametrize("j, delta, dim, start, end, tol", _ORACLE_CASES)
def test_batched_step_matches_per_stage_oracle(j, delta, dim, start, end, tol):
    mode = ModeLabel(j=j, m_j=0.5, eps=1.3 + 0.4j, mass=0.7, delta=delta)
    system = radial.RadialSystem(mode=mode, dimension=dim)
    rng = np.random.default_rng(int(20 * j) + dim)
    y0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    trace = solver.integrate(system, None, start, end, y0, tol=tol)
    oracle = _per_stage_integrate(system, start, end, y0, tol)
    assert not oracle[3]
    _assert_matches_oracle(trace, oracle, (j, delta, dim, start, end, tol))


def test_partial_trace_matches_per_stage_oracle():
    system, _ = _system(j=1.5, eps=1.3 + 0.4j)
    y0 = np.ones(8, dtype=complex)
    end = np.pi / 2 - 1e-13
    with pytest.raises(solver.SingularityError) as info:
        solver.integrate(system, None, 1.3, end, y0, tol=1e-8)
    oracle = _per_stage_integrate(system, 1.3, end, y0, 1e-8)
    assert oracle[3]
    _assert_matches_oracle(info.value.trace, oracle, "partial")


def test_run_counts_repeat_and_add_up():
    system, cons = _system(j=1.5)
    y0 = np.ones(8, dtype=complex)
    runs = [solver.integrate(system, cons, 0.2, 1.3, y0, tol=1e-10) for _ in range(2)]
    counts = [(t.n_steps, t.rejected_steps, t.rhs_evals, t.step_range) for t in runs]
    assert counts[0] == counts[1]
    trace = runs[0]
    assert trace.rejected_steps > 0
    assert trace.rhs_evals == 1 + 6 * (trace.n_steps + trace.rejected_steps)
    sizes = np.abs(trace.steps[1:])
    assert trace.step_range == (sizes.min(), sizes.max())
    assert sizes.min() < sizes.max()
    with pytest.raises(solver.SingularityError) as info:
        solver.integrate(system, None, 1.3, np.pi / 2 - 1e-13, y0, tol=1e-8)
    partial = info.value.trace
    assert partial.rhs_evals == 1 + 6 * (partial.n_steps + partial.rejected_steps)


def test_persistent_rejection_fails_before_any_underflow():
    # no tolerance makes a real run reject 61 times in a row, so drive the
    # step controller both loops share with a failing error norm
    system, _ = _system()
    run = solver._Member(system, None, 0.3, 1.2, np.ones(8, dtype=complex), 1e-10, 200_000)
    y_new, k = np.zeros(8, dtype=complex), np.zeros((7, 8), dtype=complex)
    for attempt in range(61):
        assert run.before_attempt() is None, attempt
        assert run.after_attempt(2.0, y_new, k) is False
    outcome = run.before_attempt()
    assert type(outcome) is solver.ToleranceError
    assert str(outcome) == "unable to meet tol = 1.0e-10 at omega = 0.3 (error estimate 2.000e+00)"
    assert abs(run.h) >= run.h_min
    assert (run.rejected, run.rhs_evals, run.omegas) == (61, 1 + 6 * 61, [0.3])


def _assert_same_run(batched, single, case):
    """Every field of a batched member equals the lone integrate run, bit for bit."""
    for name in ("omegas", "states", "residuals", "steps", "errors", "_dense"):
        a, b = getattr(batched, name), getattr(single, name)
        assert np.array_equal(a, b), (case, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (case, name)  # signed zeros
    assert batched.rejected_steps == single.rejected_steps, case
    assert batched.rhs_evals == single.rhs_evals, case
    assert batched.step_range == single.step_range, case


def _lone_outcome(*args, **kwargs):
    try:
        return solver.integrate(*args, **kwargs)
    except (solver.SingularityError, solver.ToleranceError) as exc:
        return exc


@pytest.mark.parametrize("tol", [1e-8, 1e-12])
def test_integrate_many_matches_lone_runs(tol):
    # j 1/2-5/2 x both deltas x real and complex eps x outward and inward, in one call
    rng = np.random.default_rng(int(-np.log10(tol)))
    systems, cons, starts, ends, y0s = [], [], [], [], []
    for j in (0.5, 1.5, 2.5):
        for delta in (1, -1):
            for eps in (1.3, 0.7 + 0.4j):
                for start, end in ((0.2, 1.3), (1.4, 0.3)):
                    system, constraints = _system(j=j, eps=eps, mass=0.7, delta=delta)
                    seed = rng.standard_normal(8) + 1j * rng.standard_normal(8)
                    zero = (1, 7) if j == 0.5 else ()
                    systems.append(system)
                    cons.append(constraints)
                    starts.append(start)
                    ends.append(end)
                    y0s.append(
                        solver.constraint_kernel_state(constraints, start, seed, zero_slots=zero)
                    )
    batched = solver.integrate_many(systems, cons, starts, ends, y0s, tol=tol)
    assert len(batched) == len(systems) == 24
    for b, (s, c, w0, w1, y0) in enumerate(zip(systems, cons, starts, ends, y0s)):
        _assert_same_run(batched[b], solver.integrate(s, c, w0, w1, y0, tol=tol), (b, tol))


def test_integrate_many_underflow_next_to_finishing_members():
    systems = [_system(j=j, eps=1.3 + 0.4j)[0] for j in (0.5, 1.5, 1.5, 2.5)]
    cons = [radial.ConstraintSet(mode=s.mode) for s in systems]
    horizon = np.pi / 2 - 1e-13
    starts, ends = [0.3, 1.3, 0.5, 1.2], [1.2, horizon, 1.1, 0.4]
    y0s = [np.ones(8, dtype=complex)] * 4
    batched = solver.integrate_many(systems, cons, starts, ends, y0s, tol=1e-8)
    for b, args in enumerate(zip(systems, cons, starts, ends, y0s)):
        lone = _lone_outcome(*args, tol=1e-8)
        if b == 1:
            assert isinstance(lone, solver.SingularityError)
            assert type(batched[b]) is type(lone) and str(batched[b]) == str(lone)
            _assert_same_run(batched[b].trace, lone.trace, "partial")
        else:
            _assert_same_run(batched[b], lone, b)


def test_integrate_many_step_limits_and_shapes():
    # members past max_steps fail as integrate does; the rest finish.  The
    # 0.3 -> 0.35 run takes exactly 14 attempts, which integrate counts as
    # too many: it checks the end only at the top of the next attempt
    systems = [_system(j=1.5, eps=eps)[0] for eps in (0.5, 0.5, 1.3)]
    starts, ends = [0.3, 0.3, 0.3], [0.31, 0.35, 1.2]
    y0s = [np.ones(8, dtype=complex)] * 3
    batched = solver.integrate_many(systems, None, starts, ends, y0s, tol=1e-10, max_steps=14)
    outcomes = [_lone_outcome(*a, tol=1e-10, max_steps=14)
                for a in zip(systems, [None] * 3, starts, ends, y0s)]
    assert [type(o) for o in outcomes] == [
        solver.SolutionTrace, solver.ToleranceError, solver.ToleranceError
    ]
    for got, lone in zip(batched, outcomes):
        if isinstance(lone, solver.ToleranceError):
            assert type(got) is solver.ToleranceError and str(got) == str(lone)
        else:
            _assert_same_run(got, lone, "finished")
    # the 16-amplitude system batches too; systems of two dimensions do not
    full = radial.RadialSystem(mode=systems[0].mode, dimension=16)
    y16 = np.ones(16, dtype=complex)
    (got,) = solver.integrate_many([full], None, 0.3, 1.2, [y16], tol=1e-9)
    _assert_same_run(got, solver.integrate(full, None, 0.3, 1.2, y16, tol=1e-9), "16")
    with pytest.raises(ValueError):
        solver.integrate_many([full, systems[0]], None, 0.3, 1.2, [y16, y0s[0]], tol=1e-9)
    with pytest.raises(ValueError):
        solver.integrate_many(systems[:1], None, 0.0, 1.2, y0s[:1], tol=1e-9)
    with pytest.raises(ValueError):
        solver.integrate_many(systems, None, 0.3, 1.2, y0s[:2], tol=1e-9)
    with pytest.raises(ValueError):
        solver.integrate_many(systems, None, [0.3, 0.4], 1.2, y0s, tol=1e-9)


def test_frobenius_vectors_do_not_follow_the_residue_last_bits():
    # each vector's largest component is real and positive; a residue that
    # differs by ~1e-11 (Richardson, no weight table) gives the same exponent
    # order and the same vectors.  Real parts that tie in exact arithmetic,
    # such as the horizon pair 1 +- 1.3i of j = 3/2, eps = 1.3, differ in
    # their last bits between the two residues
    checked = 0
    for j in (0.5, 1.5, 2.5, 3.5):
        for delta in (1, -1):
            for eps in (1.3 + 0.4j, 1.3, 0.7):
                mode = ModeLabel(j=j, m_j=0.5, eps=eps, mass=0.7, delta=delta)
                system = radial.RadialSystem(mode=mode, dimension=8)
                for endpoint, w0, d in (("origin", 0.0, 1), ("horizon", np.pi / 2, -1)):
                    data = solver.frobenius(system, endpoint)
                    oracle_residue = _richardson(lambda u: d * u * system.matrix(w0 + d * u))
                    stand_in = SimpleNamespace(
                        laurent=lambda e: (oracle_residue, data.subleading)
                    )
                    oracle = solver.frobenius(stand_in, endpoint)
                    gap = np.abs(oracle.exponents - data.exponents).max()
                    assert gap <= 1e-8, (j, delta, eps, endpoint, gap)
                    for k, lam in enumerate(data.exponents):
                        v = data.vectors[:, k]
                        lead = np.argmax(np.abs(v) >= (1 - 1e-8) * np.abs(v).max())
                        assert v[lead].real > 0 and abs(v[lead].imag) <= 1e-15
                        if np.delete(np.abs(data.exponents - lam), k).min() < 1e-6:
                            continue  # degenerate: the basis is still eig's choice
                        diff = np.abs(v - oracle.vectors[:, k]).max()
                        assert diff <= 1e-8, (j, delta, eps, endpoint, k, diff)
                        checked += 1
    assert checked >= 100
