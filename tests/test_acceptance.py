"""Acceptance suite: one test per criterion, with the stated tolerances.

Each test prints a single pass/fail line (visible with ``pytest -s`` or in
the captured output); run times are asserted against the stated budgets.
"""

import time

import numpy as np
import pytest

from rsdesitter import algebra, ansatz, geometry, radial, solver, wigner
from rsdesitter.ansatz import ModeLabel
from test_ansatz import verify_radial_derivative


def _report(name: str, worst: float, tol: float, elapsed: float) -> None:
    status = "PASS" if worst < tol else "FAIL"
    print(f"ACCEPTANCE {name}: {status} (worst {worst:.3e} < {tol:.0e}, {elapsed:.2f}s)")


def _projections(j):
    two_j = int(round(2 * j))
    return [m / 2.0 for m in range(-two_j, two_j + 1, 2)]


def test_criterion_1_algebra_suite():
    start = time.perf_counter()
    residuals = [
        algebra.clifford_residual(),
        algebra.lorentz_algebra_residual("bispinor"),
        algebra.lorentz_algebra_residual("vector"),
        algebra.lorentz_algebra_residual("tilde"),
        *algebra.gamma_contraction_residuals().values(),
        algebra.unitarity_residuals()["U.Udagger"],
        *algebra.tilde_similarity_residuals().values(),
        algebra.parity_involution_residual(),
    ]
    elapsed = time.perf_counter() - start
    worst = max(residuals)
    _report("1 algebra-suite", worst, 1e-13, elapsed)
    assert worst < 1e-13
    assert elapsed < 1.0


def test_criterion_2_geometry_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(20)
    worst = 0.0
    for _ in range(20):
        pt = geometry.RadialPoint.from_omega(rng.uniform(0.15, 1.35))
        theta = rng.uniform(0.3, np.pi - 0.3)
        closed_g, closed_l = geometry.connections(pt, theta)
        fd_g, fd_l = geometry.connections_fd(pt, theta, h=1e-5)
        worst = max(
            worst,
            max(np.abs(a - b).max() for a, b in zip(closed_g, fd_g)),
            max(np.abs(a - b).max() for a, b in zip(closed_l, fd_l)),
            np.abs(
                geometry.tetrad_divergences(pt, theta)
                - geometry.tetrad_divergences_fd(pt, theta)
            ).max(),
        )
    elapsed = time.perf_counter() - start
    _report("2 geometry-oracle", worst, 1e-6, elapsed)
    assert worst < 1e-6
    assert elapsed < 5.0


def test_criterion_3_wigner_recurrences():
    start = time.perf_counter()
    thetas = np.linspace(0.02, np.pi - 0.02, 100)
    worst = 0.0
    for j in (0.5, 1.5, 2.5, 3.5):
        for m in _projections(j):
            rows = wigner.recurrence_residuals(j, m, thetas)
            worst = max(worst, max(row["residual"] for row in rows))
    elapsed = time.perf_counter() - start
    _report("3 wigner-recurrences", worst, 1e-9, elapsed)
    assert worst < 1e-9
    assert elapsed < 10.0


def test_criterion_4_ansatz_reductions():
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    worst_ops = 0.0
    worst_constraints = 0.0
    for j in (0.5, 1.5, 2.5):
        mode = ModeLabel(j=j, m_j=0.5, eps=1.3, mass=0.7)
        for _ in range(10):
            state = ansatz.random_state(mode, rng)
            dstate = ansatz.random_state(mode, rng)
            for _ in range(10):
                theta = rng.uniform(0.25, np.pi - 0.25)
                phi = rng.uniform(0.0, 2 * np.pi)
                t_res = ansatz.verify_T_action(mode, state, theta, phi)
                worst_ops = max(
                    worst_ops,
                    *t_res.values(),
                    ansatz.verify_j03_action(mode, state, theta, phi, omega=0.8),
                    ansatz.verify_angular_operator(mode, state, theta, phi),
                    verify_radial_derivative(mode, dstate, theta, phi),
                )
            trace = ansatz.verify_trace_constraint(mode, state, 0.9, 0.7)
            div = ansatz.verify_divergence_constraint(mode, state, dstate, 0.7, 0.9, 1.1)
            worst_constraints = max(
                worst_constraints, trace.consistency, div.collapse_residual, div.residual
            )
    elapsed = time.perf_counter() - start
    worst = max(worst_ops, worst_constraints)
    _report("4 ansatz-reductions", worst, 1e-8, elapsed)
    assert worst_ops < 1e-9
    assert worst_constraints < 1e-8


def test_criterion_5_reduction_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    worst = 0.0
    for j in (0.5, 1.5, 2.5):
        for _ in range(20):
            omega = rng.uniform(0.05, 1.5)
            eps = rng.uniform(-3.0, 3.0)
            mass = rng.uniform(0.0, 3.0)
            for delta in (1, -1):
                mode = ModeLabel(j=j, m_j=0.5, eps=eps, mass=mass, delta=delta)
                a16 = radial.build_A16(mode, omega)
                a8 = radial.build_A8(mode, omega)
                emb = radial.parity_embed(delta)
                worst = max(worst, np.abs(a16 @ emb - emb @ a8).max())
            plus = radial.build_A8(
                ModeLabel(j=j, m_j=0.5, eps=eps, mass=-mass, delta=+1), omega
            )
            minus = radial.build_A8(
                ModeLabel(j=j, m_j=0.5, eps=eps, mass=mass, delta=-1), omega
            )
            assert np.array_equal(plus, minus)
            # the same duality through the batched route, at several omegas at once
            omegas = omega + np.linspace(-0.04, 0.04, 5)
            plus = radial.RadialSystem(
                ModeLabel(j=j, m_j=0.5, eps=eps, mass=-mass, delta=+1)
            ).matrices(omegas)
            minus = radial.RadialSystem(
                ModeLabel(j=j, m_j=0.5, eps=eps, mass=mass, delta=-1)
            ).matrices(omegas)
            assert np.array_equal(plus, minus)
    elapsed = time.perf_counter() - start
    _report("5 reduction-exactness", worst, 1e-13, elapsed)
    assert worst < 1e-13
    assert elapsed < 1.0


def test_criterion_6_derivation_adjudication():
    start = time.perf_counter()
    worst = 0.0
    for j in (1.5, 2.5):
        mode = ModeLabel(j=j, m_j=0.5, eps=1.3, mass=0.7)
        for omega in (0.4, 0.9, 1.3):
            ext = radial.assemble_from_angular(mode, omega)
            hand = radial.build_A16(mode, omega)
            worst = max(worst, np.abs(ext - hand).max())

    # flagged slots resolve to the oracle values, not the printed variants
    mode = ModeLabel(j=1.5, m_j=0.5, eps=1.3, mass=0.7)
    omega = 0.9
    ext = radial.assemble_from_angular(mode, omega)
    a = mode.coefficients().a
    assert abs(ext[0, 4] + a / np.sin(omega)) < 1e-10 and abs(ext[0, 7]) < 1e-10
    assert abs(ext[6, 3] + np.sqrt(2.0) / np.tan(omega)) < 1e-10
    assert abs(ext[6, 2] + a / np.sin(omega)) < 1e-10
    assert (
        ansatz.verify_divergence_constraint(
            mode, np.ones(16, dtype=complex), np.zeros(16, dtype=complex), 0.7, 0.9, 0.4
        ).printed_variant_residual
        > 1e-2
    )

    # the adjudication table is part of every manifest
    from rsdesitter.cli import Manifest

    table = Manifest("probe", {}).data["adjudications"]
    ids = {entry["id"] for entry in table}
    assert {
        "radial-f0-row-angular-partner",
        "radial-g2-row-spin0-partner",
        "divergence-energy-denominator",
    } <= ids
    elapsed = time.perf_counter() - start
    _report("6 derivation-adjudication", worst, 1e-10, elapsed)
    assert worst < 1e-10


def test_criterion_7_constraint_propagation():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst_drift = 0.0
    for j in (0.5, 1.5):
        for delta in (1, -1):
            for eps, mass in ((1.3, 0.7), (2.0, 0.0), (0.5, 1.5)):
                mode = ModeLabel(j=j, m_j=0.5, eps=eps, mass=mass, delta=delta)
                system = radial.RadialSystem(mode=mode, dimension=8)
                cons = radial.ConstraintSet(mode=mode)
                zero = tuple(k for k in ansatz.forced_zero_slots(mode) if k < 8)
                seed = rng.standard_normal(8) + 1j * rng.standard_normal(8)
                y0 = solver.constraint_kernel_state(cons, 0.3, seed, zero_slots=zero)
                trace = solver.integrate(system, cons, 0.3, 1.2, y0, tol=1e-10)
                worst_drift = max(worst_drift, float(trace.residuals.max()))
                reference = solver.integrate(system, cons, 0.3, 1.2, y0, tol=1e-13)
                assert np.abs(trace.states[-1] - reference.states[-1]).max() < 1e-7
                report = radial.consistency_check(mode, np.linspace(0.3, 1.2, 7))
                assert max(r["residual"] for r in report) < 1e-10
    elapsed = time.perf_counter() - start
    _report("7 constraint-propagation", worst_drift, 1e-7, elapsed)
    assert worst_drift < 1e-7
    assert elapsed < 30.0


def test_criterion_8_solver_order():
    start = time.perf_counter()
    mode = ModeLabel(j=1.5, m_j=0.5, eps=1.3, mass=0.7, delta=+1)
    system = radial.RadialSystem(mode=mode, dimension=8)
    rng = np.random.default_rng(8)
    y0 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    reference = solver.integrate(system, None, 0.3, 1.2, y0, tol=1e-13)
    errors, mean_steps = [], []
    for tol in (1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10):
        trace = solver.integrate(system, None, 0.3, 1.2, y0, tol=tol)
        errors.append(np.abs(trace.states[-1] - reference.states[-1]).max())
        mean_steps.append(0.9 / trace.n_steps)
    slope = float(np.polyfit(np.log(mean_steps), np.log(errors), 1)[0])
    elapsed = time.perf_counter() - start
    status = "PASS" if slope >= 4.0 else "FAIL"
    print(f"ACCEPTANCE 8 solver-order: {status} (slope {slope:.2f} >= 4, {elapsed:.2f}s)")
    assert slope >= 4.0
