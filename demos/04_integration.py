"""Integrating the reduced system while monitoring the constraints.

A state projected onto the constraint surface is propagated across most
of the radial interval; the normalized constraint residuals stay at the
integrator's noise level because the surface is exactly flow-invariant.
Also shown: endpoint exponents, a regular launch from near the origin,
and an inward run from near the horizon (the command-line tool does the
same with ``integrate --from 1.5 --to 0.5 --launch k``).
"""

import numpy as np

from rsdesitter import radial, solver
from rsdesitter.ansatz import ModeLabel, forced_zero_slots

mode = ModeLabel(j=0.5, m_j=0.5, eps=1.3, mass=0.7, delta=+1)
system = radial.RadialSystem(mode=mode, dimension=8)
cons = radial.ConstraintSet(mode=mode)

rng = np.random.default_rng(1)
seed = rng.standard_normal(8) + 1j * rng.standard_normal(8)
zero = tuple(k for k in forced_zero_slots(mode) if k < 8)
y0 = solver.constraint_kernel_state(cons, 0.3, seed, zero_slots=zero)

trace = solver.integrate(system, cons, 0.3, 1.2, y0, tol=1e-10)
print(f"outward run: {trace.n_steps} steps, "
      f"max normalized constraint residual {trace.residuals.max():.2e}")

reference = solver.integrate(system, cons, 0.3, 1.2, y0, tol=1e-13)
print(f"endpoint deviation from a tol=1e-13 reference: "
      f"{np.abs(trace.states[-1] - reference.states[-1]).max():.2e}")

indicial = solver.frobenius(system, "origin")
print("\norigin exponents:", np.round(indicial.exponents.real, 3))
regular = [k for k in indicial.regular_indices() if abs(indicial.exponents[k]) < 1e-8]
launch = solver.endpoint_launch(system, indicial, regular[0], offset=1e-3)
resid = np.abs(cons.matrix(launch.omega) @ launch.state).max()
print(f"regular launch at omega = {launch.omega}: constraint residual {resid:.2e}")
up = solver.integrate(system, cons, launch.omega, 1.2, launch.state, tol=1e-10)
print(f"launched run drift: {up.residuals.max():.2e} over {up.n_steps} steps")

horizon = solver.frobenius(system, "horizon")
print("\nhorizon exponents:", np.round(horizon.exponents, 3))
fall = solver.endpoint_launch(system, horizon, 0, offset=1e-3)
inward = solver.integrate(system, None, fall.omega, 0.8, fall.state, tol=1e-10)
print(f"inward run from omega = {fall.omega:.4f}: {inward.n_steps} steps, "
      f"|Y(0.8)| = {np.abs(inward.states[-1]).max():.3e}")

with open("demo_trace.csv", "w", encoding="utf-8") as fh:
    fh.write("omega," + ",".join(f"abs_y{k}" for k in range(8)) + ",res1,res2,res3,res4\n")
    for i in range(len(trace.omegas)):
        row = [f"{trace.omegas[i]:.10g}"]
        row += [f"{abs(z):.10g}" for z in trace.states[i]]
        row += [f"{r:.3e}" for r in trace.residuals[i]]
        fh.write(",".join(row) + "\n")
print("\nwrote demo_trace.csv")
