"""The radial systems: two independent routes and their exact agreement.

The 16-amplitude coefficient matrix is hand-coded from the collected
radial equations, and independently re-derived by applying the separated
operator to each basis state and projecting the result back onto the
slot functions.  The inversion-reduced 8x8 system, its constraint rows
and the flow-invariance certificate follow.
"""

import numpy as np

from rsdesitter import radial
from rsdesitter.ansatz import ModeLabel

mode = ModeLabel(j=1.5, m_j=0.5, eps=1.3, mass=0.7)
omega = 0.8

hand = radial.build_A16(mode, omega)
extracted = radial.assemble_from_angular(mode, omega)
print("hand-coded vs angular-extraction, all 256 entries:",
      f"{np.abs(hand - extracted).max():.2e}")

print("\nadjudicated coefficient slots (first row and the g2 row):")
a = mode.coefficients().a
print(f"  A[f0, g0] = {extracted[0, 4]:.4f}   (expect {-a/np.sin(omega):+.4f})")
print(f"  A[f0, g3] = {extracted[0, 7]:.1e} (a transcription places the coupling here)")
print(f"  A[g2, f3] = {extracted[6, 3]:.4f}   (expect {-np.sqrt(2)/np.tan(omega):+.4f})")

for delta in (1, -1):
    m = ModeLabel(j=1.5, m_j=0.5, eps=1.3, mass=0.7, delta=delta)
    emb = radial.parity_embed(delta)
    dev = np.abs(radial.build_A16(m, omega) @ emb - emb @ radial.build_A8(m, omega)).max()
    print(f"\ndelta = {delta:+d}: embedding identity A16 P = P A8 deviates by {dev:.1e}")

m = ModeLabel(j=1.5, m_j=0.5, eps=1.3, mass=0.7, delta=+1)
cons = radial.constraint_matrix(m, omega)
print("\nconstraint rows (2 algebraic + 2 divergence with derivatives eliminated):")
print(np.round(cons, 3))

print("\nclosed-form Lambda of C' + C A = Lambda C at omega = 0.7:")
print(np.round(radial.flow_mixing(m, 0.7)[0], 4))
print("certificate |C' + C A - Lambda C|:")
for entry in radial.consistency_check(m, [0.3, 0.7, 1.2]):
    print(f"  omega = {entry['omega']:.1f}: residual {entry['residual']:.2e} "
          f"(relative {entry['relative_residual']:.1e}), rank {entry['constraint_rank']}")

origin, horizon = radial.singular_residues(m)
print("\nendpoint residues: pole exponents of the reduced flow")
print("  origin eigenvalues:", np.round(np.linalg.eigvals(origin), 4))
print("  horizon eigenvalues:", np.round(np.linalg.eigvals(horizon), 4))
