"""Constant matrices of the spherical tetrad gauge and their identities.

Everything downstream rests on a handful of exact matrices: the Dirac
matrices in the two-spinor split, the vector generators, the cyclic
transform that diagonalizes the spin projection, and the inversion
operators.  This script builds them and runs the identity battery.
"""

import numpy as np

from rsdesitter import algebra

np.set_printoptions(precision=3, suppress=True, linewidth=100)

print("gamma^0 (off-diagonal identity blocks):")
print(algebra.gamma_matrix(0).real)
print("\ngamma^3:")
print(algebra.gamma_matrix(3).real)

print("\nClifford relation residual over all 16 index pairs:",
      algebra.clifford_residual())

for family in ("bispinor", "vector", "tilde"):
    res = algebra.lorentz_algebra_residual(family)
    print(f"so(3,1) commutators, {family:8s} generators: {res:.2e}")

print("\nContraction identities used by the radial split:")
for name, res in algebra.gamma_contraction_residuals().items():
    print(f"  {name}: {res:.2e}")

u = algebra.cyclic_transform()
print("\ncyclic transform U (rows: time, spin +1, spin 0, spin -1):")
print(np.round(u, 4))
print("U U^dagger deviation:", np.abs(u @ u.conj().T - np.eye(4)).max())

t1, t2, t3 = algebra.tilde_spin_matrices()
print("\nspin projection in the cyclic basis (diagonal):", np.diag(t3).real)
print("ladder matrix T~1 (all entries 0 or 1/sqrt2):")
print(t1.real)

theta, phi = 0.9, 0.4
s = algebra.schrodinger_rotation(theta, phi)
print(f"\nSchrodinger gauge rotation S(theta = {theta}, phi = {phi}), 16x16;")
print("its (4, 4) blocks are the spinor rotation entries times one vector block,")
print("the upper-left block being u[0, 0] diag(1, O):")
print(np.round(s[:4, :4], 3))
print(f"S S^dagger deviation from identity: {np.abs(s @ s.conj().T - np.eye(16)).max():.1e}")

pb, pv, combined = algebra.parity_operators()
print("\ninversion on the bispinor index:")
print(pb.real)
print("inversion squared deviates from identity by:",
      np.abs(combined @ combined - np.eye(16)).max())

print("\nconjugated total momentum (finite-difference check, 20 points):",
      f"{algebra.total_momentum_conjugation_residual():.2e}")
