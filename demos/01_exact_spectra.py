"""Exact ground energies of the three one-mode potentials.

Diagonalizes the truncated Hamiltonians at increasing basis size and prints
the convergence of the ground energy for each potential.
"""

import numpy as np

from mssq.oscillator import Family, ModelSpec, build_model
from mssq.spectrum import convergence_scan, eigendecompose

for family in (Family.HARMONIC_OSC, Family.ANHARMONIC_OSC, Family.DOUBLE_WELL):
    print(f"\n{family.value}")
    for dim, energy, delta in convergence_scan(ModelSpec(family, 1), [4, 8, 16, 32, 64]):
        print(f"  dim {dim:3d}  E0 = {energy:+.6f}  delta = {delta:.2e}")

# a peek at the low-lying double-well spectrum at a converged size
result = eigendecompose(build_model(ModelSpec(Family.DOUBLE_WELL, 6)))
print("\nDouble-well lowest eigenvalues:", np.round(result.eigenvalues[:6], 5))
