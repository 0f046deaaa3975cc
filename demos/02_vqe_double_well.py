"""Shot-sampled VQE upper bound for the double-well ground state.

Runs SPSA against the 3-qubit double-well Hamiltonian, compares the bound
with the exact ground energy of the same truncated matrix, and reports the
overlap between the optimized and exact position-space densities.
"""

import numpy as np

from mssq.circuits import AnsatzShape, run as run_circuit
from mssq.oscillator import Family, ModelSpec, build_model
from mssq.spectrum import default_grid, eigendecompose, reconstruct_wavefunction
from mssq.vqe import SpsaConfig, vqe_run

spec = ModelSpec(Family.DOUBLE_WELL, 3)
exact = eigendecompose(build_model(spec))
result = vqe_run(spec, AnsatzShape(3, 3), spsa=SpsaConfig(iterations=500, seed=0))

print(f"exact E0 (dim 8):  {exact.eigenvalues[0]:+.5f}")
print(f"VQE upper bound:   {result.h_mean:+.5f} +- {result.h_stderr:.5f}")

xs = default_grid()
vqe_grid = reconstruct_wavefunction(run_circuit(result.circuit), (xs,))
exact_grid = reconstruct_wavefunction(exact.eigenvectors[:, 0], (xs,))
overlap = float(
    np.trapezoid(vqe_grid.density * exact_grid.density, xs)
    / np.sqrt(
        np.trapezoid(vqe_grid.density**2, xs) * np.trapezoid(exact_grid.density**2, xs)
    )
)
print(f"density overlap:   {overlap:.4f}")
