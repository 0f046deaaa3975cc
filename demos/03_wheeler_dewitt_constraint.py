"""Verifying H psi = 0 for the closed free-scalar universe.

Minimizes <H^2> with a shot-sampled ansatz to land in the zero eigenspace of
the two-mode mini-superspace Hamiltonian, then reports <H> and <H^2> of the
optimized state.  Multistart plus staged refinement (smaller perturbations,
more shots) is what pushes <H^2> to the 1e-2 level.
"""

from mssq.circuits import AnsatzShape
from mssq.oscillator import Family, ModelSpec
from mssq.vqe import SpsaConfig, vqe_run

spec = ModelSpec(Family.CLOSED_FREE, 2)
result = vqe_run(
    spec,
    AnsatzShape(4, 2),
    objective_kind="constraint",
    spsa=SpsaConfig(iterations=600, seed=0),
    restarts=4,
    refinements=((1000, 0.04, 65536), (800, 0.012, 524288), (600, 0.004, 4194304)),
)
print(f"<H>   = {result.h_mean:+.5f} +- {result.h_stderr:.5f}")
print(f"<H^2> = {result.h2_mean:+.5f} +- {result.h2_stderr:.5f}")
