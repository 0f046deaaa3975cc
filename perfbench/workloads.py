"""The benchmark's workloads: one `mssq` command and config each, and its output check.

The benchmark seed becomes `run.seed`; the program only ever sees the config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable
from pathlib import Path

# exact ground energy of DoubleWell at 3 qubits (dim 8), from dense eigh of
# p^2/2 - x^2 + (0.15/4) x^4 in the truncated ladder basis
DOUBLE_WELL_3Q_E0 = -5.512001187003149
# criterion 1's converged DoubleWell ground energy, and its tolerance
DOUBLE_WELL_E0 = -5.68592
DOUBLE_WELL_E0_TOL = 1e-3


@dataclass(frozen=True)
class Workload:
    command: str
    config: str  # format fields: seed, out
    why: str
    check: Callable[[Path], str | None]  # None when the outputs are right, else what is wrong


def _values(path: Path) -> dict[str, float]:
    out = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            try:
                out[key.strip()] = float(value)
            except ValueError:
                pass
    return out


def _check_vqe(outdir: Path) -> str | None:
    res = _values(outdir / "result.txt")
    bound, stderr = res["h_mean"], res["h_stderr"]
    exact = DOUBLE_WELL_3Q_E0
    if abs(bound - exact) > 0.03 * abs(exact):
        return f"bound {bound} not within 3% of E0 {exact}"
    if bound < exact - 2 * stderr:
        return f"bound {bound} below E0 {exact} - 2*stderr {stderr}"
    return None


def _check_constraint(outdir: Path) -> str | None:
    res = _values(outdir / "result.txt")
    h, h2, h2_stderr = res["h_mean"], res["h2_mean"], res["h2_stderr"]
    if not (math.isfinite(h) and math.isfinite(h2) and math.isfinite(h2_stderr)):
        return f"non-finite <H> {h} or <H^2> {h2} +- {h2_stderr}"
    if h2 < -2 * h2_stderr:
        return f"<H^2> {h2} below -2*stderr {h2_stderr}, but H^2 >= 0"
    return None


def _check_spectrum(outdir: Path) -> str | None:
    res = _values(outdir / "summary.txt")
    ground, residual = res["ground_energy"], res["max_residual"]
    if abs(ground - DOUBLE_WELL_E0) > DOUBLE_WELL_E0_TOL:
        return f"ground energy {ground} not within {DOUBLE_WELL_E0_TOL} of {DOUBLE_WELL_E0}"
    if not residual < 1e-8:
        return f"max_residual {residual} not below 1e-8"
    return None


WORKLOADS = {
    "vqe-doublewell": Workload(
        command="vqe",
        config="""\
model.family = DoubleWell
model.qubits_per_mode = 3
ansatz.depth = 3
spsa.iterations = 500
run.shots = 8192
run.repetitions = 30
run.seed = {seed}
output.dir = {out}
""",
        why="Energy-mode VQE at 3 qubits, where simulating circuits for shot-mode expectations dominates.",
        check=_check_vqe,
    ),
    "constraint-phi4-6q": Workload(
        command="constraint",
        config="""\
model.family = ClosedPhi4
model.qubits_per_mode = 3
ansatz.depth = 2
spsa.iterations = 15
spsa.calibration_samples = 5
spsa.restarts = 2
spsa.refinements = 15:0.04:1048576
run.shots = 8192
run.repetitions = 10
run.seed = {seed}
output.dir = {out}
""",
        why="Two-mode <H^2> minimization at 6 qubits, with restarts and refinement; H^2 has 363 Pauli terms in 25 groups.",
        check=_check_constraint,
    ),
    "spectrum-doublewell": Workload(
        command="spectrum",
        config="""\
model.family = DoubleWell
model.qubits_per_mode = 10
spectrum.scan_dims = 4,8,16,32,64,128,256,512,1024
run.seed = {seed}
output.dir = {out}
""",
        why="Exact dense spectrum and convergence scan up to dim 1024, which never touches the Pauli, circuit or VQE layers.",
        check=_check_spectrum,
    ),
}
