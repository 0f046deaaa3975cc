"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s`.  The VQE-based criteria take
a few minutes; everything is seeded and deterministic.
"""

import numpy as np
import pytest

from mssq.circuits import AnsatzShape, run as run_circuit
from mssq.cli import main, noise_scan
from mssq.config import resolve
from mssq.oscillator import Family, ModelSpec, build_model
from mssq.pauli import decompose, reconstruct
from mssq.spectrum import default_grid, eigendecompose, reconstruct_wavefunction
from mssq.vqe import SpsaConfig, vqe_run

CONSTRAINT_REFINEMENTS = ((1000, 0.04, 65536), (800, 0.012, 524288), (800, 0.004, 4194304))


def report(criterion: str, ok: bool, detail: str = ""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {criterion}" + (f" — {detail}" if detail else ""))
    assert ok, f"{criterion}: {detail}"


def run_cli(args):
    assert main(args) == 0


# --- criterion 1: Table 1 exact ground energies via cmd_spectrum ------------


@pytest.mark.parametrize(
    "family,qubits,target,tol",
    [
        ("HarmonicOsc", 5, 0.5, 1e-6),
        ("AnharmonicOsc", 5, 0.543116, 1e-3),
        ("DoubleWell", 6, -5.68592, 1e-3),
    ],
)
def test_criterion_1_exact_energies(tmp_path, family, qubits, target, tol):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "out"
    cfg.write_text(
        f"model.family = {family}\nmodel.qubits_per_mode = {qubits}\n"
        f"spectrum.scan_dims = 4,8,16,32,64\noutput.dir = {out}\n"
    )
    run_cli(["spectrum", "-c", str(cfg)])
    ground = float((out / "summary.txt").read_text().split("ground_energy = ")[1].split()[0])
    scan = np.loadtxt(out / "convergence.csv", delimiter=",", skiprows=1)
    converged = abs(scan[-1, 1] - target) < tol
    report(
        f"criterion 1 ({family} exact E0)",
        abs(ground - target) < tol and converged,
        f"got {ground:.6f}, target {target} +- {tol}",
    )


# --- criterion 2: Table 1 VQE bounds within 3% in >= 8 of 10 seeds ----------


@pytest.mark.parametrize(
    "family,qubits,depth,iterations",
    [
        (Family.HARMONIC_OSC, 2, 2, 300),
        (Family.ANHARMONIC_OSC, 2, 2, 300),
        (Family.DOUBLE_WELL, 3, 3, 500),
    ],
)
def test_criterion_2_vqe_bounds(family, qubits, depth, iterations):
    spec = ModelSpec(family, qubits)
    exact = float(eigendecompose(build_model(spec)).eigenvalues[0])
    successes = 0
    bounds = []
    for seed in range(10):
        result = vqe_run(
            spec,
            AnsatzShape(qubits, depth),
            shots=8192,
            spsa=SpsaConfig(iterations=iterations, seed=seed),
        )
        bounds.append(result.h_mean)
        within = abs(result.h_mean - exact) <= 0.03 * abs(exact)
        not_below = result.h_mean >= exact - 2 * result.h_stderr
        successes += within and not_below
    report(
        f"criterion 2 ({family.value} VQE bound)",
        successes >= 8,
        f"{successes}/10 seeds within 3% of {exact:.5f}; bounds {np.round(bounds, 4)}",
    )


# --- criterion 3: Wheeler-DeWitt constraint ---------------------------------


def constraint_run(family, seed=0):
    return vqe_run(
        ModelSpec(family, 2),
        AnsatzShape(4, 2),
        objective_kind="constraint",
        shots=8192,
        spsa=SpsaConfig(iterations=600, seed=seed),
        restarts=4,
        refinements=CONSTRAINT_REFINEMENTS,
    )


def test_criterion_3_closed_free():
    result = constraint_run(Family.CLOSED_FREE)
    ok = abs(result.h_mean) <= 2 * result.h_stderr
    report(
        "criterion 3 (ClosedFree <H> consistent with 0)",
        ok,
        f"<H> = {result.h_mean:.5f} +- {result.h_stderr:.5f}, <H^2> = {result.h2_mean:.5f}",
    )


@pytest.mark.parametrize("family", [Family.CLOSED_PHI4, Family.OPEN_PHI4])
def test_criterion_3_phi4(family):
    result = constraint_run(family)
    ok = abs(result.h_mean) < 0.1 and result.h2_mean < 0.1
    report(
        f"criterion 3 ({family.value} constraint)",
        ok,
        f"<H> = {result.h_mean:.5f} +- {result.h_stderr:.5f}, <H^2> = {result.h2_mean:.5f}",
    )


# --- criterion 4: shot-noise law --------------------------------------------


def test_criterion_4_shot_noise_law(tmp_path):
    cfg = resolve(
        [
            (1, "model.family", "AnharmonicOsc"),
            (2, "model.qubits_per_mode", "3"),
            (3, "noise.shots_grid", "256,512,1024,2048,4096,8192,16384"),
            (4, "noise.repetitions", "100"),
            (5, "output.dir", str(tmp_path / "out")),
        ]
    )
    rep = noise_scan(cfg)
    ok = 0.45 <= rep.fit_exponent <= 0.55 and rep.residual < 0.1
    report(
        "criterion 4 (shot-noise exponent)",
        ok,
        f"beta = {rep.fit_exponent:.3f}, log-log RMS residual = {rep.residual:.4f}",
    )


# --- criterion 5: oracle equivalence ----------------------------------------


def test_criterion_5_circuit_oracle():
    from test_circuits import dense_unitary, random_circuit

    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        circuit = random_circuit(rng, max_qubits=4, max_gates=20)
        gap = float(np.max(np.abs(run_circuit(circuit) - dense_unitary(circuit)[:, 0])))
        worst = max(worst, gap)
    report("criterion 5 (statevector vs dense oracle)", worst < 1e-10, f"worst gap {worst:.2e}")


def test_criterion_5_pauli_roundtrip():
    rng = np.random.default_rng(99)
    worst = 0.0
    for trial in range(50):
        dim = int(rng.choice([2, 4, 8, 16]))
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (a + a.conj().T) / 2
        worst = max(worst, float(np.max(np.abs(reconstruct(decompose(h)) - h))))
    report("criterion 5 (Pauli decompose/reconstruct)", worst < 1e-9, f"worst gap {worst:.2e}")


# --- criterion 6: wavefunction shape ----------------------------------------


def test_criterion_6_double_well_density_overlap():
    spec = ModelSpec(Family.DOUBLE_WELL, 3)
    result = vqe_run(
        spec, AnsatzShape(3, 3), shots=8192, spsa=SpsaConfig(iterations=500, seed=0)
    )
    xs = default_grid()
    vqe_density = reconstruct_wavefunction(run_circuit(result.circuit), (xs,)).density
    exact_vec = eigendecompose(build_model(spec)).eigenvectors[:, 0]
    exact_density = reconstruct_wavefunction(exact_vec, (xs,)).density
    overlap = float(
        np.trapezoid(vqe_density * exact_density, xs)
        / np.sqrt(np.trapezoid(vqe_density**2, xs) * np.trapezoid(exact_density**2, xs))
    )
    report("criterion 6 (double-well density overlap)", overlap > 0.9, f"overlap {overlap:.4f}")


def test_criterion_6_vacuum_product_gaussian():
    xs = default_grid()
    coeffs = np.zeros(16)
    coeffs[0] = 1.0
    density = reconstruct_wavefunction(coeffs, (xs, xs)).density
    expected = np.exp(-(xs[:, None] ** 2) - xs[None, :] ** 2) / np.pi
    gap = float(np.max(np.abs(density - expected)))
    report("criterion 6 (|0>|0> product Gaussian)", gap < 1e-6, f"max pointwise gap {gap:.2e}")


# --- criterion 7: determinism -----------------------------------------------


def test_criterion_7_determinism(tmp_path):
    text = (
        "model.family = AnharmonicOsc\nmodel.qubits_per_mode = 2\nansatz.depth = 2\n"
        "spsa.iterations = 60\nspsa.calibration_samples = 5\nrun.repetitions = 5\n"
        "run.seed = 3\nspectrum.scan_dims = 4,8\ngrid.points = 81\noutput.dir = {out}\n"
    )
    outputs = []
    for label in ("a", "b"):
        cfg = tmp_path / f"{label}.cfg"
        out = tmp_path / label
        cfg.write_text(text.format(out=out))
        run_cli(["vqe", "-c", str(cfg)])
        outputs.append(out)
    names = ["trajectory.csv", "probabilities.csv", "vqe_density.csv", "exact_density.csv"]
    same = all((outputs[0] / n).read_bytes() == (outputs[1] / n).read_bytes() for n in names)
    spec_outs = []
    for label in ("c", "d"):
        cfg = tmp_path / f"{label}.cfg"
        out = tmp_path / label
        cfg.write_text(text.format(out=out))
        run_cli(["spectrum", "-c", str(cfg)])
        spec_outs.append(out)
    same_spec = all(
        (spec_outs[0] / n).read_bytes() == (spec_outs[1] / n).read_bytes()
        for n in ["spectrum.csv", "convergence.csv"]
    )
    report("criterion 7 (byte-identical reruns)", same and same_spec)
