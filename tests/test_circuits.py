import numpy as np
import pytest

from mssq.circuits import (
    CNOT,
    AnsatzShape,
    Circuit,
    U3,
    build_ansatz,
    expectation,
    run,
    u3_matrix,
)
from mssq import circuits, pauli
from mssq.pauli import PauliSum, decompose, group_by_basis, reconstruct
from mssq.oscillator import Family, ModelSpec, build_model


def dense_unitary(circuit: Circuit) -> np.ndarray:
    """Independent oracle: explicit kron/permutation product of all gates."""
    n = circuit.n_qubits
    dim = 2**n
    u = np.eye(dim, dtype=complex)
    for gate in circuit.gates:
        if isinstance(gate, U3):
            mats = [np.eye(2, dtype=complex)] * n
            mats[gate.qubit] = u3_matrix(gate.theta, gate.phi, gate.lam)
            m = mats[0]
            for piece in mats[1:]:
                m = np.kron(m, piece)
        else:
            m = np.zeros((dim, dim), dtype=complex)
            for i in range(dim):
                control_bit = (i >> (n - 1 - gate.control)) & 1
                j = i ^ ((1 << (n - 1 - gate.target)) if control_bit else 0)
                m[j, i] = 1.0
        u = m @ u
    return u


def random_circuit(rng, max_qubits=4, max_gates=20) -> Circuit:
    n = int(rng.integers(1, max_qubits + 1))
    gates = []
    for _ in range(int(rng.integers(1, max_gates + 1))):
        if n > 1 and rng.random() < 0.3:
            a, b = rng.choice(n, size=2, replace=False)
            gates.append(CNOT(int(a), int(b)))
        else:
            gates.append(U3(int(rng.integers(n)), *rng.uniform(-np.pi, np.pi, 3)))
    return Circuit(n, tuple(gates))


def test_empty_circuit():
    state = run(Circuit(2, ()))
    assert np.array_equal(state, [1, 0, 0, 0])


def test_u3_pi_is_not_gate():
    state = run(Circuit(1, (U3(0, np.pi, 0, np.pi),)))
    assert abs(state[1]) == pytest.approx(1.0)


def test_bell_state():
    state = run(Circuit(2, (U3(0, np.pi / 2, 0, np.pi), CNOT(0, 1))))
    assert np.allclose(state, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)], atol=1e-12)


def test_cnot_validation():
    with pytest.raises(ValueError):
        CNOT(1, 1)
    with pytest.raises(ValueError):
        Circuit(2, (U3(2, 0, 0, 0),))


def test_statevector_matches_dense_oracle():
    rng = np.random.default_rng(42)
    for _ in range(100):
        circuit = random_circuit(rng)
        state = run(circuit)
        assert abs(np.linalg.norm(state) - 1) < 1e-12
        assert np.max(np.abs(state - dense_unitary(circuit)[:, 0])) < 1e-10


def test_circuit_unitarity():
    rng = np.random.default_rng(7)
    for _ in range(10):
        u = dense_unitary(random_circuit(rng, max_qubits=3))
        assert np.max(np.abs(u.conj().T @ u - np.eye(len(u)))) < 1e-10


def test_ansatz_parameter_count():
    assert AnsatzShape(2, 1).parameter_count == 12
    assert AnsatzShape(3, 0).parameter_count == 9


def test_ansatz_zero_params_identity():
    circuit = build_ansatz(AnsatzShape(2, 0), np.zeros(6))
    assert np.allclose(run(circuit), [1, 0, 0, 0], atol=1e-12)


def test_ansatz_gate_layout():
    circuit = build_ansatz(AnsatzShape(3, 2), np.arange(27, dtype=float))
    kinds = [type(g).__name__ for g in circuit.gates]
    assert kinds == ["U3"] * 3 + (["CNOT"] * 2 + ["U3"] * 3) * 2
    # layer-major, qubit-minor parameter order
    first = circuit.gates[0]
    assert (first.theta, first.phi, first.lam) == (0.0, 1.0, 2.0)


def test_ansatz_rejects_bad_length():
    with pytest.raises(ValueError):
        build_ansatz(AnsatzShape(2, 1), np.zeros(11))


def test_ansatz_reaches_real_states():
    # depth-1 two-qubit ansatz prepares random real-amplitude states
    from scipy.optimize import minimize

    shape = AnsatzShape(2, 1)
    rng = np.random.default_rng(0)
    for _ in range(5):
        target = rng.normal(size=4)
        target /= np.linalg.norm(target)

        def infidelity(params):
            return 1 - abs(np.vdot(target, run(build_ansatz(shape, params)))) ** 2

        best = min(
            minimize(infidelity, rng.uniform(-np.pi, np.pi, 12), method="BFGS").fun
            for _ in range(3)
        )
        assert best < 1e-3


def test_expectation_shot_x_on_zero_state():
    value = expectation(Circuit(1, ()), PauliSum(1, ((1.0, "X"),)), shots=8192, seed=3)
    assert isinstance(value, float)
    assert abs(value) < 4 / np.sqrt(8192)


def test_expectation_ansatz_zero_params_matches_matrix_element():
    # the harmonic Hamiltonian is diagonal, so every shot on |00> reads the same parities
    h = build_model(ModelSpec(Family.HARMONIC_OSC, 2))
    circuit = build_ansatz(AnsatzShape(2, 2), np.zeros(18))
    value = expectation(circuit, decompose(h.entries), shots=64, seed=0)
    assert value == pytest.approx(h.entries[0, 0].real)


def test_expectation_qubit_mismatch():
    with pytest.raises(ValueError):
        expectation(Circuit(2, ()), PauliSum(1, ((1.0, "Z"),)), shots=1)


def test_shot_expectation_unbiased():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    psum = decompose((a + a.conj().T) / 2)
    circuit = Circuit(2, tuple(U3(q, *rng.uniform(-np.pi, np.pi, 3)) for q in range(2)))
    psi = run(circuit)
    exact = np.vdot(psi, reconstruct(psum) @ psi).real
    values = [expectation(circuit, psum, shots=2048, seed=seed) for seed in range(200)]
    combined = np.std(values, ddof=1) / np.sqrt(200)
    assert abs(np.mean(values) - exact) < 4 * combined


def test_stderr_scales_as_inverse_sqrt_shots():
    rng = np.random.default_rng(13)
    psum = decompose(build_model(ModelSpec(Family.ANHARMONIC_OSC, 2)).entries)
    circuit = Circuit(2, tuple(U3(q, *rng.uniform(-np.pi, np.pi, 3)) for q in range(2)))
    shots_grid = [256, 1024, 4096, 16384]
    stds = []
    for shots in shots_grid:
        vals = [expectation(circuit, psum, shots=shots, seed=s) for s in range(60)]
        stds.append(np.std(vals))
    slope, _ = np.polyfit(np.log(shots_grid), np.log(stds), 1)
    assert -0.55 < slope < -0.45


def resimulated_expectation(circuit: Circuit, observable: PauliSum, shots: int, seed):
    """Reference shot-mode estimator that re-simulates the circuit for every group.

    Each group's X/Y basis rotations are appended as u3 gates and the extended
    circuit is run from |0...0>; parities come from bit counts of i & mask.
    """
    rotations = {"X": (np.pi / 2, 0.0, np.pi), "Y": (np.pi / 2, 0.0, np.pi / 2)}
    rng = np.random.default_rng(seed)
    n = circuit.n_qubits
    idx = np.arange(2**n)
    value = 0.0
    for group in group_by_basis(observable):
        extra = tuple(U3(q, *rotations[b]) for q, b in enumerate(group.basis) if b in rotations)
        probs = np.abs(run(Circuit(n, circuit.gates + extra))) ** 2
        freq = rng.multinomial(shots, probs / probs.sum()) / shots
        for coeff, string in group.terms:
            mask = sum(1 << (n - 1 - q) for q, c in enumerate(string) if c != "I")
            if not mask:
                value += coeff
                continue
            est = float(freq @ np.where(np.bitwise_count(idx & mask) % 2, -1.0, 1.0))
            value += coeff * est
    return float(value)


def test_shot_expectation_matches_resimulating_oracle():
    rng = np.random.default_rng(23)
    for trial in range(30):
        circuit = random_circuit(rng)
        dim = 2**circuit.n_qubits
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        observable = decompose((a + a.conj().T) / 2)
        bases = {b for group in group_by_basis(observable) for b in group.basis}
        assert bases >= {"X", "Y", "Z"}
        for seed in (trial, 1000 + trial, 2**40 + trial):
            shots = int(rng.choice([1, 64, 4096]))
            got = expectation(circuit, observable, shots=shots, seed=seed)
            assert got == resimulated_expectation(circuit, observable, shots, seed)


def test_shot_expectation_runs_circuit_once(monkeypatch):
    calls = []

    def counting_run(circuit):
        calls.append(circuit)
        return run(circuit)

    monkeypatch.setattr(circuits, "run", counting_run)
    circuit = build_ansatz(AnsatzShape(3, 1), np.random.default_rng(5).uniform(-np.pi, np.pi, 18))
    observable = decompose(build_model(ModelSpec(Family.DOUBLE_WELL, 3)).entries)
    assert len(group_by_basis(observable)) > 1
    expectation(circuit, observable, shots=1024, seed=0)
    assert calls == [circuit]


def test_shot_expectation_groups_observable_once(monkeypatch):
    calls = []

    def counting_group_by_basis(psum):
        calls.append(psum)
        return group_by_basis(psum)

    monkeypatch.setattr(pauli, "group_by_basis", counting_group_by_basis)
    circuit = build_ansatz(AnsatzShape(3, 1), np.random.default_rng(6).uniform(-np.pi, np.pi, 18))
    observable = decompose(build_model(ModelSpec(Family.DOUBLE_WELL, 3)).entries)
    rng = np.random.default_rng(0)
    for _ in range(50):
        expectation(circuit, observable, shots=256, seed=rng)
    assert len(calls) == 1 and calls[0] is observable


def tensordot_u3(state: np.ndarray, mat: np.ndarray, q: int, n: int) -> np.ndarray:
    """Reference u3 kernel: move qubit q's axis to the front and contract with tensordot."""
    psi = np.moveaxis(state.reshape([2] * n), q, 0)
    psi = np.tensordot(mat, psi, axes=([1], [0]))
    return np.moveaxis(psi, 0, q).reshape(-1)


def flip_cnot(state: np.ndarray, control: int, target: int, n: int) -> np.ndarray:
    """Reference CNOT kernel: flip the target axis of the control=1 half."""
    psi = state.reshape([2] * n).copy()
    idx1 = [slice(None)] * n
    idx1[control] = 1
    sub = psi[tuple(idx1)]
    psi[tuple(idx1)] = np.flip(sub, axis=target if target < control else target - 1)
    return psi.reshape(-1)


def test_gate_kernels_match_tensordot_reference():
    rng = np.random.default_rng(31)
    for n in range(1, 7):
        for _ in range(5):
            state = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            for q in range(n):
                mat = u3_matrix(*rng.uniform(-np.pi, np.pi, 3))
                got = circuits._apply_u3(state, mat, q)
                assert np.array_equal(got, tensordot_u3(state, mat, q, n))
            for control in range(n):
                for target in range(n):
                    if control != target:
                        got = state[circuits._cnot_permutation(n, control, target)]
                        assert np.array_equal(got, flip_cnot(state, control, target, n))
    perm = circuits._cnot_permutation(3, 2, 0)
    with pytest.raises(ValueError):
        perm[0] = 1
