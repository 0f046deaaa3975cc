import math

import numpy as np
import pytest

from mssq.circuits import AnsatzShape, Circuit, expectation, run, u3_matrix
from mssq import circuits, pauli
from mssq.pauli import PauliSum, decompose, group_by_basis, reconstruct
from mssq.oscillator import Family, ModelSpec, build_model


def dense_unitary(circuit: Circuit) -> np.ndarray:
    """Independent oracle: each u3 layer as a kron product, each CNOT chain as a
    product of bit-flip permutation matrices; angles read layer-major, qubit-minor."""
    n = circuit.n_qubits
    dim = 2**n
    chain = np.eye(dim)
    for q in range(n - 1):  # CNOT(q, q+1)
        m = np.zeros((dim, dim))
        for i in range(dim):
            control_bit = (i >> (n - 1 - q)) & 1
            m[i ^ (control_bit << (n - 2 - q)), i] = 1.0
        chain = m @ chain
    angles = iter(circuit.params)
    u = np.eye(dim, dtype=complex)
    for layer in range(circuit.shape.depth + 1):
        if layer > 0:
            u = chain @ u
        m = np.ones((1, 1))
        for _ in range(n):
            m = np.kron(m, u3_matrix(next(angles), next(angles), next(angles)))
        u = m @ u
    return u


def random_circuit(rng, max_qubits=4, max_gates=20) -> Circuit:
    """A random ansatz on 1..max_qubits qubits with at most max_gates u3 and CNOT gates."""
    n = int(rng.integers(1, max_qubits + 1))
    # depth d has n * (d + 1) u3 gates and (n - 1) * d CNOTs
    depth = int(rng.integers(0, (max_gates - n) // (2 * n - 1) + 1))
    shape = AnsatzShape(n, depth)
    return Circuit(shape, rng.uniform(-np.pi, np.pi, shape.parameter_count))


def apply_gate(state: np.ndarray, mat: np.ndarray, q: int) -> np.ndarray:
    """Reference u3 kernel: qubit q's amplitude pairs as one (2, dim/2) block, one matmul."""
    pairs = state.reshape(2**q, 2, -1).swapaxes(0, 1).reshape(2, -1)
    return (mat @ pairs).reshape(2, 2**q, -1).swapaxes(0, 1).reshape(-1)


def gate_list_run(circuit: Circuit) -> np.ndarray:
    """Reference simulator: the ansatz as a gate list of ("u3", qubit, angles) and
    ("cnot", control, target), applied one gate at a time.

    Each CNOT of a chain is its own gather over indices that flip the target
    bit where the control bit is set.
    """
    n = circuit.n_qubits
    idx = np.arange(2**n)
    gates = []
    angles = iter(circuit.params)
    for layer in range(circuit.shape.depth + 1):
        if layer > 0:
            gates.extend(("cnot", q, q + 1) for q in range(n - 1))
        gates.extend(("u3", q, (next(angles), next(angles), next(angles))) for q in range(n))
    state = np.zeros(2**n, dtype=complex)
    state[0] = 1.0
    for kind, a, b in gates:
        if kind == "u3":
            state = apply_gate(state, u3_reference(*b), a)
        else:
            control, target = a, b
            state = state[idx ^ (((idx >> (n - 1 - control)) & 1) << (n - 1 - target))]
    return state


def u3_reference(theta: float, phi: float, lam: float) -> np.ndarray:
    """One u3 gate from scalar math.cos/math.sin and complex exponentials."""
    return np.array(
        [
            [math.cos(theta / 2), -np.exp(1j * lam) * math.sin(theta / 2)],
            [np.exp(1j * phi) * math.sin(theta / 2), np.exp(1j * (phi + lam)) * math.cos(theta / 2)],
        ]
    )


class RecordingGenerator(np.random.Generator):
    """A PCG64 generator that keeps every multinomial draw it makes."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.draws = []

    def multinomial(self, n, pvals, size=None):
        counts = super().multinomial(n, pvals, size)
        self.draws.append(counts)
        return counts


def test_u3_stack_bit_equal_to_scalar_gates():
    rng = np.random.default_rng(17)
    angles = rng.uniform(-np.pi, np.pi, (3, 4, 5, 3))
    angles[0, 0] = [
        [0.0, np.pi, -np.pi],
        [np.pi / 2, 0.0, np.pi],
        [-0.0, np.pi / 2, 0.0],
        [np.pi, np.pi, np.pi],
        [0, 0, 0],
    ]
    stack = u3_matrix(angles[..., 0], angles[..., 1], angles[..., 2])
    assert stack.shape == (3, 4, 5, 2, 2)
    for index in np.ndindex(angles.shape[:-1]):
        expected = u3_reference(*angles[index])
        assert np.array_equal(stack[index], expected)
        assert np.array_equal(np.signbit(stack[index].view(float)), np.signbit(expected.view(float)))


def test_batched_states_bit_equal_to_separate_runs():
    rng = np.random.default_rng(4)
    for n in range(1, 9):
        for depth in range(5):
            shape = AnsatzShape(n, depth)
            batch = rng.uniform(-np.pi, np.pi, (int(rng.integers(1, 5)), shape.parameter_count))
            states = run(Circuit(shape, batch))
            assert states.shape == (len(batch), 2**n)
            for row, state in zip(batch, states):
                assert np.array_equal(state, run(Circuit(shape, row)))


def test_batched_rotations_bit_equal_to_per_group_loop():
    rotations = {"X": (np.pi / 2, 0.0, np.pi), "Y": (np.pi / 2, 0.0, np.pi / 2)}
    rng = np.random.default_rng(8)
    for n in range(1, 7):
        states = rng.normal(size=(3, 2**n)) + 1j * rng.normal(size=(3, 2**n))
        bases = rng.choice(np.array(["X", "Y", "Z", None], dtype=object), size=(7, n))
        codes = np.array([[{"X": 1, "Y": 2}.get(b, 0) for b in row] for row in bases])
        block = np.repeat(states[:, None, :], len(bases), axis=1)
        rotated = circuits._apply_u3_layer(block, circuits._basis_changes()[codes])
        for state, per_state in zip(states, rotated):
            for basis, got in zip(bases, per_state):
                expected = state
                for q, b in enumerate(basis):
                    if b in rotations:
                        expected = apply_gate(expected, u3_reference(*rotations[b]), q)
                assert np.array_equal(got, expected)


def test_empty_circuit():
    # zero angles make every u3 the identity, and the CNOT chains fix |0...0>
    state = run(Circuit(AnsatzShape(2, 2), np.zeros(18)))
    assert np.array_equal(state, [1, 0, 0, 0])


def test_u3_pi_is_not_gate():
    state = run(Circuit(AnsatzShape(1, 0), [np.pi, 0, np.pi]))
    assert abs(state[1]) == pytest.approx(1.0)


def test_bell_state():
    # Hadamard-like u3 on qubit 0, identity on qubit 1, then CNOT(0, 1)
    params = np.zeros(12)
    params[:3] = np.pi / 2, 0, np.pi
    state = run(Circuit(AnsatzShape(2, 1), params))
    assert np.allclose(state, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)], atol=1e-12)


def test_statevector_matches_dense_oracle():
    rng = np.random.default_rng(42)
    for _ in range(100):
        circuit = random_circuit(rng)
        state = run(circuit)
        assert abs(np.linalg.norm(state) - 1) < 1e-12
        assert np.max(np.abs(state - dense_unitary(circuit)[:, 0])) < 1e-10


def test_statevector_bit_equal_to_gate_list():
    rng = np.random.default_rng(3)
    for n in range(1, 9):
        for depth in range(5):
            for _ in range(3):
                shape = AnsatzShape(n, depth)
                circuit = Circuit(shape, rng.uniform(-np.pi, np.pi, shape.parameter_count))
                assert np.array_equal(run(circuit), gate_list_run(circuit))


def test_circuit_unitarity():
    rng = np.random.default_rng(7)
    for _ in range(10):
        u = dense_unitary(random_circuit(rng, max_qubits=3))
        assert np.max(np.abs(u.conj().T @ u - np.eye(len(u)))) < 1e-10


def test_ansatz_parameter_count():
    assert AnsatzShape(2, 1).parameter_count == 12
    assert AnsatzShape(3, 0).parameter_count == 9


def test_ansatz_zero_params_identity():
    circuit = Circuit(AnsatzShape(2, 0), np.zeros(6))
    assert np.allclose(run(circuit), [1, 0, 0, 0], atol=1e-12)


def test_ansatz_rejects_bad_length():
    with pytest.raises(ValueError):
        Circuit(AnsatzShape(2, 1), np.zeros(11))
    with pytest.raises(ValueError):
        Circuit(AnsatzShape(2, 1), np.zeros((1, 1, 12)))


def test_circuit_params_are_a_read_only_copy():
    params = np.zeros(6)
    circuit = Circuit(AnsatzShape(2, 0), params)
    params[0] = np.pi
    assert circuit.params[0] == 0.0 and circuit.params.dtype == np.float64
    with pytest.raises(ValueError):
        circuit.params[0] = 1.0


def test_ansatz_reaches_real_states():
    # depth-1 two-qubit ansatz prepares random real-amplitude states
    from scipy.optimize import minimize

    shape = AnsatzShape(2, 1)
    rng = np.random.default_rng(0)
    for _ in range(5):
        target = rng.normal(size=4)
        target /= np.linalg.norm(target)

        def infidelity(params):
            return 1 - abs(np.vdot(target, run(Circuit(shape, params)))) ** 2

        best = min(
            minimize(infidelity, rng.uniform(-np.pi, np.pi, 12), method="BFGS").fun
            for _ in range(3)
        )
        assert best < 1e-3


def test_expectation_shot_x_on_zero_state():
    circuit = Circuit(AnsatzShape(1, 0), np.zeros(3))
    value = expectation(circuit, PauliSum(1, ((1.0, "X"),)), shots=8192, seed=3)
    assert isinstance(value, float)
    assert abs(value) < 4 / np.sqrt(8192)


def test_expectation_ansatz_zero_params_matches_matrix_element():
    # the harmonic Hamiltonian is diagonal, so every shot on |00> reads the same parities
    h = build_model(ModelSpec(Family.HARMONIC_OSC, 2))
    circuit = Circuit(AnsatzShape(2, 2), np.zeros(18))
    value = expectation(circuit, decompose(h), shots=64, seed=0)
    assert value == pytest.approx(h[0, 0])


def test_expectation_qubit_mismatch():
    with pytest.raises(ValueError):
        expectation(Circuit(AnsatzShape(2, 0), np.zeros(6)), PauliSum(1, ((1.0, "Z"),)), shots=1)


def test_shot_expectation_unbiased():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    psum = decompose((a + a.conj().T) / 2)
    circuit = Circuit(AnsatzShape(2, 0), rng.uniform(-np.pi, np.pi, 6))
    psi = run(circuit)
    exact = np.vdot(psi, reconstruct(psum) @ psi).real
    values = [expectation(circuit, psum, shots=2048, seed=seed) for seed in range(200)]
    combined = np.std(values, ddof=1) / np.sqrt(200)
    assert abs(np.mean(values) - exact) < 4 * combined


def test_stderr_scales_as_inverse_sqrt_shots():
    rng = np.random.default_rng(13)
    psum = decompose(build_model(ModelSpec(Family.ANHARMONIC_OSC, 2)))
    circuit = Circuit(AnsatzShape(2, 0), rng.uniform(-np.pi, np.pi, 6))
    shots_grid = [256, 1024, 4096, 16384]
    stds = []
    for shots in shots_grid:
        vals = [expectation(circuit, psum, shots=shots, seed=s) for s in range(60)]
        stds.append(np.std(vals))
    slope, _ = np.polyfit(np.log(shots_grid), np.log(stds), 1)
    assert -0.55 < slope < -0.45


def resimulated_expectation(circuit: Circuit, observable: PauliSum, shots: int, seed):
    """Reference shot-mode estimator that re-simulates the circuit for every group.

    The circuit is run from |0...0> once per group and that group's X/Y basis
    rotations are applied as u3 gates; parities come from bit counts of i & mask.
    """
    rotations = {"X": (np.pi / 2, 0.0, np.pi), "Y": (np.pi / 2, 0.0, np.pi / 2)}
    rng = np.random.default_rng(seed)
    n = circuit.n_qubits
    idx = np.arange(2**n)
    value = 0.0
    for group in group_by_basis(observable):
        state = run(circuit)
        for q, basis in enumerate(group.basis):
            if basis in rotations:
                state = apply_gate(state, u3_reference(*rotations[basis]), q)
        probs = np.abs(state) ** 2
        freq = rng.multinomial(shots, probs / probs.sum()) / shots
        for coeff, string in group.terms:
            mask = sum(1 << (n - 1 - q) for q, c in enumerate(string) if c != "I")
            if not mask:
                value += coeff
                continue
            est = float(freq @ np.where(np.bitwise_count(idx & mask) % 2, -1.0, 1.0))
            value += coeff * est
    return float(value)


def rounding_bound(observable: PauliSum) -> float:
    """First-order bound on the rounding gap between the per-string and the weight-vector sums.

    The per-string estimator sums len(terms) products, each a dot over dim
    histogram entries; the readout builds each weight in n butterfly steps and
    dots groups x dim entries.  Every partial sum is bounded by sum |c|.
    """
    n, dim, groups = observable.n_qubits, observable.dim, len(observable.groups)
    terms = len(observable.terms) + dim + n + groups * dim
    return terms * np.finfo(float).eps * sum(abs(c) for c, _ in observable.terms)


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
            drawn, oracle_drawn = RecordingGenerator(seed), RecordingGenerator(seed)
            got = expectation(circuit, observable, shots=shots, seed=drawn)
            expected = resimulated_expectation(circuit, observable, shots, oracle_drawn)
            assert len(drawn.draws) == 1
            assert np.array_equal(drawn.draws[0], np.stack(oracle_drawn.draws))
            assert abs(got - expected) <= rounding_bound(observable)


def test_batched_expectation_draws_each_state_in_turn():
    rng = np.random.default_rng(29)
    for trial in range(20):
        n = int(rng.integers(1, 5))
        shape = AnsatzShape(n, int(rng.integers(0, 3)))
        batch = rng.uniform(-np.pi, np.pi, (int(rng.integers(1, 4)), shape.parameter_count))
        a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
        observable = decompose((a + a.conj().T) / 2)
        drawn, oracle_drawn = RecordingGenerator(trial), RecordingGenerator(trial)
        got = expectation(Circuit(shape, batch), observable, shots=512, seed=drawn)
        expected = [
            resimulated_expectation(Circuit(shape, row), observable, 512, oracle_drawn) for row in batch
        ]
        assert got.shape == (len(batch),) and len(drawn.draws) == 1
        assert np.array_equal(drawn.draws[0].reshape(-1, 2**n), np.stack(oracle_drawn.draws))
        assert np.all(np.abs(got - expected) <= rounding_bound(observable))


def test_shot_expectation_runs_circuit_once(monkeypatch):
    calls = []

    def counting_run(circuit):
        calls.append(circuit)
        return run(circuit)

    monkeypatch.setattr(circuits, "run", counting_run)
    circuit = Circuit(AnsatzShape(3, 1), np.random.default_rng(5).uniform(-np.pi, np.pi, 18))
    observable = decompose(build_model(ModelSpec(Family.DOUBLE_WELL, 3)))
    assert len(group_by_basis(observable)) > 1
    expectation(circuit, observable, shots=1024, seed=0)
    assert calls == [circuit]


def test_shot_expectation_groups_observable_once(monkeypatch):
    calls = []

    def counting_group_by_basis(psum):
        calls.append(psum)
        return group_by_basis(psum)

    monkeypatch.setattr(pauli, "group_by_basis", counting_group_by_basis)
    circuit = Circuit(AnsatzShape(3, 1), np.random.default_rng(6).uniform(-np.pi, np.pi, 18))
    observable = decompose(build_model(ModelSpec(Family.DOUBLE_WELL, 3)))
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


def test_layer_kernel_matches_tensordot_reference():
    rng = np.random.default_rng(31)
    for n in range(1, 7):
        for _ in range(5):
            state = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            mats = u3_matrix(*rng.uniform(-np.pi, np.pi, (3, n)))
            expected = state
            for q in range(n):
                reference = tensordot_u3(state, mats[q], q, n)
                assert np.array_equal(apply_gate(state, mats[q], q), reference)
                expected = tensordot_u3(expected, mats[q], q, n)
            assert np.array_equal(circuits._apply_u3_layer(state, mats), expected)
            chained = state
            for q in range(n - 1):
                chained = flip_cnot(chained, q, q + 1, n)
            assert np.array_equal(state[circuits._cnot_chain(n)], chained)
    perm = circuits._cnot_chain(3)
    with pytest.raises(ValueError):
        perm[0] = 1
