import math
import tracemalloc

import numpy as np
import pytest

from mssq.circuits import AnsatzShape, Circuit, _offset_count, expectation, model_plan, run, u3_matrix
from mssq import circuits, vqe
from mssq.oscillator import TWO_MODE_FAMILIES, Family, ModelSpec, build_model
from test_oscillator import matrix_square, measurement_plan


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


def test_readout_amplitudes_match_gate_level_fanout():
    """Each offset's outcome distribution is the state's after its fan-out CNOTs and its
    Hadamard, applied one gate at a time with the reference kernels."""
    rng = np.random.default_rng(8)
    for n in range(1, 7):
        shape = AnsatzShape(n, int(rng.integers(0, 3)))
        batch = rng.uniform(-np.pi, np.pi, (3, shape.parameter_count))
        a = rng.normal(size=(2**n, 2**n))
        plan = measurement_plan(a + a.T)
        assert plan.offsets.tolist() == list(range(2**n))
        probs = circuits._readout_probabilities(Circuit(shape, batch), plan)
        assert probs.shape == (3, 2**n, 2**n)
        for row, per_state in zip(batch, probs):
            for m, got in zip(plan.offsets.tolist(), per_state):
                expected = np.abs(offset_basis_state(run(Circuit(shape, row)), m)) ** 2
                assert np.max(np.abs(got - expected)) <= 8 * np.finfo(float).eps


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
    value = expectation(circuit, measurement_plan(np.array([[0.0, 1.0], [1.0, 0.0]])), shots=8192, seed=3)
    assert isinstance(value, float)
    assert abs(value) < 4 / np.sqrt(8192)


def test_expectation_ansatz_zero_params_matches_matrix_element():
    # the harmonic Hamiltonian is diagonal, so its one circuit is the Z basis and every shot
    # on |00> reads H[0, 0]
    h = build_model(ModelSpec(Family.HARMONIC_OSC, 2))
    circuit = Circuit(AnsatzShape(2, 2), np.zeros(18))
    plan = measurement_plan(h)
    assert plan.offsets.tolist() == [0]
    value = expectation(circuit, plan, shots=64, seed=0)
    assert value == pytest.approx(h[0, 0])


def test_expectation_qubit_mismatch():
    with pytest.raises(ValueError):
        expectation(Circuit(AnsatzShape(2, 0), np.zeros(6)), measurement_plan(np.diag([1.0, -1.0])), shots=1)


def test_plan_rejects_complex_and_non_power_of_two_matrices():
    with pytest.raises(ValueError, match="needs a real symmetric matrix"):
        measurement_plan(np.array([[0.0, -1j], [1j, 0.0]]))
    # a complex dtype is refused even when every imaginary part is zero
    with pytest.raises(ValueError, match="needs a real symmetric matrix"):
        measurement_plan(np.eye(2, dtype=complex))
    with pytest.raises(ValueError, match="power of two, got 3"):
        measurement_plan(np.eye(3))
    with pytest.raises(ValueError, match="not Hermitian"):
        measurement_plan(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_shot_expectation_unbiased():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(4, 4))
    h = (a + a.T) / 2
    plan = measurement_plan(h)
    circuit = Circuit(AnsatzShape(2, 0), rng.uniform(-np.pi, np.pi, 6))
    psi = run(circuit)
    exact = np.vdot(psi, h @ psi).real
    values = [expectation(circuit, plan, shots=2048, seed=seed) for seed in range(200)]
    combined = np.std(values, ddof=1) / np.sqrt(200)
    assert abs(np.mean(values) - exact) < 4 * combined


def test_stderr_scales_as_inverse_sqrt_shots():
    rng = np.random.default_rng(13)
    plan = measurement_plan(build_model(ModelSpec(Family.ANHARMONIC_OSC, 2)))
    circuit = Circuit(AnsatzShape(2, 0), rng.uniform(-np.pi, np.pi, 6))
    shots_grid = [256, 1024, 4096, 16384]
    stds = []
    for shots in shots_grid:
        vals = [expectation(circuit, plan, shots=shots, seed=s) for s in range(60)]
        stds.append(np.std(vals))
    slope, _ = np.polyfit(np.log(shots_grid), np.log(stds), 1)
    assert -0.55 < slope < -0.45


def offset_basis_state(state: np.ndarray, m: int) -> np.ndarray:
    """The state offset m's circuit measures, built gate by gate: with pivot k the highest set
    bit of m, a CNOT from k to each other bit of m, then a Hadamard on k (none for m = 0)."""
    n = int(np.log2(len(state)))
    if m == 0:
        return state
    idx = np.arange(len(state))
    pivot = m.bit_length() - 1
    for target in (b for b in range(pivot) if m >> b & 1):
        state = state[idx ^ (((idx >> pivot) & 1) << target)]
    return apply_gate(state, np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2), n - 1 - pivot)


def offset_observable(h: np.ndarray, m: int) -> np.ndarray:
    """H_m, the entries H[i, i ^ m] of H, in offset m's measured basis: U H_m U^T, with U the
    real matrix of offset m's circuit, its columns built gate by gate."""
    idx = np.arange(len(h))
    u = np.stack([offset_basis_state(column, m) for column in np.eye(len(h))], axis=1)
    return u @ np.where((idx[:, None] ^ idx[None, :]) == m, h, 0.0) @ u.T


def resimulated_expectation(circuit: Circuit, h: np.ndarray, shots: int, seed):
    """Reference shot-mode estimator that re-simulates the circuit for every offset of H.

    Per offset with a nonzero entry, in ascending order, the circuit is run
    from |0...0>, its fan-out CNOTs and Hadamard are applied gate by gate, and
    the sampled frequencies weight each outcome by the diagonal of
    `offset_observable`.
    """
    rng = np.random.default_rng(seed)
    idx = np.arange(len(h))
    value = 0.0
    for m in range(len(h)):
        if not np.any(h[idx, idx ^ m]):
            continue
        probs = np.abs(offset_basis_state(run(circuit), m)) ** 2
        freq = rng.multinomial(shots, probs / probs.sum()) / shots
        value += float(freq @ np.diag(offset_observable(h, m)))
    return value


def rounding_bound(h: np.ndarray) -> float:
    """First-order bound on the rounding gap between the oracle's estimate and the plan's: each
    oracle weight is a sum of dense products (2 dim of them, each off by a few eps relative),
    then G x dim weighted frequencies are summed, every partial sum bounded by sum |H|."""
    return 2 * len(h) ** 2 * np.finfo(float).eps * np.abs(h).sum()


def test_shot_expectation_matches_resimulating_oracle():
    rng = np.random.default_rng(23)
    for trial in range(30):
        circuit = random_circuit(rng)
        dim = 2**circuit.n_qubits
        a = rng.normal(size=(dim, dim))
        h = (a + a.T) / 2
        # every third trial zeroes about half the entries (whole offsets at small dims), and
        # the odd trials zero the diagonal, so offset 0 is not measured
        h[rng.random((dim, dim)) < 0.5 * (trial % 3 == 0)] = 0.0
        h = np.triu(h) + np.triu(h, 1).T
        if trial % 2:
            np.fill_diagonal(h, 0.0)
        plan = measurement_plan(h)
        for seed in (trial, 1000 + trial, 2**40 + trial):
            shots = int(rng.choice([1, 64, 4096]))
            drawn, oracle_drawn = RecordingGenerator(seed), RecordingGenerator(seed)
            got = expectation(circuit, plan, shots=shots, seed=drawn)
            expected = resimulated_expectation(circuit, h, shots, oracle_drawn)
            assert len(drawn.draws) == 1 and len(oracle_drawn.draws) == len(plan.offsets)
            assert np.array_equal(drawn.draws[0], np.reshape(oracle_drawn.draws, (-1, dim)))
            assert abs(got - expected) <= rounding_bound(h)


def test_batched_expectation_draws_each_state_in_turn():
    rng = np.random.default_rng(29)
    for trial in range(20):
        n = int(rng.integers(1, 5))
        shape = AnsatzShape(n, int(rng.integers(0, 3)))
        batch = rng.uniform(-np.pi, np.pi, (int(rng.integers(1, 4)), shape.parameter_count))
        a = rng.normal(size=(2**n, 2**n))
        h = (a + a.T) / 2
        drawn, oracle_drawn = RecordingGenerator(trial), RecordingGenerator(trial)
        got = expectation(Circuit(shape, batch), measurement_plan(h), shots=512, seed=drawn)
        expected = [resimulated_expectation(Circuit(shape, row), h, 512, oracle_drawn) for row in batch]
        assert got.shape == (len(batch),) and len(drawn.draws) == 1
        assert np.array_equal(drawn.draws[0].reshape(-1, 2**n), np.stack(oracle_drawn.draws))
        assert np.all(np.abs(got - expected) <= rounding_bound(h))


def test_shot_expectation_runs_circuit_once(monkeypatch):
    calls = []

    def counting_run(circuit):
        calls.append(circuit)
        return run(circuit)

    monkeypatch.setattr(circuits, "run", counting_run)
    circuit = Circuit(AnsatzShape(3, 1), np.random.default_rng(5).uniform(-np.pi, np.pi, 18))
    plan = measurement_plan(build_model(ModelSpec(Family.DOUBLE_WELL, 3)))
    assert len(plan.offsets) > 1
    expectation(circuit, plan, shots=1024, seed=0)
    assert calls == [circuit]


def test_vqe_run_builds_each_plan_once(monkeypatch):
    """vqe_run plans H once, and H^2 once more for constraint; no SPSA step, restart,
    refinement or repetition plans again."""
    calls = []

    def counting_plan(spec, squared=False):
        calls.append(squared)
        return model_plan(spec, squared)

    monkeypatch.setattr(vqe, "model_plan", counting_plan)
    for spec, kind, plans in (
        (ModelSpec(Family.DOUBLE_WELL, 2), "energy", 1),
        (ModelSpec(Family.CLOSED_PHI4, 1), "constraint", 2),
    ):
        calls.clear()
        vqe.vqe_run(
            spec,
            AnsatzShape(2, 1),
            objective_kind=kind,
            shots=64,
            spsa=vqe.SpsaConfig(iterations=5, calibration_samples=2),
            repetitions=3,
            restarts=2,
            refinements=((3, 0.05, 128),),
        )
        assert sorted(calls) == [False, True][:plans]


def test_plan_weights_match_dense_unitary_oracle():
    """Offset m's circuit turns H_m diagonal, and that diagonal is the plan's weights."""
    rng = np.random.default_rng(41)
    eps = np.finfo(float).eps
    for trial in range(20):
        n = int(rng.integers(1, 6))
        a = rng.normal(size=(2**n, 2**n)) * (rng.random((2**n, 2**n)) < rng.uniform(0.1, 1))
        h = np.triu(a) + np.triu(a, 1).T
        plan = measurement_plan(h)
        for m, weights in zip(plan.offsets.tolist(), plan.weights):
            # each entry sums at most two products of 1/sqrt(2)-scaled entries of H_m
            bound = 8 * eps * max(1.0, np.abs(h).max())
            assert np.max(np.abs(offset_observable(h, m) - np.diag(weights))) <= bound


def test_readout_peak_memory():
    # the (2, G, dim) complex block is 2x the returned float64 array; adding the gathered
    # psi[low] into it in place holds 4x, and the float64 magnitudes beside the block 3x.
    # Forming psi[low] + signs * psi[partner] out of place would hold 8x
    plan = measurement_plan(build_model(ModelSpec(Family.DOUBLE_WELL, 8)))
    shape = AnsatzShape(8, 2)
    circuit = Circuit(shape, np.random.default_rng(7).uniform(-np.pi, np.pi, (2, shape.parameter_count)))
    circuits._readout_probabilities(circuit, plan)  # build the cached tables
    tracemalloc.start()
    try:
        probs = circuits._readout_probabilities(circuit, plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert probs.shape == (2, len(plan.offsets), 256)
    assert peak <= 6.5 * probs.nbytes


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


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
@pytest.mark.parametrize("qubits", [1, 2, 3, 4])
@pytest.mark.parametrize("omega", [1.0, 0.7, 2.9])
def test_model_plan_equals_dense_plan(family, qubits, omega):
    """H's plan from the bands is the dense model's plan, bit for bit."""
    spec = ModelSpec(family, qubits, omega=omega)
    got, want = model_plan(spec), measurement_plan(build_model(spec))
    for name, a, b in zip(got._fields, got, want):
        assert a.shape == b.shape and np.array_equal(a, b), name
    assert len(got.offsets) <= _offset_count(spec)


@pytest.mark.parametrize("family", TWO_MODE_FAMILIES, ids=lambda f: f.value)
@pytest.mark.parametrize("qubits", [1, 2, 3, 4, 5])
def test_model_plan_of_square_matches_dense_square(family, qubits):
    """H^2's plan from the bands has the dense square's offsets and indices, and its weights
    within 8 eps max(1, max|H^2|) of the gemm's."""
    spec = ModelSpec(family, qubits)
    square = matrix_square(build_model(spec))
    got, want = model_plan(spec, squared=True), measurement_plan(square)
    for name in ("offsets", "low", "partner", "signs"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    bound = 8 * np.finfo(float).eps * max(1.0, np.abs(square).max())
    assert np.abs(got.weights - want.weights).max(initial=0.0) <= bound
    assert len(got.offsets) <= _offset_count(spec, squared=True)


def test_offset_count_matches_plan_sizes():
    """The guard's count: 2n - 2 circuits for one mode, 4q - 5 for two-mode H and 16-160
    for ClosedPhi4's H^2 at 3-7 qubits per mode, with no plan built."""
    assert [_offset_count(ModelSpec(Family.DOUBLE_WELL, n)) for n in (3, 10)] == [4, 18]
    assert [_offset_count(ModelSpec(Family.CLOSED_PHI4, q)) for q in (3, 7)] == [7, 23]
    squares = [_offset_count(ModelSpec(Family.CLOSED_PHI4, q), squared=True) for q in range(3, 8)]
    assert squares == [16, 40, 72, 112, 160]
    assert len(model_plan(ModelSpec(Family.CLOSED_PHI4, 4), squared=True).offsets) == 40


def test_model_plan_of_square_peak_memory():
    """ClosedPhi4's H^2 plan at 6 qubits per mode: four (112, 4096) arrays, 14.7 MB, built
    under half of one 4096 x 4096 float64 matrix (64 MiB)."""
    spec = ModelSpec(Family.CLOSED_PHI4, 6)
    tracemalloc.start()
    try:
        plan = model_plan(spec, squared=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert plan.weights.shape == (112, 4096)
    assert peak < 8 * spec.dim**2 / 2

