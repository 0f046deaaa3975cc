import functools
import itertools
import tracemalloc

import numpy as np
import pytest

from mssq.oscillator import Family, ModelSpec, build_model
from mssq.pauli import COEFF_CUTOFF, PauliSum, _masks, decompose, reconstruct
from test_oscillator import complex_quadratures, matrix_square, measurement_plan, pauli_sum

PAULI_MATRICES = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]]),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.diag([1, -1]),
}


def kron_string(string):
    return functools.reduce(np.kron, (PAULI_MATRICES[c] for c in string), np.eye(1))


def strings_of(n):
    return ["".join(letters) for letters in itertools.product("IXYZ", repeat=n)]


def random_hermitian(dim, seed, real=False):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + (0 if real else 1j * rng.normal(size=(dim, dim)))
    return (a + a.conj().T) / 2


def test_identity_decomposition():
    psum = decompose(np.eye(4))
    assert psum.terms == ((1.0, "II"),)


def test_x_quadrature_single_qubit():
    x, _ = complex_quadratures(2, 1.0)
    psum = decompose(x)
    assert len(psum.terms) == 1
    coeff, string = psum.terms[0]
    assert string == "X"
    assert coeff == pytest.approx(1 / np.sqrt(2))


@pytest.mark.parametrize("seed", range(5))
def test_roundtrip_random_8x8(seed):
    h = random_hermitian(8, seed)
    assert np.max(np.abs(reconstruct(decompose(h)) - h)) < 1e-9


def test_reconstruct_z():
    assert np.allclose(reconstruct(pauli_sum(1, ((0.5, "Z"),))), np.diag([0.5, -0.5]))


def test_reconstruct_empty():
    assert np.array_equal(reconstruct(pauli_sum(2, ())), np.zeros((4, 4)))


def test_model_roundtrip():
    h = build_model(ModelSpec(Family.ANHARMONIC_OSC, 2))
    assert np.max(np.abs(reconstruct(decompose(h)) - h)) < 1e-9


def test_rejects_non_hermitian():
    with pytest.raises(ValueError):
        decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_rejects_non_power_of_two():
    with pytest.raises(ValueError, match="power of two, got 3"):
        decompose(np.eye(3))


def test_linearity():
    a = random_hermitian(8, 1)
    b = random_hermitian(8, 2)
    combo = dict((s, c) for c, s in decompose(0.7 * a - 1.3 * b).terms)
    terms_a = dict((s, c) for c, s in decompose(a).terms)
    terms_b = dict((s, c) for c, s in decompose(b).terms)
    for string in set(combo) | set(terms_a) | set(terms_b):
        expected = 0.7 * terms_a.get(string, 0.0) - 1.3 * terms_b.get(string, 0.0)
        assert combo.get(string, 0.0) == pytest.approx(expected, abs=1e-9)


def test_diagonal_matrix_uses_only_iz_strings():
    number = np.diag([0.0, 1.0, 2.0, 3.0])
    for _, string in decompose(number).terms:
        assert set(string) <= {"I", "Z"}


def test_term_count_bound():
    psum = decompose(random_hermitian(8, 3))
    assert len(psum.terms) <= 64


def test_lexicographic_order():
    psum = decompose(random_hermitian(4, 4))
    strings = [s for _, s in psum.terms]
    order = {c: i for i, c in enumerate("IXYZ")}
    keys = [tuple(order[c] for c in s) for s in strings]
    assert keys == sorted(keys)


def test_string_matrix_against_kron():
    for string in ["X", "Y", "XZ", "YY", "IZX", "ZIY"]:
        expected = kron_string(string)
        assert np.allclose(reconstruct(pauli_sum(len(string), ((1.0, string),))), expected)
        ((coeff, decomposed),) = decompose(expected).terms
        assert decomposed == string and coeff == pytest.approx(1.0)


def brute_force_terms(h):
    """Each coefficient as trace(kron(sigma...) @ H) / dim, kept at the cutoff."""
    dim = h.shape[0]
    terms = []
    for string in strings_of(dim.bit_length() - 1):
        coeff = np.trace(kron_string(string) @ h) / dim
        assert abs(coeff.imag) < 1e-12 * max(1.0, np.abs(h).max())
        if abs(coeff.real) >= COEFF_CUTOFF:
            terms.append((coeff.real, string))
    return terms


@pytest.mark.parametrize(
    "h",
    [random_hermitian(2**n, 200 + n) for n in range(1, 7)]
    + [matrix_square(build_model(ModelSpec(Family.CLOSED_PHI4, 2)))],
    ids=[f"random-{n}q" for n in range(1, 7)] + ["closedphi4-h2-4q"],
)
def test_decompose_matches_trace_oracle(h):
    expected = brute_force_terms(h)
    actual = decompose(h).terms
    assert [s for _, s in actual] == [s for _, s in expected]
    tol = 1e-12 * max(1.0, np.abs(h).max())
    assert max(abs(a - e) for (a, _), (e, _) in zip(actual, expected)) <= tol


@pytest.mark.parametrize("n", range(1, 6))
def test_reconstruct_matches_kron_sum(n):
    rng = np.random.default_rng(300 + n)
    strings = rng.choice(strings_of(n), size=int(rng.integers(1, 4**n + 1)), replace=False)
    psum = pauli_sum(n, tuple((float(rng.normal()), str(s)) for s in strings))
    expected = sum(c * kron_string(s) for c, s in psum.terms)
    assert np.max(np.abs(reconstruct(psum) - expected)) < 1e-12


# The complex transform decompose and reconstruct ran before their real table, kept as the
# reference for bit-equality: SIGMA[a, 2r + c] = sigma_a[r, c] for sigma = I, X, Y, Z, applied
# per interleaved axis in the same order.
SIGMA = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, -1j, 1j, 0], [1, 0, 0, -1]])


def complex_per_axis(table, x, n):
    for _ in range(n):
        x = x.reshape(4, x.size // 4).T @ table.T
    return x.reshape(-1)


def complex_reference_terms(h):
    h = np.asarray(h, dtype=complex)
    n = len(h).bit_length() - 1
    interleaved = h.reshape((2,) * 2 * n).transpose([a for q in range(n) for a in (q, n + q)])
    coeffs = complex_per_axis(SIGMA.conj(), interleaved, n) / len(h)
    strings = strings_of(n)
    kept = np.flatnonzero(np.abs(coeffs.real) >= COEFF_CUTOFF)
    return tuple(zip(coeffs.real[kept].tolist(), [strings[i] for i in kept]))


def complex_reference_matrix(psum):
    n = psum.n_qubits
    index = {string: i for i, string in enumerate(strings_of(n))}
    coeffs = np.zeros(4**n, dtype=complex)
    for coeff, string in psum.terms:
        coeffs[index[string]] = coeff
    interleaved = complex_per_axis(SIGMA.T, coeffs, n).reshape((2,) * 2 * n)
    rows_then_columns = [*range(0, 2 * n, 2), *range(1, 2 * n, 2)]
    return interleaved.transpose(rows_then_columns).reshape(psum.dim, psum.dim)


REFERENCE_CASES = [
    *(
        pytest.param(random_hermitian(2**n, 400 + n, real), id=f"random-{kind}-{n}q")
        for kind, real in (("real", True), ("complex", False))
        for n in range(1, 7)
    ),
    *(
        pytest.param(power(build_model(ModelSpec(family, q))), id=f"{family.value}-{q}-{label}")
        for family in Family
        for q in (1, 2, 3)
        for label, power in (("h", np.asarray), ("h2", matrix_square))
    ),
]


@pytest.mark.parametrize("h", REFERENCE_CASES)
def test_transform_bit_equal_to_complex_reference(h):
    psum = decompose(h)
    assert psum.terms == complex_reference_terms(h)
    assert np.array_equal(reconstruct(psum), complex_reference_matrix(psum))


def test_decompose_peak_stays_under_3_input_sizes():
    """Real input is transformed as float64 with no complex copy, so the traced peak is the
    check's temporaries or the per-axis input and output, well under 3 input-sized arrays."""
    h = matrix_square(build_model(ModelSpec(Family.CLOSED_PHI4, 4)))
    tracemalloc.start()
    try:
        decompose(h)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * h.nbytes


def test_two_mode_four_qubit_h_squared_term_count():
    psum = decompose(matrix_square(build_model(ModelSpec(Family.CLOSED_PHI4, 4))))
    assert len(psum.terms) == 3059


def plan_of(n, terms):
    """The measurement plan of a real sum of (coeff, string) terms."""
    return measurement_plan(reconstruct(pauli_sum(n, terms)).real)


def test_group_compatible_pair():
    # XI and XZ flip the same bit, so their entries share offset 2's circuit: qubit 0 read in
    # X, as qubit-wise grouping read it, with the same weights 1 * (-1)^b0 + 2 * (-1)^(b0 + b1)
    plan = plan_of(2, ((1.0, "XI"), (2.0, "XZ")))
    assert plan.offsets.tolist() == [2]
    assert plan.weights.tolist() == [[3.0, -1.0, -3.0, 1.0]]


def test_group_conflicting_pair():
    # circuits follow the flipped bits, not the qubit-wise bases: XI and IX flip different
    # bits and take two circuits, XX and YY flip the same two and share one
    assert plan_of(2, ((1.0, "XI"), (2.0, "IX"))).offsets.tolist() == [1, 2]
    assert plan_of(2, ((1.0, "XX"), (2.0, "YY"))).offsets.tolist() == [3]


def test_group_count_bounded_by_terms():
    h = build_model(ModelSpec(Family.DOUBLE_WELL, 4))
    psum, plan = decompose(h), measurement_plan(h)
    assert len(plan.offsets) <= len(psum.terms)
    x, _ = _masks(psum.index, psum.n_qubits)
    assert set(x.tolist()) == set(plan.offsets.tolist())


def test_duplicate_strings_rejected():
    with pytest.raises(ValueError, match="duplicate Pauli string 'X'"):
        pauli_sum(1, ((1.0, "X"), (2.0, "X")))
    with pytest.raises(ValueError, match="duplicate Pauli string 'ZY'"):
        PauliSum(2, np.ones(4), np.array([14, 1, 14, 1]))  # ZY = 3 * 4 + 2


@pytest.mark.parametrize("n", range(1, 7))
def test_terms_round_trip_through_arrays(n):
    rng = np.random.default_rng(500 + n)
    for _ in range(5):
        strings = rng.choice(strings_of(n), size=int(rng.integers(0, min(4**n, 200) + 1)), replace=False)
        psum = pauli_sum(n, [(float(rng.normal()), str(s)) for s in strings])
        assert psum.coeffs.dtype == np.float64 and psum.index.dtype == np.int64
        assert psum.index.tolist() == [strings_of(n).index(s) for s in strings]
        again = pauli_sum(n, psum.terms)
        assert np.array_equal(again.coeffs, psum.coeffs) and np.array_equal(again.index, psum.index)


@pytest.mark.parametrize(
    "coeffs,index,message",
    [
        ([1.0], [16], "outside"),
        ([1.0, 2.0], [0, -1], "outside"),
        ([1.0, 2.0], [0], "coefficients for"),
        ([1.0], [0, 1], "coefficients for"),
        ([[1.0]], [[0]], "coefficients for"),
    ],
)
def test_bad_arrays_rejected(coeffs, index, message):
    with pytest.raises(ValueError, match=message):
        PauliSum(2, np.array(coeffs), np.array(index))


def test_grouped_estimator_unbiased():
    # the offset plan's shot estimates and the sum of each Pauli term measured on its own
    # agree within 3 combined standard errors, each taken from the spread of repeated estimates
    from mssq.circuits import AnsatzShape, Circuit, expectation, run

    rng = np.random.default_rng(0)
    reps = 20
    for seed in range(3):
        h = random_hermitian(4, 100 + seed, real=True)
        psum = decompose(h)
        plan, term_plans = measurement_plan(h), [plan_of(2, (term,)) for term in psum.terms]
        circuit = Circuit(AnsatzShape(2, 0), rng.uniform(-np.pi, np.pi, 6))
        psi = run(circuit)
        exact = np.vdot(psi, h @ psi).real
        grouped = [expectation(circuit, plan, 10**5, seed=reps * seed + r) for r in range(reps)]
        ungrouped = [
            sum(expectation(circuit, plan_r, 10**5, seed=1000 + reps * seed + r) for plan_r in term_plans)
            for r in range(reps)
        ]
        err_g = np.std(grouped, ddof=1) / np.sqrt(reps)
        combined = np.sqrt(err_g**2 + np.var(ungrouped, ddof=1) / reps)
        assert abs(np.mean(grouped) - np.mean(ungrouped)) < 3 * max(combined, 1e-12)
        assert abs(np.mean(grouped) - exact) < 5 * max(err_g, 1e-12)
