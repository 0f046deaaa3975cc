import functools
import itertools

import numpy as np
import pytest

from mssq.oscillator import Family, ModelSpec, build_model, matrix_square
from mssq.pauli import COEFF_CUTOFF, PauliSum, decompose, group_by_basis, reconstruct
from test_oscillator import complex_quadratures

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


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
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
    assert np.allclose(reconstruct(PauliSum(1, ((0.5, "Z"),))), np.diag([0.5, -0.5]))


def test_reconstruct_empty():
    assert np.array_equal(reconstruct(PauliSum(2, ())), np.zeros((4, 4)))


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
    low, high = np.zeros((4, 4)), None
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
        assert np.allclose(reconstruct(PauliSum(len(string), ((1.0, string),))), expected)
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
    psum = PauliSum(n, tuple((float(rng.normal()), str(s)) for s in strings))
    expected = sum(c * kron_string(s) for c, s in psum.terms)
    assert np.max(np.abs(reconstruct(psum) - expected)) < 1e-12


def test_two_mode_four_qubit_h_squared_term_count():
    psum = decompose(matrix_square(build_model(ModelSpec(Family.CLOSED_PHI4, 4))))
    assert len(psum.terms) == 3059


def test_group_compatible_pair():
    groups = group_by_basis(PauliSum(2, ((1.0, "XI"), (2.0, "XZ"))))
    assert len(groups) == 1
    assert groups[0].basis == ("X", "Z")


def test_group_conflicting_pair():
    groups = group_by_basis(PauliSum(2, ((1.0, "XI"), (2.0, "YI"))))
    assert len(groups) == 2


def test_group_count_bounded_by_terms():
    psum = decompose(build_model(ModelSpec(Family.HARMONIC_OSC, 2)))
    groups = group_by_basis(psum)
    assert len(groups) <= len(psum.terms)
    regrouped = [t for g in groups for t in g.terms]
    assert sorted(regrouped) == sorted(psum.terms)


def test_duplicate_strings_rejected():
    with pytest.raises(ValueError):
        PauliSum(1, ((1.0, "X"), (2.0, "X")))


def test_grouped_estimator_unbiased():
    # grouped and ungrouped shot estimates agree within 3 combined standard errors,
    # each taken from the spread of repeated estimates
    from mssq.circuits import AnsatzShape, Circuit, expectation, run

    rng = np.random.default_rng(0)
    reps = 20
    for seed in range(3):
        h = random_hermitian(4, 100 + seed)
        psum = decompose(h)
        circuit = Circuit(AnsatzShape(2, 0), rng.uniform(-np.pi, np.pi, 6))
        psi = run(circuit)
        exact = np.vdot(psi, h @ psi).real
        grouped = [expectation(circuit, psum, 10**5, seed=reps * seed + r) for r in range(reps)]
        ungrouped = [
            sum(
                expectation(circuit, PauliSum(2, (term,)), 10**5, seed=1000 + reps * seed + r)
                for term in psum.terms
            )
            for r in range(reps)
        ]
        err_g = np.std(grouped, ddof=1) / np.sqrt(reps)
        combined = np.sqrt(err_g**2 + np.var(ungrouped, ddof=1) / reps)
        assert abs(np.mean(grouped) - np.mean(ungrouped)) < 3 * max(combined, 1e-12)
        assert abs(np.mean(grouped) - exact) < 5 * max(err_g, 1e-12)


def test_readout_weights_match_bit_count_oracle():
    rng = np.random.default_rng(41)
    eps = np.finfo(float).eps
    for trial in range(20):
        n = int(rng.integers(1, 6))
        strings = rng.choice(strings_of(n), size=int(rng.integers(1, 4**n + 1)), replace=False)
        psum = PauliSum(n, tuple((float(rng.normal()), str(s)) for s in strings))
        assert psum.groups is psum.groups and psum.readout is psum.readout
        assert psum.groups == group_by_basis(psum)
        plan = psum.readout
        assert plan.weights.shape == (len(psum.groups), 2**n) and plan.weights.dtype == np.float64
        assert plan.constant == dict((s, c) for c, s in psum.terms).get("I" * n, 0.0)
        idx = np.arange(2**n)
        for g, group in enumerate(psum.groups):
            codes = [{"X": 1, "Y": 2}.get(b, 0) for b in group.basis]
            assert plan.bases[g].tolist() == codes
            expected = np.zeros(2**n)
            for coeff, string in group.terms:
                mask = sum(1 << (n - 1 - q) for q, c in enumerate(string) if c != "I")
                if mask:
                    expected += coeff * np.where(np.bitwise_count(idx & mask) % 2, -1.0, 1.0)
            # each weight is a sum of len(group.terms) signed coefficients, added in another order
            bound = 2 * (len(group.terms) + n) * eps * sum(abs(coeff) for coeff, _ in group.terms)
            assert np.max(np.abs(plan.weights[g] - expected)) <= bound


def greedy_string_grouping(psum: PauliSum) -> list[tuple[tuple, tuple]]:
    """Reference first-fit grouping, one letter at a time: (basis, terms) per group."""
    groups = []
    for coeff, string in psum.terms:
        for basis, terms in groups:
            if all(c == "I" or basis[q] is None or basis[q] == c for q, c in enumerate(string)):
                for q, c in enumerate(string):
                    if c != "I":
                        basis[q] = c
                terms.append((coeff, string))
                break
        else:
            groups.append(([c if c != "I" else None for c in string], [(coeff, string)]))
    return [(tuple(basis), tuple(terms)) for basis, terms in groups]


def test_group_by_basis_matches_greedy_string_reference():
    rng = np.random.default_rng(43)
    cases = [decompose(matrix_square(build_model(ModelSpec(Family.CLOSED_PHI4, 3))))]
    for _ in range(40):
        n = int(rng.integers(1, 7))
        size = int(rng.integers(0, min(4**n, 300) + 1))
        strings = rng.choice(strings_of(n), size=size, replace=False)
        cases.append(PauliSum(n, tuple((float(rng.normal()), str(s)) for s in strings)))
    for psum in cases:
        got = [(group.basis, group.terms) for group in group_by_basis(psum)]
        assert got == greedy_string_grouping(psum)
    assert len(cases[0].groups) == 25
