import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from mssq.circuits import ENTRY_CUTOFF, MeasurementPlan
from mssq.oscillator import (
    COEFF_015_OVER_4,
    COEFF_0275_OVER_4,
    FAMILY_TERMS,
    ONE_MODE_FAMILIES,
    TWO_MODE_FAMILIES,
    Family,
    ModelSpec,
    _check_hermitian,
    _term_block,
    _term_signs,
    build_model,
)
from mssq.pauli import PAULI_LETTERS, PauliSum, decompose
from mssq.spectrum import eigendecompose

# Test references shared by the test modules: dense forms of what the package builds from
# bands, and a PauliSum from its words.


def matrix_square(h):
    """H @ H, symmetrized: the dense reference for the squared model's plan and Pauli sum."""
    sq = h @ h
    return (sq + sq.conj().T) / 2


def measurement_plan(h):
    """The plan of a real symmetric 2^n x 2^n matrix read entry by entry: the dense reference
    for `circuits.model_plan`, with one circuit per offset above ENTRY_CUTOFF.

    Over the outcomes of offset m, sum_r p(r) weights[r] = sum_i conj(psi_i) H[i, i ^ m]
    psi_(i ^ m), so the offsets' exact estimates sum to <psi|H|psi>, short of the dropped
    offsets' residue.
    """
    h = _check_hermitian(h)
    if np.iscomplexobj(h):
        raise ValueError("a measurement plan needs a real symmetric matrix, got a complex one")
    dim = len(h)
    if dim & (dim - 1):
        raise ValueError(f"matrix dimension must be a power of two, got {dim}")
    rows, cols = np.nonzero(h)
    offsets = np.unique(rows ^ cols)
    pivots = (1 << np.frexp(offsets)[1].astype(np.intp)) >> 1
    outcomes = np.arange(dim)
    low = outcomes & ~pivots[:, None]
    partner = low ^ offsets[:, None]
    signs = np.where(outcomes & pivots[:, None], -1.0, 1.0)
    weights = signs * h[low, partner]
    largest = np.abs(weights).max(axis=1, initial=0.0)
    keep = largest > ENTRY_CUTOFF * max(1.0, largest.max(initial=0.0))
    return MeasurementPlan(*(array[keep] for array in (offsets, weights, low, partner, signs)))


def pauli_sum(n_qubits, terms):
    """The PauliSum of (coeff, string) pairs, each string a word over IXYZ, qubit 0 first."""
    digits = str.maketrans(PAULI_LETTERS, "0123")
    index = np.array([int(string.translate(digits) or "0", 4) for _, string in terms], dtype=np.int64)
    return PauliSum(n_qubits, np.array([coeff for coeff, _ in terms], dtype=np.float64), index)


def term_blocks(spec):
    """spec's signed mode terms, mode a first, each as its (even-n, odd-n) parity blocks."""
    return tuple(
        (sign, (_term_block(spec, term, 0), _term_block(spec, term, 1))) for term, sign in enumerate(_term_signs(spec))
    )


def scatter(blocks):
    """The d x d matrix holding blocks[0] at its even-n rows and columns, blocks[1] at its odd-n ones."""
    half = len(blocks[0])
    full = np.zeros((2 * half, 2 * half))
    for parity, block in enumerate(blocks):
        full[parity::2, parity::2] = block
    return full


def ladder(dim):
    """Truncated complex lowering and raising operators: lower[n-1, n] = sqrt(n)."""
    lower = np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)
    return lower, lower.conj().T


def complex_quadratures(dim, omega=1.0):
    """Complex position and momentum matrices at frequency scale omega, the reference."""
    low, high = ladder(dim)
    x = (low + high) / np.sqrt(2.0 * omega)
    p = 1j * np.sqrt(omega / 2.0) * (high - low)
    return x, p


def _complex_reference(spec):
    """H from the complex quadratures' products x @ x, p @ p and x2 @ x2."""
    x, p = complex_quadratures(spec.mode_dim, spec.omega)
    x2, p2 = x @ x, p @ p
    x4 = x2 @ x2
    if spec.n_modes == 1:
        x2_coeff = -1.0 if spec.family is Family.DOUBLE_WELL else 0.5
        return p2 / 2 + x2_coeff * x2 + spec.quartic_c * x4
    x2_coeff = -1.0 if spec.family is Family.OPEN_PHI4 else 1.0
    piece_a = p2 / 4 + x2_coeff * x2 + spec.lambda_abs * x4
    piece_chi = p2 / 4 + x2_coeff * x2 + spec.quartic_c * x4
    eye = np.eye(spec.mode_dim)
    return -np.kron(piece_a, eye) + np.kron(eye, piece_chi)


@pytest.mark.parametrize("omega", [1.0, 1.3])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("family", list(Family))
def test_build_model_is_real_and_matches_complex_reference(family, n, omega):
    spec = ModelSpec(family, n, omega=omega)
    h = build_model(spec)
    reference = _complex_reference(spec)
    assert h.dtype == np.float64
    assert np.max(np.abs(h - reference)) <= 1e-12 * max(1.0, np.abs(reference).max())


def test_real_input_stays_float64():
    assert matrix_square(np.eye(2)).dtype == np.float64
    assert eigendecompose(np.eye(2, dtype=np.float32)).eigenvectors.dtype == np.float64
    ints = [[2, 1, 0, 0], [1, -3, 0, 4], [0, 0, 5, 0], [0, 4, 0, 1]]
    terms = decompose(np.array(ints, dtype=float)).terms
    for h in (ints, np.array(ints), np.array(ints, dtype=np.float32)):
        assert decompose(h).terms == terms


def test_ladder_dim2():
    low, high = ladder(2)
    assert np.array_equal(low, [[0, 1], [0, 0]])
    assert np.array_equal(high, low.conj().T)


def test_ladder_dim3_sqrt_rule():
    low, _ = ladder(3)
    expected = np.zeros((3, 3))
    expected[0, 1] = 1.0
    expected[1, 2] = np.sqrt(2)
    assert np.allclose(low, expected)


def test_number_operator_dim4():
    low, high = ladder(4)
    assert np.allclose(high @ low, np.diag([0.0, 1.0, 2.0, 3.0]))


@pytest.mark.parametrize("omega", [1.0, 1.3, 0.7, 2.9])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_even_powers_equal_complex_quadrature_products(n, omega):
    """Each parity block of every family's real build is the same expression of the complex
    reference's x.real and p.imag products' blocks to within BAND_ULPS rounding steps, +0.0
    off its bands, and those products are 0 between the parities."""
    x, p = complex_quadratures(2**n, omega)
    x, q = x.real, p.imag
    x2 = x @ x
    powers = (x2, -(q @ q), x2 @ x2)
    odd = np.add.outer(np.arange(2**n), np.arange(2**n)) % 2 == 1
    assert all(np.all(power[odd] == 0.0) for power in powers)
    blocks = [tuple(power[parity::2, parity::2] for power in powers) for parity in (0, 1)]
    for family in Family:
        spec = ModelSpec(family, n, omega=omega)
        for (sign, got), (want_sign, want) in zip(term_blocks(spec), slice_mode_terms(spec, blocks), strict=True):
            assert sign == want_sign
            for got_block, want_block in zip(got, want, strict=True):
                assert_close_banded(got_block, want_block)


def dense_mode_terms(spec):
    """Signed d x d mode terms from dense x @ x, q @ q and x2 @ x2 products, the reference build."""
    low = np.diag(np.sqrt(np.arange(1, spec.mode_dim)), 1)
    x = (low + low.T) * (1 / np.sqrt(2 * spec.omega))
    q = np.sqrt(spec.omega / 2) * (low.T - low)
    x2 = x @ x
    p2, x4 = -(q @ q), x2 @ x2
    if spec.family is Family.HARMONIC_OSC:
        terms = ((1, p2 / 2 + x2 / 2),)
    elif spec.family is Family.ANHARMONIC_OSC:
        terms = ((1, p2 / 2 + x2 / 2 + spec.quartic_c * x4),)
    elif spec.family is Family.DOUBLE_WELL:
        terms = ((1, p2 / 2 - x2 + spec.quartic_c * x4),)
    elif spec.family is Family.OPEN_PHI4:
        terms = ((-1, p2 / 4 - x2 + spec.lambda_abs * x4), (1, p2 / 4 - x2 + spec.quartic_c * x4))
    else:
        terms = ((-1, p2 / 4 + x2 + spec.lambda_abs * x4), (1, p2 / 4 + x2 + spec.quartic_c * x4))
    return tuple((sign, (term + term.T) / 2) for sign, term in terms)


def dense_slice_powers(spec):
    """(x2, p2, x4) per parity, even-n first, from the parity slices of dense x and q:
    x2 = x[r, c] @ x[c, r] and p2 = -(q[r, c] @ q[c, r]), c the other parity."""
    n = np.arange(1, spec.mode_dim)
    root = np.sqrt(n)
    x, q = np.zeros((2, spec.mode_dim, spec.mode_dim))
    x[n - 1, n] = x[n, n - 1] = root * (1 / np.sqrt(2 * spec.omega))
    q[n, n - 1] = np.sqrt(spec.omega / 2) * root
    q[n - 1, n] = -q[n, n - 1]
    powers = []
    for r, c in ((slice(0, None, 2), slice(1, None, 2)), (slice(1, None, 2), slice(0, None, 2))):
        x2 = x[r, c] @ x[c, r]
        powers.append((x2, -(q[r, c] @ q[c, r]), x2 @ x2))
    return powers


def slice_mode_terms(spec, powers):
    """Signed terms as (even-n, odd-n) blocks, each one expression of powers' (x2, p2, x4)
    per parity, symmetrized."""
    terms = []
    for sign, p2_coeff, x2_coeff, coupling, _ in FAMILY_TERMS[spec.family]:
        x4_coeff = getattr(spec, coupling)
        blocks = [p2_coeff * p2 + x2_coeff * x2 + x4_coeff * x4 for x2, p2, x4 in powers]
        terms.append((sign, tuple((block + block.T) / 2 for block in blocks)))
    return terms


# entrywise bound, in units of eps * max(1, max|H|), of the band build against dense
# products: BLAS fuses each product's multiply-adds and numpy does not.  The largest
# gap measured over these tests' cases was 3.97 (OpenPhi4, 4 qubits, omega 0.7)
BAND_ULPS = 8


def assert_close(got, want):
    assert got.dtype == np.float64 and got.shape == want.shape
    scale = max(1.0, np.abs(want).max())
    assert np.abs(got - want).max() <= BAND_ULPS * np.finfo(float).eps * scale


def assert_close_banded(got, want):
    """got is within BAND_ULPS of want, and exactly +0.0 more than two diagonals off the main one."""
    assert_close(got, want)
    index = np.arange(len(got))
    off_bands = got[np.abs(np.subtract.outer(index, index)) > 2]
    assert np.all(off_bands == 0.0) and not np.signbit(off_bands).any()


@pytest.mark.parametrize("omega", [1.0, 1.3, 0.7, 2.9, 0.05, 17.3])
@pytest.mark.parametrize(
    "family,n",
    [(f, n) for f in ONE_MODE_FAMILIES for n in range(1, 11)]
    + [(f, n) for f in TWO_MODE_FAMILIES for n in range(1, 6)],
)
def test_banded_slices_equal_dense_slices(family, n, omega):
    """The band builds give the dense slices' mode-term blocks to within BAND_ULPS rounding
    steps, with +0.0 off the bands."""
    spec = ModelSpec(family, n, omega=omega)
    want_terms = slice_mode_terms(spec, dense_slice_powers(spec))
    for (sign, blocks), (want_sign, want_blocks) in zip(term_blocks(spec), want_terms, strict=True):
        assert sign == want_sign
        for block, want_block in zip(blocks, want_blocks, strict=True):
            assert_close_banded(block, want_block)


def dense_kronecker_sum(terms):
    (sign, h), *rest = terms
    h = sign * h
    for sign, term in rest:
        h = np.kron(h, np.eye(len(term))) + sign * np.kron(np.eye(len(h)), term)
    return h


def in_place_kronecker_sum(terms):
    """The Kronecker sum with I (x) term added to the diagonal blocks of h (x) I in place, which
    keeps each zero's sign from h (x) I outside those blocks."""
    (sign, h), *rest = terms
    h = sign * h
    for sign, term in rest:
        term = sign * term
        outer, inner = len(h), len(term)
        h = np.kron(h, np.eye(inner))
        diagonal_blocks = h.reshape(outer, inner, outer, inner)
        for i in range(outer):
            diagonal_blocks[i, :, i, :] += term
    return h


@pytest.mark.parametrize("omega", [1.0, 1.3, 0.7, 2.9])
@pytest.mark.parametrize(
    "family,n",
    [(f, n) for f in ONE_MODE_FAMILIES for n in range(1, 9)]
    + [(f, n) for f in TWO_MODE_FAMILIES for n in range(1, 6)],
)
def test_build_model_equals_dense_reference(family, n, omega):
    """Scattering the parity blocks rebuilds the dense products' Kronecker sum to within
    BAND_ULPS rounding steps."""
    spec = ModelSpec(family, n, omega=omega)
    assert_close(build_model(spec), dense_kronecker_sum(dense_mode_terms(spec)))


@pytest.mark.parametrize("omega", [1.0, 0.7, 2.9])
@pytest.mark.parametrize(
    "family,n",
    [(f, n) for f in TWO_MODE_FAMILIES for n in range(1, 6)] + [(f, n) for f in ONE_MODE_FAMILIES for n in range(1, 7)],
)
def test_build_model_equals_out_of_place_kronecker_sum(family, n, omega):
    """The build from the level bands holds the values of -A (x) I + I (x) B formed from whole
    Kronecker products of the scattered parity blocks, and, zero signs included, the bits of
    the same blocks summed in place; the whole products differ only in the sign of some zeros."""
    spec = ModelSpec(family, n, omega=omega)
    terms = [(sign, scatter(blocks)) for sign, blocks in term_blocks(spec)]
    h, want = build_model(spec), in_place_kronecker_sum(terms)
    assert np.array_equal(h, dense_kronecker_sum(terms))
    assert np.array_equal(h, want) and np.array_equal(np.signbit(h), np.signbit(want))


def test_two_mode_build_peak_stays_at_one_model():
    """The Kronecker sum is formed in place in h (x) I, so building it holds one model-sized
    matrix: the traced peak stays within 1.1 of its size (3.0 for whole Kronecker products)."""
    spec = ModelSpec(Family.CLOSED_PHI4, 5)
    tracemalloc.start()
    try:
        h = build_model(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * h.nbytes


@pytest.mark.parametrize("n", [10, 11])
def test_term_block_peak_stays_at_one_block(n):
    """A parity block is written from its O(d) bands into one (d/2) x (d/2) array, so the
    traced peak of building it stays within 1.1 of the block's own size."""
    spec = ModelSpec(Family.DOUBLE_WELL, n)
    tracemalloc.start()
    try:
        block = _term_block(spec, 0, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * block.nbytes


def test_quadratures_dim2():
    x, p = complex_quadratures(2, 1.0)
    s = 1 / np.sqrt(2)
    assert np.allclose(x, [[0, s], [s, 0]])
    assert np.allclose(p, [[0, -1j * s], [1j * s, 0]])


@pytest.mark.parametrize("dim", [2, 4, 8, 16])
def test_commutator_truncation_artifact(dim):
    # [x, p] = i I except the last diagonal entry, which is i(1 - dim)
    x, p = complex_quadratures(dim, 1.3)
    comm = x @ p - p @ x
    expected = 1j * np.eye(dim)
    expected[-1, -1] = 1j * (1 - dim)
    assert np.allclose(comm, expected, atol=1e-12)


def test_harmonic_n1_is_half_identity():
    h = build_model(ModelSpec(Family.HARMONIC_OSC, 1))
    assert np.allclose(h, 0.5 * np.eye(2))


def test_closed_free_n1_is_zero():
    h = build_model(ModelSpec(Family.CLOSED_FREE, 1))
    assert np.allclose(h, np.zeros((4, 4)))


def test_closed_free_structure():
    # -(piece x I) + (I x piece) with piece = p^2/4 + x^2
    spec = ModelSpec(Family.CLOSED_FREE, 2)
    x, p = complex_quadratures(4, 1.0)
    piece = (p @ p) / 4 + x @ x
    expected = -np.kron(piece, np.eye(4)) + np.kron(np.eye(4), piece)
    assert np.allclose(build_model(spec), expected, atol=1e-12)


def test_anharmonic_c0_reduces_to_harmonic():
    anh = build_model(ModelSpec(Family.ANHARMONIC_OSC, 3, quartic_c=0.0))
    harm = build_model(ModelSpec(Family.HARMONIC_OSC, 3))
    assert np.array_equal(anh, harm)


@pytest.mark.parametrize(
    "family,n",
    [(f, 2) for f in Family] + [(Family.DOUBLE_WELL, 4), (Family.CLOSED_PHI4, 3)],
)
def test_hermiticity(family, n):
    h = build_model(ModelSpec(family, n))
    assert np.max(np.abs(h - h.conj().T)) <= 1e-12


@pytest.mark.parametrize("family", [Family.CLOSED_FREE, Family.CLOSED_PHI4, Family.OPEN_PHI4])
def test_two_mode_spectral_antisymmetry(family):
    # the +/- pair construction has a spectrum symmetric under negation
    h = build_model(ModelSpec(family, 2))
    vals = np.linalg.eigvalsh(h)
    assert np.allclose(np.sort(vals), np.sort(-vals), atol=1e-9)


def test_default_couplings():
    closed = ModelSpec(Family.CLOSED_PHI4, 2)
    assert closed.lambda_abs == closed.quartic_c == pytest.approx(0.275 / 4)
    open_ = ModelSpec(Family.OPEN_PHI4, 2)
    assert open_.lambda_abs == open_.quartic_c == pytest.approx(0.15 / 4)
    dw = ModelSpec(Family.DOUBLE_WELL, 2)
    assert dw.quartic_c == pytest.approx(0.15 / 4)


def test_quartic_coefficients_are_the_rationals_as_floats():
    assert COEFF_0275_OVER_4 == float(Fraction(275, 1000) / 4)
    assert COEFF_015_OVER_4 == float(Fraction(15, 100) / 4)


def test_matrix_square_zero_and_harmonic():
    assert np.array_equal(matrix_square(np.zeros((4, 4))), np.zeros((4, 4)))
    h1 = build_model(ModelSpec(Family.HARMONIC_OSC, 1))
    assert np.allclose(matrix_square(h1), 0.25 * np.eye(2))


def test_matrix_square_eigenvalues():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = (a + a.conj().T) / 2
    sq_vals = np.linalg.eigvalsh(matrix_square(h))
    assert np.allclose(np.sort(sq_vals), np.sort(np.linalg.eigvalsh(h) ** 2), atol=1e-10)
    assert sq_vals.min() >= -1e-12


SOLVERS = pytest.mark.parametrize(
    "solve", [eigendecompose, decompose, measurement_plan], ids=lambda solve: solve.__name__
)


@SOLVERS
@pytest.mark.parametrize(
    "h",
    [np.array([[0.0, 1j], [1j, 0.0]]), np.array([[0.0, 1.0], [1.0 + 2e-12, 0.0]])],
    ids=["complex-symmetric", "past-tolerance"],
)
def test_solvers_reject_non_hermitian(solve, h):
    with pytest.raises(ValueError, match="not Hermitian"):
        solve(h)


@SOLVERS
def test_solvers_accept_within_tolerance(solve):
    # asymmetric by 5e-9, inside the bound 1e-12 * max|H| = 1e-8: each solver takes H as checked
    h = np.array([[1e4, 1 + 5e-9], [1, -1e4]])
    result = solve(h)
    if solve is decompose:
        # the Hermitian part's coefficients; the anti-Hermitian part would be an imaginary Y term
        assert result.terms == ((1.0000000025, "X"), (10000.0, "Z"))
    elif solve is measurement_plan:
        # the plan reads each pair of entries from the upper triangle
        assert result.weights.tolist() == [[1e4, -1e4], [1 + 5e-9, -(1 + 5e-9)]]
    else:
        assert np.allclose(result.eigenvalues, [-np.hypot(1e4, 1), np.hypot(1e4, 1)], rtol=1e-15)


@SOLVERS
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_solvers_reject_non_finite(solve, bad):
    # symmetric placements: a NaN bound used to turn the Hermiticity test false
    with pytest.raises(ValueError, match="non-finite"):
        solve(np.array([[0.0, bad], [bad, 0.0]]))
    with pytest.raises(ValueError, match="non-finite"):
        solve(np.array([[bad, 0.0], [0.0, 1.0]]))


@SOLVERS
@pytest.mark.parametrize("shape", [(1, 4), (0, 0), (4,)], ids=["1x4", "0x0", "1-d"])
def test_solvers_reject_non_square_or_empty(solve, shape):
    with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
        solve(np.zeros(shape))


@pytest.mark.parametrize("scale", [1e4, -1e4, 0.5, -0.5])
@pytest.mark.parametrize("skew", [0.0, 5e-9, 2e-8, -2e-8])
def test_real_check_agrees_with_complex_check(scale, skew):
    """The real path takes max|H| from max(H) and -min(H); it accepts, rejects and words the
    rejection as the complex path does on the same matrix, whichever sign the largest entry has."""
    h = np.array([[scale, 1.0 + skew], [1.0, 0.25]])
    outcomes = []
    for entries in (h, h.astype(complex)):
        try:
            outcomes.append(_check_hermitian(entries).real.tolist())
        except ValueError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
    assert isinstance(outcomes[0], str) == (abs(skew) > 1e-12 * max(1.0, abs(scale)))
