import re
from fractions import Fraction

import numpy as np
import pytest

from mssq.oscillator import (
    COEFF_015_OVER_4,
    COEFF_0275_OVER_4,
    FAMILY_TERMS,
    ONE_MODE_FAMILIES,
    TWO_MODE_FAMILIES,
    Family,
    ModelSpec,
    _even_powers,
    build_model,
    matrix_square,
    mode_terms,
)
from mssq.pauli import decompose
from mssq.spectrum import eigendecompose


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
    """Each parity block of the real build is the complex reference's x.real and p.imag
    products' block bit for bit, and the reference is 0 between the parities."""
    x, p = complex_quadratures(2**n, omega)
    x, q = x.real, p.imag
    x2 = x @ x
    odd = np.add.outer(np.arange(2**n), np.arange(2**n)) % 2 == 1
    spec = ModelSpec(Family.HARMONIC_OSC, n, omega=omega)
    for parity, blocks in enumerate(_even_powers(spec)):
        for got, want in zip(blocks, (x2, -(q @ q), x2 @ x2)):
            assert got.dtype == np.float64
            assert np.array_equal(got, want[parity::2, parity::2])
            assert np.all(want[odd] == 0.0)


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


def dense_slice_mode_terms(spec):
    """Signed terms as (even-n, odd-n) blocks, each one expression of dense_slice_powers, symmetrized."""
    terms = []
    for sign, p2_coeff, x2_coeff, coupling in FAMILY_TERMS[spec.family]:
        x4_coeff = getattr(spec, coupling)
        blocks = [p2_coeff * p2 + x2_coeff * x2 + x4_coeff * x4 for x2, p2, x4 in dense_slice_powers(spec)]
        terms.append((sign, tuple((block + block.T) / 2 for block in blocks)))
    return terms


def assert_bit_equal(got, want):
    assert got.dtype == np.float64 and got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("omega", [1.0, 1.3, 0.7, 2.9, 0.05, 17.3])
@pytest.mark.parametrize(
    "family,n",
    [(f, n) for f in ONE_MODE_FAMILIES for n in range(1, 11)]
    + [(f, n) for f in TWO_MODE_FAMILIES for n in range(1, 6)],
)
def test_banded_slices_equal_dense_slices(family, n, omega):
    """The two-band slices give the dense slices' even powers and mode-term blocks bit for
    bit, signed zeros included."""
    spec = ModelSpec(family, n, omega=omega)
    for got, want in zip(_even_powers(spec), dense_slice_powers(spec), strict=True):
        for got_power, want_power in zip(got, want, strict=True):
            assert_bit_equal(got_power, want_power)
    want_terms = dense_slice_mode_terms(spec)
    for (sign, blocks), (want_sign, want_blocks) in zip(mode_terms(spec), want_terms, strict=True):
        assert sign == want_sign
        for block, want_block in zip(blocks, want_blocks, strict=True):
            assert_bit_equal(block, want_block)


def dense_kronecker_sum(terms):
    (sign, h), *rest = terms
    h = sign * h
    for sign, term in rest:
        h = np.kron(h, np.eye(len(term))) + sign * np.kron(np.eye(len(h)), term)
    return h


@pytest.mark.parametrize("omega", [1.0, 1.3, 0.7, 2.9])
@pytest.mark.parametrize(
    "family,n",
    [(f, n) for f in ONE_MODE_FAMILIES for n in range(1, 9)]
    + [(f, n) for f in TWO_MODE_FAMILIES for n in range(1, 6)],
)
def test_build_model_equals_dense_reference(family, n, omega):
    """Scattering the parity blocks rebuilds the dense products' Kronecker sum bit for bit."""
    spec = ModelSpec(family, n, omega=omega)
    assert np.array_equal(build_model(spec), dense_kronecker_sum(dense_mode_terms(spec)))


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


SOLVERS = pytest.mark.parametrize("solve", [eigendecompose, decompose], ids=lambda solve: solve.__name__)


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
