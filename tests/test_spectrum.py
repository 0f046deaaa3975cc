import tracemalloc
from functools import reduce

import numpy as np
import pytest

from mssq.oscillator import TWO_MODE_FAMILIES, Family, ModelSpec, build_model, mode_terms
from mssq.spectrum import (
    _outer_sum,
    _target_index,
    convergence_scan,
    default_grid,
    eigendecompose,
    ground_or_nearest_zero,
    hermite_functions,
    reconstruct_wavefunction,
    spectrum,
)


def dense_target(spec):
    """The ground (one mode) or nearest-zero (two modes) eigenvalue of a dense eigh of
    the whole H, a tie going to the more negative one, and the largest |eigenvalue|."""
    vals = np.linalg.eigvalsh(build_model(spec))
    target = min(vals, key=lambda v: (abs(v), v)) if spec.n_modes == 2 else vals[0]
    return target, np.abs(vals).max()


def test_harmonic_n1_eigenvalues():
    result = eigendecompose(build_model(ModelSpec(Family.HARMONIC_OSC, 1)))
    assert np.allclose(result.eigenvalues, [0.5, 0.5])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_harmonic_ground_energy(n):
    result = eigendecompose(build_model(ModelSpec(Family.HARMONIC_OSC, n)))
    assert abs(result.eigenvalues[0] - 0.5) < 1e-6


def test_double_well_ground_energy_converged():
    result = eigendecompose(build_model(ModelSpec(Family.DOUBLE_WELL, 6)))
    assert abs(result.eigenvalues[0] - (-5.68592)) < 1e-3


def test_rejects_non_hermitian():
    with pytest.raises(ValueError):
        eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_residual_and_orthonormality():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    h = (a + a.conj().T) / 2
    result = eigendecompose(h)
    assert result.residual < 1e-8 * max(1.0, np.abs(result.eigenvalues).max())
    gram = result.eigenvectors.conj().T @ result.eigenvectors
    assert np.max(np.abs(gram - np.eye(16))) < 1e-10
    assert np.all(np.diff(result.eigenvalues) >= 0)


def test_trace_preservation():
    h = build_model(ModelSpec(Family.ANHARMONIC_OSC, 4))
    vals = eigendecompose(h).eigenvalues
    assert np.isclose(vals.sum(), np.trace(h).real, rtol=1e-8)


def test_nearest_zero_simple():
    assert _target_index(np.array([-1.0, 0.2, 3.0]), nearest_zero=True) == 1
    assert _target_index(np.array([-1.0, 0.2, 3.0]), nearest_zero=False) == 0


def test_nearest_zero_tie_breaks_negative():
    assert _target_index(np.array([0.2, -0.2, 0.2]), nearest_zero=True) == 1
    assert _target_index(np.array([0.2, -0.2, -0.2]), nearest_zero=True) == 1


def test_closed_free_zero_modes():
    # the +/- pair at equal truncation has exact zero eigenvalues
    result = eigendecompose(build_model(ModelSpec(Family.CLOSED_FREE, 2)))
    assert np.sum(np.abs(result.eigenvalues) < 1e-9) >= 2


def test_ground_state_density_gaussian():
    xs = default_grid()
    coeffs = np.zeros(8)
    coeffs[0] = 1.0
    grid = reconstruct_wavefunction(coeffs, (xs,), omega=1.0)
    expected = np.exp(-(xs**2)) / np.sqrt(np.pi)
    assert np.max(np.abs(grid.density - expected)) < 1e-12
    assert abs(grid.density.max() - 1 / np.sqrt(np.pi)) < 1e-12
    assert abs(grid.norm - 1.0) < 0.02


def test_first_excited_node_at_origin():
    xs = np.array([0.0])
    coeffs = np.array([0.0, 1.0, 0.0])
    grid = reconstruct_wavefunction(coeffs, (xs,), omega=1.0)
    assert grid.density[0] < 1e-20


def test_two_mode_vacuum_product_gaussian():
    xs = np.linspace(-6, 6, 81)
    coeffs = np.zeros(16)
    coeffs[0] = 1.0
    grid = reconstruct_wavefunction(coeffs, (xs, xs), omega=1.0)
    expected = np.exp(-(xs[:, None] ** 2) - xs[None, :] ** 2) / np.pi
    assert np.max(np.abs(grid.density - expected)) < 1e-6


def test_omega_scaling_normalization():
    xs = default_grid()
    coeffs = np.zeros(4)
    coeffs[0] = 1.0
    grid = reconstruct_wavefunction(coeffs, (xs,), omega=2.5)
    assert abs(grid.norm - 1.0) < 0.02


def test_hermite_recurrence_bounded():
    xs = np.linspace(-10, 10, 2001)
    phi = hermite_functions(40, xs)
    assert np.max(np.abs(phi[1:])) <= 0.8


def test_parseval_on_wide_grid():
    rng = np.random.default_rng(5)
    coeffs = rng.normal(size=16) + 1j * rng.normal(size=16)
    coeffs[8:] = 0.0  # keep occupation in the lower half of the basis
    xs = np.arange(-8, 8 + 0.05 / 2, 0.05)
    grid = reconstruct_wavefunction(coeffs, (xs,), omega=1.0)
    total = float(np.sum(np.abs(coeffs) ** 2))
    assert abs(grid.norm - total) / total < 0.02


def test_reconstruct_rejects_bad_length():
    with pytest.raises(ValueError):
        reconstruct_wavefunction(np.ones(3), (np.linspace(-1, 1, 5),) * 2)


def test_convergence_scan_harmonic_constant():
    rows = convergence_scan(ModelSpec(Family.HARMONIC_OSC, 1), [4, 8, 16])
    energies = [e for _, e, _ in rows]
    assert np.allclose(energies, 0.5, atol=1e-9)
    assert np.isnan(rows[0][2]) and rows[1][2] < 1e-9


def test_convergence_scan_anharmonic_target():
    rows = convergence_scan(ModelSpec(Family.ANHARMONIC_OSC, 1), [4, 8, 16, 32, 64])
    assert abs(rows[-1][1] - 0.543116) < 1e-3


def test_convergence_scan_double_well_target():
    rows = convergence_scan(ModelSpec(Family.DOUBLE_WELL, 1), [16, 32, 64])
    assert abs(rows[-1][1] - (-5.68592)) < 1e-3


def test_convergence_scan_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        convergence_scan(ModelSpec(Family.HARMONIC_OSC, 1), [3])


@pytest.mark.parametrize(
    "family,n",
    [
        (Family.DOUBLE_WELL, 5),
        (Family.ANHARMONIC_OSC, 4),
        (Family.CLOSED_PHI4, 2),
        (Family.OPEN_PHI4, 3),
    ],
)
def test_real_solve_matches_complex_oracle(family, n):
    h = build_model(ModelSpec(family, n))
    oracle = np.linalg.eigh(h.astype(complex))[0]
    result = eigendecompose(h)
    assert result.eigenvectors.dtype == np.float64
    assert np.max(np.abs(result.eigenvalues - oracle)) <= 1e-12 * np.abs(oracle).max()


@pytest.mark.parametrize(
    "family,dims",
    [
        (Family.DOUBLE_WELL, [4, 8, 16, 32]),
        (Family.CLOSED_FREE, [2, 4, 8, 16]),
        (Family.CLOSED_PHI4, [2, 4, 8, 16]),
        (Family.OPEN_PHI4, [2, 4, 8, 16]),
    ],
)
def test_convergence_scan_matches_full_solves(family, dims):
    """Each row's outer sum of per-mode eigenvalues matches a dense solve of the whole H."""
    rows = convergence_scan(ModelSpec(family, 1), dims)
    assert [row[0] for row in rows] == dims
    for dim, energy, _ in rows:
        expected, scale = dense_target(ModelSpec(family, dim.bit_length() - 1))
        assert abs(energy - expected) <= 1e-12 * scale
    # the row at spec's own dim comes from its eigenvalues, when given
    top_spec = ModelSpec(family, dims[-1].bit_length() - 1)
    own_vals, _ = spectrum(top_spec)
    assert convergence_scan(top_spec, dims, own_vals=own_vals)[-1][1] == ground_or_nearest_zero(top_spec)[0]


@pytest.mark.parametrize("family", TWO_MODE_FAMILIES)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_two_mode_exact_state_is_lowest_product_zero_mode(family, n):
    """With default couplings A == B, so every beta_j - alpha_j is 0.0 and (0, 0) is chosen.

    u_0 is the lowest eigenvector of the parity block holding A's lowest eigenvalue
    (the even block on a tie), placed at that block's rows.  Truncation can put
    it in the odd block, as for OpenPhi4 at 2-3 qubits.
    """
    spec = ModelSpec(family, n)
    (_, a), (_, b) = mode_terms(spec)
    assert all(np.array_equal(block_a, block_b) for block_a, block_b in zip(a, b))
    energy, state = ground_or_nearest_zero(spec)
    (even_vals, even_vecs), (odd_vals, odd_vecs) = map(np.linalg.eigh, a)
    parity, vecs = (1, odd_vecs) if odd_vals[0] < even_vals[0] else (0, even_vecs)
    u0 = np.zeros(spec.mode_dim)
    u0[parity::2] = vecs[:, 0]
    product = np.kron(u0, u0)
    assert energy == 0.0
    assert np.array_equal(state, product) or np.array_equal(state, -product)
    h = build_model(spec)
    assert np.linalg.norm(h @ state) <= 1e-12 * max(1.0, np.abs(h).max())


@pytest.mark.parametrize(
    "spec",
    [
        ModelSpec(Family.DOUBLE_WELL, 3),
        ModelSpec(Family.ANHARMONIC_OSC, 3, quartic_c=0.3),
        ModelSpec(Family.CLOSED_PHI4, 2, lambda_abs=0.1),
        ModelSpec(Family.OPEN_PHI4, 3, lambda_abs=0.2, omega=1.3),
    ],
)
def test_ground_or_nearest_zero_is_an_eigenpair_of_h(spec):
    """The per-mode solve picks the dense solve's target eigenvalue, A != B included."""
    energy, state = ground_or_nearest_zero(spec)
    expected, scale = dense_target(spec)
    assert abs(energy - expected) <= 1e-12 * scale
    assert np.linalg.norm(build_model(spec) @ state - energy * state) <= 1e-12 * scale
    assert abs(np.linalg.norm(state) - 1.0) < 1e-12


def test_two_mode_density_peak_stays_under_3_5x():
    """|psi| is squared in place once psi is freed, so the peak is psi plus the density."""
    xs = default_grid(8.0, 801)
    coeffs = np.random.default_rng(7).normal(size=64) + 0j
    tracemalloc.start()
    try:
        grid = reconstruct_wavefunction(coeffs, (xs, xs))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * grid.density.nbytes


def test_spectrum_peak_stays_under_2_5_full_matrices():
    """Every term is built and solved as (d/2) x (d/2) blocks and no eigenvector is embedded
    in a d x d matrix, so neither call's traced peak reaches 2.5 d x d float64 matrices."""
    spec = ModelSpec(Family.DOUBLE_WELL, 10)
    for solve in (spectrum, ground_or_nearest_zero):
        tracemalloc.start()
        try:
            solve(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * spec.mode_dim**2 * 8


def embedded_eigenvectors(blocks):
    """A term's sorted eigenvalues and d x d eigenvector matrix: each block's eigenvectors at
    its parity rows, in the stable ascending order of the even-then-odd eigenvalues."""
    solves = [eigendecompose(block) for block in blocks]
    vals = np.concatenate([solve.eigenvalues for solve in solves])
    order = np.argsort(vals, kind="stable")
    column = np.empty_like(order)
    column[order] = np.arange(len(order))
    half = len(blocks[0])
    vecs = np.zeros((len(vals), len(vals)))
    for parity, solve in enumerate(solves):
        vecs[parity::2, column[parity * half : (parity + 1) * half]] = solve.eigenvectors
    return vals[order], vecs


@pytest.mark.parametrize(
    "spec",
    [
        ModelSpec(Family.HARMONIC_OSC, 1),
        ModelSpec(Family.DOUBLE_WELL, 3),
        ModelSpec(Family.DOUBLE_WELL, 6, omega=1.3),
        ModelSpec(Family.ANHARMONIC_OSC, 4, quartic_c=0.3),
        ModelSpec(Family.CLOSED_FREE, 2),
        ModelSpec(Family.CLOSED_PHI4, 3, lambda_abs=0.1),
        ModelSpec(Family.OPEN_PHI4, 2),
        ModelSpec(Family.OPEN_PHI4, 3, lambda_abs=0.2, omega=1.3),
    ],
)
def test_exact_state_equals_kron_of_embedded_columns(spec):
    """Placing only the picked column at its parity rows gives the Kronecker product of the
    full embedded eigenvector matrices' columns bit for bit, signed zeros included."""
    signs, terms = zip(*mode_terms(spec))
    solves = [embedded_eigenvectors(blocks) for blocks in terms]
    vals = _outer_sum([sign * term_vals for sign, (term_vals, _) in zip(signs, solves)])
    flat = _target_index(vals, nearest_zero=spec.n_modes == 2)
    picks = np.unravel_index(flat, [len(term_vals) for term_vals, _ in solves])
    want = reduce(np.kron, [vecs[:, pick] for (_, vecs), pick in zip(solves, picks)])
    energy, state = ground_or_nearest_zero(spec)
    assert energy == vals[flat]
    assert np.array_equal(state, want)
    assert np.array_equal(np.signbit(state), np.signbit(want))
