"""Dense real-symmetric eigensolver and position-space wavefunction reconstruction."""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from .oscillator import ModelSpec, _band_matrix, _check_hermitian, _term_bands, _term_block, _term_signs

# cells of |psi|^2 formed at a time (`_density_blocks`), whole outer-axis rows
DENSITY_BLOCK_CELLS = 2048


@dataclass(frozen=True)
class SpectrumResult:
    """Full eigendecomposition: ascending eigenvalues, orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class WavefunctionGrid:
    """Probability density sampled on a uniform grid product, one axis per mode."""

    axes: tuple[np.ndarray, ...]
    density: np.ndarray


def eigendecompose(h: np.ndarray) -> SpectrumResult:
    """Eigendecompose a Hermitian matrix with LAPACK, in float64 arithmetic when it is real.

    The eigenvectors are orthonormal; ordering inside a degenerate cluster is unspecified.
    """
    return SpectrumResult(*np.linalg.eigh(_check_hermitian(h)))


def _target_index(vals: np.ndarray, nearest_zero: bool) -> int:
    """Index of the smallest eigenvalue or, if nearest_zero, of the smallest |eigenvalue|,
    a tie going to the more negative one; any remaining tie goes to the lowest index."""
    if len(vals) == 0:
        raise ValueError("empty spectrum")
    if not nearest_zero:
        return int(np.argmin(vals))
    # the negative and the nonnegative value nearest zero, found under boolean
    # masks so that no float array as long as vals is allocated
    below = np.max(vals, where=vals < 0, initial=-np.inf)
    above = np.min(vals, where=vals >= 0, initial=np.inf)
    return int(np.argmax(vals == (below if -below <= above else above)))


def _outer_sum(parts) -> np.ndarray:
    """Flat outer sum of 1-D arrays, the first varying slowest, as the Kronecker sum orders them."""
    return reduce(lambda acc, part: np.add.outer(acc, part).ravel(), parts)


def hermite_functions(n_max: int, x: np.ndarray) -> np.ndarray:
    """Normalized Hermite functions phi_0 .. phi_{n_max-1} evaluated at x.

    Stable three-term recurrence on the normalized functions:
      phi_n = x sqrt(2/n) phi_{n-1} - sqrt((n-1)/n) phi_{n-2}
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((n_max,) + x.shape)
    out[0] = np.pi ** (-0.25) * np.exp(-(x**2) / 2)
    if n_max > 1:
        out[1] = np.sqrt(2.0) * x * out[0]
    for n in range(2, n_max):
        out[n] = x * np.sqrt(2.0 / n) * out[n - 1] - np.sqrt((n - 1) / n) * out[n - 2]
    return out


def _density_blocks(coeffs, axes, omega: float = 1.0):
    """|psi|^2 on the product of the axes, as an iterable of consecutive blocks of outer-axis rows.

    One mode: psi(x) = sum_n c_n phi_n(x sqrt(omega)) omega^(1/4), one block
    of one row.  Two modes: coeffs has length d^2 in row-major (mode a, mode
    chi) order.  L = phi_a^T C (points x d) is formed here, once, and each
    block is |L[rows] @ phi_chi|^2 for the rows of about DENSITY_BLOCK_CELLS
    cells, and at least two: every product then has the same row count (the
    last one re-forms rows the block before it gave), and a one-row product
    would be a gemv, whose bits differ from the gemm's.  A block is formed
    when it is taken, so one exists at a time beside the tables.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    axes = tuple(np.asarray(a, dtype=float) for a in axes)
    if len(axes) not in (1, 2):
        raise ValueError("axes must hold one or two grids")
    d = round(len(coeffs) ** (1 / len(axes)))
    if d ** len(axes) != len(coeffs):
        raise ValueError("two-mode coefficient vector length must be a square")
    phi = (hermite_functions(d, axis * np.sqrt(omega)) * omega**0.25 for axis in axes)
    if len(axes) == 1:
        # formed at once, so phi is freed before the row is taken
        return list(_row_blocks(coeffs[None], next(phi), 1))
    left = next(phi).T @ coeffs.reshape(d, d)
    # cast once: a complex @ real product casts its real operand on every call
    right = next(phi).astype(complex)
    return _row_blocks(left, right, min(len(left), max(2, DENSITY_BLOCK_CELLS // len(axes[1]))))


def _row_blocks(left: np.ndarray, right: np.ndarray, rows: int):
    """|left[block] @ right|^2 for blocks of `rows` consecutive rows of left, |.| squared in
    place; the last block ends at the last row and yields only the rows not yet given."""
    for start in range(0, len(left), rows):
        top = min(start, len(left) - rows)
        density = np.abs(left[top : top + rows] @ right)
        np.square(density, out=density)
        yield density[start - top :]


def reconstruct_wavefunction(
    coeffs, axes, omega: float = 1.0
) -> WavefunctionGrid:
    """Expand number-basis coefficients into a position-space density.

    One mode: psi(x) = sum_n c_n phi_n(x sqrt(omega)) omega^(1/4).
    Two modes: coeffs has length d^2 in row-major (mode a, mode chi) order and
    the density is evaluated on the product of the two axes.  The density is
    filled from `_density_blocks`, the blocks the CLI writes.
    """
    axes = tuple(np.asarray(a, dtype=float) for a in axes)
    density = np.empty(tuple(map(len, axes)))
    rows = density.reshape(-1, len(axes[-1]))
    start = 0
    for block in _density_blocks(coeffs, axes, omega):
        rows[start : start + len(block)] = block
        start += len(block)
    return WavefunctionGrid(axes, density)


def default_grid(extent: float = 8.0, points: int = 321) -> np.ndarray:
    """Uniform grid covering [-extent, extent]; wide enough for the double-well minima."""
    return np.linspace(-extent, extent, points)


@dataclass(frozen=True)
class TermSolve:
    """A mode term's solve, kept as its even-n and odd-n blocks' eigenvalues only.

    eigenvalues are both blocks' eigenvalues sorted ascending (stable, even-n
    first on a tie); order[k] is the index of eigenvalue k in the even-n then
    odd-n concatenation, so it names the block and the column of its
    eigenvector; residual is the larger of the blocks' residuals.
    """

    eigenvalues: np.ndarray
    order: np.ndarray
    residual: float


def _band_residual(bands: tuple[np.ndarray, ...], vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """T vecs - vecs * vals for the symmetric T holding bands[k] on its k-th diagonals (`_band_matrix`).

    r = (diag(T) - vals) * vecs is formed in place; each off-diagonal band then
    adds its products above the diagonal, then those below it.
    """
    main, *off_bands = bands
    r = np.subtract.outer(main, vals)
    r *= vecs
    for k, band in enumerate(off_bands, start=1):
        # T[j, j + k] v[j + k] and T[j + k, j] v[j], for rows j < len(band)
        r[:-k] += band[:, None] * vecs[k:]
        r[k:] += band[:, None] * vecs[:-k]
    return r


def _block_solve(spec: ModelSpec, term: int, parity: int) -> tuple[np.ndarray, float]:
    """A parity block's eigenvalues, from `eigh` of `_term_block`, and its residual, the largest
    |T v - lambda v| from `_band_residual`; the block and its eigenvectors are freed on return."""
    bands = _term_bands(spec, term, parity)
    vals, vecs = np.linalg.eigh(_band_matrix(bands))
    residual = float(np.max(np.linalg.norm(_band_residual(bands, vals, vecs), axis=0)))
    return vals, residual


def _solve_term(spec: ModelSpec, term: int) -> TermSolve:
    """A mode term's solve, one `_block_solve` per parity block, built and solved one at a time."""
    (even, even_residual), (odd, odd_residual) = (_block_solve(spec, term, parity) for parity in (0, 1))
    vals = np.concatenate((even, odd))
    order = np.argsort(vals, kind="stable")
    return TermSolve(vals[order], order, max(even_residual, odd_residual))


def spectrum(spec: ModelSpec) -> tuple[np.ndarray, list[TermSolve]]:
    """H's eigenvalues in flat (i, j) order, and the solve of each unsigned mode term.

    H's eigenvalues are the outer sum of the signed terms' eigenvalues,
    beta_j - alpha_i for two modes, and kron(u_i, v_j) is the eigenvector of entry (i, j).
    Each term is solved as its two parity blocks (`_solve_term`); no eigenvector is kept.
    """
    signs = _term_signs(spec)
    solves = [_solve_term(spec, term) for term in range(len(signs))]
    return _outer_sum([sign * solve.eigenvalues for sign, solve in zip(signs, solves)]), solves


def ground_or_nearest_zero(spec: ModelSpec) -> tuple[float, np.ndarray]:
    """Ground state for one-mode models, nearest-zero state for two-mode ones.

    `_target_index` over `spectrum`'s flat (i, j) index picks one, ties to the
    lowest.  The state is the Kronecker product of each term's picked
    eigenvector, placed at its parity block's rows of a d-long vector; the
    eigenvector comes from solving that one block again, which gives the
    same bits.
    """
    vals, solves = spectrum(spec)
    flat = _target_index(vals, nearest_zero=spec.n_modes == 2)
    energy = float(vals[flat])
    picks = np.unravel_index(flat, [len(solve.eigenvalues) for solve in solves])
    del vals
    vectors = []
    for term, (solve, pick) in enumerate(zip(solves, picks)):
        half = len(solve.eigenvalues) // 2
        parity, column = divmod(int(solve.order[pick]), half)
        vector = np.zeros(2 * half)
        vector[parity::2] = np.linalg.eigh(_term_block(spec, term, parity))[1][:, column]
        vectors.append(vector)
    return energy, reduce(np.kron, vectors)


def convergence_scan(spec: ModelSpec, dims, own_vals: np.ndarray | None = None) -> list[tuple]:
    """Ground (or nearest-zero) energy per per-mode truncation dimension, from eigenvalues only.

    dims must be ascending powers of two; each sums its mode terms' parity-block
    eigenvalues, each block built and solved alone, and own_vals,
    `spectrum(spec)`'s eigenvalues, give the row at spec.mode_dim.
    Returns (dim, energy, |energy - previous energy|) rows, the first delta nan.
    """
    rows: list[tuple[int, float, float]] = []
    prev = None
    for dim in dims:
        n = int(dim).bit_length() - 1
        if 2**n != dim or dim < 2:
            raise ValueError(f"scan dimension must be a power of two >= 2, got {dim}")
        if own_vals is not None and dim == spec.mode_dim:
            vals = own_vals
        else:
            scan_spec = replace(spec, qubits_per_mode=n)
            vals = _outer_sum(
                [
                    sign * np.concatenate([np.linalg.eigvalsh(_term_block(scan_spec, term, p)) for p in (0, 1)])
                    for term, sign in enumerate(_term_signs(scan_spec))
                ]
            )
        energy = float(vals[_target_index(vals, nearest_zero=spec.n_modes == 2)])
        rows.append((int(dim), energy, float("nan") if prev is None else abs(energy - prev)))
        prev = energy
    return rows
