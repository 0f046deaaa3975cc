"""Dense real-symmetric eigensolver and position-space wavefunction reconstruction."""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from .oscillator import ModelSpec, _check_hermitian, mode_terms


@dataclass(frozen=True)
class SpectrumResult:
    """Full eigendecomposition: ascending eigenvalues, orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual: float


@dataclass(frozen=True)
class WavefunctionGrid:
    """Probability density sampled on a uniform grid product, one axis per mode."""

    axes: tuple[np.ndarray, ...]
    density: np.ndarray
    norm: float


def eigendecompose(h: np.ndarray) -> SpectrumResult:
    """Eigendecompose a Hermitian matrix with LAPACK, in float64 arithmetic when it is real.

    The eigenvectors are orthonormal; ordering inside a degenerate cluster is unspecified.
    """
    entries = np.asarray(h, dtype=complex if np.iscomplexobj(h) else float)
    _check_hermitian(entries)
    vals, vecs = np.linalg.eigh(entries)
    residual = float(np.max(np.linalg.norm(entries @ vecs - vecs * vals, axis=0)))
    return SpectrumResult(vals, vecs, residual)


def _target_index(vals: np.ndarray, nearest_zero: bool) -> int:
    """Index of the smallest eigenvalue or, if nearest_zero, of the smallest |eigenvalue|,
    a tie going to the more negative one; any remaining tie goes to the lowest index."""
    if len(vals) == 0:
        raise ValueError("empty spectrum")
    if not nearest_zero:
        return int(np.argmin(vals))
    mag = np.abs(vals)
    ties = np.flatnonzero(mag == mag.min())
    return int(ties[np.argmin(vals[ties])])


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


def reconstruct_wavefunction(
    coeffs, axes, omega: float = 1.0
) -> WavefunctionGrid:
    """Expand number-basis coefficients into a position-space density.

    One mode: psi(x) = sum_n c_n phi_n(x sqrt(omega)) omega^(1/4).
    Two modes: coeffs has length d^2 in row-major (mode a, mode chi) order and
    the density is evaluated on the product of the two axes.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    axes = tuple(np.asarray(a, dtype=float) for a in axes)
    if len(axes) not in (1, 2):
        raise ValueError("axes must hold one or two grids")
    d = round(len(coeffs) ** (1 / len(axes)))
    if d ** len(axes) != len(coeffs):
        raise ValueError("two-mode coefficient vector length must be a square")
    phi = [hermite_functions(d, axis * np.sqrt(omega)) * omega**0.25 for axis in axes]
    psi = coeffs @ phi[0] if len(axes) == 1 else phi[0].T @ coeffs.reshape(d, d) @ phi[1]
    # square |psi| in place once psi is freed, so psi never meets np.trapezoid's temporaries
    density = np.abs(psi)
    del psi
    np.square(density, out=density)
    norm = density
    for axis in reversed(axes):
        norm = np.trapezoid(norm, axis)
    return WavefunctionGrid(axes, density, float(norm))


def default_grid(extent: float = 8.0, points: int = 321) -> np.ndarray:
    """Uniform grid covering [-extent, extent]; wide enough for the double-well minima."""
    return np.linspace(-extent, extent, points)


@dataclass(frozen=True)
class TermSolve:
    """A mode term's solve, kept as its even-n and odd-n block solves.

    eigenvalues are both blocks' eigenvalues sorted ascending (stable, even-n
    first on a tie); order[k] is the index of eigenvalue k in the even-n then
    odd-n concatenation, so it names the block and the column of its eigenvector.
    """

    blocks: tuple[SpectrumResult, SpectrumResult]
    eigenvalues: np.ndarray
    order: np.ndarray

    @property
    def residual(self) -> float:
        return max(block.residual for block in self.blocks)


def _solve_term(blocks: tuple[np.ndarray, np.ndarray]) -> TermSolve:
    """A mode term's solve from one `eigendecompose` per parity block."""
    solves = tuple(eigendecompose(block) for block in blocks)
    vals = np.concatenate([solve.eigenvalues for solve in solves])
    order = np.argsort(vals, kind="stable")
    return TermSolve(solves, vals[order], order)


def spectrum(spec: ModelSpec) -> tuple[np.ndarray, list[TermSolve]]:
    """H's eigenvalues in flat (i, j) order, and the solve of each unsigned mode term.

    H's eigenvalues are the outer sum of the signed terms' eigenvalues,
    beta_j - alpha_i for two modes, and kron(u_i, v_j) is the eigenvector of entry (i, j).
    Each term is solved as its two parity blocks (`_solve_term`).
    """
    signs, terms = zip(*mode_terms(spec))
    solves = [_solve_term(blocks) for blocks in terms]
    return _outer_sum([sign * solve.eigenvalues for sign, solve in zip(signs, solves)]), solves


def ground_or_nearest_zero(spec: ModelSpec) -> tuple[float, np.ndarray]:
    """Ground state for one-mode models, nearest-zero state for two-mode ones.

    `_target_index` over `spectrum`'s flat (i, j) index picks one, ties to the
    lowest.  The state is the Kronecker product of each term's picked
    eigenvector, placed at its parity block's rows of a d-long vector.
    """
    vals, solves = spectrum(spec)
    flat = _target_index(vals, nearest_zero=spec.n_modes == 2)
    picks = np.unravel_index(flat, [len(solve.eigenvalues) for solve in solves])
    vectors = []
    for solve, pick in zip(solves, picks):
        half = len(solve.blocks[0].eigenvalues)
        parity, column = divmod(int(solve.order[pick]), half)
        vector = np.zeros(2 * half)
        vector[parity::2] = solve.blocks[parity].eigenvectors[:, column]
        vectors.append(vector)
    return float(vals[flat]), reduce(np.kron, vectors)


def convergence_scan(spec: ModelSpec, dims, own_vals: np.ndarray | None = None) -> list[tuple]:
    """Ground (or nearest-zero) energy per per-mode truncation dimension, from eigenvalues only.

    dims must be ascending powers of two; each sums its mode terms' parity-block
    eigenvalues, and own_vals, `spectrum(spec)`'s eigenvalues, give the row at spec.mode_dim.
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
            terms = mode_terms(replace(spec, qubits_per_mode=n))
            vals = _outer_sum(
                [sign * np.concatenate([np.linalg.eigvalsh(b) for b in blocks]) for sign, blocks in terms]
            )
        energy = float(vals[_target_index(vals, nearest_zero=spec.n_modes == 2)])
        rows.append((int(dim), energy, float("nan") if prev is None else abs(energy - prev)))
        prev = energy
    return rows
