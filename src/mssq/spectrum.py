"""Dense real-symmetric eigensolver and position-space wavefunction reconstruction."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .oscillator import (
    ModelSpec,
    OperatorMatrix,
    _check_hermitian,
    build_model,
)

DEGENERACY_GAP = 1e-9


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


def eigendecompose(h: OperatorMatrix | np.ndarray) -> SpectrumResult:
    """Eigendecompose a Hermitian matrix with LAPACK, in real arithmetic when it is real.

    Eigenvectors within a degenerate cluster (gap < 1e-9) are re-orthonormalized
    by a QR pass; ordering inside a cluster is unspecified.
    """
    if isinstance(h, OperatorMatrix):
        entries = h.entries  # checked when the operator was built
    else:
        entries = np.asarray(h, dtype=complex if np.iscomplexobj(h) else float)
        _check_hermitian(entries)
    vals, vecs = np.linalg.eigh(entries)
    # re-orthonormalize degenerate clusters
    start = 0
    for stop in range(1, len(vals) + 1):
        if stop == len(vals) or vals[stop] - vals[stop - 1] > DEGENERACY_GAP:
            if stop - start > 1:
                q, _ = np.linalg.qr(vecs[:, start:stop])
                vecs[:, start:stop] = q
            start = stop
    residual = float(np.max(np.linalg.norm(entries @ vecs - vecs * vals, axis=0))) if len(vals) else 0.0
    return SpectrumResult(vals, vecs, residual)


def _target_index(vals: np.ndarray, nearest_zero: bool) -> int:
    """Index of the ground state in ascending vals or, if nearest_zero, of the smallest
    |eigenvalue|, a tie going to the more negative one."""
    if len(vals) == 0:
        raise ValueError("empty spectrum")
    return min(range(len(vals)), key=lambda j: (abs(vals[j]), vals[j])) if nearest_zero else 0


def nearest_zero_state(spectrum: SpectrumResult) -> tuple[float, np.ndarray]:
    """The eigenpair with smallest |eigenvalue|; a tie goes to the more negative one."""
    i = _target_index(spectrum.eigenvalues, nearest_zero=True)
    return float(spectrum.eigenvalues[i]), spectrum.eigenvectors[:, i]


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


def _mode_wavefunction(coeffs: np.ndarray, axis: np.ndarray, omega: float) -> np.ndarray:
    phi = hermite_functions(len(coeffs), axis * np.sqrt(omega)) * omega**0.25
    return coeffs @ phi.reshape(len(coeffs), -1)


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
    if len(axes) == 1:
        psi = _mode_wavefunction(coeffs, axes[0], omega)
        density = np.abs(psi) ** 2
        norm = float(np.trapezoid(density, axes[0]))
    elif len(axes) == 2:
        d = round(np.sqrt(len(coeffs)))
        if d * d != len(coeffs):
            raise ValueError("two-mode coefficient vector length must be a square")
        c = coeffs.reshape(d, d)
        phi_a = hermite_functions(d, axes[0] * np.sqrt(omega)) * omega**0.25
        phi_chi = hermite_functions(d, axes[1] * np.sqrt(omega)) * omega**0.25
        psi = phi_a.T @ c @ phi_chi
        density = np.abs(psi) ** 2
        norm = float(np.trapezoid(np.trapezoid(density, axes[1], axis=1), axes[0]))
    else:
        raise ValueError("axes must hold one or two grids")
    return WavefunctionGrid(axes, density, norm)


def default_grid(extent: float = 8.0, points: int = 321) -> np.ndarray:
    """Uniform grid covering [-extent, extent]; wide enough for the double-well minima."""
    return np.linspace(-extent, extent, points)


def ground_or_nearest_zero(spec: ModelSpec) -> tuple[float, np.ndarray, SpectrumResult]:
    """Ground state for one-mode models, nearest-zero state for two-mode ones."""
    result = eigendecompose(build_model(spec))
    i = _target_index(result.eigenvalues, nearest_zero=spec.n_modes == 2)
    return float(result.eigenvalues[i]), result.eigenvectors[:, i], result


def convergence_scan(spec: ModelSpec, dims, top: SpectrumResult | None = None) -> list[tuple]:
    """Ground (or nearest-zero) energy per per-mode truncation dimension, from eigenvalues only.

    dims must be ascending powers of two; top, spec's own solve, gives the row
    at spec.mode_dim.  Returns (dim, energy, |energy - previous energy|)
    rows; the first row's difference is nan.
    """
    rows: list[tuple[int, float, float]] = []
    prev = None
    for dim in dims:
        n = int(dim).bit_length() - 1
        if 2**n != dim or dim < 2:
            raise ValueError(f"scan dimension must be a power of two >= 2, got {dim}")
        if top is not None and dim == spec.mode_dim:
            vals = top.eigenvalues
        else:
            vals = np.linalg.eigvalsh(build_model(replace(spec, qubits_per_mode=n)).entries)
        energy = float(vals[_target_index(vals, nearest_zero=spec.n_modes == 2)])
        rows.append((int(dim), energy, float("nan") if prev is None else abs(energy - prev)))
        prev = energy
    return rows
