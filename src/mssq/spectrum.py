"""Dense Hermitian eigensolver and position-space wavefunction reconstruction."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .oscillator import (
    Family,
    ModelSpec,
    ONE_MODE_FAMILIES,
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
    """Eigendecompose a Hermitian matrix (LAPACK dense solver).

    Eigenvectors within a degenerate cluster (gap < 1e-9) are re-orthonormalized
    by a QR pass; ordering inside a cluster is unspecified.
    """
    if isinstance(h, OperatorMatrix):
        entries = h.entries  # checked when the operator was built
    else:
        entries = np.asarray(h, dtype=complex)
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


def nearest_zero_state(spectrum: SpectrumResult) -> tuple[float, np.ndarray]:
    """The eigenpair with smallest |eigenvalue|; a tie goes to the more negative one."""
    vals = spectrum.eigenvalues
    if len(vals) == 0:
        raise ValueError("empty spectrum")
    i = min(range(len(vals)), key=lambda j: (abs(vals[j]), vals[j]))
    return float(vals[i]), spectrum.eigenvectors[:, i]


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
    if spec.family in ONE_MODE_FAMILIES:
        return float(result.eigenvalues[0]), result.eigenvectors[:, 0], result
    val, vec = nearest_zero_state(result)
    return val, vec, result


def convergence_scan(spec: ModelSpec, dims) -> list[tuple[int, float, float]]:
    """Ground (or nearest-zero) energy per per-mode truncation dimension.

    dims must be ascending powers of two.  Returns (dim, energy,
    |energy - previous energy|) rows; the first row's difference is nan.
    """
    rows: list[tuple[int, float, float]] = []
    prev = None
    for dim in dims:
        n = int(dim).bit_length() - 1
        if 2**n != dim or dim < 2:
            raise ValueError(f"scan dimension must be a power of two >= 2, got {dim}")
        scan_spec = ModelSpec(
            family=spec.family,
            qubits_per_mode=n,
            lambda_abs=spec.lambda_abs,
            quartic_c=spec.quartic_c,
            omega=spec.omega,
        )
        energy, _, _ = ground_or_nearest_zero(scan_spec)
        rows.append((int(dim), energy, float("nan") if prev is None else abs(energy - prev)))
        prev = energy
    return rows
