"""Truncated-oscillator operator algebra and model Hamiltonians.

All operators are dense matrices in the harmonic-oscillator number basis,
truncated to a power-of-two dimension so they can be mapped onto qubits.
Position and momentum are built from the truncated ladder matrices first and
then multiplied, so the last row/column of x^2, p^2 etc. carry the usual
truncation artifacts; convergence is handled by increasing the qubit count,
not by patching entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

HERMITICITY_ATOL = 1e-12

# Quartic coefficients of the source models, 0.275/4 and 0.15/4, each the float
# nearest the exact rational.
COEFF_0275_OVER_4 = 0.06875
COEFF_015_OVER_4 = 0.0375


class Family(str, Enum):
    """The six model Hamiltonians.

    One-mode quantum mechanics:
      HARMONIC_OSC:    H = p^2/2 + x^2/2
      ANHARMONIC_OSC:  H = p^2/2 + x^2/2 + c x^4
      DOUBLE_WELL:     H = p^2/2 - x^2   + c x^4

    Two-mode mini-superspace universes (modes a and chi):
      CLOSED_FREE:  H = -p_a^2/4 + p_chi^2/4 - a^2 + chi^2
      CLOSED_PHI4:  H = CLOSED_FREE - |L| a^4 + c chi^4
      OPEN_PHI4:    H = -p_a^2/4 + p_chi^2/4 + a^2 - chi^2 - |L| a^4 + c chi^4
    """

    HARMONIC_OSC = "HarmonicOsc"
    ANHARMONIC_OSC = "AnharmonicOsc"
    DOUBLE_WELL = "DoubleWell"
    CLOSED_FREE = "ClosedFree"
    CLOSED_PHI4 = "ClosedPhi4"
    OPEN_PHI4 = "OpenPhi4"


ONE_MODE_FAMILIES = (Family.HARMONIC_OSC, Family.ANHARMONIC_OSC, Family.DOUBLE_WELL)
TWO_MODE_FAMILIES = (Family.CLOSED_FREE, Family.CLOSED_PHI4, Family.OPEN_PHI4)

# Default (lambda_abs, quartic_c) per family, absent families (0.0, 0.0).  A
# default of 0.0 marks a term the family's Hamiltonian lacks; it must stay 0.
DEFAULT_COUPLINGS = {
    Family.ANHARMONIC_OSC: (0.0, COEFF_0275_OVER_4),
    Family.DOUBLE_WELL: (0.0, COEFF_015_OVER_4),
    Family.CLOSED_PHI4: (COEFF_0275_OVER_4, COEFF_0275_OVER_4),
    Family.OPEN_PHI4: (COEFF_015_OVER_4, COEFF_015_OVER_4),
}


def _check_hermitian(entries: np.ndarray) -> None:
    """Reject a matrix that is not 2-D, square and non-empty, a non-finite one, or one with
    |H - H^dagger| > 1e-12 * max(1, max|H|) entrywise; every solver checks its input here."""
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1] or not entries.size:
        raise ValueError(f"matrix must be square and non-empty, got shape {entries.shape}")
    if not np.isfinite(entries).all():
        raise ValueError("matrix has non-finite entries")
    bound = HERMITICITY_ATOL * max(1.0, np.abs(entries).max())
    if np.max(np.abs(entries - entries.conj().T)) > bound:
        raise ValueError(f"matrix is not Hermitian to {bound:.3g}")


@dataclass(frozen=True)
class ModelSpec:
    """Declarative description of which Hamiltonian to build.

    lambda_abs is |Lambda| (the a^4 coefficient magnitude) and quartic_c is c
    (the chi^4 / x^4 coefficient); hbar = 1 throughout.  A coupling left None
    takes the family's default; one the family's Hamiltonian lacks must be 0.
    omega sets the frequency scale of the ladder basis used for the
    quadratures.  Each ValueError for a bad field starts with the field's name.
    """

    family: Family
    qubits_per_mode: int
    lambda_abs: float = field(default=None)  # type: ignore[assignment]
    quartic_c: float = field(default=None)  # type: ignore[assignment]
    omega: float = 1.0

    def __post_init__(self):
        family = Family(self.family)
        object.__setattr__(self, "family", family)
        if self.qubits_per_mode < 1:
            raise ValueError("qubits_per_mode must be positive")
        if not (self.omega > 0 and np.isfinite(self.omega)):
            raise ValueError(f"omega must be positive and finite, got {self.omega}")
        defaults = DEFAULT_COUPLINGS.get(family, (0.0, 0.0))
        for name, default in zip(("lambda_abs", "quartic_c"), defaults):
            value = getattr(self, name)
            if value is None:
                value = default
                object.__setattr__(self, name, value)
            if not (value >= 0 and np.isfinite(value)):
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")
            if value and not default:
                raise ValueError(f"{name} must be 0: {family.value} has no such term, got {value}")

    @property
    def n_modes(self) -> int:
        return 2 if self.family in TWO_MODE_FAMILIES else 1

    @property
    def total_qubits(self) -> int:
        return self.n_modes * self.qubits_per_mode

    @property
    def mode_dim(self) -> int:
        return 2**self.qubits_per_mode

    @property
    def dim(self) -> int:
        return 2**self.total_qubits


def _parity_squares(upper: np.ndarray, lower: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The even-n and odd-n blocks of A @ A, for A with upper[n-1] = A[n-1, n], lower[n-1] = A[n, n-1]
    and zeros elsewhere.

    A flips the parity of n, so its even-to-odd and odd-to-even slices are each
    a (d/2) x (d/2) matrix with two bands, written directly; A is never built.
    Both slices are written out: taking one as a transposed view of the other
    can change the products' last bits.
    """
    half = (len(upper) + 1) // 2
    even_odd = np.zeros((half, half))
    even_odd.flat[:: half + 1] = upper[0::2]  # A[2a, 2a+1]
    even_odd.flat[half :: half + 1] = lower[1::2]  # A[2a, 2a-1]
    odd_even = np.zeros((half, half))
    odd_even.flat[:: half + 1] = lower[0::2]  # A[2a+1, 2a]
    odd_even.flat[1 :: half + 1] = upper[1::2]  # A[2a+1, 2a+2]
    return even_odd @ odd_even, odd_even @ even_odd


def _even_powers(spec: ModelSpec) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """x^2, p^2 and x^4 as float64 blocks, (x2, p2, x4) for the even-n rows then the odd-n rows.

    x and q come from the truncated lowering matrix, lower[n-1, n] = sqrt(n):
    x = (lower + lower^T) / sqrt(2 omega) and q = sqrt(omega/2) (lower^T - lower).
    x is real and p = i q with q real, so p^2 = -q q.  Both change the parity
    of n, so each even power maps a parity onto itself (`_parity_squares`).
    """
    root = np.sqrt(np.arange(1, spec.mode_dim))
    x = root * (1 / np.sqrt(2 * spec.omega))
    q = np.sqrt(spec.omega / 2) * root  # q[n, n-1] = -q[n-1, n]
    x2 = _parity_squares(x, x)
    p2 = _parity_squares(-q, q)
    for block in p2:
        np.negative(block, out=block)
    return tuple((x2_r, p2_r, x2_r @ x2_r) for x2_r, p2_r in zip(x2, p2))


# Each family's per-mode terms, mode a first: (sign, p^2 coefficient, x^2
# coefficient, the ModelSpec coupling of x^4).  A family's Hamiltonian is the
# Kronecker sum of sign * (c_p p^2 + c_x x^2 + coupling x^4) over its terms.
FAMILY_TERMS = {
    Family.HARMONIC_OSC: ((1, 1 / 2, 1 / 2, "quartic_c"),),
    Family.ANHARMONIC_OSC: ((1, 1 / 2, 1 / 2, "quartic_c"),),
    Family.DOUBLE_WELL: ((1, 1 / 2, -1, "quartic_c"),),
    Family.CLOSED_FREE: ((-1, 1 / 4, 1, "lambda_abs"), (1, 1 / 4, 1, "quartic_c")),
    Family.CLOSED_PHI4: ((-1, 1 / 4, 1, "lambda_abs"), (1, 1 / 4, 1, "quartic_c")),
    Family.OPEN_PHI4: ((-1, 1 / 4, -1, "lambda_abs"), (1, 1 / 4, -1, "quartic_c")),
}


def mode_terms(spec: ModelSpec) -> tuple[tuple[int, tuple[np.ndarray, np.ndarray]], ...]:
    """H as signed per-mode terms, each as its (even-n, odd-n) blocks: ((1, H),) for one mode,
    ((-1, A), (1, B)) for two.

    Each block is symmetrized; a term's entries between the two parities are 0.
    H is the Kronecker sum of the terms, -A (x) I + I (x) B for two modes, with
    mode a the most significant qubit block.
    """
    powers = _even_powers(spec)
    terms = []
    for sign, p2_coeff, x2_coeff, coupling in FAMILY_TERMS[spec.family]:
        x4_coeff = getattr(spec, coupling)
        symmetric = []
        for x2, p2, x4 in powers:
            # in place, in the order c_p p^2 + c_x x^2 + c x^4 sums left to right
            block = p2_coeff * p2
            block += x2_coeff * x2
            block += x4_coeff * x4
            # enforce exact symmetry against float roundoff in the products
            sym = block + block.T
            del block
            sym /= 2
            symmetric.append(sym)
        terms.append((sign, tuple(symmetric)))
    return tuple(terms)


def _scatter(blocks: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The d x d matrix holding blocks[0] at its even-n rows and columns, blocks[1] at its odd-n ones."""
    half = len(blocks[0])
    full = np.zeros((2 * half, 2 * half))
    for parity, block in enumerate(blocks):
        full[parity::2, parity::2] = block
    return full


def build_model(spec: ModelSpec) -> np.ndarray:
    """The dense, real symmetric (float64) Hamiltonian: the Kronecker sum of spec's mode terms."""
    (sign, blocks), *rest = mode_terms(spec)
    h = sign * _scatter(blocks)
    for sign, blocks in rest:
        term = _scatter(blocks)
        h = np.kron(h, np.eye(len(term))) + sign * np.kron(np.eye(len(h)), term)
    return h


def matrix_square(h: np.ndarray) -> np.ndarray:
    """H -> H @ H, symmetrized: the objective for zero-eigenstate searches."""
    sq = h @ h
    return (sq + sq.conj().T) / 2
