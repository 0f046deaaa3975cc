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
from fractions import Fraction

import numpy as np

HERMITICITY_ATOL = 1e-12

# Quartic coefficients as printed in the source models, kept as exact rationals.
COEFF_0275_OVER_4 = Fraction(275, 1000) / 4
COEFF_015_OVER_4 = Fraction(15, 100) / 4


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
    Family.ANHARMONIC_OSC: (0.0, float(COEFF_0275_OVER_4)),
    Family.DOUBLE_WELL: (0.0, float(COEFF_015_OVER_4)),
    Family.CLOSED_PHI4: (float(COEFF_0275_OVER_4), float(COEFF_0275_OVER_4)),
    Family.OPEN_PHI4: (float(COEFF_015_OVER_4), float(COEFF_015_OVER_4)),
}


def _check_hermitian(entries: np.ndarray) -> None:
    """Reject a non-finite matrix, or one with |H - H^dagger| > 1e-12 * max(1, max|H|) entrywise."""
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


@dataclass(frozen=True)
class OperatorMatrix:
    """A dense Hermitian operator of power-of-two size; real input stays float64."""

    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=complex if np.iscomplexobj(self.entries) else float)
        object.__setattr__(self, "entries", entries)
        dim = entries.shape[0]
        if entries.shape != (dim, dim) or dim & (dim - 1) or dim < 2:
            raise ValueError(f"entries must be square with power-of-two size, got {entries.shape}")
        _check_hermitian(entries)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def _even_powers(spec: ModelSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x^2, p^2 and x^4 as float64 from the truncated lowering matrix, lower[n-1, n] = sqrt(n).

    x is real and p = i q with q real, so p^2 = -q q.
    """
    low = np.diag(np.sqrt(np.arange(1, spec.mode_dim)), 1)
    x = (low + low.T) * (1 / np.sqrt(2 * spec.omega))
    q = np.sqrt(spec.omega / 2) * (low.T - low)
    x2 = x @ x
    return x2, -(q @ q), x2 @ x2


def mode_terms(spec: ModelSpec) -> tuple[tuple[int, np.ndarray], ...]:
    """H as signed per-mode terms: ((1, H),) for one mode, ((-1, A), (1, B)) for two.

    Each term is symmetrized.  H is their Kronecker sum, -A (x) I + I (x) B
    for two modes, with mode a the most significant qubit block.
    """
    x2, p2, x4 = _even_powers(spec)
    if spec.family is Family.HARMONIC_OSC:
        terms = ((1, p2 / 2 + x2 / 2),)
    elif spec.family is Family.ANHARMONIC_OSC:
        terms = ((1, p2 / 2 + x2 / 2 + spec.quartic_c * x4),)
    elif spec.family is Family.DOUBLE_WELL:
        terms = ((1, p2 / 2 - x2 + spec.quartic_c * x4),)
    elif spec.family is Family.OPEN_PHI4:
        # -(p_a^2/4 - a^2 + |L| a^4)   and   p_chi^2/4 - chi^2 + c chi^4
        terms = ((-1, p2 / 4 - x2 + spec.lambda_abs * x4), (1, p2 / 4 - x2 + spec.quartic_c * x4))
    else:
        # CLOSED_FREE / CLOSED_PHI4: -(p_a^2/4 + a^2 + |L| a^4)  and  p_chi^2/4 + chi^2 + c chi^4
        terms = ((-1, p2 / 4 + x2 + spec.lambda_abs * x4), (1, p2 / 4 + x2 + spec.quartic_c * x4))
    # enforce exact symmetry against float roundoff in the products
    return tuple((sign, (term + term.T) / 2) for sign, term in terms)


def build_model(spec: ModelSpec) -> OperatorMatrix:
    """The dense, real symmetric (float64) Hamiltonian: the Kronecker sum of spec's mode terms."""
    (sign, h), *rest = mode_terms(spec)
    h = sign * h
    for sign, term in rest:
        h = np.kron(h, np.eye(len(term))) + sign * np.kron(np.eye(len(h)), term)
    return OperatorMatrix(h)


def matrix_square(op: OperatorMatrix) -> OperatorMatrix:
    """H -> H @ H, the objective for zero-eigenstate searches."""
    sq = op.entries @ op.entries
    sq = (sq + sq.conj().T) / 2
    return OperatorMatrix(sq)
