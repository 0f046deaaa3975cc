"""Truncated-oscillator operator algebra and model Hamiltonians.

Operators live in the harmonic-oscillator number basis, truncated to a
power-of-two dimension so they can be mapped onto qubits.  Each mode term is
formed as its bands (`_term_bands`, `_level_bands`); the exact solver's parity
blocks, the measurement plans and the dense `build_model` are written from
them.  Position and momentum come from the truncated ladder matrices first
and are then multiplied, band by band, so the last row/column of x^2, p^2
etc. carry the usual truncation artifacts; convergence is handled by
increasing the qubit count, not by patching entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

HERMITICITY_ATOL = 1e-12
# largest mode-term entry a model may hold (`ModelSpec.check_scale`).  Its
# fourth power stays below float max (1.8e308) by 1e52: constraint mode
# squares H, then takes the sample variance of <H^2>.  With the bound's
# estimate at 1e77 every output was finite; at 1e90 h2_stderr was inf
# (ClosedPhi4, 2 qubits per mode).  The spectrum's residual norm, which
# squares entries, stayed finite to 1e150 (DoubleWell, 3 qubits)
ENTRY_BOUND = 1e64

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


# Each family's per-mode terms, mode a first: (sign, p^2 coefficient, x^2
# coefficient, the ModelSpec coupling of x^4, that coupling's default).  A
# family's Hamiltonian is the Kronecker sum of sign * (c_p p^2 + c_x x^2 +
# coupling x^4) over its terms; a default of 0.0 marks a term the family lacks,
# whose coupling must stay 0, as must a coupling no term names.
FAMILY_TERMS = {
    Family.HARMONIC_OSC: ((1, 1 / 2, 1 / 2, "quartic_c", 0.0),),
    Family.ANHARMONIC_OSC: ((1, 1 / 2, 1 / 2, "quartic_c", COEFF_0275_OVER_4),),
    Family.DOUBLE_WELL: ((1, 1 / 2, -1, "quartic_c", COEFF_015_OVER_4),),
    Family.CLOSED_FREE: ((-1, 1 / 4, 1, "lambda_abs", 0.0), (1, 1 / 4, 1, "quartic_c", 0.0)),
    Family.CLOSED_PHI4: ((-1, 1 / 4, 1, "lambda_abs", COEFF_0275_OVER_4), (1, 1 / 4, 1, "quartic_c", COEFF_0275_OVER_4)),
    Family.OPEN_PHI4: ((-1, 1 / 4, -1, "lambda_abs", COEFF_015_OVER_4), (1, 1 / 4, -1, "quartic_c", COEFF_015_OVER_4)),
}
ONE_MODE_FAMILIES = tuple(f for f, terms in FAMILY_TERMS.items() if len(terms) == 1)
TWO_MODE_FAMILIES = tuple(f for f, terms in FAMILY_TERMS.items() if len(terms) == 2)


def _check_hermitian(h) -> np.ndarray:
    """h as float64 (not copied if it is), or complex128 if complex, for every solver: rejects a
    matrix that is not 2-D, square and non-empty, a non-finite one, or one with
    |H - H^dagger| > 1e-12 * max(1, max|H|) entrywise."""
    entries = np.asarray(h, dtype=complex if np.iscomplexobj(h) else float)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1] or not entries.size:
        raise ValueError(f"matrix must be square and non-empty, got shape {entries.shape}")
    if not np.isfinite(entries).all():
        raise ValueError("matrix has non-finite entries")
    if np.iscomplexobj(entries):
        bound = HERMITICITY_ATOL * max(1.0, np.abs(entries).max())
        gap = np.abs(entries - entries.conj().T)
    else:
        # one full-size temporary: max|H| from the extremes, the difference's abs in place
        bound = HERMITICITY_ATOL * max(1.0, entries.max(), -entries.min())
        gap = entries - entries.T
        np.abs(gap, out=gap)
    if gap.max() > bound:
        raise ValueError(f"matrix is not Hermitian to {bound:.3g}")
    return entries


@dataclass(frozen=True)
class ModelSpec:
    """Declarative description of which Hamiltonian to build.

    family is a Family or its name.  lambda_abs is |Lambda| (the a^4
    coefficient magnitude) and quartic_c is c (the chi^4 / x^4 coefficient);
    hbar = 1 throughout.  A coupling left None takes its default in
    FAMILY_TERMS; one the family's Hamiltonian lacks must be 0.  omega sets
    the frequency scale of the ladder basis used for the quadratures.  Each
    ValueError for a bad field starts with the field's name.
    """

    family: Family
    qubits_per_mode: int
    lambda_abs: float = field(default=None)  # type: ignore[assignment]
    quartic_c: float = field(default=None)  # type: ignore[assignment]
    omega: float = 1.0

    def __post_init__(self):
        try:
            object.__setattr__(self, "family", Family(self.family))
        except ValueError:
            names = ", ".join(f.value for f in Family)
            raise ValueError(f"family must be one of {names}, got {self.family!r}") from None
        if self.qubits_per_mode < 1:
            raise ValueError("qubits_per_mode must be positive")
        if not (self.omega > 0 and np.isfinite(self.omega)):
            raise ValueError(f"omega must be positive and finite, got {self.omega}")
        defaults = {coupling: default for *_, coupling, default in FAMILY_TERMS[self.family]}
        for name in ("lambda_abs", "quartic_c"):
            value = getattr(self, name)
            if value is None:
                value = defaults.get(name, 0.0)
                object.__setattr__(self, name, value)
            if not (value >= 0 and np.isfinite(value)):
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")
            if value and not defaults.get(name):
                raise ValueError(f"{name} must be 0: {self.family.value} has no such term, got {value}")

    def check_scale(self) -> None:
        """Raise a ValueError naming the field if a mode term's entries may exceed ENTRY_BOUND.

        Row sums bound them before anything is built: |x| by sqrt(2 (d - 1) /
        omega) and |q| by sqrt(2 omega (d - 1)), so a term by |c_p| 2 omega
        (d - 1) + |c_x| 2 (d - 1) / omega + c 4 (d - 1)^2 / omega^2, and the
        unscaled x^2 @ x^2 by 4 (d - 1)^2 / omega^2; the check takes c as at
        least 1 to cover both.  A coupling is named when its x^4 alone passes
        the bound at omega = 1, else omega is.
        """
        n = self.mode_dim - 1
        terms = FAMILY_TERMS[self.family]
        for *_, coupling, _ in terms:
            c = getattr(self, coupling)
            if c * 4 * n * n > ENTRY_BOUND:
                raise ValueError(f"{coupling} = {c} puts x^4 entries above {ENTRY_BOUND:g} at omega = 1")
        x4 = 4 * (n / self.omega) * (n / self.omega)
        for _, p2_coeff, x2_coeff, coupling, _ in terms:
            largest = abs(p2_coeff) * 2 * self.omega * n + abs(x2_coeff) * 2 * n / self.omega
            if largest + max(1.0, getattr(self, coupling)) * x4 > ENTRY_BOUND:
                raise ValueError(f"omega = {self.omega} puts mode-term entries above {ENTRY_BOUND:g}")

    @property
    def n_modes(self) -> int:
        return len(FAMILY_TERMS[self.family])

    @property
    def total_qubits(self) -> int:
        return self.n_modes * self.qubits_per_mode

    @property
    def mode_dim(self) -> int:
        return 2**self.qubits_per_mode

    @property
    def dim(self) -> int:
        return 2**self.total_qubits


def _term_bands(spec: ModelSpec, term: int, parity: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The main, first and second bands of one parity block (0: even n, 1: odd n) of spec's
    unsigned mode term `term`; each band holds both its upper and its lower side.

    The block is c_p p^2 + c_x x^2 + c x^4 (FAMILY_TERMS), summed left to
    right.  x and q come from the truncated lowering matrix, lower[n-1, n] =
    sqrt(n): x = (lower + lower^T) / sqrt(2 omega) and q = sqrt(omega/2)
    (lower^T - lower).  x is real and p = i q with q real, so p^2 = -q q.  Both
    change the parity of n, so each even power maps a parity onto itself: x^2
    and p^2 are tridiagonal in the block index, and x^4, the truncated x^2
    squared before it is scaled, is pentadiagonal.  Every band is formed in
    O(d), after spec.check_scale has passed.
    """
    spec.check_scale()
    _, p2_coeff, x2_coeff, coupling, _ = FAMILY_TERMS[spec.family][term]
    root = np.sqrt(np.arange(1, spec.mode_dim))

    def square(ladder):
        """The block's main and first bands of S @ S, S the symmetric tridiagonal matrix with
        S[n-1, n] = ladder[n-1]: S[n, n-1]^2 + S[n, n+1]^2 and S[n, n+1] S[n+1, n+2]."""
        squares = np.concatenate(([0.0], ladder * ladder, [0.0]))
        return (squares[:-1] + squares[1:])[parity::2], (ladder[:-1] * ladder[1:])[parity::2]

    x2_main, x2_first = square(root * (1 / np.sqrt(2 * spec.omega)))
    # q is S = |q| with its upper side negated, so q q has -(S @ S)'s main band and
    # (S @ S)'s first one, and p^2 = -q q the opposite signs
    p2_main, q2_first = square(np.sqrt(spec.omega / 2) * root)
    first_squares = x2_first * x2_first
    x4_main = x2_main * x2_main
    x4_main[1:] += first_squares
    x4_main[:-1] += first_squares
    c = getattr(spec, coupling)
    return (
        p2_coeff * p2_main + x2_coeff * x2_main + c * x4_main,
        p2_coeff * -q2_first + x2_coeff * x2_first + c * (x2_main[:-1] * x2_first + x2_first * x2_main[1:]),
        c * (x2_first[:-1] * x2_first[1:]),
    )


def _square_bands(bands: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    """The 2K + 1 bands of S @ S, S the symmetric matrix holding bands[k], k <= K, on its k-th
    diagonals: (S S)[j, j + k] = sum_a S[j, j + a] S[j + a, j + k], each band in O(size)."""
    size, reach = len(bands[0]), len(bands) - 1
    # rows[reach + a, reach + j] = S[j, j + a], zero past either end
    rows = np.zeros((2 * reach + 1, size + 2 * reach))
    for a, band in enumerate(bands):
        rows[reach + a, reach : reach + len(band)] = rows[reach - a, reach + a : reach + a + len(band)] = band
    return tuple(
        sum(rows[reach + a, reach : reach + n] * rows[reach + k - a, reach + a : reach + a + n] for a in range(k - reach, reach + 1))
        for k, n in enumerate(max(size - k, 0) for k in range(2 * reach + 1))
    )


def _level_bands(spec: ModelSpec, term: int, squared: bool = False) -> np.ndarray:
    """spec's unsigned mode term T `term`, or T^2, by level distance: row k < 5 holds T[n, n + 2k] at
    column n, and row 5, of zeros, every farther pair; each parity block's bands are interleaved."""
    table = np.zeros((6, spec.mode_dim))
    for parity in (0, 1):
        bands = _term_bands(spec, term, parity)
        for k, band in enumerate(_square_bands(bands) if squared else bands):
            table[k, parity::2][: len(band)] = band
    return table


def _band_matrix(bands: tuple[np.ndarray, ...]) -> np.ndarray:
    """The dense symmetric matrix holding bands[k] on its k-th diagonal above and below the
    main one, +0.0 everywhere else.

    The diagonals are written through strided `flat` slices; fancy indexing
    instead raised the peak RSS of the benchmark's constraint runs by 0.1 MB.
    """
    size = len(bands[0])
    full = np.zeros((size, size))
    for offset, band in enumerate(bands):
        full.flat[offset : (size - offset) * size : size + 1] = band
        full.flat[offset * size :: size + 1] = band
    return full


def _term_block(spec: ModelSpec, term: int, parity: int) -> np.ndarray:
    """One parity block (0: even n, 1: odd n) of spec's unsigned mode term `term`: its
    bands (`_term_bands`) written into a dense (d/2) x (d/2) array."""
    return _band_matrix(_term_bands(spec, term, parity))


def _term_signs(spec: ModelSpec) -> tuple[int, ...]:
    """The sign of each of spec's mode terms, mode a first; `_term_bands` takes their indices."""
    return tuple(sign for sign, *_ in FAMILY_TERMS[spec.family])


def build_model(spec: ModelSpec) -> np.ndarray:
    """The dense, real symmetric (float64) Hamiltonian: the Kronecker sum of spec's signed mode
    terms, -A (x) I + I (x) B for two modes, with mode a the most significant qubit block.

    Each term is written from its level bands (`_level_bands`): levels n and n + 2k are k
    apart, on diagonal 2k, and the odd diagonals, between the parities, hold +0.0.  The sum
    is built in place: h (x) I is written once, and I (x) term adds the signed term to each
    of its diagonal blocks through a (d, d, d, d) view, so no second matrix of the model's
    size exists.
    """
    d = spec.mode_dim
    terms = []
    for term, sign in enumerate(_term_signs(spec)):
        levels = _level_bands(spec, term)
        matrix = _band_matrix([np.zeros(d - k) if k % 2 else levels[k // 2, : d - k] for k in range(min(5, d))])
        matrix *= sign
        terms.append(matrix)
    h, *rest = terms
    for term in rest:
        outer = len(h)
        h = np.kron(h, np.eye(d))
        diagonal_blocks = h.reshape(outer, d, outer, d)
        for i in range(outer):
            diagonal_blocks[i, :, i, :] += term
    return h
