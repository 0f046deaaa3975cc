"""Pauli-string decomposition of Hermitian matrices and measurement grouping.

A Pauli string is stored as a word over {I, X, Y, Z}, most significant qubit
first.  Every string is a signed permutation matrix, so it is represented
internally by (perm, phase) arrays: P[i, perm[i]] = phase[i].  That keeps the
trace-based decomposition at O(dim) per string.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .oscillator import _check_hermitian

PAULI_LETTERS = "IXYZ"
COEFF_CUTOFF = 1e-12
IMAG_TOL = 1e-10
# measuring X or Y after its basis rotation reads out like measuring Z
_MEASURED_AS_Z = str.maketrans("XY", "ZZ")

# per-qubit (perm, phase) for I, X, Y, Z
_SINGLE = {
    "I": (np.array([0, 1]), np.array([1, 1], dtype=complex)),
    "X": (np.array([1, 0]), np.array([1, 1], dtype=complex)),
    "Y": (np.array([1, 0]), np.array([-1j, 1j])),
    "Z": (np.array([0, 1]), np.array([1, -1], dtype=complex)),
}


@dataclass(frozen=True)
class PauliSum:
    """Real-weighted sum of Pauli strings over n qubits."""

    n_qubits: int
    terms: tuple[tuple[float, str], ...]

    def __post_init__(self):
        seen = set()
        for coeff, string in self.terms:
            if len(string) != self.n_qubits or any(c not in PAULI_LETTERS for c in string):
                raise ValueError(f"bad Pauli string {string!r} for {self.n_qubits} qubits")
            if string in seen:
                raise ValueError(f"duplicate Pauli string {string!r}")
            seen.add(string)

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    @cached_property
    def groups(self) -> list[MeasurementGroup]:
        """The qubit-wise measurement groups, computed once; the sum is frozen."""
        return group_by_basis(self)


def string_action(string: str) -> tuple[np.ndarray, np.ndarray]:
    """(perm, phase) of the full tensor-product string: P[i, perm[i]] = phase[i]."""
    perm = np.array([0])
    phase = np.array([1], dtype=complex)
    for letter in string:
        p1, ph1 = _SINGLE[letter]
        perm = (perm[:, None] * 2 + p1[None, :]).ravel()
        phase = (phase[:, None] * ph1[None, :]).ravel()
    return perm, phase


def all_strings(n_qubits: int):
    """All 4^n strings in lexicographic (I, X, Y, Z) order, msq first."""
    strings = [""]
    for _ in range(n_qubits):
        strings = [s + letter for s in strings for letter in PAULI_LETTERS]
    return strings


def decompose(h: np.ndarray) -> PauliSum:
    """Decompose a Hermitian 2^n x 2^n matrix: coeff(P) = trace(P H) / 2^n."""
    h = np.asarray(getattr(h, "entries", h), dtype=complex)
    dim = h.shape[0]
    n = dim.bit_length() - 1
    if h.shape != (dim, dim) or 2**n != dim:
        raise ValueError("matrix dimension must be a power of two")
    _check_hermitian(h)
    rows = np.arange(dim)
    terms = []
    for string in all_strings(n):
        perm, phase = string_action(string)
        coeff = np.sum(phase * h[perm, rows]) / dim
        if abs(coeff.imag) > IMAG_TOL:
            raise ValueError(f"non-real coefficient for {string}: {coeff}")
        if abs(coeff.real) >= COEFF_CUTOFF:
            terms.append((float(coeff.real), string))
    return PauliSum(n, tuple(terms))


def reconstruct(psum: PauliSum) -> np.ndarray:
    """Dense matrix of a PauliSum."""
    dim = psum.dim
    rows = np.arange(dim)
    mat = np.zeros((dim, dim), dtype=complex)
    for coeff, string in psum.terms:
        perm, phase = string_action(string)
        np.add.at(mat, (rows, perm), coeff * phase)
    return mat


@dataclass(frozen=True)
class MeasurementGroup:
    """Qubit-wise compatible strings sharing one measurement basis.

    basis[q] is 'X', 'Y', 'Z', or None when every member string has I there.
    """

    basis: tuple[str | None, ...]
    terms: tuple[tuple[float, str], ...]

    @cached_property
    def parities(self) -> list[np.ndarray | None]:
        """Per term, its +-1 readout of each basis state in this basis (None for I...I).

        Computed once and shared by every evaluation; callers must not modify it.
        """
        zs = [string.translate(_MEASURED_AS_Z) for _, string in self.terms]
        return [np.ascontiguousarray(string_action(z)[1].real) if "Z" in z else None for z in zs]


def group_by_basis(psum: PauliSum) -> list[MeasurementGroup]:
    """Greedy first-fit grouping of qubit-wise compatible strings, input order."""
    groups: list[list] = []  # [basis letters (mutable), terms]
    for coeff, string in psum.terms:
        placed = False
        for entry in groups:
            basis = entry[0]
            if all(c == "I" or basis[q] is None or basis[q] == c for q, c in enumerate(string)):
                for q, c in enumerate(string):
                    if c != "I":
                        basis[q] = c
                entry[1].append((coeff, string))
                placed = True
                break
        if not placed:
            basis = [c if c != "I" else None for c in string]
            groups.append([basis, [(coeff, string)]])
    return [MeasurementGroup(tuple(basis), tuple(terms)) for basis, terms in groups]
