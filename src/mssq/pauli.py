"""Pauli-string decomposition of Hermitian matrices and measurement grouping.

A Pauli string is stored as a word over {I, X, Y, Z}, most significant qubit
first.  Decomposition and reconstruction are one tensorized transform
(Hantzko, Binkowski, Gupta, arXiv:2310.13421): H reshaped to (2,)*2n with
each qubit's row and column bit interleaved into one axis of size 4, and one
4x4 change of basis between those (row, column) pairs and {I, X, Y, Z}
applied per axis.  All 4^n coefficients come out at once, in lexicographic
order, at O(n 4^n) cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .oscillator import _check_hermitian

PAULI_LETTERS = "IXYZ"
COEFF_CUTOFF = 1e-12
IMAG_TOL = 1e-10
_BASE4_DIGITS = str.maketrans(PAULI_LETTERS, "0123")
_MEASURED_BITS = str.maketrans(PAULI_LETTERS, "0111")

# _SIGMA[a, 2r + c] = sigma_a[r, c] for sigma = I, X, Y, Z
_SIGMA = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, -1j, 1j, 0], [1, 0, 0, -1]])


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


def _per_axis(table: np.ndarray, x: np.ndarray, n: int) -> np.ndarray:
    """Apply the 4x4 table to each of the n size-4 axes of x, flattened.

    Each step contracts the leading axis and appends its result as the last
    axis, so after n steps the axes are back in their original order.
    """
    for _ in range(n):
        x = x.reshape(4, -1).T @ table.T
    return x.reshape(-1)


def _words(index: np.ndarray, n: int) -> list[str]:
    """The Pauli strings at these base-4 indices, most significant qubit first."""
    digits = (index[:, None] >> 2 * np.arange(n - 1, -1, -1)) & 3
    return ["".join(word) for word in np.array(list(PAULI_LETTERS))[digits]]


def decompose(h: np.ndarray) -> PauliSum:
    """Decompose a Hermitian 2^n x 2^n matrix: coeff(P) = trace(P H) / 2^n."""
    h = np.asarray(getattr(h, "entries", h), dtype=complex)
    dim = h.shape[0]
    n = dim.bit_length() - 1
    if h.shape != (dim, dim) or 2**n != dim:
        raise ValueError("matrix dimension must be a power of two")
    _check_hermitian(h)
    interleaved = h.reshape((2,) * 2 * n).transpose([a for q in range(n) for a in (q, n + q)])
    # trace(P H) = sum_rc conj(P[r, c]) H[r, c], as every Pauli matrix is Hermitian
    coeffs = _per_axis(_SIGMA.conj(), interleaved, n) / dim
    bad = np.flatnonzero(np.abs(coeffs.imag) > IMAG_TOL)
    if bad.size:
        raise ValueError(f"non-real coefficient for {_words(bad[:1], n)[0]}: {coeffs[bad[0]]}")
    kept = np.flatnonzero(np.abs(coeffs.real) >= COEFF_CUTOFF)
    return PauliSum(n, tuple(zip(coeffs.real[kept].tolist(), _words(kept, n))))


def reconstruct(psum: PauliSum) -> np.ndarray:
    """Dense matrix of a PauliSum: the inverse transform of decompose."""
    n = psum.n_qubits
    coeffs = np.zeros(4**n, dtype=complex)
    for coeff, string in psum.terms:
        coeffs[int(string.translate(_BASE4_DIGITS) or "0", 4)] = coeff
    interleaved = _per_axis(_SIGMA.T, coeffs, n).reshape((2,) * 2 * n)
    rows_then_columns = [*range(0, 2 * n, 2), *range(1, 2 * n, 2)]
    return interleaved.transpose(rows_then_columns).reshape(psum.dim, psum.dim)


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

        After its basis rotation a string reads out the parity of the basis-state
        bits on its non-I qubits.  Computed once and shared by every evaluation;
        callers must not modify it.
        """
        idx = np.arange(2 ** len(self.basis))
        masks = [int(string.translate(_MEASURED_BITS) or "0", 2) for _, string in self.terms]
        return [np.where(np.bitwise_count(idx & m) % 2, -1.0, 1.0) if m else None for m in masks]


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
