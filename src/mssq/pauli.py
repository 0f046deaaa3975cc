"""Pauli-string decomposition of Hermitian matrices and measurement grouping.

A Pauli string is stored as a word over {I, X, Y, Z}, most significant qubit
first.  Decomposition and reconstruction are one tensorized transform
(Hantzko, Binkowski, Gupta, arXiv:2310.13421): H reshaped to (2,)*2n with
each qubit's row and column bit interleaved into one axis of size 4, and one
4x4 change of basis between those (row, column) pairs and {I, X, Y, Z}
applied per axis.  All 4^n coefficients come out at once, in lexicographic
order, at O(n 4^n) cost.

Grouping and readout work on each string's (x, z) bit masks, its binary
symplectic form (Aaronson & Gottesman, arXiv:quant-ph/0406196): X sets x,
Z sets z and Y sets both, qubit 0 in the most significant bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .oscillator import _check_hermitian

PAULI_LETTERS = "IXYZ"
COEFF_CUTOFF = 1e-12
IMAG_TOL = 1e-10
_BASE4_DIGITS = str.maketrans(PAULI_LETTERS, "0123")
# a group's measured letter per (x bit, z bit) of its qubit
_BASIS_LETTERS = {(0, 0): None, (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}

# _SIGMA[a, 2r + c] = sigma_a[r, c] for sigma = I, X, Y, Z
_SIGMA = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, -1j, 1j, 0], [1, 0, 0, -1]])
_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]])


class Readout(NamedTuple):
    """How an observable is read out of its groups' measured histograms.

    weights[g, i] = sum of c_s * (-1)^popcount(i & sup_s) over group g's
    strings s other than I...I, whose coefficient is `constant`; bases[g, q]
    is 0 where group g measures Z or nothing on qubit q, 1 for X and 2 for Y.
    """

    constant: float
    weights: np.ndarray
    bases: np.ndarray


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

    @cached_property
    def readout(self) -> Readout:
        """The groups' readout plan, computed once and shared; callers must not modify it.

        Within a group a string is fixed by its support, so the weights are
        the Walsh-Hadamard transform of each group's coefficients placed at
        their support masks.
        """
        n, groups = self.n_qubits, self.groups
        members = [term for group in groups for term in group.terms]
        coeffs = np.array([coeff for coeff, _ in members], dtype=float)
        x, z = _masks([string for _, string in members], n)
        support = x | z
        rows = np.repeat(np.arange(len(groups)), [len(group.terms) for group in groups])
        measured = support > 0
        placed = np.zeros((len(groups), self.dim))
        placed[rows[measured], support[measured]] = coeffs[measured]
        weights = _per_axis(_HADAMARD, placed.T, n).reshape(len(groups), self.dim)
        codes = {None: 0, "Z": 0, "X": 1, "Y": 2}
        bases = np.array([[codes[b] for b in group.basis] for group in groups], dtype=np.intp)
        return Readout(float(coeffs[~measured].sum()), weights, bases.reshape(-1, n))


def _per_axis(table: np.ndarray, x: np.ndarray, n: int) -> np.ndarray:
    """Apply the k x k table to each of the leading n size-k axes of x, flattened.

    Each step contracts the leading axis and appends its result as the last
    axis, so after n steps the axes are back in their original order; any
    trailing axes of x end up in front.
    """
    for _ in range(n):
        x = x.reshape(len(table), x.size // len(table)).T @ table.T
    return x.reshape(-1)


def _masks(strings: list[str], n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (x, z) bit masks of each string, qubit 0 in the most significant bit."""
    letters = np.frombuffer("".join(strings).encode(), dtype=np.uint8).reshape(len(strings), n)
    bits = 1 << np.arange(n - 1, -1, -1, dtype=np.int64)
    x = ((letters == ord("X")) | (letters == ord("Y"))) @ bits
    z = ((letters == ord("Z")) | (letters == ord("Y"))) @ bits
    return x, z


def _words(index: np.ndarray, n: int) -> list[str]:
    """The Pauli strings at these base-4 indices, most significant qubit first."""
    digits = (index[:, None] >> 2 * np.arange(n - 1, -1, -1)) & 3
    return ["".join(word) for word in np.array(list(PAULI_LETTERS))[digits]]


def decompose(h: np.ndarray) -> PauliSum:
    """Decompose a Hermitian 2^n x 2^n matrix: coeff(P) = trace(P H) / 2^n."""
    h = np.asarray(h, dtype=complex)
    _check_hermitian(h)
    dim = len(h)
    n = dim.bit_length() - 1
    if 2**n != dim:
        raise ValueError(f"matrix dimension must be a power of two, got {dim}")
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


def group_by_basis(psum: PauliSum) -> list[MeasurementGroup]:
    """Greedy first-fit grouping of qubit-wise compatible strings, input order.

    String s fits open group g when the two agree on every qubit both act on:
    (sup_s & sup_g) & ((x_s ^ x_g) | (z_s ^ z_g)) == 0, with sup = x | z and
    (x_g, z_g) the union of g's members.  Packing x above z into one word, and
    the support into both halves, makes that one test over every open group:
    (word_s ^ word_g) & support_s & support_g == 0.
    """
    n = psum.n_qubits
    x, z = _masks([string for _, string in psum.terms], n)
    words, supports = ((x << n) | z).tolist(), ((x | z) * ((1 << n) + 1)).tolist()
    group_words = np.zeros(len(words), dtype=np.int64)
    group_supports = np.zeros(len(words), dtype=np.int64)
    members: list[list] = []
    for term, word, support in zip(psum.terms, words, supports):
        clash = group_words[: len(members)] ^ word
        clash &= support
        clash &= group_supports[: len(members)]
        g = int(clash.argmin()) if members else 0
        if not members or clash[g]:
            g = len(members)
            members.append([])
        members[g].append(term)
        group_words[g] |= word
        group_supports[g] |= support
    shifts = np.arange(2 * n - 1, -1, -1)
    bits = (group_words[: len(members), None] >> shifts) & 1
    return [
        MeasurementGroup(tuple(_BASIS_LETTERS[xz] for xz in zip(row[:n], row[n:])), tuple(terms))
        for row, terms in zip(bits.tolist(), members)
    ]
