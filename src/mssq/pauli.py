"""Pauli-string decomposition of Hermitian matrices, the reference form of an observable.

A Pauli sum is its coefficients and each string's base-4 index, qubit 0 the
most significant digit and I, X, Y, Z = 0, 1, 2, 3; words over IXYZ appear
only in `PauliSum.terms`.  Decomposition and reconstruction are one
tensorized transform (Hantzko, Binkowski, Gupta, arXiv:2310.13421): H
reshaped to (2,)*2n with each qubit's row and column bit interleaved into one
axis of size 4, and one real 4x4 change of basis between those (row, column)
pairs and {I, X, -iY, Z} applied per axis.  All 4^n coefficients come out at
once, in index order, at O(n 4^n) cost.

Each string is sigma = i^k tau, k its Y count and tau the real Kronecker
product of I, X, -iY = [[0, -1], [1, 0]] and Z, so trace(sigma H) / 2^n is
(-1)^floor(k/2) <tau, Re H> / 2^n for even k and the same with Im H for odd
k: a real H has no odd-k strings and a complex one takes a second transform.
Reconstruction gives Re H from the even-k terms and Im H from the odd-k ones.

No command measures through this form: `circuits.model_plan` reads an
observable straight from its model's bands.  A string's x bit mask (X and Y
set it) is the XOR offset of the entries it touches, so the offsets of a real
H are the distinct x masks of its decomposition, once each side drops its
rounding residue (COEFF_CUTOFF here, `circuits.ENTRY_CUTOFF` there).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .oscillator import _check_hermitian

PAULI_LETTERS = "IXYZ"
COEFF_CUTOFF = 1e-12

# _TAU[a, 2r + c] = tau_a[r, c] for tau = I, X, -iY, Z, and each letter's Y count
_TAU = np.array([[1.0, 0, 0, 1], [0, 1, 1, 0], [0, -1, 1, 0], [1, 0, 0, -1]])
_Y_COUNT = np.array([0, 0, 1, 0], dtype=np.uint8)


@dataclass(frozen=True, eq=False)
class PauliSum:
    """Real-weighted sum of Pauli strings over n qubits: float64 coeffs[j] weights int64 index[j]."""

    n_qubits: int
    coeffs: np.ndarray
    index: np.ndarray

    def __post_init__(self):
        if self.index.ndim != 1 or self.coeffs.shape != self.index.shape:
            raise ValueError(f"{self.coeffs.shape} coefficients for {self.index.shape} indices")
        if np.any((self.index < 0) | (self.index >= 4**self.n_qubits)):
            raise ValueError(f"string index outside [0, 4^{self.n_qubits})")
        # np.unique without return_index, as np.setdiff1d calls it, imports numpy.ma on first use
        first = np.unique(self.index, return_index=True)[1]
        if len(first) < len(self.index):
            again = np.setdiff1d(np.arange(len(self.index)), first)[0]
            raise ValueError(f"duplicate Pauli string {self.terms[again][1]!r}")

    @cached_property
    def terms(self) -> tuple[tuple[float, str], ...]:
        """The (coeff, string) pairs in term order, each string qubit 0 first."""
        digits = (self.index[:, None] >> 2 * np.arange(self.n_qubits - 1, -1, -1)) & 3
        words = ["".join(word) for word in np.array(list(PAULI_LETTERS))[digits]]
        return tuple(zip(self.coeffs.tolist(), words))

    @property
    def dim(self) -> int:
        return 2**self.n_qubits


def _per_axis(table: np.ndarray, x: np.ndarray, n: int) -> np.ndarray:
    """Apply the k x k table to each of the leading n size-k axes of x, flattened.

    Each step contracts the leading axis and appends its result as the last
    axis, so after n steps the axes are back in their original order; any
    trailing axes of x end up in front.
    """
    for _ in range(n):
        x = x.reshape(len(table), x.size // len(table)).T @ table.T
    return x.reshape(-1)


def _masks(index: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (x, z) bit masks of each base-4 index, qubit 0 in the most significant bit.

    Digit d = 0, 1, 2, 3 (I, X, Y, Z) has x = (d ^ (d >> 1)) & 1 and z = d >> 1.
    """
    digits = (index[:, None] >> 2 * np.arange(n - 1, -1, -1)) & 3
    bits = 1 << np.arange(n - 1, -1, -1, dtype=np.int64)
    return ((digits ^ (digits >> 1)) & 1) @ bits, (digits >> 1) @ bits


def _traces(part: np.ndarray, n: int) -> np.ndarray:
    """<tau, part> for every real string tau, in base-4 order."""
    interleaved = part.reshape((2,) * 2 * n).transpose([a for q in range(n) for a in (q, n + q)])
    return _per_axis(_TAU, interleaved, n)


def decompose(h: np.ndarray) -> PauliSum:
    """Decompose a Hermitian 2^n x 2^n matrix: coeff(P) = trace(P H) / 2^n."""
    h = _check_hermitian(h)
    dim = len(h)
    n = dim.bit_length() - 1
    if 2**n != dim:
        raise ValueError(f"matrix dimension must be a power of two, got {dim}")
    y_count = np.zeros(1, dtype=np.uint8)  # mod 256, which keeps its low two bits exact
    for _ in range(n):
        y_count = np.add.outer(y_count, _Y_COUNT).ravel()
    coeffs = _traces(h.real, n)
    odd = (y_count & 1).astype(bool)
    np.copyto(coeffs, _traces(h.imag, n) if np.iscomplexobj(h) else 0.0, where=odd)
    np.negative(coeffs, out=coeffs, where=(y_count & 2).astype(bool))
    coeffs /= dim
    kept = np.flatnonzero(np.abs(coeffs) >= COEFF_CUTOFF)
    return PauliSum(n, coeffs[kept], kept)


def reconstruct(psum: PauliSum) -> np.ndarray:
    """Dense complex128 matrix of a PauliSum: the inverse transform of decompose."""
    n = psum.n_qubits
    x, z = _masks(psum.index, n)
    k = np.bitwise_count(x & z)
    # column k % 2 holds the (-1)^floor(k/2)-signed coefficients of the strings with k Ys
    coeffs = np.zeros((4**n, 2))
    coeffs[psum.index, k % 2] = np.where(k & 2, -psum.coeffs, psum.coeffs)
    interleaved = _per_axis(_TAU.T, coeffs, n).reshape((2,) * (2 * n + 1))
    rows_then_columns = [0, *range(1, 2 * n + 1, 2), *range(2, 2 * n + 1, 2)]
    re, im = interleaved.transpose(rows_then_columns).reshape(2, psum.dim, psum.dim)
    return re + 1j * im
