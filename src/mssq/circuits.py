"""Statevector simulation of the layered u3/CNOT ansatz and shot-based estimation.

Qubit 0 is the most significant bit of the basis index, matching the
most-significant-first convention of the Pauli strings in `pauli`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import cos, sin

import numpy as np

from .pauli import PauliSum


def u3_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    return np.array(
        [
            [cos(theta / 2), -np.exp(1j * lam) * sin(theta / 2)],
            [np.exp(1j * phi) * sin(theta / 2), np.exp(1j * (phi + lam)) * cos(theta / 2)],
        ]
    )


# u3 basis changes mapping X and Y measurement onto the computational basis
_BASIS_CHANGE = {"X": u3_matrix(np.pi / 2, 0.0, np.pi), "Y": u3_matrix(np.pi / 2, 0.0, np.pi / 2)}


def _apply_u3(state: np.ndarray, mat: np.ndarray, q: int) -> np.ndarray:
    """Apply `mat` to qubit q: one (2, 2) @ (2, dim/2) matmul, the same gemm shape for every q."""
    pairs = state.reshape(2**q, 2, -1).swapaxes(0, 1).reshape(2, -1)
    return (mat @ pairs).reshape(2, 2**q, -1).swapaxes(0, 1).reshape(-1)


@dataclass(frozen=True)
class AnsatzShape:
    """Layered hardware-efficient ansatz: u3 layers separated by CNOT chains."""

    n_qubits: int
    depth: int

    @property
    def parameter_count(self) -> int:
        return 3 * self.n_qubits * (self.depth + 1)


@dataclass(frozen=True, eq=False)
class Circuit:
    """The ansatz at fixed angles: one u3 per qubit, then depth x [CNOT chain, u3 layer].

    Parameters are consumed layer-major, qubit-minor: three angles per qubit.
    """

    shape: AnsatzShape
    params: np.ndarray

    def __post_init__(self):
        params = np.array(self.params, dtype=float)
        if params.shape != (self.shape.parameter_count,):
            raise ValueError(
                f"expected {self.shape.parameter_count} parameters, got {params.shape}"
            )
        params.flags.writeable = False
        object.__setattr__(self, "params", params)

    @property
    def n_qubits(self) -> int:
        return self.shape.n_qubits


@cache
def _cnot_chain(n: int) -> np.ndarray:
    """Read-only gather indices applying CNOT(0,1) ... CNOT(n-2,n-1) as state[perm].

    The chain maps each bit to the parity of itself and every bit above it, so
    the amplitude landing on index i comes from its Gray code i ^ (i >> 1).
    """
    idx = np.arange(2**n)
    perm = idx ^ (idx >> 1)
    perm.flags.writeable = False
    return perm


def run(circuit: Circuit) -> np.ndarray:
    """Apply the ansatz to |0...0>."""
    n = circuit.n_qubits
    state = np.zeros(2**n, dtype=complex)
    state[0] = 1.0
    for layer, angles in enumerate(circuit.params.reshape(-1, n, 3)):
        if layer > 0:
            state = state[_cnot_chain(n)]
        for q, (theta, phi, lam) in enumerate(angles):
            state = _apply_u3(state, u3_matrix(theta, phi, lam), q)
    return state


def expectation(circuit: Circuit, observable: PauliSum, shots: int, seed=None) -> float:
    """Shot-sampled <psi|O|psi> for the circuit's output state.

    Each of the observable's qubit-wise groups is measured in its rotated
    basis with a multinomial draw of `shots`, and each string's expectation is
    the histogram average of the group's parity vector for it.  The circuit is
    simulated once; each group applies its basis rotations to that state.
    Error bars come from repeated evaluations (`vqe.estimate_error`).
    """
    if observable.n_qubits != circuit.n_qubits:
        raise ValueError("observable and circuit qubit counts differ")
    state = run(circuit)
    rng = np.random.default_rng(seed)
    value = 0.0
    for group in observable.groups:
        rotated = state
        for q, basis in enumerate(group.basis):
            if basis in _BASIS_CHANGE:
                rotated = _apply_u3(rotated, _BASIS_CHANGE[basis], q)
        probs = np.abs(rotated) ** 2
        counts = rng.multinomial(shots, probs / probs.sum())
        freq = counts / shots
        for (coeff, _), parity in zip(group.terms, group.parities):
            if parity is None:
                value += coeff
                continue
            value += coeff * float(freq @ parity)
    return float(value)
