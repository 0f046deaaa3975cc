"""Statevector simulation of the layered u3/CNOT ansatz and shot-based estimation.

Qubit 0 is the most significant bit of the basis index, matching the
most-significant-first convention of the Pauli strings in `pauli`.  Both
`run` and `expectation` work on a batch of states: a circuit whose params are
a (B, P) stack simulates and measures its B rows at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .pauli import PauliSum


def u3_matrix(theta, phi, lam) -> np.ndarray:
    """The u3 gate at angles of one shape, stacked over that shape: (..., 2, 2)."""
    mat = np.empty(np.shape(theta) + (2, 2), dtype=complex)
    cos, sin = np.cos(np.divide(theta, 2)), np.sin(np.divide(theta, 2))
    e_lam, e_phi, e_sum = np.exp(1j * np.stack([lam, phi, np.add(phi, lam)]))
    mat[..., 0, 0] = cos
    mat[..., 0, 1] = -e_lam * sin
    mat[..., 1, 0] = e_phi * sin
    mat[..., 1, 1] = e_sum * cos
    return mat


@cache
def _basis_changes() -> np.ndarray:
    """Read-only basis change per code of `Readout.bases`, built on first use.

    Code 0, Z or an unmeasured qubit, is the identity; codes 1 and 2 are the
    u3 gates mapping X and Y measurement onto the computational basis.  Built
    lazily so that importing mssq touches no trigonometric numpy loops.
    """
    changes = np.stack(
        [
            np.eye(2, dtype=complex),
            u3_matrix(np.pi / 2, 0.0, np.pi),
            u3_matrix(np.pi / 2, 0.0, np.pi / 2),
        ]
    )
    changes.flags.writeable = False
    return changes


def _apply_u3_layer(states: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Apply mats[..., q, :, :] to qubit q of each state in a (..., dim) batch, q = 0 .. n-1.

    mats broadcasts against the batch as (..., n, 2, 2).  Each step contracts
    the leading qubit axis with one (2, 2) @ (2, dim/2) gemm per state and
    moves that axis last, so after n steps the qubits are back in order.
    """
    lead, dim = states.shape[:-1], states.shape[-1]
    pairs, flat = (*lead, 2, dim // 2), (*lead, dim)
    for q in range(mats.shape[-3]):
        states = (mats[..., q, :, :] @ states.reshape(pairs)).swapaxes(-1, -2).reshape(flat)
    return states


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
    params is one parameter vector, or a (B, P) stack of B of them.
    """

    shape: AnsatzShape
    params: np.ndarray

    def __post_init__(self):
        params = np.array(self.params, dtype=float)
        if params.ndim not in (1, 2) or params.shape[-1] != self.shape.parameter_count:
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
    """Apply the ansatz to |0...0>: a (dim,) state, or (B, dim) for a (B, P) batch.

    The u3 matrices of every layer and batch entry are built at once, as one
    (B, layers, n, 2, 2) stack, and each layer is one `_apply_u3_layer`.
    """
    n = circuit.n_qubits
    params = circuit.params
    angles = params.reshape(-1, circuit.shape.depth + 1, n, 3)
    mats = u3_matrix(angles[..., 0], angles[..., 1], angles[..., 2])
    states = np.zeros((len(angles), 2**n), dtype=complex)
    states[:, 0] = 1.0
    for layer in range(circuit.shape.depth + 1):
        if layer > 0:
            states = states[:, _cnot_chain(n)]
        states = _apply_u3_layer(states, mats[:, layer])
    return states.reshape(*params.shape[:-1], -1)


def _readout_probabilities(circuit: Circuit, observable: PauliSum) -> np.ndarray:
    """Each state's (G, dim) readout distributions over the observable's G groups: (..., G, dim).

    The circuit is simulated once and each state is repeated over the groups;
    the groups' stacked basis changes rotate the whole block in one
    `_apply_u3_layer`.  Nothing holds the repeated block, so each rotation step
    frees its input, and the squares and normalisation are taken in place.
    """
    if observable.n_qubits != circuit.n_qubits:
        raise ValueError("observable and circuit qubit counts differ")
    plan = observable.readout
    rotated = _apply_u3_layer(
        np.repeat(run(circuit)[..., None, :], len(plan.weights), axis=-2),
        _basis_changes()[plan.bases],
    )
    probs = np.abs(rotated)
    del rotated
    np.square(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    return probs


def _sampled_expectation(pvals: np.ndarray, observable: PauliSum, shots: int, seed=None):
    """One multinomial draw of `shots` per (state, group) row of pvals, the first state's groups
    first, read out as a float or one value per state."""
    plan = observable.readout
    counts = np.random.default_rng(seed).multinomial(shots, pvals)
    freq = counts.reshape(*pvals.shape[:-2], -1) / shots
    values = plan.constant + freq @ plan.weights.reshape(-1)
    return float(values) if values.ndim == 0 else values


def expectation(circuit: Circuit, observable: PauliSum, shots: int, seed=None):
    """Shot-sampled <psi|O|psi>: a float, or one value per state of a (B, P) batch.

    The circuit is simulated once and each state is repeated over the
    observable's G qubit-wise groups.  The groups' stacked basis changes
    rotate the whole (B, G, dim) block in one `_apply_u3_layer`, and one
    multinomial draw of `shots` per (state, group) row samples it, the first
    state's groups first.  A state's value is the I...I constant plus
    sum_g freq_g . W_g, with W_g its group's readout weights
    (`PauliSum.readout`).  Error bars come from repeated draws
    (`vqe.estimate_error`).
    """
    return _sampled_expectation(_readout_probabilities(circuit, observable), observable, shots, seed)
