"""Statevector simulation of the layered u3/CNOT ansatz and shot-based estimation.

Qubit 0 is the most significant bit of the basis index, matching the
most-significant-first convention of the Pauli strings in `pauli`.  Both
`run` and `expectation` work on a batch of states: a circuit whose params are
a (B, P) stack simulates and measures its B rows at once.

A real symmetric observable H is measured with one circuit per XOR offset m
of H: the entries H[i, i ^ m] are read out together by the extended Bell
measurement of Kondo, Mori, Koh & Watanabe, Quantum 6, 688 (2022),
arXiv:2110.09735.  A model's plan is built per mode from its bands
(`model_plan`), with no matrix of the model's size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

import numpy as np

from .oscillator import ModelSpec, _level_bands, _term_signs

# an offset is measured when one of its entries exceeds ENTRY_CUTOFF * max(1, max|H|); below
# that it holds only rounding residue, as where HarmonicOsc's x^2 and p^2 parts cancel to 1e-16
ENTRY_CUTOFF = 1e-12


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


class MeasurementPlan(NamedTuple):
    """How a real symmetric H is measured: one circuit per XOR offset, and how each is read.

    Circuit g measures offsets[g] = m, ascending, with pivot k its highest set
    bit: a CNOT from k to each other bit of m, a Hadamard on k, then every
    qubit in Z.  Outcome r then has amplitude (psi[low] + signs * psi[partner])
    / sqrt(2) and weight weights[g, r] = signs * H[low, partner], with low =
    r & ~k, partner = low ^ m and signs = (-1)^(r_k); all four are (G, dim).
    Offset 0 has pivot 0: the Z basis, low = partner = r and weight diag H.
    """

    offsets: np.ndarray
    weights: np.ndarray
    low: np.ndarray
    partner: np.ndarray
    signs: np.ndarray


def _mode_offsets(qubits: int, reach: int) -> list[int]:
    """The XOR offsets n ^ (n + 2k), k <= reach <= 4, of a mode's levels, ascending.  Adding 2k
    changes n's low four bits and the run of ones that its carry clears above them, so the
    levels l + 16 (2^t - 1), l < 16, give every offset in O(qubits), at any qubit count."""
    levels = {low + 16 * ((1 << t) - 1) for low in range(16) for t in range(qubits)}
    return sorted({n ^ (n + 2 * k) for n in levels for k in range(reach + 1) if n + 2 * k < 1 << qubits})


def _offset_count(spec: ModelSpec, squared: bool = False) -> int:
    """The candidate offsets of `model_plan(spec, squared)`, an upper bound on its circuits."""
    single = len(_mode_offsets(spec.qubits_per_mode, 4 if squared else 2))
    cross = len(_mode_offsets(spec.qubits_per_mode, 2)) - 1 if squared and spec.n_modes == 2 else 0
    return spec.n_modes * (single - 1) + 1 + cross * cross


def model_plan(spec: ModelSpec, squared: bool = False) -> MeasurementPlan:
    """The plan of build_model(spec), or of its square, from the mode terms' bands, with no
    matrix of the model's size and no matrix product: one circuit per XOR offset whose
    entries exceed ENTRY_CUTOFF * max(1, max|H|).

    Over the outcomes of offset m, sum_r p(r) weights[r] = sum_i conj(psi_i) H[i, i ^ m]
    psi_(i ^ m), so the offsets' exact estimates sum to <psi|H|psi>, short of the dropped
    offsets' residue.  The candidates are each mode's offsets (`_mode_offsets`) with the
    other's 0 and, for the 2 s_a s_b A (x) B of H^2, each pair of nonzero ones; a row's
    entries are gathered per mode and combined as an outer sum or product.  H's weights are
    bit for bit those read from the dense matrix; H^2's differ from a dense H @ H's in the
    last bits.
    """
    q, d, two_modes = spec.qubits_per_mode, spec.mode_dim, spec.n_modes == 2
    single = _mode_offsets(q, 4 if squared else 2)
    cross = _mode_offsets(q, 2)[1:] if squared and two_modes else []
    offsets = [a << q for a in single] + single[1:] + [a << q | b for a in cross for b in cross] if two_modes else single
    offsets = np.array(sorted(offsets))
    # each offset's highest set bit, and 0 for offset 0: m = f 2^e with f in [0.5, 1)
    pivots = (1 << np.frexp(offsets)[1].astype(np.intp)) >> 1
    outcomes = np.arange(spec.dim)
    low = outcomes & ~pivots[:, None]
    partner = low ^ offsets[:, None]
    signs = np.where(outcomes & pivots[:, None], -1.0, 1.0)

    levels = [_level_bands(spec, term) for term in range(spec.n_modes)]
    squares = [_level_bands(spec, term, squared=True) for term in range(spec.n_modes)] if squared else levels
    modes = []  # per mode: its signed term's entries, its part of the sum, whether its offset is 0
    for shift, sign, level, square in zip((q, 0) if two_modes else (0,), _term_signs(spec), levels, squares):
        # the mode's bits of low and partner, each row read where the other mode's are 0
        n, m = ((index[:, :: 1 << shift][:, :d] >> shift) & (d - 1) for index in (low, partner))
        at = np.minimum(np.abs(m - n) >> 1, len(level) - 1), np.minimum(n, m)
        term = sign * level[at]
        modes.append((term, square[at] if squared else term, (n == m).all(axis=1, keepdims=True)))
    if two_modes:
        (a, a_part, a_zero), (b, b_part, b_zero) = modes
        full = (2 * a)[:, :, None] * b[:, None, :] if squared else np.zeros((len(offsets), d, d))
        full += (a_part * b_zero)[:, :, None]
        full += (b_part * a_zero)[:, None, :]
        weights = full.reshape(len(offsets), -1)
    else:
        weights = modes[0][1]
    weights *= signs
    largest = np.abs(weights).max(axis=1, initial=0.0)
    keep = largest > ENTRY_CUTOFF * max(1.0, largest.max(initial=0.0))
    plan = MeasurementPlan(offsets, weights, low, partner, signs)
    return plan if keep.all() else MeasurementPlan(*(array[keep] for array in plan))


def _readout_probabilities(circuit: Circuit, plan: MeasurementPlan) -> np.ndarray:
    """Each state's (G, dim) outcome distributions over the plan's G circuits: (..., G, dim).

    The circuit is simulated once.  Each circuit's amplitudes, without the
    1/sqrt(2) that the normalisation removes, are formed in place as
    psi[partner] * signs + psi[low], then squared and normalised in place, so
    only the gathered psi[low] is held beside the (..., G, dim) block.
    """
    if plan.weights.shape[-1] != 2**circuit.n_qubits:
        raise ValueError("observable and circuit qubit counts differ")
    states = run(circuit)
    amplitudes = states[..., plan.partner]
    amplitudes *= plan.signs
    amplitudes += states[..., plan.low]
    probs = np.abs(amplitudes)
    del amplitudes
    np.square(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    return probs


def _sampled_expectation(pvals: np.ndarray, plan: MeasurementPlan, shots: int, seed=None):
    """One multinomial draw of `shots` per (state, circuit) row of pvals, the first state's
    circuits first, read out as a float or one value per state."""
    counts = np.random.default_rng(seed).multinomial(shots, pvals)
    freq = counts.reshape(*pvals.shape[:-2], -1) / shots
    values = freq @ plan.weights.reshape(-1)
    return float(values) if values.ndim == 0 else values


def expectation(circuit: Circuit, plan: MeasurementPlan, shots: int, seed=None):
    """Shot-sampled <psi|H|psi>: a float, or one value per state of a (B, P) batch.

    The circuit is simulated once and each state is read out through the
    plan's G offset circuits as one (B, G, dim) block of outcome
    distributions.  One multinomial draw of `shots` per (state, circuit) row
    samples it, the first state's circuits first, and a state's value is
    sum_g freq_g . W_g, with W_g the plan's weights.  Offset 0's frequencies
    sum to 1, so diag H carries any constant at no added variance.  Error
    bars come from repeated draws (`vqe.estimate_error`).
    """
    return _sampled_expectation(_readout_probabilities(circuit, plan), plan, shots, seed)
