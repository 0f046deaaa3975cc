"""Truncated-oscillator toolkit: exact spectra and shot-sampled VQE for
quantum-mechanical potentials and Wheeler-DeWitt mini-superspace models."""

from .circuits import AnsatzShape, Circuit, expectation, run
from .oscillator import Family, ModelSpec, build_model, matrix_square
from .pauli import PauliSum, decompose, group_by_basis, reconstruct
from .spectrum import (
    SpectrumResult,
    WavefunctionGrid,
    convergence_scan,
    eigendecompose,
    reconstruct_wavefunction,
)
from .vqe import SpsaConfig, VqeResult, estimate_error, spsa_minimize, vqe_run

__all__ = [
    "AnsatzShape",
    "Circuit",
    "Family",
    "ModelSpec",
    "PauliSum",
    "SpectrumResult",
    "SpsaConfig",
    "VqeResult",
    "WavefunctionGrid",
    "build_model",
    "convergence_scan",
    "decompose",
    "eigendecompose",
    "estimate_error",
    "expectation",
    "group_by_basis",
    "matrix_square",
    "reconstruct",
    "reconstruct_wavefunction",
    "run",
    "spsa_minimize",
    "vqe_run",
]
