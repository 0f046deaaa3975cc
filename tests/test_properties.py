"""Properties checked over random inputs drawn by hypothesis."""

import os
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mssq.circuits import AnsatzShape, Circuit, run
from mssq.cli import _write_density, main
from mssq.oscillator import DEFAULT_COUPLINGS, TWO_MODE_FAMILIES, Family, ModelSpec, build_model, matrix_square
from mssq.pauli import decompose, reconstruct
from mssq.spectrum import WavefunctionGrid, _target_index, ground_or_nearest_zero, spectrum
from test_cli import parent_density_rows, parent_write_csv
from test_oscillator import dense_mode_terms

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)
finite = st.floats(-10, 10, allow_nan=False, allow_infinity=False)


@st.composite
def hermitian_matrices(draw, max_qubits=4):
    dim = 2 ** draw(st.integers(1, max_qubits))
    parts = draw(arrays(np.float64, (2, dim, dim), elements=finite))
    a = parts[0] + 1j * parts[1]
    return (a + a.conj().T) / 2


@st.composite
def ansatz_points(draw, n_qubits, max_depth=3):
    shape = AnsatzShape(n_qubits, draw(st.integers(0, max_depth)))
    params = draw(arrays(np.float64, shape.parameter_count, elements=st.floats(-7, 7)))
    return shape, params


@PROPERTY_SETTINGS
@given(hermitian_matrices())
def test_pauli_roundtrip_property(h):
    assert np.max(np.abs(reconstruct(decompose(h)) - h)) < 1e-9


@PROPERTY_SETTINGS
@given(st.integers(1, 4).flatmap(ansatz_points))
def test_ansatz_state_has_unit_norm(point):
    shape, params = point
    assert abs(np.linalg.norm(run(Circuit(shape, params))) - 1) < 1e-12


@pytest.mark.parametrize(
    "spec",
    [ModelSpec(Family.DOUBLE_WELL, 3), ModelSpec(Family.CLOSED_PHI4, 2)],
    ids=lambda spec: spec.family.value,
)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_dense_energy_and_variance_bounds(spec, data):
    h = build_model(spec)
    h2 = matrix_square(h)
    tol = 1e-9 * max(1.0, np.abs(h2).max())
    psi = run(Circuit(*data.draw(ansatz_points(spec.total_qubits, max_depth=2))))
    energy = np.vdot(psi, h @ psi).real
    assert energy >= np.linalg.eigvalsh(h)[0] - tol
    assert np.vdot(psi, h2 @ psi).real >= energy**2 - tol


@st.composite
def two_mode_specs(draw):
    family = draw(st.sampled_from(TWO_MODE_FAMILIES))
    coupling = st.just(0.0) if family is Family.CLOSED_FREE else st.floats(0, 2)
    return ModelSpec(
        family,
        draw(st.integers(1, 3)),
        lambda_abs=draw(coupling),
        quartic_c=draw(coupling),
        omega=draw(st.floats(0.1, 5)),
    )


@PROPERTY_SETTINGS
@given(two_mode_specs())
def test_two_mode_spectrum_matches_dense_eigh(spec):
    vals, _ = spectrum(spec)
    dense = np.linalg.eigvalsh(build_model(spec))
    tol = 1e-12 * np.abs(dense).max()
    assert np.max(np.abs(np.sort(vals) - dense)) <= tol
    near = ground_or_nearest_zero(spec)[0]
    dense_near = min(dense, key=lambda v: (abs(v), v))
    # where |eigenvalue| ties to roundoff either member may be picked, so match any tied one
    tied = dense[np.abs(np.abs(dense) - abs(dense_near)) <= tol]
    assert np.min(np.abs(tied - near)) <= tol


# few distinct magnitudes, both signs and both zeros, so |eigenvalue| ties are common
tie_heavy = arrays(
    np.float64,
    st.integers(1, 12),
    elements=st.sampled_from([-2.0, -0.5, -0.0, 0.0, 0.5, 2.0, 1e-300, -1e-300]),
)


@settings(max_examples=300, deadline=None)
@given(tie_heavy)
def test_nearest_zero_index_matches_lexsort(vals):
    # smallest |eigenvalue|, then the more negative one, then the lowest index
    assert _target_index(vals, nearest_zero=True) == np.lexsort((vals, np.abs(vals)))[0]


@PROPERTY_SETTINGS
@given(
    family=st.sampled_from(list(Family)),
    n=st.integers(1, 6),
    omega=st.floats(0.05, 20),
    couplings=st.tuples(st.floats(0, 5), st.floats(0, 5)),
)
def test_dense_mode_terms_vanish_between_parities(family, n, omega, couplings):
    """Every mode term maps each number parity onto itself: exact zeros at every odd i + j."""
    lambda_abs, quartic_c = (c if d else 0.0 for c, d in zip(couplings, DEFAULT_COUPLINGS.get(family, (0, 0))))
    spec = ModelSpec(family, n, lambda_abs=lambda_abs, quartic_c=quartic_c, omega=omega)
    odd = np.add.outer(np.arange(spec.mode_dim), np.arange(spec.mode_dim)) % 2 == 1
    for _, term in dense_mode_terms(spec):
        assert np.all(term[odd] == 0.0)


@st.composite
def density_grids(draw):
    """One- or two-mode grids, 2-40 points per axis, any float64 axes and densities."""
    lengths = draw(st.lists(st.integers(2, 40), min_size=1, max_size=2))
    axes = tuple(draw(arrays(np.float64, n)) for n in lengths)
    return WavefunctionGrid(axes, draw(arrays(np.float64, tuple(lengths))), 1.0)


@PROPERTY_SETTINGS
@given(density_grids())
def test_density_writer_matches_row_writer(grid):
    header = "x,density" if len(grid.axes) == 1 else "x_a,x_chi,density"
    with tempfile.TemporaryDirectory() as tmp:
        new, old = Path(tmp) / "new.csv", Path(tmp) / "old.csv"
        _write_density(new, grid)
        parent_write_csv(old, header, parent_density_rows(grid))
        assert new.read_bytes() == old.read_bytes()


TINY_VQE = """
model.family = HarmonicOsc
model.qubits_per_mode = 1
ansatz.depth = 1
spsa.iterations = 4
spsa.calibration_samples = 2
run.shots = 64
run.repetitions = 2
grid.points = 11
output.dir = {out}
"""


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32))
def test_rerun_determinism_under_env_seed(seed):
    env = {"MSSQ_SEED": str(seed)}
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, env):
        outputs = []
        for label in ("a", "b"):
            cfg = Path(tmp) / f"{label}.cfg"
            cfg.write_text(TINY_VQE.format(out=Path(tmp) / label))
            assert main(["vqe", "-c", str(cfg)]) == 0
            outputs.append({p.name: p.read_bytes() for p in (Path(tmp) / label).glob("*.csv")})
        assert len(outputs[0]) == 4 and outputs[0] == outputs[1]
        assert f"seed = {seed}\n" in (Path(tmp) / "a" / "result.txt").read_text()
