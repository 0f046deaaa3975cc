import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mssq import cli, oscillator
from mssq.cli import _check_memory, _write_csv, _write_density, main, noise_scan
from mssq.config import ConfigError, echo_text, parse_config, resolve
from mssq.oscillator import Family, ModelSpec, build_model
from mssq.spectrum import (
    WavefunctionGrid,
    default_grid,
    eigendecompose,
    ground_or_nearest_zero,
    _density_blocks,
    reconstruct_wavefunction,
    spectrum,
)
from test_oscillator import measurement_plan, term_blocks


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


BASE_SPECTRUM = """
model.family = HarmonicOsc
model.qubits_per_mode = 3
output.dir = {out}
"""

FAST_VQE = """
model.family = HarmonicOsc
model.qubits_per_mode = 2
ansatz.depth = 1
spsa.iterations = 20
spsa.calibration_samples = 3
run.repetitions = 3
run.seed = 11
spectrum.scan_dims = 4,8
output.dir = {out}
"""


def test_parse_defaults(tmp_path):
    cfg = parse_config(
        write_config(tmp_path, f"model.family = HarmonicOsc\noutput.dir = {tmp_path}/o\n")
    )
    assert cfg["run.shots"] == 8192
    assert cfg["model.omega"] == 1.0
    assert cfg["ansatz.depth"] == 2


def test_parse_unknown_key(tmp_path):
    path = write_config(tmp_path, "model.family = HarmonicOsc\nmodel.bogus = 3\n")
    with pytest.raises(ConfigError, match=r":2.*model\.bogus"):
        parse_config(path)


def test_parse_type_error_has_line_number(tmp_path):
    path = write_config(tmp_path, "run.shots = many\n")
    with pytest.raises(ConfigError, match=":1"):
        parse_config(path)


def test_parse_empty_file_lists_required_keys(tmp_path):
    path = write_config(tmp_path, "")
    with pytest.raises(ConfigError, match="model.family, output.dir"):
        parse_config(path)


def test_resolve_overrides():
    cfg = resolve(
        [(1, "model.family", "DoubleWell"), (2, "output.dir", "x")],
        overrides=[("run.shots", "1024")],
    )
    assert cfg["run.shots"] == 1024


@pytest.mark.parametrize(
    "key,template",
    [("run.shots", "{}"), ("spsa.refinements", "1:0.1:{}"), ("noise.shots_grid", "1,2,3,{}")],
)
def test_shot_counts_fit_int64(key, template):
    base = [(1, "model.family", "DoubleWell"), (2, "output.dir", "x")]
    assert resolve(base, overrides=[(key, template.format(2**63 - 1))])[key]
    with pytest.raises(ConfigError, match=key):
        resolve(base, overrides=[(key, template.format(2**63))])


def test_echo_roundtrip(tmp_path):
    refinements = "1000:0.04:65536,800:0.012:524288,800:0.004:4194304,10:0.0123456789:4096"
    cfg = parse_config(
        write_config(
            tmp_path,
            f"model.family = DoubleWell\nspsa.refinements = {refinements}\n"
            f"output.dir = {tmp_path}/o\n",
        )
    )
    assert f"spsa.refinements = {refinements}\n" in echo_text(cfg)
    echoed = write_config(tmp_path, echo_text(cfg), "echo.cfg")
    assert parse_config(echoed) == cfg


def test_spectrum_command(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, BASE_SPECTRUM.format(out=out))
    assert main(["spectrum", "-c", str(cfg)]) == 0
    summary = (out / "summary.txt").read_text()
    assert "ground_energy = 0.5" in summary
    assert (out / "spectrum.csv").exists()
    assert (out / "convergence.csv").exists()
    assert (out / "config.txt").exists()


def test_spectrum_anharmonic_value(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        f"model.family = AnharmonicOsc\nmodel.qubits_per_mode = 5\noutput.dir = {out}\n",
    )
    assert main(["spectrum", "-c", str(cfg)]) == 0
    ground = float((out / "summary.txt").read_text().split("ground_energy = ")[1].split()[0])
    assert abs(ground - 0.543116) < 1e-3


def test_spectrum_closed_free_near_zero(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        f"model.family = ClosedFree\nmodel.qubits_per_mode = 2\noutput.dir = {out}\n",
    )
    assert main(["spectrum", "-c", str(cfg)]) == 0
    assert abs(_summary_value(out, "nearest_zero_eigenvalue")) < 1e-9


def test_spectrum_solves_top_dim_once(tmp_path, monkeypatch):
    """Each dim solves its d x d mode terms once, as two d/2 parity blocks each; the model's own
    dim reuses the spectrum's solves."""
    sizes = []
    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)

        def counted(a, *args, solver=solver, **kwargs):
            sizes.append(len(a))
            return solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    cfg = write_config(tmp_path, BASE_SPECTRUM.format(out=tmp_path / "out"))
    for family, expected in [("HarmonicOsc", [2, 2, 4, 4]), ("ClosedPhi4", [2, 2, 2, 2, 4, 4, 4, 4])]:
        sizes.clear()
        overrides = ["--set=spectrum.scan_dims=4,8", f"--set=model.family={family}"]
        assert main(["spectrum", "-c", str(cfg), *overrides]) == 0
        assert sorted(sizes) == expected


def _summary_value(out, key):
    return float((out / "summary.txt").read_text().split(f"{key} = ")[1].split()[0])


def test_spectrum_one_mode_matches_dense_eigh(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, f"model.family = DoubleWell\nmodel.qubits_per_mode = 6\noutput.dir = {out}\n")
    assert main(["spectrum", "-c", str(cfg)]) == 0
    written = np.loadtxt(out / "spectrum.csv", delimiter=",", skiprows=1)[:, 1]
    spec = ModelSpec(Family.DOUBLE_WELL, 6)
    ((_, blocks),) = term_blocks(spec)
    by_block = np.concatenate([eigendecompose(block).eigenvalues for block in blocks])
    assert np.array_equal(written, np.sort(by_block, kind="stable"))
    dense = eigendecompose(build_model(spec)).eigenvalues
    assert np.max(np.abs(written - dense)) <= 1e-14 * np.abs(dense).max()


def test_spectrum_two_mode_at_8_qubits_per_mode(tmp_path):
    """65,536 eigenvalues from two 256 x 256 solves, sorted, with the largest per-term residual."""
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        f"model.family = ClosedPhi4\nmodel.qubits_per_mode = 8\nmodel.lambda_abs = 0.1\noutput.dir = {out}\n",
    )
    assert main(["spectrum", "-c", str(cfg)]) == 0
    rows = np.loadtxt(out / "spectrum.csv", delimiter=",", skiprows=1)
    assert rows.shape == (65536, 2) and np.all(np.diff(rows[:, 1]) >= 0)
    _, solves = spectrum(ModelSpec(Family.CLOSED_PHI4, 8, lambda_abs=0.1))
    assert _summary_value(out, "max_residual") == max(solve.residual for solve in solves) < 1e-8


def test_spectrum_two_mode_scan_runs_every_dim(tmp_path):
    """Every row, the model's own dim 4 included, and nearest_zero_eigenvalue come from per-mode solves."""
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        "model.family = ClosedFree\nmodel.qubits_per_mode = 2\n"
        f"spectrum.scan_dims = 4,8,32,64\noutput.dir = {out}\n",
    )
    assert main(["spectrum", "-c", str(cfg)]) == 0
    rows = np.loadtxt(out / "convergence.csv", delimiter=",", skiprows=1)
    assert rows[:, 0].tolist() == [4, 8, 32, 64]
    # with A == B, beta_j - alpha_j is exactly 0.0 at every dim
    assert np.all(rows[:, 1] == 0.0)
    assert np.isnan(rows[0, 2]) and np.all(rows[1:, 2] == 0.0)
    expected = ground_or_nearest_zero(ModelSpec(Family.CLOSED_FREE, 2))[0]
    assert _summary_value(out, "nearest_zero_eigenvalue") == expected
    summary = (out / "summary.txt").read_text()
    assert summary.splitlines()[-1].startswith("max_residual = ")


@pytest.mark.parametrize("family,n", [("ClosedFree", 2), ("ClosedPhi4", 3), ("OpenPhi4", 4)])
def test_spectrum_summary_counts_zero_cluster(tmp_path, family, n):
    """With default couplings A == B, so the d entries beta_j - alpha_j are the zero cluster."""
    out = tmp_path / "out"
    cfg = write_config(tmp_path, f"model.family = {family}\nmodel.qubits_per_mode = {n}\noutput.dir = {out}\n")
    assert main(["spectrum", "-c", str(cfg)]) == 0
    vals, _ = spectrum(ModelSpec(Family(family), n))
    assert _summary_value(out, "nearest_zero_eigenvalue") == 0.0
    assert _summary_value(out, "zero_cluster") == np.count_nonzero(vals == 0.0) == 2**n


def test_spectrum_summary_zero_cluster_two_mode_only(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, BASE_SPECTRUM.format(out=out))
    assert main(["spectrum", "-c", str(cfg)]) == 0
    assert "zero_cluster" not in (out / "summary.txt").read_text()
    assert main(["spectrum", "-c", str(cfg), "--set=model.family=OpenPhi4", "--set=model.lambda_abs=0.2"]) == 0
    vals, _ = spectrum(ModelSpec(Family.OPEN_PHI4, 3, lambda_abs=0.2))
    near = _summary_value(out, "nearest_zero_eigenvalue")
    assert _summary_value(out, "zero_cluster") == np.count_nonzero(vals == near) >= 1


def parent_write_csv(path, header, rows):
    """The row-loop CSV writer the column writer replaced; the byte reference."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) + "\n")


def write_grid(path, grid, rows=None):
    """`_write_density` of a whole WavefunctionGrid, its density's rows given in blocks of `rows`."""
    density = grid.density.reshape(-1, len(grid.axes[-1]))
    rows = rows or len(density)
    _write_density(path, grid.axes, (density[i : i + rows] for i in range(0, len(density), rows)))


def parent_density_rows(grid_result):
    """The per-point density rows of the row-loop writer; the byte reference."""
    if len(grid_result.axes) == 1:
        (xs,) = grid_result.axes
        return [(float(x), float(d)) for x, d in zip(xs, grid_result.density)]
    xa, xc = grid_result.axes
    return [
        (float(xa[i]), float(xc[j]), float(grid_result.density[i, j]))
        for i in range(len(xa))
        for j in range(len(xc))
    ]


# values whose %.17g text is easy to get wrong: non-finite, signed zero,
# subnormal, values that need all 17 significant digits, exact ties at the
# 17th digit (round half to even; the second scales by an inexact 10^23),
# the edges of fixed notation and of the 17-digit range, and the smallest
# magnitude the vectorised path prints
SPECIAL_VALUES = [
    np.nan,
    np.inf,
    -np.inf,
    -0.0,
    0.0,
    1e-300,
    5e-324,
    0.1 + 0.2,
    1 / 3,
    np.nextafter(1.0, 2.0),
    -1.7976931348623157e308,
    1125899906842624.25,
    3 / 2**24,
    1e16,
    np.nextafter(1e16, 0),
    np.nextafter(1e16, np.inf),
    1e17,
    np.nextafter(1e17, 0),
    np.nextafter(1e17, np.inf),
    9.9999999999999999e-5,
    1e-280,
]


def special_density(rng, shape):
    """Random float64 over many decades, every other entry one of SPECIAL_VALUES."""
    density = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    flat = density.reshape(-1)
    flat[::2] = np.resize(SPECIAL_VALUES, flat[::2].size)
    return density


def test_column_writer_matches_row_writer(tmp_path):
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    rng = np.random.default_rng(19)
    xs, ys = default_grid(4.0, 33), default_grid(3.0, 18)
    grids = [
        reconstruct_wavefunction(rng.normal(size=8), (xs,)),
        reconstruct_wavefunction(rng.normal(size=16) + 1j * rng.normal(size=16), (xs, ys)),
    ]
    for axes in [(xs, ys), (default_grid(1.0, 2), default_grid(8.0, 7)), (default_grid(0.1, 2),) * 2]:
        grids.append(WavefunctionGrid(axes, special_density(rng, tuple(map(len, axes)))))
    for axis in [xs, default_grid(8.0, 2), np.array([-0.0, 0.1 + 0.2])]:
        grids.append(WavefunctionGrid((axis,), special_density(rng, len(axis))))
    for grid in grids:
        header = "x,density" if len(grid.axes) == 1 else "x_a,x_chi,density"
        parent_write_csv(old, header, parent_density_rows(grid))
        for rows in (None, 1, 5):
            write_grid(new, grid, rows)
            assert new.read_bytes() == old.read_bytes()
    ints = [0, 1, -7, 2**40, 12]
    floats = [float("nan"), -0.0, 1e-300, 1 / 3, -np.inf]
    _write_csv(new, "index,value", np.array(ints), np.array(floats))
    parent_write_csv(old, "index,value", list(zip(ints, floats)))
    assert new.read_bytes() == old.read_bytes()
    _write_csv(new, "dim,energy,delta", np.array([], dtype=int), np.array([]), np.array([]))
    parent_write_csv(old, "dim,energy,delta", [])
    assert new.read_bytes() == old.read_bytes() == b"dim,energy,delta\n"


def test_csv_writer_matches_savetxt(tmp_path):
    """Byte for byte what one np.savetxt of the stacked columns writes, across block boundaries."""
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"

    def savetxt(header, *columns):
        fmt = []
        for c in map(np.asarray, columns):
            fmt += ["%d" if c.dtype.kind in "iu" else "%.17g"] * (c.shape[1] if c.ndim == 2 else 1)
        np.savetxt(old, np.column_stack(columns), fmt=fmt, delimiter=",", header=header, comments="")

    rng = np.random.default_rng(23)
    floats = special_density(rng, 9000)
    cases = [
        ("index,value", np.arange(9000), floats),
        ("shots,stddev", (2**40, 7, 3, 2**52), (0.5, -0.0, 1e-300, np.inf)),
        ("a,b,c", rng.integers(-9, 9, 4097), floats[:4097], floats[1:4098]),
    ]
    vals, _ = spectrum(ModelSpec(Family.CLOSED_PHI4, 8, lambda_abs=0.1))
    cases.append(("index,eigenvalue", np.arange(len(vals)), np.sort(vals)))
    cases.append(("bits", rng.integers(0, 2**64, 10**5, dtype=np.uint64).view(np.float64)))
    # %d of integers past 2^53, stacked with floats and alone
    big = np.array([2**53, 2**53 + 1, 2**60, -(2**62), 10**17, 12])
    cases += [("shots,stddev", big, floats[:6]), ("a,b", big, big[::-1])]
    # rows wider than CSV_BLOCK_CELLS, one `_cell_words` call each
    cases.append(("wide", np.arange(5), floats[:6000].reshape(5, 1200), rng.normal(size=(5, 3000))))
    assert len(vals) == 65536
    for header, *columns in cases:
        _write_csv(new, header, *columns)
        savetxt(header, *columns)
        assert new.read_bytes() == old.read_bytes()


def savetxt_density(path, grid):
    """np.savetxt of one (axis values..., density) line per grid point, the first axis slowest."""
    header = "x,density" if len(grid.axes) == 1 else "x_a,x_chi,density"
    points = np.meshgrid(*grid.axes, indexing="ij")
    columns = [axis.ravel() for axis in points] + [grid.density.ravel()]
    np.savetxt(path, np.column_stack(columns), fmt="%.17g", delimiter=",", header=header, comments="")


@pytest.mark.parametrize("points", [2, 3, 7, 321, 343])
def test_streamed_density_matches_savetxt_of_reconstruction(tmp_path, points):
    """The CLI's streamed density CSV is np.savetxt of reconstruct_wavefunction's density, byte
    for byte, at grid sizes whose row count the block height does and does not divide."""
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    rng = np.random.default_rng(points)
    xs = default_grid(8.0, points)
    for axes, size in [((xs,), 8), ((xs, default_grid(6.0, points + 1)), 64), ((xs, xs), 4)]:
        for coeffs in (rng.normal(size=size), rng.normal(size=size) + 1j * rng.normal(size=size)):
            _write_density(new, axes, _density_blocks(coeffs, axes, 0.7))
            savetxt_density(old, reconstruct_wavefunction(coeffs, axes, 0.7))
            assert new.read_bytes() == old.read_bytes()


def test_density_writer_memory_stays_at_one_row(tmp_path):
    """A two-mode density is computed and written from its coefficients without a grid-sized
    array or a whole-file string: the traced peak covers psi, |psi|^2 and their text.  A
    one-mode density is one grid-sized row, formed before the trace, and its text is
    streamed in blocks (staged whole, 10^5 points peaked at 22 MB)."""
    coeffs = np.random.default_rng(5).normal(size=64) + 1j * np.random.default_rng(6).normal(size=64)
    for points in (321, 1281):
        xs = default_grid(8.0, points)
        tracemalloc.start()
        try:
            _write_density(tmp_path / "density.csv", (xs, xs), _density_blocks(coeffs, (xs, xs)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6, points
    xs = default_grid(8.0, 10**5)
    blocks = _density_blocks(coeffs[:8], (xs,))
    assert traced_peak(lambda: _write_density(tmp_path / "density.csv", (xs,), blocks)) < 1e6


def traced_peak(fn) -> int:
    """The tracemalloc peak, in bytes, of calling fn."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def big_int_float_tables():
    """The kernel's float tables built from lists of big-int powers, their ratios and floats;
    the reference the in-place build must equal."""
    powers = [(10**k, 1) if k >= 0 else (1, 10**-k) for k in range(16 - cli._EXP_SPAN, 17 + cli._EXP_SPAN)]
    hi = [num / den for num, den in powers]
    ratios = [h.as_integer_ratio() for h in hi]
    lo = [(num * d - n * den) / (den * d) for (num, den), (n, d) in zip(powers, ratios)]
    hi = np.array(hi)
    big = hi * cli._SPLIT - (hi * cli._SPLIT - hi)
    return {"hi": hi, "hi_big": big, "hi_small": hi - big, "lo": np.array(lo)}


def test_text_tables_equal_the_big_int_build():
    tables = cli._text_tables()
    for name, reference in big_int_float_tables().items():
        assert tables[name].dtype == np.float64 and tables[name].tobytes() == reference.tobytes(), name


def test_text_tables_build_in_place():
    """A cold build fills the float tables one power at a time: its traced peak stays under
    380 kB (the big-int lists peaked at 440-500 kB)."""
    cli._text_tables.cache_clear()
    assert traced_peak(cli._text_tables) < 380e3


def test_cell_words_forms_its_products_in_one_scratch():
    """One call over CSV_BLOCK_CELLS cells of mixed exponents peaks under 330 kB traced (a
    fresh array per partial product peaked at about 420 kB)."""
    rng = np.random.default_rng(3)
    cells = rng.normal(size=cli.CSV_BLOCK_CELLS) * 10.0 ** rng.integers(-300, 300, cli.CSV_BLOCK_CELLS)
    cli._text_tables()
    assert traced_peak(lambda: cli._cell_words(cells, ord(","))) < 330e3


def test_density_writer_stages_one_line_row(tmp_path):
    """A 321 x 321 density is written under 550 kB traced: its lines are staged one row at a
    time (a block of rows and its whole-block bytes peaked at about 720 kB)."""
    coeffs = np.random.default_rng(5).normal(size=64) + 1j * np.random.default_rng(6).normal(size=64)
    xs = default_grid(8.0, 321)
    cli._text_tables()
    peak = traced_peak(lambda: _write_density(tmp_path / "density.csv", (xs, xs), _density_blocks(coeffs, (xs, xs))))
    assert peak < 550e3


def test_vqe_command_outputs_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cfg1 = write_config(tmp_path, FAST_VQE.format(out=out1), "a.cfg")
    cfg2 = write_config(tmp_path, FAST_VQE.format(out=out2), "b.cfg")
    assert main(["vqe", "-c", str(cfg1)]) == 0
    assert main(["vqe", "-c", str(cfg2)]) == 0
    for name in ["trajectory.csv", "probabilities.csv", "vqe_density.csv", "exact_density.csv"]:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    rerun = tmp_path / "a"
    assert main(["vqe", "-c", str(cfg1)]) == 0
    assert (rerun / "trajectory.csv").exists()


def test_vqe_two_mode_writes_two_axis_densities(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        "model.family = ClosedFree\nmodel.qubits_per_mode = 1\nansatz.depth = 1\n"
        "spsa.iterations = 5\nspsa.calibration_samples = 2\nrun.repetitions = 3\n"
        f"grid.points = 21\noutput.dir = {out}\n",
    )
    assert main(["vqe", "-c", str(cfg)]) == 0
    for name in ["vqe_density.csv", "exact_density.csv"]:
        lines = (out / name).read_text().splitlines()
        assert lines[0] == "x_a,x_chi,density"
        assert len(lines) == 1 + 21 * 21
    assert not (out / "density_2d.csv").exists()
    assert "objective = energy" in (out / "result.txt").read_text()


def test_constraint_rejects_one_mode(tmp_path):
    cfg = write_config(
        tmp_path, f"model.family = DoubleWell\noutput.dir = {tmp_path}/o\n"
    )
    assert main(["constraint", "-c", str(cfg)]) == 2


def test_constraint_command_runs(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        "model.family = ClosedFree\nmodel.qubits_per_mode = 1\nansatz.depth = 1\n"
        "spsa.iterations = 10\nspsa.calibration_samples = 2\nrun.repetitions = 3\n"
        f"grid.points = 41\noutput.dir = {out}\n",
    )
    assert main(["constraint", "-c", str(cfg)]) == 0
    result = (out / "result.txt").read_text()
    assert "h2_mean" in result
    assert (out / "density_2d.csv").exists()
    assert (out / "reference_density.csv").exists()


def test_reference_density_is_product_gaussian(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        "model.family = ClosedFree\nmodel.qubits_per_mode = 1\nansatz.depth = 1\n"
        "spsa.iterations = 5\nspsa.calibration_samples = 2\nrun.repetitions = 3\n"
        f"grid.extent = 4\ngrid.points = 33\noutput.dir = {out}\n",
    )
    assert main(["constraint", "-c", str(cfg)]) == 0
    rows = np.loadtxt(out / "reference_density.csv", delimiter=",", skiprows=1)
    expected = np.exp(-rows[:, 0] ** 2 - rows[:, 1] ** 2) / np.pi
    assert np.max(np.abs(rows[:, 2] - expected)) < 1e-6


def test_cli_config_error_exit_code(tmp_path):
    cfg = write_config(tmp_path, "model.family = HarmonicOsc\nmodel.bogus = 1\n")
    assert main(["spectrum", "-c", str(cfg)]) == 2


def test_cli_unknown_family_exit_code(tmp_path):
    cfg = write_config(tmp_path, f"model.family = Nope\noutput.dir = {tmp_path}/o\n")
    assert main(["spectrum", "-c", str(cfg)]) == 2


BAD_VALUES = [
    ("vqe", ["run.shots=0"], "run.shots"),
    ("vqe", ["run.repetitions=1"], "run.repetitions"),
    ("noise-scan", ["noise.repetitions=1"], "noise.repetitions"),
    ("spectrum", ["model.qubits_per_mode=0"], "model.qubits_per_mode"),
    ("spectrum", ["model.omega=0"], "model.omega"),
    ("vqe", ["grid.points=1"], "grid.points"),
    ("vqe", ["run.seed=abc"], "run.seed"),
    ("spectrum", ["model.family=ClosedFree", "model.lambda_abs=0.1"], "model.lambda_abs"),
    ("spectrum", ["model.family=ClosedFree", "model.quartic_c=0.1"], "model.quartic_c"),
    ("spectrum", ["model.quartic_c=0.1"], "model.quartic_c"),
    ("spectrum", ["model.family=DoubleWell", "model.lambda_abs=0.1"], "model.lambda_abs"),
    ("vqe", ["spsa.iterations=0"], "spsa.iterations"),
    ("vqe", ["spsa.c=0"], "spsa.c"),
    ("vqe", ["spsa.alpha=2"], "spsa.alpha"),
    ("vqe", ["spsa.restarts=0"], "spsa.restarts"),
    ("vqe", ["spsa.refinements=0:0.04:1000"], "spsa.refinements"),
    ("vqe", ["ansatz.depth=-1"], "ansatz.depth"),
    ("noise-scan", ["noise.shots_grid=0,256,512,1024"], "noise.shots_grid"),
    ("noise-scan", ["noise.shots_grid=256,512"], "noise.shots_grid"),
    ("spectrum", ["spectrum.scan_dims=3,8"], "spectrum.scan_dims"),
    ("constraint", [], "model.family"),
    ("vqe", ["spsa.c=nan"], "spsa.c"),
    ("vqe", ["spsa.a=-1"], "spsa.a"),
    ("vqe", ["spsa.stability=-5"], "spsa.stability"),
    ("vqe", ["spsa.calibration_samples=0"], "spsa.calibration_samples"),
    ("vqe", ["grid.extent=0"], "grid.extent"),
    ("vqe", ["grid.extent=-3"], "grid.extent"),
    ("vqe", ["grid.extent=nan"], "grid.extent"),
    ("vqe", ["grid.extent=inf"], "grid.extent"),
    ("spectrum", ["model.omega=nan"], "model.omega"),
    ("spectrum", ["model.omega=inf"], "model.omega"),
    ("spectrum", ["model.family=DoubleWell", "model.quartic_c=nan"], "model.quartic_c"),
    ("spectrum", ["model.family=DoubleWell", "model.quartic_c=inf"], "model.quartic_c"),
    ("spectrum", ["model.family=ClosedPhi4", "model.lambda_abs=nan"], "model.lambda_abs"),
    ("vqe", ["run.seed=-1"], "run.seed"),
    ("vqe", ["run.seed=1.5"], "run.seed"),
    # refused on any machine; unguarded, each fails its first allocation at once
    (
        "spectrum",
        ["model.family=ClosedFree", "model.qubits_per_mode=20"],
        "model.qubits_per_mode",
    ),
    ("vqe", ["grid.points=1000000000000"], "grid.points"),
    ("vqe", ["run.shots=99999999999999999999"], "run.shots"),
    ("vqe", ["spsa.refinements=1:0.1:99999999999999999999"], "spsa.refinements"),
    (
        "noise-scan",
        ["noise.shots_grid=256,512,1024,99999999999999999999"],
        "noise.shots_grid",
    ),
    ("spectrum", ["spectrum.scan_dims=4,1048576"], "spectrum.scan_dims"),
    (
        "spectrum",
        ["model.family=ClosedFree", "model.qubits_per_mode=1", "spectrum.scan_dims=4,1048576"],
        "spectrum.scan_dims",
    ),
    ("vqe", ["spsa.c=inf"], "spsa.c"),
    ("vqe", ["spsa.a=inf"], "spsa.a"),
    ("vqe", ["spsa.stability=inf"], "spsa.stability"),
    ("vqe", ["spsa.refinements=5:inf:100"], "spsa.refinements"),
    ("vqe", ["ansatz.depth=1000000000000"], "ansatz.depth"),
    ("noise-scan", ["ansatz.depth=1000000000000"], "ansatz.depth"),
    ("vqe", ["ansatz.depth=1000000000000", "spsa.iterations=10000000000000"], "spsa.iterations"),
    (
        "constraint",
        ["model.family=ClosedFree", "ansatz.depth=1000000000000", "spsa.refinements=10000000000000:0.1:64"],
        "spsa.refinements",
    ),
    ("spectrum", ["spectrum.scan_dims=8,4"], "spectrum.scan_dims"),
    ("spectrum", ["spectrum.scan_dims=4,4"], "spectrum.scan_dims"),
    ("spectrum", ["model.family=Nope"], "model.family"),
    # a mode term's entries would overflow (DoubleWell at 3 qubits)
    ("spectrum", ["model.family=DoubleWell", "model.qubits_per_mode=3", "model.omega=1e-160"], "model.omega"),
    ("vqe", ["model.family=DoubleWell", "model.qubits_per_mode=3", "model.omega=1e-150"], "model.omega"),
    ("spectrum", ["model.family=DoubleWell", "model.qubits_per_mode=3", "model.omega=1e300"], "model.omega"),
    ("vqe", ["model.family=DoubleWell", "model.qubits_per_mode=3", "model.quartic_c=1e200"], "model.quartic_c"),
    ("vqe", ["run.repetitions=100000000000"], "run.repetitions"),
    ("noise-scan", ["noise.repetitions=100000000000"], "noise.repetitions"),
    # the estimate passes float max, so it is formatted without a float division
    ("spectrum", ["model.qubits_per_mode=600"], "model.qubits_per_mode"),
    ("vqe", ["model.qubits_per_mode=600"], "model.qubits_per_mode"),
]


@pytest.mark.parametrize(
    "command,overrides,key",
    BAD_VALUES,
    # the names these cases have always had: row, "None" (once the slot of an
    # environment seed) and key
    ids=[f"{command}-overrides{row}-None-{key}" for row, (command, _, key) in enumerate(BAD_VALUES)],
)
def test_bad_value_exits_2_naming_key(tmp_path, capsys, command, overrides, key):
    cfg = write_config(tmp_path, FAST_VQE.format(out=tmp_path / "out"))
    args = ["--set=" + item for item in overrides]
    assert main([command, "-c", str(cfg), *args]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # a rejected config writes nothing


def test_memory_guard_counts_one_density_block_not_the_grid():
    """A density is held one block at a time, so the guard counts the Hermite tables and one
    block: a two-mode run at 12,001 points (1.07 GiB as a grid) passes it."""
    cfg = resolve([(1, "model.family", "ClosedPhi4"), (2, "grid.points", "12001"), (3, "output.dir", "unused")])
    _check_memory("constraint", cfg)


def test_memory_guard_counts_the_plans_not_dense_matrices(tmp_path, capsys, monkeypatch):
    """Under a 1 GiB bound the shot commands on ClosedPhi4 at 7 qubits per mode pass, counted
    by their plans and readout rather than as 16384 x 16384 matrices; at 10 the plan alone
    exceeds the bound, and the run exits 2 naming the key before writing anything."""
    monkeypatch.setattr(cli, "MEMORY_BOUND", 2**30)
    admitted = resolve([(1, "model.family", "ClosedPhi4"), (2, "model.qubits_per_mode", "7"), (3, "output.dir", "unused")])
    refused = write_config(tmp_path, f"model.family = ClosedPhi4\nmodel.qubits_per_mode = 10\noutput.dir = {tmp_path / 'out'}\n")
    for command in ("vqe", "constraint", "noise-scan"):
        _check_memory(command, admitted)
        assert main([command, "-c", str(refused)]) == 2
        assert "model.qubits_per_mode" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_no_shot_command_builds_a_dense_model(tmp_path, monkeypatch):
    """vqe, constraint and noise-scan plan from the mode terms' bands: with build_model
    raising at every alias in mssq, each exits 0."""
    dense = (oscillator.build_model,)

    def refuse(*args, **kwargs):
        raise AssertionError("a shot command formed a dense model")

    for name, module in list(sys.modules.items()):
        if name == "mssq" or name.startswith("mssq."):
            for attr, value in list(vars(module).items()):
                if any(value is fn for fn in dense):
                    monkeypatch.setattr(module, attr, refuse)
    cfg = write_config(
        tmp_path,
        "model.qubits_per_mode = 2\nansatz.depth = 1\nspsa.iterations = 2\nspsa.calibration_samples = 1\n"
        "run.shots = 64\nrun.repetitions = 2\ngrid.points = 11\nnoise.shots_grid = 64,128,256,512\n"
        "noise.repetitions = 3\noutput.dir = unused\n",
    )
    runs = (("vqe", "DoubleWell"), ("vqe", "ClosedPhi4"), ("constraint", "ClosedPhi4"), ("noise-scan", "ClosedPhi4"))
    for command, family in runs:
        overrides = ["--set", f"model.family={family}", "--set", f"output.dir={tmp_path / command / family}"]
        assert main([command, "-c", str(cfg), *overrides]) == 0, (command, family)


def test_cli_set_override(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, BASE_SPECTRUM.format(out=tmp_path / "ignored"))
    assert main(["spectrum", "-c", str(cfg), "--set", f"output.dir={out}"]) == 0
    assert (out / "summary.txt").exists()


@pytest.mark.parametrize(
    "extra,overrides,places",
    [
        ("run.shots = 64\nrun.shots = 128\n", [], ("run.cfg:11", "run.cfg:12")),
        ("", ["run.shots=64", "run.shots=128"], ("--set run.shots=64", "--set run.shots=128")),
    ],
)
def test_key_set_twice_exits_2_naming_both_places(tmp_path, capsys, extra, overrides, places):
    cfg = write_config(tmp_path, FAST_VQE.format(out=tmp_path / "out") + extra)
    args = ["--set=" + item for item in overrides]
    assert main(["vqe", "-c", str(cfg), *args]) == 2
    err = capsys.readouterr().err
    assert "run.shots" in err and all(place in err for place in places)
    assert not (tmp_path / "out").exists()  # a rejected config writes nothing


def test_set_seed_override(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cfg = write_config(tmp_path, FAST_VQE.format(out=out1))
    assert main(["vqe", "-c", str(cfg)]) == 0
    assert main(["vqe", "-c", str(cfg), "--set", "run.seed=99", "--set", f"output.dir={out2}"]) == 0
    assert (out1 / "trajectory.csv").read_bytes() != (out2 / "trajectory.csv").read_bytes()
    assert "run.seed = 99\n" in (out2 / "config.txt").read_text()


TINY_ANY = """
ansatz.depth = 1
spsa.iterations = 3
spsa.calibration_samples = 1
spsa.refinements = 2:0.05:128
run.shots = 64
run.repetitions = 2
grid.points = 11
noise.shots_grid = 64,128,256,512
noise.repetitions = 3
spectrum.scan_dims = 2,4
output.dir = {out}
"""


@pytest.mark.parametrize(
    "command,family,override",
    [
        ("spectrum", "DoubleWell", "model.omega=1.3"),
        ("vqe", "DoubleWell", "spsa.c=0.17"),
        ("constraint", "ClosedPhi4", "model.lambda_abs=0.3"),
        ("noise-scan", "AnharmonicOsc", "noise.repetitions=4"),
    ],
)
def test_rerun_from_config_txt_reproduces_every_csv(tmp_path, command, family, override):
    first, second = tmp_path / "first", tmp_path / "second"
    cfg = write_config(tmp_path, f"model.family = {family}\n" + TINY_ANY.format(out=first))
    assert main([command, "-c", str(cfg), "--set", "run.seed=7", "--set", override]) == 0
    assert main([command, "-c", str(first / "config.txt"), "--set", f"output.dir={second}"]) == 0
    names = sorted(path.name for path in first.glob("*.csv"))
    assert names and names == sorted(path.name for path in second.glob("*.csv"))
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_noise_scan_small(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        "model.family = AnharmonicOsc\nmodel.qubits_per_mode = 2\nansatz.depth = 1\n"
        "noise.shots_grid = 256,512,1024,2048\nnoise.repetitions = 30\n"
        f"output.dir = {out}\n",
    )
    assert main(["noise-scan", "-c", str(cfg)]) == 0
    report = (out / "noise_report.txt").read_text()
    beta = float(report.split("fit_exponent = ")[1].split()[0])
    assert 0.3 < beta < 0.7  # coarse grid; the tight bound is in acceptance
    assert (out / "noise.csv").exists()


def test_noise_scan_requires_four_points(tmp_path):
    cfg = write_config(
        tmp_path,
        "model.family = AnharmonicOsc\nnoise.shots_grid = 256,512\n"
        f"output.dir = {tmp_path}/o\n",
    )
    assert main(["noise-scan", "-c", str(cfg)]) == 2


def test_noise_scan_coefficient_linearity():
    # doubling every observable entry doubles the fitted amplitude
    from mssq.circuits import AnsatzShape, Circuit
    from mssq.oscillator import Family, ModelSpec, build_model
    from mssq.vqe import estimate_error

    h = build_model(ModelSpec(Family.ANHARMONIC_OSC, 2))
    plan, doubled = measurement_plan(h), measurement_plan(2 * h)
    shape = AnsatzShape(2, 1)
    params = np.random.default_rng(0).uniform(-np.pi, np.pi, shape.parameter_count)
    circuit = Circuit(shape, params)
    grid = [256, 512, 1024, 2048, 4096]

    def fit(observable):
        stds = [
            estimate_error(circuit, observable, shots, 200, seed=7 * shots)[1]
            for shots in grid
        ]
        slope, intercept = np.polyfit(np.log(grid), np.log(stds), 1)
        return np.exp(intercept), -slope

    a1, beta1 = fit(plan)
    a2, beta2 = fit(doubled)
    assert a2 / a1 == pytest.approx(2.0, rel=0.1)
    assert beta2 == pytest.approx(beta1, abs=0.02)


COMMAND_IMPORTS = """
import sys
from mssq.cli import main

for command, family in (("vqe", "DoubleWell"), ("constraint", "ClosedPhi4"), ("noise-scan", "DoubleWell"),
                        ("spectrum", "DoubleWell")):
    overrides = ["--set", f"model.family = {family}", "--set", f"output.dir = {sys.argv[2]}/{command}"]
    assert main([command, "-c", sys.argv[1], *overrides]) == 0, command
print(sys.argv[3] in sys.modules)
"""


def _commands_import(tmp_path, module: str) -> str:
    """"True" if running all four commands in a fresh interpreter imports `module`, else "False"."""
    cfg = write_config(
        tmp_path,
        "model.qubits_per_mode = 1\nansatz.depth = 1\nspsa.iterations = 2\nspsa.calibration_samples = 1\n"
        "spsa.restarts = 2\nspsa.refinements = 2:0.05:128\nrun.shots = 64\nrun.repetitions = 2\n"
        "grid.points = 11\nnoise.shots_grid = 64,128,256,512\nnoise.repetitions = 3\n"
        "spectrum.scan_dims = 2\noutput.dir = unused\n",
    )
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", COMMAND_IMPORTS, str(cfg), str(tmp_path), module],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_no_command_imports_numpy_ma(tmp_path):
    """np.unique without return_index imports numpy.ma, which lifts a run's peak RSS by about
    1 MB; no command may reach it, checked in a fresh interpreter."""
    assert _commands_import(tmp_path, "numpy.ma") == "False"


def test_no_command_imports_pauli(tmp_path):
    """mssq.pauli is the reference decomposition that tests and the acceptance gate check the
    measurement plan against; no command loads it."""
    assert _commands_import(tmp_path, "mssq.pauli") == "False"
