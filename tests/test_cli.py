import tracemalloc

import numpy as np
import pytest

from mssq.cli import _write_csv, _write_density, main, noise_scan
from mssq.config import ConfigError, parse_config, resolve
from mssq.oscillator import Family, ModelSpec, build_model, mode_terms
from mssq.spectrum import (
    WavefunctionGrid,
    default_grid,
    eigendecompose,
    ground_or_nearest_zero,
    reconstruct_wavefunction,
    spectrum,
)


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
    assert f"spsa.refinements = {refinements}\n" in cfg.echo_text()
    echoed = write_config(tmp_path, cfg.echo_text(), "echo.cfg")
    assert parse_config(echoed).values == cfg.values


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
    ((_, blocks),) = mode_terms(spec)
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
# subnormal, and values that need all 17 significant digits
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
        grids.append(WavefunctionGrid(axes, special_density(rng, tuple(map(len, axes))), 1.0))
    for axis in [xs, default_grid(8.0, 2), np.array([-0.0, 0.1 + 0.2])]:
        grids.append(WavefunctionGrid((axis,), special_density(rng, len(axis)), 1.0))
    for grid in grids:
        header = "x,density" if len(grid.axes) == 1 else "x_a,x_chi,density"
        _write_density(new, grid)
        parent_write_csv(old, header, parent_density_rows(grid))
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
        fmt = ["%d" if np.asarray(c).dtype.kind in "iu" else "%.17g" for c in columns]
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
    assert len(vals) == 65536
    for header, *columns in cases:
        _write_csv(new, header, *columns)
        savetxt(header, *columns)
        assert new.read_bytes() == old.read_bytes()


def test_density_writer_memory_stays_at_one_row(tmp_path):
    """A 321 x 321 density is written without a per-point array or a whole-file string."""
    xs = default_grid(8.0, 321)
    rng = np.random.default_rng(5)
    grid = reconstruct_wavefunction(rng.normal(size=64) + 1j * rng.normal(size=64), (xs, xs))
    tracemalloc.start()
    try:
        _write_density(tmp_path / "density.csv", grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6


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


@pytest.mark.parametrize(
    "command,overrides,env_seed,key",
    [
        ("vqe", ["run.shots=0"], None, "run.shots"),
        ("vqe", ["run.repetitions=1"], None, "run.repetitions"),
        ("noise-scan", ["noise.repetitions=1"], None, "noise.repetitions"),
        ("spectrum", ["model.qubits_per_mode=0"], None, "model.qubits_per_mode"),
        ("spectrum", ["model.omega=0"], None, "model.omega"),
        ("vqe", ["grid.points=1"], None, "grid.points"),
        ("vqe", [], "abc", "MSSQ_SEED"),
        ("spectrum", ["model.family=ClosedFree", "model.lambda_abs=0.1"], None, "model.lambda_abs"),
        ("spectrum", ["model.family=ClosedFree", "model.quartic_c=0.1"], None, "model.quartic_c"),
        ("spectrum", ["model.quartic_c=0.1"], None, "model.quartic_c"),
        ("spectrum", ["model.family=DoubleWell", "model.lambda_abs=0.1"], None, "model.lambda_abs"),
        ("vqe", ["spsa.iterations=0"], None, "spsa.iterations"),
        ("vqe", ["spsa.c=0"], None, "spsa.c"),
        ("vqe", ["spsa.alpha=2"], None, "spsa.alpha"),
        ("vqe", ["spsa.restarts=0"], None, "spsa.restarts"),
        ("vqe", ["spsa.refinements=0:0.04:1000"], None, "spsa.refinements"),
        ("vqe", ["ansatz.depth=-1"], None, "ansatz.depth"),
        ("noise-scan", ["noise.shots_grid=0,256,512,1024"], None, "noise.shots_grid"),
        ("noise-scan", ["noise.shots_grid=256,512"], None, "noise.shots_grid"),
        ("spectrum", ["spectrum.scan_dims=3,8"], None, "spectrum.scan_dims"),
        ("constraint", [], None, "model.family"),
        ("vqe", ["spsa.c=nan"], None, "spsa.c"),
        ("vqe", ["spsa.a=-1"], None, "spsa.a"),
        ("vqe", ["spsa.stability=-5"], None, "spsa.stability"),
        ("vqe", ["spsa.calibration_samples=0"], None, "spsa.calibration_samples"),
        ("vqe", ["grid.extent=0"], None, "grid.extent"),
        ("vqe", ["grid.extent=-3"], None, "grid.extent"),
        ("vqe", ["grid.extent=nan"], None, "grid.extent"),
        ("vqe", ["grid.extent=inf"], None, "grid.extent"),
        ("spectrum", ["model.omega=nan"], None, "model.omega"),
        ("spectrum", ["model.omega=inf"], None, "model.omega"),
        ("spectrum", ["model.family=DoubleWell", "model.quartic_c=nan"], None, "model.quartic_c"),
        ("spectrum", ["model.family=DoubleWell", "model.quartic_c=inf"], None, "model.quartic_c"),
        ("spectrum", ["model.family=ClosedPhi4", "model.lambda_abs=nan"], None, "model.lambda_abs"),
        ("vqe", ["run.seed=-1"], None, "run.seed"),
        ("vqe", [], "-5", "MSSQ_SEED (run.seed)"),
        # refused on any machine; unguarded, each fails its first allocation at once
        (
            "spectrum",
            ["model.family=ClosedFree", "model.qubits_per_mode=20"],
            None,
            "model.qubits_per_mode",
        ),
        ("vqe", ["grid.points=1000000000000"], None, "grid.points"),
        ("vqe", ["run.shots=99999999999999999999"], None, "run.shots"),
        ("vqe", ["spsa.refinements=1:0.1:99999999999999999999"], None, "spsa.refinements"),
        (
            "noise-scan",
            ["noise.shots_grid=256,512,1024,99999999999999999999"],
            None,
            "noise.shots_grid",
        ),
        ("spectrum", ["spectrum.scan_dims=4,1048576"], None, "spectrum.scan_dims"),
        (
            "spectrum",
            ["model.family=ClosedFree", "model.qubits_per_mode=1", "spectrum.scan_dims=4,1048576"],
            None,
            "spectrum.scan_dims",
        ),
    ],
)
def test_bad_value_exits_2_naming_key(
    tmp_path, monkeypatch, capsys, command, overrides, env_seed, key
):
    cfg = write_config(tmp_path, FAST_VQE.format(out=tmp_path / "out"))
    if env_seed is None:
        monkeypatch.delenv("MSSQ_SEED", raising=False)
    else:
        monkeypatch.setenv("MSSQ_SEED", env_seed)
    args = ["--set=" + item for item in overrides]
    assert main([command, "-c", str(cfg), *args]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # a rejected config writes nothing


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


def test_env_seed_override(tmp_path, monkeypatch):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cfg1 = write_config(tmp_path, FAST_VQE.format(out=out1), "a.cfg")
    cfg2 = write_config(tmp_path, FAST_VQE.format(out=out2), "b.cfg")
    assert main(["vqe", "-c", str(cfg1)]) == 0
    monkeypatch.setenv("MSSQ_SEED", "99")
    assert main(["vqe", "-c", str(cfg2)]) == 0
    assert (out1 / "trajectory.csv").read_bytes() != (out2 / "trajectory.csv").read_bytes()


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
    # doubling every observable coefficient doubles the fitted amplitude
    from mssq.circuits import AnsatzShape, Circuit
    from mssq.oscillator import Family, ModelSpec, build_model
    from mssq.pauli import PauliSum, decompose
    from mssq.vqe import estimate_error

    psum = decompose(build_model(ModelSpec(Family.ANHARMONIC_OSC, 2)))
    doubled = PauliSum(2, tuple((2 * c, s) for c, s in psum.terms))
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

    a1, beta1 = fit(psum)
    a2, beta2 = fit(doubled)
    assert a2 / a1 == pytest.approx(2.0, rel=0.1)
    assert beta2 == pytest.approx(beta1, abs=0.02)
