"""Command-line harness: spectrum | vqe | constraint | noise-scan.

Every command reads one config file, echoes the fully-resolved config into the
output directory, and writes plot-ready CSV.  All randomness flows from the
single run.seed (overridable via MSSQ_SEED), so a rerun with the same config
reproduces every output byte for byte.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import spectrum as spec_mod
from .circuits import AnsatzShape, Circuit, run
from .config import ConfigError, ExperimentConfig, parse_config
from .oscillator import Family, ModelSpec, ONE_MODE_FAMILIES, build_model
from .pauli import decompose
from .vqe import SpsaConfig, estimate_error, vqe_run


# an eighth of physical memory: temporaries lift a run's peak RSS to at most
# 3.4x its counted arrays, above ~30 MiB for Python and numpy; the top is a
# two-mode density grid (3.1-3.4x), where reconstruct_wavefunction holds psi
# (complex) and |psi| at once
MEMORY_BOUND = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 8
# dim x dim float64 matrices each other command holds at once.  Building the
# observables holds the model, H^2 for constraint, and two real arrays while
# pauli.decompose runs (the check's difference and its abs, then one per-axis
# step's input and output).  Shot readout then holds a (states, groups, dim)
# complex block, two states for an SPSA pair, and up to three such blocks
# while one basis-change step runs (its input, gemm result and reordered
# copy).  That sets the peak above the import floor: 11-14 matrices for vqe
# and 5.6-9.4 for noise-scan on DoubleWell at 10-12 qubits, 8.7-11.3 for
# constraint on ClosedPhi4 at 5-6 qubits per mode, 3.6 for vqe and
# noise-scan on ClosedPhi4 at 6 (47 groups): 0.7-2.8x these counts.  One
# matrix fewer for noise-scan or constraint would put them above that, at
# 3.1x and 2.84x
MATRICES_HELD = {"vqe": 5, "constraint": 5, "noise-scan": 4}
# u3 stacks counted for each other command under ansatz.depth: `run` builds
# the u3 gates of every layer as one (states, depth + 1, n, 2, 2) complex
# stack, two states for an SPSA pair and one for noise-scan, beside the
# angles, their sines, cosines and phases.  Peaks above the import floor at
# depth 2-6 x 10^4 with one SPSA iteration measured 13.0-13.3 stacks for vqe
# and constraint, where writing trajectory.csv makes Python objects per
# parameter column, and 5.0-5.3 for noise-scan: 1.3-3.3x this count
U3_STACKS = 4
# spectrum builds and solves d x d mode terms as (d/2) x (d/2) parity blocks
# and allocates nothing larger.  It counts SCAN_MATRICES d x d float64
# matrices for building one dim's terms (the parity slices of x and q, the
# even powers, the terms' blocks) and solving them (the blocks' eigenvectors,
# LAPACK workspace, the residual), and SPECTRUM_VECTORS dim-long vectors (the
# flat and sorted eigenvalues, the CSV columns, the nearest-zero sort keys).
# Peaks above the import floor measured 0.35-0.9x this count: DoubleWell at
# 10-11 qubits, ClosedPhi4 at 8-10 qubits per mode.  The top is ClosedPhi4 at
# 8, where fixed costs outweigh the blocks; six matrices would put it at
# 0.94-0.97x, inside the half-MiB spread of the import floor
SCAN_MATRICES = 7
SPECTRUM_VECTORS = 6
# cells `_write_csv` formats per write (at least one row).  A block's text and
# Python floats must not lift a run's peak RSS over np.savetxt's: 4096-row
# blocks did, by 0.4-0.7 MB, for the 38-column trajectory.csv of a 3-qubit,
# depth-3 vqe run; 512 cells write 2^20 two-column rows about as fast
CSV_BLOCK_CELLS = 512


@dataclass(frozen=True)
class ShotNoiseReport:
    shots_grid: tuple[int, ...]
    stddevs: tuple[float, ...]
    fit_a: float
    fit_exponent: float
    residual: float


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _write_csv(path: Path, header: str, *columns) -> None:
    """A header line, then row i of the equal-length columns per line, the bytes np.savetxt writes.

    Integer columns (indices and counts, exact in float64) print with %d and
    all others as `_fmt` prints them, after the columns are stacked to one
    dtype as savetxt stacks them.  Streamed in blocks of about CSV_BLOCK_CELLS
    cells, each block formatted by one %-string.
    """
    columns = [np.asarray(c) for c in columns]
    row = ",".join("%d" if c.dtype.kind in "iu" else "%.17g" for c in columns) + "\n"
    rows = max(1, CSV_BLOCK_CELLS // len(columns))
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for start in range(0, len(columns[0]), rows):
            block = np.column_stack([c[start : start + rows] for c in columns])
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


def _from_section(section: str, build, **fields):
    """build(**fields), a ValueError re-raised as a config error on `section.<field>`.

    ModelSpec and SpsaConfig start each ValueError with the bad field's name,
    which is its key within the section.
    """
    try:
        return build(**fields)
    except ValueError as exc:
        raise ConfigError(f"{section}.{exc}") from exc


def _model_spec(cfg: ExperimentConfig) -> ModelSpec:
    try:
        family = Family(cfg["model.family"])
    except ValueError as exc:
        raise ConfigError(f"unknown model.family {cfg['model.family']!r}") from exc
    fields = ("qubits_per_mode", "lambda_abs", "quartic_c", "omega")
    return _from_section("model", ModelSpec, family=family, **{f: cfg[f"model.{f}"] for f in fields})


def _spsa_config(cfg: ExperimentConfig, seed: int) -> SpsaConfig:
    fields = ("iterations", "a", "c", "stability", "alpha", "gamma", "calibration_samples")
    return _from_section("spsa", SpsaConfig, seed=seed, **{f: cfg[f"spsa.{f}"] for f in fields})


def _prepare_outdir(cfg: ExperimentConfig) -> Path:
    outdir = Path(cfg["output.dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "config.txt").write_text(cfg.echo_text())
    return outdir


def _seed(cfg: ExperimentConfig) -> int:
    env = os.environ.get("MSSQ_SEED")
    if not env:
        return cfg["run.seed"]
    try:
        seed = int(env)
    except ValueError as exc:
        raise ConfigError(f"MSSQ_SEED (run.seed) must be an integer, got {env!r}") from exc
    if seed < 0:
        raise ConfigError(f"MSSQ_SEED (run.seed) must be at least 0, got {seed}")
    return seed


def _check_memory(command: str, cfg: ExperimentConfig) -> None:
    """Refuse, naming the key, a run whose largest arrays alone exceed MEMORY_BOUND.

    Counted at 8 B per float: for spectrum, SCAN_MATRICES d x d matrices at the
    larger of mode_dim and the largest scan dim d, plus SPECTRUM_VECTORS
    dim-long vectors; for the other commands, their dim x dim matrices; and,
    for the density-writing commands, the Hermite tables (mode_dim x
    grid.points per mode) and the density grid (grid.points^n_modes); and, at
    16 B per complex, U3_STACKS u3 stacks for the ansatz.  The largest count
    names the key.
    """
    model = _model_spec(cfg)
    if command == "spectrum":
        scan_dim = max(cfg["spectrum.scan_dims"])
        counted = {"model.qubits_per_mode": 8 * SPECTRUM_VECTORS * model.dim, "spectrum.scan_dims": 0}
        key = "spectrum.scan_dims" if scan_dim > model.mode_dim else "model.qubits_per_mode"
        counted[key] += 8 * SCAN_MATRICES * max(scan_dim, model.mode_dim) ** 2
    else:
        counted = {"model.qubits_per_mode": 8 * MATRICES_HELD[command] * model.dim**2}
        states = 1 if command == "noise-scan" else 2
        layers = cfg["ansatz.depth"] + 1
        counted["ansatz.depth"] = 16 * U3_STACKS * states * layers * model.total_qubits * 4
    if command in ("vqe", "constraint"):
        points = cfg["grid.points"]
        tables = model.n_modes * model.mode_dim * points
        counted["grid.points"] = 8 * (tables + points**model.n_modes)
    total = sum(counted.values())
    if total > MEMORY_BOUND:
        key = max(counted, key=counted.get)
        raise ConfigError(
            f"{key} = {cfg[key]} needs an estimated {total / 2**30:.3g} GiB,"
            f" more than the {MEMORY_BOUND / 2**30:.3g} GiB bound (physical memory / 8)"
        )


def _grid(cfg: ExperimentConfig) -> np.ndarray:
    return spec_mod.default_grid(cfg["grid.extent"], cfg["grid.points"])


def _write_density(path: Path, grid_result: spec_mod.WavefunctionGrid) -> None:
    """One line per grid point, the first axis varying slowest, as `_write_csv` prints it.

    Streamed one outer-axis row of text at a time, each axis value formatted once.
    """
    *outer, inner = grid_result.axes
    header = "x,density" if not outer else "x_a,x_chi,density"
    cells = [_fmt(x) + ",%.17g\n" for x in inner.tolist()]
    prefixes = [_fmt(x) + "," for x in outer[0].tolist()] if outer else [""]
    rows = grid_result.density.reshape(len(prefixes), len(cells))
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for prefix, row in zip(prefixes, rows):
            fh.write((prefix + prefix.join(cells)) % tuple(row.tolist()))


def cmd_spectrum(cfg: ExperimentConfig) -> Path:
    model = _model_spec(cfg)
    outdir = _prepare_outdir(cfg)
    vals, solves = spec_mod.spectrum(model)
    ordered = np.sort(vals)
    nearest_zero = vals[spec_mod._target_index(vals, nearest_zero=True)]
    _write_csv(outdir / "spectrum.csv", "index,eigenvalue", np.arange(len(ordered)), ordered)
    scan = spec_mod.convergence_scan(model, cfg["spectrum.scan_dims"], own_vals=vals)
    scan = np.reshape(scan, (-1, 3))
    _write_csv(outdir / "convergence.csv", "dim,energy,delta", scan[:, 0].astype(int), *scan.T[1:])
    summary = (
        f"family = {model.family.value}\n"
        f"dim = {model.dim}\n"
        f"ground_energy = {_fmt(ordered[0])}\n"
        f"nearest_zero_eigenvalue = {_fmt(nearest_zero)}\n"
    )
    if model.n_modes == 2:
        summary += f"zero_cluster = {np.count_nonzero(vals == nearest_zero)}\n"
    summary += f"max_residual = {_fmt(max(solve.residual for solve in solves))}\n"
    (outdir / "summary.txt").write_text(summary)
    return outdir


def cmd_variational(cfg: ExperimentConfig, objective_kind: str) -> Path:
    """VQE on <H> ("energy") or on <H^2> ("constraint"), then the density CSVs.

    Energy mode pairs the optimized density with the exact ground (or
    nearest-zero) state; constraint mode pairs it with the |0>|0> reference.
    """
    model = _model_spec(cfg)
    constraint = objective_kind == "constraint"
    if constraint and model.family in ONE_MODE_FAMILIES:
        raise ConfigError(f"constraint needs a two-mode model.family, got {model.family.value}")
    spsa = _spsa_config(cfg, _seed(cfg))
    outdir = _prepare_outdir(cfg)
    shape = AnsatzShape(model.total_qubits, cfg["ansatz.depth"])
    result = vqe_run(
        model,
        shape,
        objective_kind=objective_kind,
        shots=cfg["run.shots"],
        spsa=spsa,
        repetitions=cfg["run.repetitions"],
        restarts=cfg["spsa.restarts"],
        refinements=cfg["spsa.refinements"],
    )
    params, objectives = zip(*result.trajectory)
    header = "iteration,objective," + ",".join(f"p{i}" for i in range(len(result.best_params)))
    columns = (np.arange(len(objectives)), objectives, *np.transpose(params))
    _write_csv(outdir / "trajectory.csv", header, *columns)
    state = run(result.circuit)
    indices = np.arange(len(state))
    _write_csv(outdir / "probabilities.csv", "basis_index,probability", indices, np.abs(state) ** 2)
    lines = [
        f"family = {model.family.value}",
        f"objective = {result.objective_kind}",
        f"seed = {result.seed}",
        f"energy = {_fmt(result.h_mean)}",
        f"stderr = {_fmt(result.h_stderr)}",
        f"h_mean = {_fmt(result.h_mean)}",
        f"h_stderr = {_fmt(result.h_stderr)}",
    ]
    if result.h2_mean is not None:
        lines.append(f"h2_mean = {_fmt(result.h2_mean)}")
        lines.append(f"h2_stderr = {_fmt(result.h2_stderr)}")
    lines.append("config:")
    lines.extend("  " + ln for ln in cfg.echo_text().splitlines())
    (outdir / "result.txt").write_text("\n".join(lines) + "\n")
    if constraint:
        names = ("density_2d.csv", "reference_density.csv")
        reference = np.zeros(model.dim)
        reference[0] = 1.0
    else:
        names = ("vqe_density.csv", "exact_density.csv")
        _, reference = spec_mod.ground_or_nearest_zero(model)
    axes = (_grid(cfg),) * model.n_modes
    for name, coeffs in zip(names, (state, reference)):
        _write_density(outdir / name, spec_mod.reconstruct_wavefunction(coeffs, axes, model.omega))
    return outdir


def noise_scan(cfg: ExperimentConfig) -> ShotNoiseReport:
    """Measure stddev-vs-shots for a fixed seeded circuit and fit A / x^beta."""
    grid = cfg["noise.shots_grid"]
    repetitions = cfg["noise.repetitions"]
    model = _model_spec(cfg)
    observable = decompose(build_model(model))
    shape = AnsatzShape(model.total_qubits, cfg["ansatz.depth"])
    root = np.random.SeedSequence(_seed(cfg))
    ss_params, ss_reps = root.spawn(2)
    params = np.random.default_rng(ss_params).uniform(-np.pi, np.pi, shape.parameter_count)
    circuit = Circuit(shape, params)
    stddevs = []
    for shots, child in zip(grid, ss_reps.spawn(len(grid))):
        _, std = estimate_error(circuit, observable, shots, repetitions, child)
        stddevs.append(std)
    log_x = np.log(np.asarray(grid, dtype=float))
    log_y = np.log(np.asarray(stddevs))
    slope, intercept = np.polyfit(log_x, log_y, 1)
    resid = np.sqrt(np.mean((log_y - (slope * log_x + intercept)) ** 2))
    return ShotNoiseReport(
        shots_grid=tuple(int(s) for s in grid),
        stddevs=tuple(float(s) for s in stddevs),
        fit_a=float(np.exp(intercept)),
        fit_exponent=float(-slope),
        residual=float(resid),
    )


def cmd_noise_scan(cfg: ExperimentConfig) -> Path:
    report = noise_scan(cfg)
    outdir = _prepare_outdir(cfg)
    _write_csv(outdir / "noise.csv", "shots,stddev", report.shots_grid, report.stddevs)
    (outdir / "noise_report.txt").write_text(
        f"fit_A = {_fmt(report.fit_a)}\n"
        f"fit_exponent = {_fmt(report.fit_exponent)}\n"
        f"loglog_rms_residual = {_fmt(report.residual)}\n"
    )
    return outdir


COMMANDS = {
    "spectrum": cmd_spectrum,
    "vqe": lambda cfg: cmd_variational(cfg, "energy"),
    "constraint": lambda cfg: cmd_variational(cfg, "constraint"),
    "noise-scan": cmd_noise_scan,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="mssq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("-c", "--config", required=True)
        cmd.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="section.key=value",
            help="override a config key",
        )
    args = parser.parse_args(argv)
    try:
        overrides = []
        for item in args.overrides:
            if "=" not in item:
                raise ConfigError(f"--set expects section.key=value, got {item!r}")
            key, _, value = item.partition("=")
            overrides.append((key.strip(), value.strip()))
        cfg = parse_config(args.config, overrides)
        _check_memory(args.command, cfg)
        COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
