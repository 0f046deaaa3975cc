"""Command-line harness: spectrum | vqe | constraint | noise-scan.

Every command reads one config file, echoes the fully-resolved config into the
output directory as config.txt, and writes plot-ready CSV.  All randomness
flows from the config's run.seed, so a rerun from that config.txt reproduces
every CSV byte for byte.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np

from . import spectrum as spec_mod
from .circuits import AnsatzShape, Circuit, _offset_count, model_plan, run
from .config import ConfigError, echo_text, parse_config
from .oscillator import ModelSpec
from .vqe import SpsaConfig, estimate_error, vqe_run


# an eighth of physical memory: temporaries lift a run's peak RSS to at most
# 1.8x its counted arrays (the u3 stacks, below), above ~30 MiB for Python
# and numpy
MEMORY_BOUND = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 8
# bytes a shot command holds per basis state: PLAN_BYTES per circuit of each plan (four
# (G, dim) arrays) and, per state read out at once, READOUT_BYTES per circuit (complex
# amplitudes and psi[low], float probabilities) and STATEVECTORS complex statevectors.
# ru_maxrss above the import floor: 0.96-1.25x the count on ClosedPhi4 at 7 per mode
PLAN_BYTES, READOUT_BYTES, STATEVECTORS = 32, 40, 3
# u3 stacks counted for each other command under ansatz.depth: `run` builds
# the u3 gates of every layer as one (states, depth + 1, n, 2, 2) complex
# stack, two states for an SPSA pair and one for noise-scan, beside the
# angles, their sines, cosines and phases.  Peaks above the import floor at
# depth 2-6 x 10^4 with one SPSA iteration measured 5.0-6.3 stacks for vqe
# and constraint, and 4.7-7.2 for noise-scan: 1.2-1.8x this count
U3_STACKS = 4
# bytes a repetition of `vqe.estimate_error` holds: its spawned SeedSequence
# child and its value.  Traced peaks measured 399-401 B a repetition at
# 10^4-3 x 10^5 repetitions, 367-368 B of it the children
REPETITION_BYTES = 400
# spectrum builds and solves d x d mode terms one (d/2) x (d/2) parity block
# at a time, keeps only eigenvalues, and allocates nothing larger.  It counts
# SCAN_MATRICES d x d float64 matrices for one block: the block, written from
# its O(d) bands, and its solve (LAPACK's copy and workspace, the
# eigenvectors, the residual, whose band products take 64 rows at a time),
# and SPECTRUM_VECTORS dim-long vectors (the flat and sorted eigenvalues, the
# CSV columns).  ru_maxrss above the 29.4 MiB import floor, median of five
# runs: 0.28x and 0.23x this count for DoubleWell at 10 and 11 qubits (scan
# dims to 1024 and 2048), 0.84x, 0.46x and 0.31x for ClosedPhi4 at 8, 9 and
# 10 qubits per mode (scan dims to the model's dim).  The top is ClosedPhi4
# at 8, where the 2.7-2.9 MiB that a run at 2 qubits already adds outweighs
# the 0.5 MiB blocks; five matrices would put it at 0.92x
SCAN_MATRICES = 6
SPECTRUM_VECTORS = 6
# cells `_cell_words` formats per call.  Computing and writing a 321 x 321
# density from 64 coefficients peaks at 0.37 MB under tracemalloc (0.75 MB
# at 1281 points, one row a call, where the Hermite tables dominate), inside
# test_density_writer_memory_stays_at_one_row's 1 MB; peak RSS of the
# vqe-doublewell and constraint-phi4-6q benchmark runs stayed within 0.2 MB
# from 512 to 4096, and 512-cell blocks wrote the density 1.6-1.8x slower
CSV_BLOCK_CELLS = 2048
# a density is computed and written one block of rows at a time
# (`spectrum._density_blocks`, `_write_density`), so vqe and constraint count
# DENSITY_TABLES mode_dim x grid.points Hermite tables (phi_a, its complex
# cast and L = phi_a^T C while L is formed; L and the complex phi_chi after)
# and DENSITY_CELL_FLOATS per cell of one block: psi, |psi|^2, the
# kernel's arrays and the text of one row of lines.  ru_maxrss above the
# 28.7 MiB import floor, median of three runs: 0.78-0.83x this count for
# DoubleWell 1 at 4 x 10^5-10^6 points, where the cells dominate (28 floats
# would be 0.86-0.92x), 0.46-0.70x for DoubleWell 2-3 at 10^5-10^6 and
# DoubleWell 8 at 20,001; ClosedPhi4 at 2 per mode and 1,501-4,001 points,
# counted 1.0-2.6 MiB, peaked 9.3-10.8 MiB above it, the fixed cost of any
# shot run at this size
DENSITY_TABLES = 5
DENSITY_CELL_FLOATS = 32


@dataclass(frozen=True)
class ShotNoiseReport:
    shots_grid: tuple[int, ...]
    stddevs: tuple[float, ...]
    fit_a: float
    fit_exponent: float
    residual: float


def _fmt(value: float) -> str:
    return f"{value:.17g}"


# the kernel prints |x| in [1e-280, 1e280]; its tables hold 10^(16 - e) for
# decimal exponents |e| <= _EXP_SPAN, which stay normal and whose 2^27 + 1
# Veltkamp split stays finite
_EXP_SPAN = 284
_SPLIT = 134217729.0


@cache
def _text_tables() -> dict[str, np.ndarray]:
    """The lookup tables of `_cell_words`, built in place on its first call (a few ms).

    Word tables are built from bytes, so they hold in either byte order.
    """

    def words(texts) -> np.ndarray:
        return np.frombuffer(b"".join(text.ljust(8, b"\0") for text in texts), np.uint64)

    # 10^k = hi + lo for k = 16 - e, each part correctly rounded (int / int
    # is), and hi's Veltkamp halves for Dekker's exact product; one power's
    # big ints at a time
    hi, lo = np.empty((2, 2 * _EXP_SPAN + 1))
    for i, k in enumerate(range(16 - _EXP_SPAN, 17 + _EXP_SPAN)):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        hi[i] = h = num / den
        n, d = h.as_integer_ratio()
        lo[i] = (num * d - n * den) / (den * d)
    big = hi * _SPLIT - (hi * _SPLIT - hi)
    # quad[g]: the 4 digits of g in 4 bytes; sig[j, g]: the digits shown
    # through group j's last nonzero digit (group j holds digits 1 + 4j ..
    # 4 + 4j, after digit 0)
    g = np.arange(10000, dtype=np.int16)
    ascii4 = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1).astype(np.uint8) + 48
    last = np.uint8(4) - (g % 10 == 0) - (g % 100 == 0) - (g % 1000 == 0) - (g == 0)
    sig = np.where(last > 0, last + np.uint8([[1], [5], [9], [13]]), np.uint8(0))
    # per exponent e: the digit the dot follows (17: none among the digits),
    # the digits always shown, the sign and "0.000" prefix, the exponent
    es = np.arange(-_EXP_SPAN, _EXP_SPAN + 1)
    fixed = (es >= -4) & (es <= 16)
    prefixes = [b"0.000"[: 1 - e] if -4 <= e < 0 else b"" for e in es.tolist()]
    return {
        "hi": hi,
        "hi_big": big,
        "hi_small": hi - big,
        "lo": lo,
        "quad": ascii4.view(np.uint32).ravel(),
        "sig": sig,
        # keep[w, s]: the bytes of digits 1 + 8w .. 8 + 8w a text of s digits shows
        "keep": np.stack(
            [words(bytes(255 * (w + b < s) for b in range(1, 9)) for s in range(18)) for w in (0, 8)]
        ),
        # digit 0 in byte 6, and its dot in byte 7 from index 10 on
        "lead": words(b"\0" * 6 + bytes([48 + i % 10, 46 * (i >= 10)]) for i in range(20)),
        "dot_after": np.where(fixed, np.where(es >= 0, es, 17), 0).astype(np.uint8),
        "min_shown": np.where(fixed & (es >= 0), es + 1, 1).astype(np.uint8),
        "head": words(sign + prefix for prefix in prefixes for sign in (b"\0", b"-")),
        "tail": words(b"" if f else b"e%+03d" % e for e, f in zip(es.tolist(), fixed.tolist())),
    }


def _cell_words(cells: np.ndarray, ends, ints: np.ndarray | None = None) -> np.ndarray:
    """Each of the cells as np.savetxt prints it, then its byte of `ends`.

    Cells print with %.17g, or %d where `ints` is true, byte for byte.
    Returns 4 uint64 words a cell; the text is their nonzero bytes
    in order, at fixed places: the sign and the "0.000" prefix, digit 0 and
    its dot; digits 1-8; digits 9-16; the exponent and the end byte.

    The 17 significant digits are N = round(|x| 10^(16 - e)), e = floor(log10
    |x|), exact from Dekker's two-product of |x| and 10^(16 - e) as a
    double-double (Numer. Math. 18, 224 (1971)), its partial products formed
    in place in one scratch array, and its float arrays freed before the
    digits are laid out.  Python prints a cell instead
    when |x| is outside [1e-280, 1e280] (zeros, inf and nan too), when the
    fraction of |x| 10^(16 - e) is within 1e-6 of a half (ties round half to
    even), when e is one off (log10's rounding, or a carry into an 18th
    digit), and for %d cells that are not integers below 2^53.
    """
    t = _text_tables()
    x = cells.astype(np.float64, copy=False)
    a = np.abs(x)
    python = ~((a >= 1e-280) & (a <= 1e280))
    if ints is not None:
        # %d prints an integer below 2^53 as %.17g does
        whole = np.where(a < 2**53, x, 0.5)
        python |= ints & (whole != np.trunc(whole))
    a[python] = 1.0
    s = np.log10(a)
    e = np.floor(s, out=s).astype(np.int64)
    k = _EXP_SPAN - e
    # p = a hi and its error f = (((a_big big - p) + a_big small + a_small big)
    # + a_small small) + a lo, each product formed in the scratch s and summed
    # in that order (k is in range, and mode="clip" lets take write s unbuffered)
    p = a * t["hi"][k]
    a_big = a * _SPLIT
    a_big -= np.subtract(a_big, a, out=s)
    a_small = a - a_big
    f = a_big * t["hi_big"][k]
    f -= p
    for part, table in ((a_big, "hi_small"), (a_small, "hi_big"), (a_small, "hi_small"), (a, "lo")):
        t[table].take(k, out=s, mode="clip")
        s *= part
        f += s
    r = np.rint(f, out=s)
    n = p.astype(np.int64) + r.astype(np.int64)
    python |= (np.abs(f - r) > 0.5 - 1e-6) | ((p - 1e16) + f < 0) | (n >= 10**17)
    del a, a_big, a_small, k, p, f, r, s
    n[python] = 10**16
    # digit 0, then digits 1-4, 5-8, 9-12 and 13-16 as 4-digit groups
    lead, n = np.divmod(n, 10**16)
    g1, g3 = np.divmod(n, 10**8)
    del n
    g0, g1 = np.divmod(g1, 10**4)
    g2, g3 = np.divmod(g3, 10**4)
    sig = t["sig"]
    ei = np.add(e, _EXP_SPAN, out=e)
    shown = np.maximum(sig[0][g0], sig[1][g1])
    np.maximum(shown, sig[2][g2], out=shown)
    np.maximum(shown, sig[3][g3], out=shown)
    np.maximum(shown, t["min_shown"][ei], out=shown)
    dot_after = t["dot_after"][ei]
    words = np.empty((len(x), 4), np.uint64)
    lead += 10 * ((dot_after == 0) & (shown > 1))
    words[:, 0] = t["head"][2 * ei + np.signbit(x)]
    words[:, 0] |= t["lead"][lead]
    quads = words.view(np.uint32)
    for i, g in enumerate((g0, g1, g2, g3)):
        quads[:, 2 + i] = t["quad"][g]
    words[:, 1] &= t["keep"][0][shown]
    words[:, 2] &= t["keep"][1][shown]
    words[:, 3] = t["tail"][ei]
    text = words.view(np.uint8)
    # a dot after digit 1-15 (fixed notation, 10 <= |x| < 1e16): the digits
    # after it, and byte 24 (free without an exponent), move one byte on
    mid = np.flatnonzero((dot_after > 0) & (dot_after + 1 < shown))
    if len(mid):
        moved = np.append(text[mid, 8:25], np.full((len(mid), 1), 46, np.uint8), axis=1)
        j = np.arange(17)
        at = dot_after[mid, None]
        text[mid, 8:25] = np.take_along_axis(moved, np.where(j < at, j, np.where(j == at, 17, j - 1)), axis=1)
    for i in np.flatnonzero(python).tolist():
        cell = (b"%d" if ints is not None and ints[i] else b"%.17g") % cells[i]
        text[i] = np.frombuffer(cell.ljust(32, b"\0"), np.uint8)
    text[:, 31] = ends
    return words


def _write_csv(path: Path, header: str, *columns) -> None:
    """A header line, then row i of the columns per line, the bytes np.savetxt writes.

    A column is one array or a 2-D block of them (one per block column), all
    as long.  Integer columns (indices and counts, exact in float64) print
    with %d and all others as `_fmt` prints them, after the columns are
    stacked to one dtype as savetxt stacks them.  Streamed in blocks of
    whole rows, at most CSV_BLOCK_CELLS cells or one row, each formatted by
    one `_cell_words` call.
    """
    columns = [np.asarray(c) for c in columns]
    ints = np.concatenate([np.full(c.shape[1] if c.ndim == 2 else 1, c.dtype.kind in "iu") for c in columns])
    rows = max(1, CSV_BLOCK_CELLS // len(ints))
    ends = np.tile(np.frombuffer(b"," * (len(ints) - 1) + b"\n", np.uint8), rows)
    ints = np.tile(ints, rows) if ints.any() else None
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for start in range(0, len(columns[0]), rows):
            cells = np.column_stack([c[start : start + rows] for c in columns]).ravel()
            words = _cell_words(cells, ends[: len(cells)], None if ints is None else ints[: len(cells)])
            fh.write(words.tobytes().translate(None, b"\0"))


def _from_section(section: str, build, **fields):
    """build(**fields), a ValueError re-raised as a config error on `section.<field>`.

    ModelSpec and SpsaConfig start each ValueError with the bad field's name,
    which is its key within the section.
    """
    try:
        return build(**fields)
    except ValueError as exc:
        raise ConfigError(f"{section}.{exc}") from exc


def _model_spec(cfg: dict) -> ModelSpec:
    fields = ("family", "qubits_per_mode", "lambda_abs", "quartic_c", "omega")
    return _from_section("model", ModelSpec, **{f: cfg[f"model.{f}"] for f in fields})


def _spsa_config(cfg: dict) -> SpsaConfig:
    fields = ("iterations", "a", "c", "stability", "alpha", "gamma", "calibration_samples")
    return _from_section("spsa", SpsaConfig, seed=cfg["run.seed"], **{f: cfg[f"spsa.{f}"] for f in fields})


def _prepare_outdir(cfg: dict) -> Path:
    outdir = Path(cfg["output.dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "config.txt").write_text(echo_text(cfg))
    return outdir


def _check_memory(command: str, cfg: dict) -> None:
    """Refuse, naming the key, a run whose largest arrays alone exceed MEMORY_BOUND.

    Counted at 8 B per float: for spectrum, SCAN_MATRICES d x d matrices at the
    larger of mode_dim and the largest scan dim d, plus SPECTRUM_VECTORS
    dim-long vectors; for the other commands, their plans and readout
    (PLAN_BYTES, above), circuits counted by `circuits._offset_count`, and for
    vqe the exact reference's block solve as spectrum counts it; and, for the
    density-writing commands, DENSITY_TABLES Hermite tables (mode_dim x
    grid.points) and DENSITY_CELL_FLOATS per cell of one block of the
    density (one row for one mode, else at least two); and, at
    16 B per complex, U3_STACKS u3 stacks for the ansatz; and, for vqe and
    constraint, the trajectory's parameter vectors.  The final error bars
    count REPETITION_BYTES per repetition: run.repetitions for vqe and
    constraint, noise.repetitions for noise-scan.  The largest count names
    the key.
    """
    model = _model_spec(cfg)
    if command == "spectrum":
        scan_dim = max(cfg["spectrum.scan_dims"])
        counted = {"model.qubits_per_mode": 8 * SPECTRUM_VECTORS * model.dim, "spectrum.scan_dims": 0}
        key = "spectrum.scan_dims" if scan_dim > model.mode_dim else "model.qubits_per_mode"
        counted[key] += 8 * SCAN_MATRICES * max(scan_dim, model.mode_dim) ** 2
    else:
        states = 1 if command == "noise-scan" else 2
        read = _offset_count(model, squared=command == "constraint")
        planned = _offset_count(model) + (read if command == "constraint" else 0)
        held = PLAN_BYTES * planned + states * (READOUT_BYTES * read + 16 * STATEVECTORS)
        reference = 8 * SCAN_MATRICES * model.mode_dim**2 if command == "vqe" else 0
        counted = {"model.qubits_per_mode": held * model.dim + reference}
        layers = cfg["ansatz.depth"] + 1
        counted["ansatz.depth"] = 16 * U3_STACKS * states * layers * model.total_qubits * 4
        repetitions = "noise.repetitions" if command == "noise-scan" else "run.repetitions"
        counted[repetitions] = REPETITION_BYTES * cfg[repetitions]
    if command in ("vqe", "constraint"):
        points = cfg["grid.points"]
        cells = points if model.n_modes == 1 else max(2 * points, spec_mod.DENSITY_BLOCK_CELLS)
        counted["grid.points"] = 8 * (DENSITY_TABLES * model.mode_dim * points + DENSITY_CELL_FLOATS * cells)
        # the SPSA trajectory, held while trajectory.csv is written: one
        # (steps, P) array that `vqe_run` fills in place, a parameter vector
        # per step of every restart and refinement (peaks grew by 1.0 vectors
        # a step at depth 1-2 x 10^4 and 1-81 steps), named after the larger
        # of the step count and the ansatz's layers
        steps = cfg["spsa.restarts"] * cfg["spsa.iterations"], sum(s[0] for s in cfg["spsa.refinements"])
        key = "spsa.iterations" if steps[0] >= steps[1] else "spsa.refinements"
        key = key if sum(steps) > layers else "ansatz.depth"
        counted[key] = counted.get(key, 0) + 8 * sum(steps) * 3 * model.total_qubits * layers
    total = sum(counted.values())
    if total > MEMORY_BOUND:
        # a Decimal formats a count past float max; imported only to refuse, off every run's import time
        from decimal import Decimal

        key = max(counted, key=counted.get)
        raise ConfigError(
            f"{key} = {cfg[key]} needs an estimated {Decimal(total) / 2**30:.3g} GiB,"
            f" more than the {MEMORY_BOUND / 2**30:.3g} GiB bound (physical memory / 8)"
        )


def _write_density(path: Path, axes, blocks) -> None:
    """The density on the product of the axes, one line per grid point, the first axis varying
    slowest, as `_write_csv` prints it.

    blocks are the density's consecutive blocks of whole outer-axis rows
    (`spectrum._density_blocks`), each taken only once the one before it is
    written.  Each axis value is formatted once; the density is formatted by
    one `_cell_words` call per piece of about CSV_BLOCK_CELLS points, whole
    rows each, and its lines are staged and written one outer-axis row at a
    time.
    """
    *outer, inner = axes
    header = "x,density" if not outer else "x_a,x_chi,density"
    prefix = _axis_text(outer[0]) if outer else np.empty((1, 0), np.uint8)
    inner_text = _axis_text(inner)
    per = min(len(prefix), max(1, CSV_BLOCK_CELLS // len(inner)))
    width = prefix.shape[1] + inner_text.shape[1]
    line = np.empty((len(inner), width + 32), np.uint8)
    line[:, prefix.shape[1] : width] = inner_text
    outer_text = iter(prefix)
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for rows in (block[top : top + per] for block in blocks for top in range(0, len(block), per)):
            text = _cell_words(rows.ravel(), ord("\n")).view(np.uint8)
            for row_text in text.reshape(len(rows), len(inner), 32):
                line[:, : prefix.shape[1]] = next(outer_text)
                line[:, width:] = row_text
                fh.write(line.tobytes().translate(None, b"\0"))
            # freed before the next piece is formatted
            del text, row_text


def _axis_text(axis: np.ndarray) -> np.ndarray:
    """Each axis value's text and a comma, as uint8 rows zero-padded to the longest."""
    texts = [w.tobytes().translate(None, b"\0") for w in _cell_words(axis, ord(","))]
    return np.array(texts).view(np.uint8).reshape(len(texts), -1)


def cmd_spectrum(cfg: dict) -> Path:
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


def cmd_variational(cfg: dict, objective_kind: str) -> Path:
    """VQE on <H> ("energy") or on <H^2> ("constraint"), then the density CSVs.

    Energy mode pairs the optimized density with the exact ground (or
    nearest-zero) state; constraint mode pairs it with the |0>|0> reference.
    """
    model = _model_spec(cfg)
    constraint = objective_kind == "constraint"
    if constraint and model.n_modes == 1:
        raise ConfigError(f"constraint needs a two-mode model.family, got {model.family.value}")
    spsa = _spsa_config(cfg)
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
    trajectory = result.trajectory
    header = "iteration,objective," + ",".join(f"p{i}" for i in range(len(result.best_params)))
    _write_csv(
        outdir / "trajectory.csv", header, np.arange(len(trajectory)), trajectory.objectives, trajectory.params
    )
    state = run(result.circuit)
    indices = np.arange(len(state))
    _write_csv(outdir / "probabilities.csv", "basis_index,probability", indices, np.abs(state) ** 2)
    lines = [
        f"family = {model.family.value}",
        f"objective = {result.objective_kind}",
        f"seed = {result.seed}",
        f"h_mean = {_fmt(result.h_mean)}",
        f"h_stderr = {_fmt(result.h_stderr)}",
    ]
    if result.h2_mean is not None:
        lines.append(f"h2_mean = {_fmt(result.h2_mean)}")
        lines.append(f"h2_stderr = {_fmt(result.h2_stderr)}")
    (outdir / "result.txt").write_text("\n".join(lines) + "\n")
    if constraint:
        names = ("density_2d.csv", "reference_density.csv")
        reference = np.zeros(model.dim)
        reference[0] = 1.0
    else:
        names = ("vqe_density.csv", "exact_density.csv")
        _, reference = spec_mod.ground_or_nearest_zero(model)
    axes = (spec_mod.default_grid(cfg["grid.extent"], cfg["grid.points"]),) * model.n_modes
    for name, coeffs in zip(names, (state, reference)):
        _write_density(outdir / name, axes, spec_mod._density_blocks(coeffs, axes, model.omega))
    return outdir


def noise_scan(cfg: dict) -> ShotNoiseReport:
    """Measure stddev-vs-shots for a fixed seeded circuit and fit A / x^beta."""
    grid = cfg["noise.shots_grid"]
    repetitions = cfg["noise.repetitions"]
    model = _model_spec(cfg)
    plan = model_plan(model)
    shape = AnsatzShape(model.total_qubits, cfg["ansatz.depth"])
    root = np.random.SeedSequence(cfg["run.seed"])
    ss_params, ss_reps = root.spawn(2)
    params = np.random.default_rng(ss_params).uniform(-np.pi, np.pi, shape.parameter_count)
    circuit = Circuit(shape, params)
    stddevs = []
    for shots, child in zip(grid, ss_reps.spawn(len(grid))):
        _, std = estimate_error(circuit, plan, shots, repetitions, child)
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


def cmd_noise_scan(cfg: dict) -> Path:
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
        _from_section("model", _model_spec(cfg).check_scale)
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
