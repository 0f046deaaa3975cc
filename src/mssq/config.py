"""Strict line-oriented experiment configuration.

Format: one "section.key = value" assignment per line; blank lines and lines
starting with '#' are ignored.  Unknown keys, keys set twice, bad types, and
missing required keys are hard errors carrying the offending line number.
"""

from __future__ import annotations


class ConfigError(ValueError):
    """Any configuration problem; maps to CLI exit code 2."""


def _shot_count(text: str) -> int:
    """One shot count, 1 to 2**63 - 1: numpy's multinomial draw takes an int64."""
    shots = int(text)
    if not 1 <= shots < 2**63:
        raise ValueError(f"shots must be 1 to 2**63 - 1, got {text!r}")
    return shots


def _shots_grid(text: str) -> tuple[int, ...]:
    """At least 4 strictly increasing shot counts."""
    grid = tuple(_shot_count(part) for part in text.split(","))
    if len(grid) < 4 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"needs at least 4 strictly increasing shot counts, got {text!r}")
    return grid


def _scan_dims(text: str) -> tuple[int, ...]:
    """Strictly increasing per-mode truncation dims, each a power of two >= 2."""
    dims = tuple(int(part) for part in text.split(","))
    if any(d < 2 or d & (d - 1) for d in dims):
        raise ValueError(f"each dim must be a power of two >= 2, got {text!r}")
    if any(b <= a for a, b in zip(dims, dims[1:])):
        raise ValueError(f"dims must be strictly increasing, got {text!r}")
    return dims


def _extent(text: str) -> float:
    """A finite half-width > 0."""
    value = float(text)
    if not 0 < value < float("inf"):
        raise ValueError(f"must be finite and > 0, got {text!r}")
    return value


def _refinement_list(text: str) -> tuple[tuple[int, float, int], ...]:
    """Comma-separated iterations:c:shots triples, e.g. "1000:0.04:65536"."""
    if not text.strip():
        return ()
    stages = []
    for part in text.split(","):
        iters, c, shots = part.split(":")
        iters, c, shots = int(iters), float(c), _shot_count(shots)
        if iters < 1 or not 0 < c < float("inf"):
            raise ValueError(f"stage {part!r} needs iterations >= 1 and a finite c > 0")
        stages.append((iters, c, shots))
    return tuple(stages)


# key -> (converter, default); default None with required=True keys listed below
SCHEMA = {
    "model.family": (str, None),
    "model.qubits_per_mode": (int, 2),
    "model.lambda_abs": (float, None),
    "model.quartic_c": (float, None),
    "model.omega": (float, 1.0),
    "ansatz.depth": (int, 2),
    "spsa.iterations": (int, 300),
    "spsa.a": (float, None),
    "spsa.c": (float, 0.1),
    "spsa.stability": (float, None),
    "spsa.alpha": (float, 0.602),
    "spsa.gamma": (float, 0.101),
    "spsa.calibration_samples": (int, 25),
    "spsa.restarts": (int, 1),
    "spsa.refinements": (_refinement_list, ()),
    "run.shots": (_shot_count, 8192),
    "run.repetitions": (int, 30),
    "run.seed": (int, 0),
    "noise.shots_grid": (_shots_grid, (256, 512, 1024, 2048, 4096, 8192, 16384)),
    "noise.repetitions": (int, 100),
    "spectrum.scan_dims": (_scan_dims, (4, 8, 16, 32, 64, 128, 256)),
    "grid.extent": (_extent, 8.0),
    "grid.points": (int, 321),
    "output.dir": (str, None),
}

REQUIRED_KEYS = ("model.family", "output.dir")
# smallest accepted value of the integer keys that have one
MINIMUMS = {
    "ansatz.depth": 0,
    "spsa.restarts": 1,
    "spsa.calibration_samples": 1,
    "run.repetitions": 2,
    "run.seed": 0,
    "noise.repetitions": 2,
    "grid.points": 2,
}


def echo_text(values: dict) -> str:
    """A resolved config in its own file format."""
    lines = []
    for key in sorted(values):
        value = values[key]
        if value is None:
            continue
        if isinstance(value, tuple):
            if value and isinstance(value[0], tuple):
                value = ",".join(f"{i}:{c!r}:{s}" for i, c, s in value)
            else:
                value = ",".join(str(v) for v in value)
        elif isinstance(value, float):
            value = f"{value:.17g}"
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def _parse_assignments(lines, source: str):
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'section.key = value', got {line!r}")
        key, _, value = line.partition("=")
        yield lineno, key.strip(), value.strip()


def resolve(assignments, source: str = "<config>", overrides=()) -> dict:
    """Every SCHEMA key's value: schema defaults, typed parsing, and required-key checks."""
    values = {key: default for key, (_, default) in SCHEMA.items()}
    # (is an override, key) -> where it was set: a file line or a --set may
    # each set a key once, and a --set overrides the file's value
    seen = {}
    items = list(assignments) + [(0, k, v) for k, v in overrides]
    for lineno, key, raw_value in items:
        where = f"{source}:{lineno}" if lineno else f"override --set {key}={raw_value}"
        if key not in SCHEMA:
            raise ConfigError(f"{where}: unknown key {key!r}")
        if (not lineno, key) in seen:
            raise ConfigError(f"{where}: {key} is already set at {seen[not lineno, key]}")
        seen[not lineno, key] = where
        convert, _ = SCHEMA[key]
        try:
            values[key] = convert(raw_value)
        except ValueError as exc:
            raise ConfigError(f"{where}: bad value for {key}: {exc}") from exc
        if key in MINIMUMS and values[key] < MINIMUMS[key]:
            raise ConfigError(f"{where}: {key} must be at least {MINIMUMS[key]}, got {values[key]}")
    missing = [key for key in REQUIRED_KEYS if values[key] is None]
    if missing:
        raise ConfigError(f"{source}: missing required keys: {', '.join(missing)}")
    return values


def parse_config(path, overrides=()) -> dict:
    """Parse a config file; overrides are (key, value) string pairs."""
    with open(path) as fh:
        lines = fh.readlines()
    return resolve(_parse_assignments(lines, str(path)), str(path), overrides)
