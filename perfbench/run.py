"""mssq benchmark: run one workload as real `mssq` commands and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is taken from `src/` beside this directory and
scratch files go to `.perfbench_work/` there.  Each repeat is a fresh
`mssq` process, started only after the previous one ended, so cold BLAS and
first-call costs count as a user pays them.

The run repeats rounds until the next one would end after --seconds (at
least three rounds with --trace 0, one with --trace 1).  --trace 0 measures
the end-to-end metrics; a round is a setup probe (a process that stops at
`cli.main` entry) and a plain repeat, and each metric is the median over the
run.  --trace 1 measures the per-layer metrics (layers.UNITS); a round is a
plain and a traced repeat, each metric is the median over the traced
repeats, and trace.overhead_s is the traced minus the plain median wall time.

Every repeat must exit 0, pass its workload's check and write CSVs whose hash
matches the run's first repeat (the seed is fixed within a run).  The last
line of stdout is the JSON result; progress and the CSV hash go to stderr and
the full record to .perfbench_work/<workload>/seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_ROUNDS = {False: 3, True: 1}  # by --trace
HARD_LIMIT_S = 170.0  # a child still running this long after the run started is killed
# interpreter shutdown and process reaping fall outside every span and outside
# the tracer's own bookkeeping; a traced repeat may leave this much unaccounted
SHUTDOWN_ALLOWANCE_S = 0.2

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Repeat:
    mode: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    record: dict = field(default_factory=dict)
    error: str | None = None
    digest: str = ""
    bytes_written: int = 0


def machine() -> dict:
    import numpy as np

    cpu_model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas},
    }


def csv_digest(outdir: Path) -> tuple[str, int]:
    """sha256 over the output CSVs (name and bytes), and the bytes of every output file."""
    digest = hashlib.sha256()
    for path in sorted(outdir.glob("*.csv")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest(), sum(p.stat().st_size for p in outdir.iterdir())


class Runner:
    def __init__(self, name: str, seed: int, workdir: Path, deadline: float):
        self.workload = WORKLOADS[name]
        self.workdir = workdir
        self.outdir = workdir / "out"
        self.deadline = deadline
        self.config = workdir / "run.cfg"
        self.config.write_text(self.workload.config.format(seed=seed, out=self.outdir))
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
        self.env.pop("MSSQ_SEED", None)  # it would override run.seed

    def spawn(self, mode: str, cpu: int) -> Repeat:
        """Start one child on `cpu`, wait for it, and read its resource usage and record.

        The child may move to any allowed CPU once started, and its threads may
        use them all, but a single-threaded process stays where it starts.
        Starting rounds on each CPU in turn keeps one CPU's speed from setting
        a whole run's figures.
        """
        record_path = self.workdir / "record.json"
        record_path.unlink(missing_ok=True)
        shutil.rmtree(self.outdir, ignore_errors=True)
        args = [self.workload.command, "-c", str(self.config)]
        allowed = os.sched_getaffinity(0)
        with open(self.workdir / "stderr.txt", "w") as err:
            os.sched_setaffinity(0, {cpu})
            try:
                t0 = time.monotonic()
                proc = subprocess.Popen(
                    [sys.executable, str(HERE / "launch.py"), str(record_path), mode, repr(t0), "--", *args],
                    env=self.env,
                    stdout=subprocess.DEVNULL,
                    stderr=err,
                )
            finally:
                os.sched_setaffinity(0, allowed)
            try:
                os.sched_setaffinity(proc.pid, allowed)
            except ProcessLookupError:
                pass  # already exited; wait4 below still reaps it
            killer = threading.Timer(max(self.deadline - t0, 0.0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.monotonic() - t0
        rc = proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4, not Popen
        rep = Repeat(mode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)
        if rc != 0:
            tail = (self.workdir / "stderr.txt").read_text().strip().splitlines()[-1:]
            rep.error = f"exit code {rc}: {' '.join(tail)}"
            return rep
        rep.record = json.loads(record_path.read_text())
        if mode == "setup":
            return rep
        try:
            rep.error = self.workload.check(self.outdir)
        except (OSError, KeyError, ValueError) as exc:
            rep.error = f"unreadable output: {exc!r}"
        rep.digest, rep.bytes_written = csv_digest(self.outdir)
        return rep


def traced_errors(rep: Repeat) -> str | None:
    """Every alias rebound, and setup + self times + tracer bookkeeping add up to the wall time."""
    record = rep.record
    if record["stale_aliases"]:
        return f"aliases not rebound: {record['stale_aliases']}"
    traced_s = sum(entry["self_s"] for entry in record["spans"].values())
    bookkeeping_s = record["install_s"] + record["summarize_s"]
    rest = rep.wall_s - record["setup_s"] - traced_s - bookkeeping_s
    if not 0.0 <= rest <= SHUTDOWN_ALLOWANCE_S:
        return (
            f"setup {record['setup_s']:.3f}s + self times {traced_s:.3f}s + tracer bookkeeping "
            f"{bookkeeping_s:.3f}s leave {rest:.3f}s of the traced wall {rep.wall_s:.3f}s"
        )
    return None


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    workdir = WORK / name
    workdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(name, seed, workdir, start + HARD_LIMIT_S)
    # one round: a setup probe and a plain repeat, or a plain and a traced repeat;
    # rounds spread every kind of sample over the whole run
    round_modes = ["plain", "trace"] if trace else ["setup", "plain"]
    cpus = sorted(os.sched_getaffinity(0))
    repeats: list[Repeat] = []
    round_s: list[float] = []
    while True:
        round_start = time.monotonic()
        for mode in round_modes:
            rep = runner.spawn(mode, cpus[len(round_s) % len(cpus)])
            repeats.append(rep)
            print(
                f"{name} {mode:5s} wall {rep.wall_s:.3f}s cpu {rep.cpu_s:.3f}s "
                f"rss {rep.peak_rss_mb:.1f}MB {rep.error or rep.digest[:16]}",
                file=sys.stderr,
            )
        now = time.monotonic()
        round_s.append(now - round_start)
        step = statistics.median(round_s)
        if (len(round_s) >= MIN_ROUNDS[trace] and now + step > start + seconds) or now + step > runner.deadline - 10:
            break

    by_mode = {mode: [r for r in repeats if r.mode == mode] for mode in ("setup", "plain", "trace")}
    digests = [r.digest for r in repeats if r.digest and not r.error]
    for r in repeats:
        if r.digest and not r.error and r.digest != digests[0]:
            r.error = f"CSV hash {r.digest[:16]} differs from the first repeat's {digests[0][:16]}"
    overhead = 0.0
    if trace:
        overhead = statistics.median(r.wall_s for r in by_mode["trace"]) - statistics.median(
            r.wall_s for r in by_mode["plain"]
        )
        for r in by_mode["trace"]:
            r.error = r.error or traced_errors(r)
    failed = sum(1 for r in repeats if r.error)
    ok = {mode: [r for r in reps if not r.error] for mode, reps in by_mode.items()}
    metrics: dict[str, dict] = {}
    if trace and ok["trace"]:
        per_repeat = [
            layers.layer_metrics(
                r.record["spans"], r.wall_s, r.record["setup_s"], r.record["shots_drawn"], r.bytes_written
            )
            for r in ok["trace"]
        ]
        for key, unit in layers.UNITS.items():
            value = overhead if key == "trace.overhead_s" else statistics.median(m[key] for m in per_repeat)
            metrics[key] = {"value": value, "unit": unit}
    elif not trace and ok["plain"]:
        plain = ok["plain"]
        values = {
            "wall_s": statistics.median(r.wall_s for r in plain),
            "setup_s": statistics.median(r.record["setup_s"] for r in plain + ok["setup"]),
            "cpu_s": statistics.median(r.cpu_s for r in plain),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in plain),
        }
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END.items()}
    print(f"{name} seed {seed}: CSV sha256 {digests[0] if digests else 'none'}", file=sys.stderr)
    (workdir / f"seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(
            {
                "workload": name,
                "seed": seed,
                "machine": machine(),
                "csv_sha256": digests[0] if digests else None,
                "repeats": [
                    {
                        "mode": r.mode,
                        "wall_s": r.wall_s,
                        "cpu_s": r.cpu_s,
                        "peak_rss_mb": r.peak_rss_mb,
                        "setup_s": r.record.get("setup_s"),
                        "error": r.error,
                        "digest": r.digest,
                    }
                    for r in repeats
                ],
                "metrics": metrics,
            },
            indent=1,
        )
    )
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(repeats),
        "failed": failed,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "mssq" / "cli.py").is_file():
        print(f"error: no mssq sources under {SRC}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
