"""Importing mssq lets idle OpenBLAS workers sleep, and keeps a timeout the user set."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]

# CPU ticks of every thread but the main one after three threaded 600 x 600
# matmuls and a 0.3 s sleep: the workers' busy-wait before they sleep
WORKER_TICKS = """
import os, time
import mssq
import numpy as np

a = np.random.default_rng(0).random((600, 600))
for _ in range(3):
    a = a @ a / 600
time.sleep(0.3)
ticks = 0
for tid in os.listdir("/proc/self/task"):
    if int(tid) != os.getpid():
        with open(f"/proc/self/task/{tid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        ticks += int(fields[11]) + int(fields[12])  # utime, stime
print(ticks)
"""


def _run(code: str, **extra) -> str:
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_THREAD_TIMEOUT", "OPENBLAS_NUM_THREADS")}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run([sys.executable, "-c", code], env=env | extra, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def _openblas() -> bool:
    return "openblas" in str(np.show_config(mode="dicts")["Build Dependencies"]["blas"]).lower()


@pytest.mark.skipif(
    not (Path("/proc/self/task").is_dir() and len(os.sched_getaffinity(0)) >= 2 and _openblas()),
    reason="needs /proc, at least 2 usable CPUs and numpy built on OpenBLAS",
)
def test_idle_openblas_workers_sleep():
    # 20-24 ticks with OpenBLAS's default timeout, 1-2 with mssq's
    assert int(_run(WORKER_TICKS)) < 10


def test_user_thread_timeout_wins():
    code = "import os, mssq; print(os.environ['OPENBLAS_THREAD_TIMEOUT'])"
    assert _run(code, OPENBLAS_THREAD_TIMEOUT="28") == "28"


def test_import_sets_timeout_before_numpy_loads():
    code = "import os, sys, mssq; print(os.environ['OPENBLAS_THREAD_TIMEOUT'], 'numpy' in sys.modules)"
    assert _run(code) == "20 False"
