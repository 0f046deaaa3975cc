"""Seed sweeps of the variational runs the benchmark and the acceptance gate make.

    python tools/sweep.py vqe-doublewell --seeds 0-299
    python tools/sweep.py criterion-2-DoubleWell --seeds 0-9
    python tools/sweep.py criterion-3-ClosedPhi4 --seeds 0-19

Each case runs `vqe_run` in process once per seed and applies its checks; one
JSON object then gives, per check, how many seeds passed, the seeds that
failed any check, the median and worst of each reported value with the worst
seed, and the wall time.  The cases take their settings by import, not by
copy:

- vqe-doublewell and constraint-phi4-6q: the benchmark workload's config
  (perfbench/workloads.py), resolved with the CLI's defaults and run as its
  command runs it, with the workload's checks.  vqe-doublewell: the bound
  h_mean within 3% of the exact E0 at 3 qubits, and not below E0 - 2
  h_stderr.  constraint-phi4-6q: <H>, <H^2> and its stderr finite, and <H^2>
  not below -2 h2_stderr.
- criterion-2-<family>: a row of the acceptance gate's
  `test_criterion_2_vqe_bounds` parametrize mark (tests/test_acceptance.py)
  at the gate's 8192 shots, with its two checks against the exact E0 of
  `eigendecompose(build_model(spec))`: within 3%, and not below E0 - 2
  h_stderr.  The gate passes a family when at least 8 of seeds 0-9 pass both.
- criterion-3-<family>: the gate's `constraint_run`.  ClosedPhi4 and
  OpenPhi4 take criterion 3's margins |<H>| < 0.1 and <H^2> < 0.1; ClosedFree
  takes |<H>| <= 2 h_stderr.

This file sits outside pytest's testpaths, so the tier-1 suite does not run it.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

from mssq.circuits import AnsatzShape  # noqa: E402
from mssq.cli import _model_spec, _spsa_config  # noqa: E402
from mssq.config import resolve  # noqa: E402
from mssq.oscillator import Family, ModelSpec, build_model  # noqa: E402
from mssq.spectrum import eigendecompose  # noqa: E402
from mssq.vqe import SpsaConfig, vqe_run  # noqa: E402
from test_acceptance import constraint_run, test_criterion_2_vqe_bounds  # noqa: E402
from workloads import DOUBLE_WELL_3Q_E0, WORKLOADS  # noqa: E402

# criterion 2's shot count, a literal in the gate's body
CRITERION_2_SHOTS = 8192


def workload_run(name: str, seed: int):
    """The named benchmark workload's `vqe_run` at `seed`, as its `mssq` command runs it."""
    workload = WORKLOADS[name]
    lines = [line.partition("=") for line in workload.config.format(seed=seed, out="unused").splitlines()]
    cfg = resolve([(i, key.strip(), value.strip()) for i, (key, _, value) in enumerate(lines, 1)])
    model = _model_spec(cfg)
    return vqe_run(
        model,
        AnsatzShape(model.total_qubits, cfg["ansatz.depth"]),
        objective_kind="constraint" if workload.command == "constraint" else "energy",
        shots=cfg["run.shots"],
        spsa=_spsa_config(cfg),
        repetitions=cfg["run.repetitions"],
        restarts=cfg["spsa.restarts"],
        refinements=cfg["spsa.refinements"],
    )


def vqe_doublewell(seed: int):
    """The vqe-doublewell workload at `seed`: its error in percent of E0, and its checks."""
    result = workload_run("vqe-doublewell", seed)
    exact = DOUBLE_WELL_3Q_E0
    values = {"error_pct": 100 * abs(result.h_mean - exact) / abs(exact)}
    checks = {
        "within_3pct": abs(result.h_mean - exact) <= 0.03 * abs(exact),
        "not_below_2sigma": result.h_mean >= exact - 2 * result.h_stderr,
    }
    return values, checks


def constraint_phi4_6q(seed: int):
    """The constraint-phi4-6q workload at `seed`: |<H>| and <H^2>, and the workload's checks."""
    result = workload_run("constraint-phi4-6q", seed)
    h, h2, h2_stderr = result.h_mean, result.h2_mean, result.h2_stderr
    values = {"abs_h": abs(h), "h2": h2}
    checks = {
        "finite": all(math.isfinite(value) for value in (h, h2, h2_stderr)),
        "h2_not_below_minus_2sigma": h2 >= -2 * h2_stderr,
    }
    return values, checks


def criterion_2(family: Family, qubits: int, depth: int, iterations: int):
    spec = ModelSpec(family, qubits)
    exact = float(eigendecompose(build_model(spec)).eigenvalues[0])

    def case(seed: int):
        spsa = SpsaConfig(iterations=iterations, seed=seed)
        result = vqe_run(spec, AnsatzShape(qubits, depth), shots=CRITERION_2_SHOTS, spsa=spsa)
        values = {"error_pct": 100 * abs(result.h_mean - exact) / abs(exact)}
        checks = {
            "within_3pct": abs(result.h_mean - exact) <= 0.03 * abs(exact),
            "not_below_2sigma": result.h_mean >= exact - 2 * result.h_stderr,
        }
        return values, checks

    return case


def criterion_3(family: Family):
    def case(seed: int):
        result = constraint_run(family, seed)
        values = {"abs_h": abs(result.h_mean), "h2": result.h2_mean}
        return values, {"abs_h_below_0.1": values["abs_h"] < 0.1, "h2_below_0.1": values["h2"] < 0.1}

    return case


def criterion_3_closed_free(seed: int):
    result = constraint_run(Family.CLOSED_FREE, seed)
    values = {"abs_h": abs(result.h_mean), "h_stderr": result.h_stderr}
    return values, {"abs_h_within_2sigma": values["abs_h"] <= 2 * result.h_stderr}


(CRITERION_2_MARK,) = [mark for mark in test_criterion_2_vqe_bounds.pytestmark if mark.name == "parametrize"]

CASES = {
    "vqe-doublewell": vqe_doublewell,
    "constraint-phi4-6q": constraint_phi4_6q,
    **{f"criterion-2-{row[0].value}": criterion_2(*row) for row in CRITERION_2_MARK.args[1]},
    "criterion-3-ClosedFree": criterion_3_closed_free,
    "criterion-3-ClosedPhi4": criterion_3(Family.CLOSED_PHI4),
    "criterion-3-OpenPhi4": criterion_3(Family.OPEN_PHI4),
}


def sweep(case: str, seeds: range) -> dict:
    start = time.perf_counter()
    values, passed, failing = {}, {}, []
    for seed in seeds:
        seed_values, checks = CASES[case](seed)
        for name, value in seed_values.items():
            values.setdefault(name, []).append((value, seed))
        for name, ok in checks.items():
            passed[name] = passed.get(name, 0) + bool(ok)
        if not all(checks.values()):
            failing.append(seed)
    summary = {}
    for name, pairs in values.items():
        worst, worst_seed = max(pairs)
        summary[name] = {"median": statistics.median(v for v, _ in pairs), "worst": worst, "worst_seed": worst_seed}
    return {
        "case": case,
        "seeds": f"{seeds.start}-{seeds.stop - 1}",
        "runs": len(seeds),
        "passed": len(seeds) - len(failing),
        "checks_passed": passed,
        "failing_seeds": failing,
        "values": summary,
        "wall_s": round(time.perf_counter() - start, 2),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("case", choices=sorted(CASES))
    parser.add_argument("--seeds", default="0-9", help="an inclusive range, e.g. 0-299")
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    print(json.dumps(sweep(args.case, range(int(first), int(last or first) + 1)), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
