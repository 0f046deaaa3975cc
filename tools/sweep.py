"""Seed sweeps of the variational runs the benchmark and the acceptance gate make.

    python tools/sweep.py vqe-doublewell --seeds 0-299
    python tools/sweep.py criterion-2-DoubleWell --seeds 0-9
    python tools/sweep.py criterion-3-ClosedPhi4 --seeds 0-19

Each case runs `vqe_run` in process once per seed and applies its checks; one
JSON object then gives, per check and per tally, how many seeds passed, the
seeds that failed any check, the median and worst (largest) of each reported
value with the worst seed, and the wall time.  The cases take their settings
by import, not by copy:

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
  takes |<H>| <= 2 h_stderr.  Each also reports the final state's exact <H>
  and <H^2>, from its statevector and `build_model`, and its weight outside
  H's zero space, and tallies the seeds whose exact |<H>| is below 0.001;
  a tally does not decide whether a seed passes.

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

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

from mssq.circuits import AnsatzShape, run  # noqa: E402
from mssq.cli import _model_spec, _spsa_config, variational_run  # noqa: E402
from mssq.config import resolve  # noqa: E402
from mssq.oscillator import TWO_MODE_FAMILIES, Family, ModelSpec, build_model  # noqa: E402
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
    kind = "constraint" if workload.command == "constraint" else "energy"
    return variational_run(cfg, _model_spec(cfg), _spsa_config(cfg), kind)


def energy_checks(result, exact: float):
    """An energy run's error in percent of the exact E0, and the gate's two checks of it."""
    values = {"error_pct": 100 * abs(result.h_mean - exact) / abs(exact)}
    checks = {
        "within_3pct": abs(result.h_mean - exact) <= 0.03 * abs(exact),
        "not_below_2sigma": result.h_mean >= exact - 2 * result.h_stderr,
    }
    return values, checks, {}


def vqe_doublewell(seed: int):
    """The vqe-doublewell workload at `seed`: its error in percent of E0, and its checks."""
    return energy_checks(workload_run("vqe-doublewell", seed), DOUBLE_WELL_3Q_E0)


def constraint_phi4_6q(seed: int):
    """The constraint-phi4-6q workload at `seed`: |<H>| and <H^2>, and the workload's checks."""
    result = workload_run("constraint-phi4-6q", seed)
    h, h2, h2_stderr = result.h_mean, result.h2_mean, result.h2_stderr
    values = {"abs_h": abs(h), "h2": h2}
    checks = {
        "finite": all(math.isfinite(value) for value in (h, h2, h2_stderr)),
        "h2_not_below_minus_2sigma": h2 >= -2 * h2_stderr,
    }
    return values, checks, {}


def criterion_2(family: Family, qubits: int, depth: int, iterations: int):
    spec = ModelSpec(family, qubits)
    exact = float(eigendecompose(build_model(spec)).eigenvalues[0])

    def case(seed: int):
        spsa = SpsaConfig(iterations=iterations, seed=seed)
        return energy_checks(vqe_run(spec, AnsatzShape(qubits, depth), shots=CRITERION_2_SHOTS, spsa=spsa), exact)

    return case


def criterion_3(family: Family):
    """The gate's constraint run of family at a seed: its reported and exact values, its checks,
    and the tally of an exact |<H>| below 0.001."""
    h = build_model(ModelSpec(family, 2))
    solve = eigendecompose(h)
    vals = solve.eigenvalues
    zero_space = solve.eigenvectors[:, np.abs(vals) <= 1e-9 * np.abs(vals).max()]

    def case(seed: int):
        result = constraint_run(family, seed)
        state = run(result.circuit)
        h_state = h @ state
        exact_h = float(np.vdot(state, h_state).real)
        values = {
            "abs_h": abs(result.h_mean),
            "h_stderr": result.h_stderr,
            "h2": result.h2_mean,
            "exact_abs_h": abs(exact_h),
            "exact_h2": float(np.vdot(h_state, h_state).real),
            "weight_off_zero_space": 1 - float(np.sum(np.abs(zero_space.T @ state) ** 2)),
        }
        if family == Family.CLOSED_FREE:
            checks = {"abs_h_within_2sigma": values["abs_h"] <= 2 * result.h_stderr}
        else:
            checks = {"abs_h_below_0.1": values["abs_h"] < 0.1, "h2_below_0.1": values["h2"] < 0.1}
        return values, checks, {"exact_abs_h_below_0.001": values["exact_abs_h"] < 0.001}

    return case


(CRITERION_2_MARK,) = [mark for mark in test_criterion_2_vqe_bounds.pytestmark if mark.name == "parametrize"]

CASES = {
    "vqe-doublewell": vqe_doublewell,
    "constraint-phi4-6q": constraint_phi4_6q,
    **{f"criterion-2-{row[0].value}": criterion_2(*row) for row in CRITERION_2_MARK.args[1]},
    **{f"criterion-3-{family.value}": criterion_3(family) for family in TWO_MODE_FAMILIES},
}


def sweep(case: str, seeds: range) -> dict:
    start = time.perf_counter()
    values, passed, tallies, failing = {}, {}, {}, []
    for seed in seeds:
        seed_values, checks, seed_tallies = CASES[case](seed)
        for name, value in seed_values.items():
            values.setdefault(name, []).append((value, seed))
        for counts, flags in ((passed, checks), (tallies, seed_tallies)):
            for name, ok in flags.items():
                counts[name] = counts.get(name, 0) + bool(ok)
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
        "tallies": tallies,
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
