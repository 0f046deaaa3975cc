"""Run the benchmark over several seeds and report each metric's median and spread.

    python3 perfbench/collect.py --seeds 0-9 [--workloads a,b] [--trace-seeds 0] [--out FILE]

For each workload (default: all in BENCHMARK.json) this makes one untraced run
per seed and one traced run per --trace-seeds seed, one after another, with
BENCHMARK.json's run_seconds.  Per end-to-end metric it reports the median,
the quartiles as statistics.quantiles(values, n=4) gives them, and their
distance as a share of the median, against a third of the metric's bound.
--out writes all of it, with the machine and each seed's CSV hash, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".perfbench_work" / workload / f"seed{seed}-trace{trace}.json").read_text())
    return {"result": result, "record": record}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=seeds, default=seeds("0-9"))
    parser.add_argument("--trace-seeds", type=seeds, default=[])
    parser.add_argument("--workloads", default="")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--label", default="", help="what was measured, e.g. a commit id")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    report = {"label": args.label, "run_seconds": spec["run_seconds"], "workloads": {}}
    all_ok = True
    for name in names:
        runs = [bench(name, seed, spec["run_seconds"], 0) for seed in args.seeds]
        traced = [bench(name, seed, spec["run_seconds"], 1) for seed in args.trace_seeds]
        report["machine"] = runs[-1]["record"]["machine"]
        entry = {
            "failed": sum(r["result"]["failed"] for r in runs + traced),
            "attempted": sum(r["result"]["attempted"] for r in runs + traced),
            "csv_sha256": {str(s): r["record"]["csv_sha256"] for s, r in zip(args.seeds, runs)},
            "end_to_end": {},
        }
        all_ok &= entry["failed"] == 0
        for metric, bound in bounds.items():
            stats = spread([r["result"]["metrics"][metric]["value"] for r in runs])
            entry["end_to_end"][metric] = stats
            steady = metric == "setup_s" or stats["spread"] < bound / 3
            all_ok &= steady
            print(f"{name:22s} {metric:12s} median {stats['median']:10.4f}  spread {stats['spread']:.4f}"
                  f"  (bound/3 {bound / 3:.4f}){'' if steady else '  NOT STEADY'}")
        if traced:
            entry["per_layer"] = {
                key: statistics.median(r["result"]["metrics"][key]["value"] for r in traced)
                for key in traced[0]["result"]["metrics"]
            }
        print(f"{name:22s} failed {entry['failed']} of {entry['attempted']}")
        report["workloads"][name] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
