"""Per-layer metrics of the traced run, derived from span summaries.

Span names are "<mssq module>.<public function>" (see spans.install).  Self
time is a span's duration minus its direct children's, so a private helper's
cost lands in the public function that called it.  A layer absent from a
workload reads 0.
"""

from __future__ import annotations

MODULES = ("circuits", "pauli", "spectrum", "oscillator", "vqe", "cli", "config")

# sizes read from return values, by span name
SIZES = {
    "pauli.decompose": lambda psum: len(psum.terms),
    "pauli.group_by_basis": len,
    "spectrum.eigendecompose": lambda result: len(result.eigenvalues),
    "spectrum.reconstruct_wavefunction": lambda grid: int(grid.density.size),
    "vqe.spsa_minimize": lambda result: len(result[1]),
}

# name -> unit, in the order they are reported
UNITS = {
    "circuits.run.calls": "count",
    "circuits.run.self_s": "s",
    "circuits.run.per_expectation": "count",
    "circuits.expectation.calls": "count",
    "circuits.expectation.self_s": "s",
    "circuits.expectation.p50_ms": "ms",
    "circuits.expectation.p90_ms": "ms",
    "circuits.build_ansatz.self_s": "s",
    "pauli.decompose.calls": "count",
    "pauli.decompose.self_s": "s",
    "pauli.decompose.terms": "count",
    "pauli.group_by_basis.calls": "count",
    "pauli.group_by_basis.self_s": "s",
    "pauli.group_by_basis.groups_per_call": "count",
    "spectrum.eigendecompose.calls": "count",
    "spectrum.eigendecompose.self_s": "s",
    "spectrum.eigendecompose.max_dim": "count",
    "spectrum.convergence_scan.s": "s",
    "spectrum.reconstruct_wavefunction.self_s": "s",
    "spectrum.reconstruct_wavefunction.points": "count",
    "oscillator.build_model.calls": "count",
    "oscillator.build_model.self_s": "s",
    "oscillator.matrix_square.self_s": "s",
    "vqe.evaluations": "count",
    "vqe.spsa_minimize.calls": "count",
    "vqe.spsa_minimize.self_s": "s",
    "vqe.spsa_minimize.iteration_ms": "ms",
    "vqe.estimate_error.s": "s",
    "vqe.vqe_run.self_s": "s",
    "config.parse_config.s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "B",
    "shots_total": "count",
    **{f"share.{module}": "ratio" for module in MODULES},
    "share.setup": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def module_self_s(summary: dict) -> dict[str, float]:
    """Self seconds summed over every span of each module."""
    out = {module: 0.0 for module in MODULES}
    for name, entry in summary.items():
        module = name.partition(".")[0]
        out[module] = out.get(module, 0.0) + entry["self_s"]
    return out


def layer_metrics(summary: dict, wall_s: float, setup_s: float, shots: int, bytes_written: int) -> dict:
    """Every UNITS metric except trace.overhead_s, from one traced repeat."""
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "size_sum": 0, "size_max": 0,
             "p50_ms": 0.0, "p90_ms": 0.0, "by_parent": {}}

    def get(name):
        return summary.get(name, empty)

    def ratio(num, den):
        return num / den if den else 0.0

    run, exp, spsa, groups = (
        get("circuits.run"), get("circuits.expectation"), get("vqe.spsa_minimize"), get("pauli.group_by_basis")
    )
    module_s = module_self_s(summary)
    return {
        "circuits.run.calls": run["calls"],
        "circuits.run.self_s": run["self_s"],
        "circuits.run.per_expectation": ratio(run["by_parent"].get("circuits.expectation", 0), exp["calls"]),
        "circuits.expectation.calls": exp["calls"],
        "circuits.expectation.self_s": exp["self_s"],
        "circuits.expectation.p50_ms": exp["p50_ms"],
        "circuits.expectation.p90_ms": exp["p90_ms"],
        "circuits.build_ansatz.self_s": get("circuits.build_ansatz")["self_s"],
        "pauli.decompose.calls": get("pauli.decompose")["calls"],
        "pauli.decompose.self_s": get("pauli.decompose")["self_s"],
        "pauli.decompose.terms": get("pauli.decompose")["size_max"],
        "pauli.group_by_basis.calls": groups["calls"],
        "pauli.group_by_basis.self_s": groups["self_s"],
        "pauli.group_by_basis.groups_per_call": ratio(groups["size_sum"], groups["calls"]),
        "spectrum.eigendecompose.calls": get("spectrum.eigendecompose")["calls"],
        "spectrum.eigendecompose.self_s": get("spectrum.eigendecompose")["self_s"],
        "spectrum.eigendecompose.max_dim": get("spectrum.eigendecompose")["size_max"],
        "spectrum.convergence_scan.s": get("spectrum.convergence_scan")["total_s"],
        "spectrum.reconstruct_wavefunction.self_s": get("spectrum.reconstruct_wavefunction")["self_s"],
        "spectrum.reconstruct_wavefunction.points": get("spectrum.reconstruct_wavefunction")["size_sum"],
        "oscillator.build_model.calls": get("oscillator.build_model")["calls"],
        "oscillator.build_model.self_s": get("oscillator.build_model")["self_s"],
        "oscillator.matrix_square.self_s": get("oscillator.matrix_square")["self_s"],
        "vqe.evaluations": exp["by_parent"].get("vqe.spsa_minimize", 0),
        "vqe.spsa_minimize.calls": spsa["calls"],
        "vqe.spsa_minimize.self_s": spsa["self_s"],
        "vqe.spsa_minimize.iteration_ms": 1e3 * ratio(spsa["total_s"], spsa["size_sum"]),
        "vqe.estimate_error.s": get("vqe.estimate_error")["total_s"],
        "vqe.vqe_run.self_s": get("vqe.vqe_run")["self_s"],
        "config.parse_config.s": get("config.parse_config")["total_s"],
        "cli.self_s": module_s["cli"],
        "cli.bytes_written": bytes_written,
        "shots_total": shots,
        **{f"share.{module}": ratio(module_s[module], wall_s) for module in MODULES},
        "share.setup": ratio(setup_s, wall_s),
        "trace.wall_s": wall_s,
    }
