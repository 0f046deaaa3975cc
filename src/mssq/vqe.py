"""SPSA optimizer and the variational solver driver.

Energy mode minimizes the shot-estimated <H> to upper-bound a ground energy.
Constraint mode minimizes <H^2>, which targets the zero eigenspace directly
and stays bounded below even when H itself is unbounded; the final report
carries both <H> and <H^2> of the optimized state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import pauli
from .circuits import AnsatzShape, Circuit, _readout_probabilities, _sampled_expectation, expectation
from .oscillator import ModelSpec, build_model, matrix_square

DEFAULT_CALIBRATION_STEP = 0.1  # radians, first-iteration parameter change
SMOOTHING_WINDOW = 5


class SpsaDiverged(RuntimeError):
    """Raised when the objective returns a non-finite value."""


@dataclass(frozen=True)
class SpsaConfig:
    iterations: int
    a: float | None = None  # None: set by calibration
    c: float = 0.1
    stability: float | None = None  # the A constant; None: 0.1 * iterations
    alpha: float = 0.602
    gamma: float = 0.101
    calibration_samples: int = 25
    calibration_step: float = DEFAULT_CALIBRATION_STEP
    seed: int = 0

    def __post_init__(self):
        if not 0.5 < self.alpha <= 1:
            raise ValueError("alpha must lie in (0.5, 1]")
        if not 0 < self.gamma <= 0.5:
            raise ValueError("gamma must lie in (0, 0.5]")
        if not self.c > 0:
            raise ValueError("c must be positive")
        if self.a is not None and not self.a > 0:
            raise ValueError("a must be positive")
        if self.stability is not None and not self.stability >= 0:
            raise ValueError("stability must be nonnegative")
        if self.iterations < 1:
            raise ValueError("iterations must be positive")
        if self.calibration_samples < 1:
            raise ValueError("calibration_samples must be positive")

    @property
    def stability_const(self) -> float:
        return 0.1 * self.iterations if self.stability is None else self.stability


@dataclass
class VqeResult:
    best_params: np.ndarray
    trajectory: list[tuple[np.ndarray, float]]
    seed: int
    objective_kind: str
    h_mean: float
    h_stderr: float
    circuit: Circuit
    h2_mean: float | None = None
    h2_stderr: float | None = None


def _smoothed(values: np.ndarray, window: int = SMOOTHING_WINDOW) -> np.ndarray:
    """Trailing moving average; entry k averages values[max(0, k-window+1) .. k]."""
    csum = np.concatenate(([0.0], np.cumsum(values)))
    stop = np.arange(1, len(values) + 1)
    start = np.maximum(stop - window, 0)
    return (csum[stop] - csum[start]) / (stop - start)


def spsa_minimize(objective, initial, config: SpsaConfig):
    """Minimize a noisy objective with simultaneous-perturbation gradients.

    objective takes the (2, P) stack [theta + c delta, theta - c delta] and
    returns its two values, so each calibration sample and each iteration is
    one call.

    Gain schedules: a_k = a / (k+1+A)^alpha, c_k = c / (k+1)^gamma, with the
    perturbation directions drawn as symmetric Bernoulli +-1 per coordinate.
    When config.a is None the numerator a is calibrated so the first step
    moves parameters by about 0.1 rad.

    Returns (best_params, trajectory); trajectory holds one (params, objective
    estimate) pair per iteration, and best_params is the iterate whose
    window-5 smoothed objective is lowest.
    """
    theta = np.asarray(initial, dtype=float).copy()
    if theta.size == 0:
        return theta, []
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    big_a = config.stability_const

    def pair(step, delta, k):
        f_plus, f_minus = objective(np.stack((theta + step * delta, theta - step * delta)))
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise SpsaDiverged(f"non-finite objective at iteration {k}")
        return f_plus, f_minus

    a = config.a
    if a is None:
        # calibrate so the first update has magnitude ~config.calibration_step
        mags = []
        for _ in range(config.calibration_samples):
            delta = rng.choice([-1.0, 1.0], size=theta.shape)
            f_plus, f_minus = pair(config.c, delta, -1)
            mags.append(abs(f_plus - f_minus) / (2 * config.c))
        mean_mag = max(float(np.mean(mags)), 1e-12)
        a = config.calibration_step * (1 + big_a) ** config.alpha / mean_mag

    trajectory: list[tuple[np.ndarray, float]] = []
    for k in range(config.iterations):
        a_k = a / (k + 1 + big_a) ** config.alpha
        c_k = config.c / (k + 1) ** config.gamma
        delta = rng.choice([-1.0, 1.0], size=theta.shape)
        f_plus, f_minus = pair(c_k, delta, k)
        ghat = (f_plus - f_minus) / (2 * c_k) * (1.0 / delta)
        trajectory.append((theta.copy(), float(0.5 * (f_plus + f_minus))))
        theta = theta - a_k * ghat
    objectives = np.array([obj for _, obj in trajectory])
    best_k = int(np.argmin(_smoothed(objectives)))
    return trajectory[best_k][0].copy(), trajectory


def estimate_error(circuit: Circuit, observable: pauli.PauliSum, shots, repetitions, seed):
    """Sample mean and standard deviation of repeated shot-mode expectations.

    The circuit is simulated once; each repetition draws its shots from that
    state with its own child generator, as `expectation` would.
    """
    if repetitions < 2:
        raise ValueError("repetitions must be at least 2")
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    pvals = _readout_probabilities(circuit, observable)
    values = [
        _sampled_expectation(pvals, observable, shots, np.random.default_rng(child))
        for child in root.spawn(repetitions)
    ]
    return float(np.mean(values)), float(np.std(values, ddof=1))


def _child_seed(seq: np.random.SeedSequence) -> int:
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def vqe_run(
    spec: ModelSpec,
    shape: AnsatzShape,
    objective_kind: str = "energy",
    shots: int = 8192,
    spsa: SpsaConfig | None = None,
    repetitions: int = 30,
    restarts: int = 1,
    refinements: tuple[tuple[int, float, int], ...] = (),
) -> VqeResult:
    """Full variational run: build, decompose, SPSA-minimize, re-measure.

    objective_kind "energy" minimizes <H>; "constraint" minimizes <H^2> and
    reports <H> of the optimized state alongside it.  h_mean and h_stderr
    come from `repetitions` fresh shot-mode evaluations at the best
    parameters; circuit is the ansatz at those parameters.

    restarts > 1 runs that many independently-initialized SPSA passes and
    keeps the one with the lowest tail objective.  Each (iterations, c, shots)
    entry in refinements then continues from the best parameters with a
    recalibrated step size; shrinking c and growing shots pushes the plateau
    down, which the constraint objective needs to resolve its zero eigenspace.
    All stage seeds derive from the one spsa.seed.
    """
    if objective_kind not in ("energy", "constraint"):
        raise ValueError(f"unknown objective kind {objective_kind!r}")
    if shape.n_qubits != spec.total_qubits:
        raise ValueError(
            f"ansatz has {shape.n_qubits} qubits but the model needs {spec.total_qubits}"
        )
    if restarts < 1:
        raise ValueError("restarts must be positive")
    if spsa is None:
        spsa = SpsaConfig(iterations=300)
    hamiltonian = build_model(spec)
    h_sum = pauli.decompose(hamiltonian)
    objective_sum = (
        pauli.decompose(matrix_square(hamiltonian))
        if objective_kind == "constraint"
        else h_sum
    )

    root = np.random.SeedSequence(spsa.seed)
    ss_init, ss_shots, ss_final, ss_stages = root.spawn(4)
    shot_rng = np.random.default_rng(ss_shots)
    init_rng = np.random.default_rng(ss_init)
    current_shots = shots

    def objective(pair):
        return expectation(Circuit(shape, pair), objective_sum, shots=current_shots, seed=shot_rng)

    def tail_mean(traj):
        objs = [obj for _, obj in traj[-20:]]
        return float(np.mean(objs))

    stage_seeds = iter(ss_stages.spawn(restarts + len(refinements)))
    candidates = []
    trajectory: list[tuple[np.ndarray, float]] = []
    for _ in range(restarts):
        init_params = init_rng.uniform(-np.pi, np.pi, size=shape.parameter_count)
        stage_cfg = replace(spsa, seed=_child_seed(next(stage_seeds)))
        params, traj = spsa_minimize(objective, init_params, stage_cfg)
        trajectory.extend(traj)
        candidates.append((tail_mean(traj), params))
    best_params = min(candidates, key=lambda t: t[0])[1]
    for stage_iters, stage_c, stage_shots in refinements:
        current_shots = stage_shots
        # match the first-step size to the stage's perturbation scale so the
        # recalibrated optimizer does not bounce out of the refined region
        stage_cfg = replace(
            spsa,
            iterations=stage_iters,
            c=stage_c,
            a=None,
            calibration_step=stage_c,
            seed=_child_seed(next(stage_seeds)),
        )
        best_params, traj = spsa_minimize(objective, best_params, stage_cfg)
        trajectory.extend(traj)
    best_circuit = Circuit(shape, best_params)

    ss_h, ss_h2 = ss_final.spawn(2)
    h_mean, h_std = estimate_error(best_circuit, h_sum, shots, repetitions, ss_h)
    h_stderr = h_std / np.sqrt(repetitions)
    result = VqeResult(
        best_params=best_params,
        trajectory=trajectory,
        seed=spsa.seed,
        objective_kind=objective_kind,
        h_mean=h_mean,
        h_stderr=float(h_stderr),
        circuit=best_circuit,
    )
    if objective_kind == "constraint":
        h2_mean, h2_std = estimate_error(best_circuit, objective_sum, shots, repetitions, ss_h2)
        result.h2_mean = h2_mean
        result.h2_stderr = float(h2_std / np.sqrt(repetitions))
    return result
