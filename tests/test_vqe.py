import numpy as np
import pytest

from mssq import circuits
from mssq.circuits import AnsatzShape, Circuit, expectation, run
from mssq.oscillator import Family, ModelSpec, build_model
from mssq.spectrum import eigendecompose
from mssq.vqe import SpsaConfig, SpsaDiverged, Trajectory, _smoothed, estimate_error, spsa_minimize, vqe_run
from test_oscillator import measurement_plan


def test_spsa_quadratic():
    config = SpsaConfig(iterations=200, seed=0)
    best, traj = spsa_minimize(lambda pair: np.sum(pair**2, axis=1), np.array([1.0, 1.0]), config)
    assert len(traj) == 200
    assert np.linalg.norm(best) < 0.05


def test_spsa_noisy_quadratic_many_seeds():
    successes = 0
    for seed in range(100):
        noise = np.random.default_rng(10_000 + seed)

        def objective(pair):
            return np.sum(pair**2, axis=1) + noise.normal(0, 0.01, size=2)

        best, _ = spsa_minimize(
            objective, np.array([1.0, 1.0]), SpsaConfig(iterations=200, seed=seed)
        )
        successes += np.linalg.norm(best) < 0.15
    assert successes >= 90


def test_spsa_empty_params():
    best, traj = spsa_minimize(lambda pair: np.zeros(2), np.array([]), SpsaConfig(iterations=10))
    assert best.size == 0 and len(traj) == 0


def test_spsa_nonfinite_objective():
    with pytest.raises(SpsaDiverged, match="iteration"):
        spsa_minimize(lambda pair: np.full(2, np.nan), np.ones(2), SpsaConfig(iterations=5))


def test_spsa_gain_sequences_decrease():
    cfg = SpsaConfig(iterations=50, a=1.0)
    ks = np.arange(50)
    a_k = cfg.a / (ks + 1 + cfg.stability_const) ** cfg.alpha
    c_k = cfg.c / (ks + 1) ** cfg.gamma
    assert np.all(np.diff(a_k) < 0) and np.all(np.diff(c_k) < 0)


def test_spsa_config_validation():
    with pytest.raises(ValueError):
        SpsaConfig(iterations=10, alpha=0.4)
    with pytest.raises(ValueError):
        SpsaConfig(iterations=10, gamma=0.6)
    with pytest.raises(ValueError):
        SpsaConfig(iterations=10, c=0.0)
    with pytest.raises(ValueError, match="^calibration_samples"):
        SpsaConfig(iterations=10, calibration_samples=0)


def test_spsa_deterministic():
    def objective(pair):
        return np.sum(pair**2, axis=1)

    runs = [
        spsa_minimize(objective, np.array([0.3, -0.2]), SpsaConfig(iterations=50, seed=9))
        for _ in range(2)
    ]
    assert np.array_equal(runs[0][0], runs[1][0])
    assert np.array_equal(runs[0][1].objectives, runs[1][1].objectives)


def test_spsa_fills_out_in_place():
    """Given rows of a larger trajectory, spsa_minimize writes its iterates there, bit for bit
    the ones it returns without `out`, and leaves the other rows alone."""
    config = SpsaConfig(iterations=30, seed=4)
    initial = np.array([0.4, -0.7, 1.1])
    best, alone = spsa_minimize(lambda pair: np.sum(pair**2, axis=1), initial, config)
    whole = Trajectory(np.full((50, 3), -9.0), np.full(50, -9.0))
    got_best, got = spsa_minimize(lambda pair: np.sum(pair**2, axis=1), initial, config, out=whole[10:40])
    assert np.shares_memory(got.params, whole.params)
    assert np.array_equal(got_best, best)
    assert np.array_equal(whole.params[10:40], alone.params)
    assert np.array_equal(whole.objectives[10:40], alone.objectives)
    assert np.all(whole.params[:10] == -9.0) and np.all(whole.objectives[40:] == -9.0)


def two_call_spsa(objective, initial, config: SpsaConfig):
    """Reference SPSA loop evaluating theta + c delta and theta - c delta in separate calls."""
    theta = np.asarray(initial, dtype=float).copy()
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    big_a = config.stability_const
    a = config.a
    if a is None:
        mags = []
        for _ in range(config.calibration_samples):
            delta = rng.choice([-1.0, 1.0], size=theta.shape)
            diff = objective(theta + config.c * delta) - objective(theta - config.c * delta)
            mags.append(abs(diff) / (2 * config.c))
        a = config.calibration_step * (1 + big_a) ** config.alpha / max(float(np.mean(mags)), 1e-12)
    trajectory = []
    for k in range(config.iterations):
        a_k = a / (k + 1 + big_a) ** config.alpha
        c_k = config.c / (k + 1) ** config.gamma
        delta = rng.choice([-1.0, 1.0], size=theta.shape)
        f_plus = objective(theta + c_k * delta)
        f_minus = objective(theta - c_k * delta)
        ghat = (f_plus - f_minus) / (2 * c_k) * (1.0 / delta)
        trajectory.append((theta.copy(), 0.5 * (f_plus + f_minus)))
        theta = theta - a_k * ghat
    return trajectory


def test_spsa_pair_objective_matches_two_call_loop():
    def quadratic(t):
        return float(np.sum((t - 0.25) ** 2 * np.arange(1, t.size + 1)))

    for config in (
        SpsaConfig(iterations=40, seed=3),
        SpsaConfig(iterations=25, calibration_samples=7, c=0.05, seed=11),
        SpsaConfig(iterations=30, a=0.2, seed=5),
    ):
        pairs = []

        def pair_objective(pair):
            pairs.append(pair.copy())
            return np.array([quadratic(row) for row in pair])

        _, traj = spsa_minimize(pair_objective, np.array([1.0, -0.5, 0.3]), config)
        calls = config.iterations + (config.calibration_samples if config.a is None else 0)
        assert len(pairs) == calls and all(p.shape == (2, 3) for p in pairs)
        reference = two_call_spsa(quadratic, np.array([1.0, -0.5, 0.3]), config)
        assert len(traj) == len(reference)
        for params, obj, (ref_params, ref_obj) in zip(traj.params, traj.objectives, reference):
            assert np.array_equal(params, ref_params) and obj == ref_obj


def test_estimate_error_exact_mode_zero_spread():
    circuit = Circuit(AnsatzShape(1, 0), np.zeros(3))
    observable = measurement_plan(np.diag([1.0, -1.0]))
    # Z on |0> is deterministic, so every shot run returns exactly 1
    mean, std = estimate_error(circuit, observable, shots=512, repetitions=10, seed=0)
    assert mean == 1.0 and std == 0.0


def test_estimate_error_binomial_scale():
    circuit = Circuit(AnsatzShape(1, 0), [np.pi / 2, 0, np.pi])  # |+>
    observable = measurement_plan(np.diag([1.0, -1.0]))
    mean, std = estimate_error(circuit, observable, shots=8192, repetitions=100, seed=1)
    assert abs(mean) < 0.005
    assert 0.008 < std < 0.015


def test_estimate_error_shot_doubling():
    circuit = Circuit(AnsatzShape(1, 0), [np.pi / 2, 0, np.pi])
    observable = measurement_plan(np.diag([1.0, -1.0]))
    _, std1 = estimate_error(circuit, observable, shots=4096, repetitions=300, seed=2)
    _, std2 = estimate_error(circuit, observable, shots=8192, repetitions=300, seed=2)
    assert 0.6 < std2 / std1 < 0.8


def test_estimate_error_simulates_once_and_matches_expectation_loop(monkeypatch):
    """One `run` per call, and the values of one `expectation` per repetition bit for bit."""
    calls = []

    def counting_run(circuit):
        calls.append(circuit)
        return run(circuit)

    monkeypatch.setattr(circuits, "run", counting_run)
    rng = np.random.default_rng(8)
    circuit = Circuit(AnsatzShape(3, 2), rng.uniform(-np.pi, np.pi, 27))
    observable = measurement_plan(build_model(ModelSpec(Family.DOUBLE_WELL, 3)))
    for entropy in (0, 5, 9):
        calls.clear()
        mean, std = estimate_error(circuit, observable, 1024, 7, np.random.SeedSequence(entropy))
        assert calls == [circuit]
        children = np.random.SeedSequence(entropy).spawn(7)
        values = [expectation(circuit, observable, 1024, np.random.default_rng(c)) for c in children]
        assert mean == float(np.mean(values)) and std == float(np.std(values, ddof=1))


def test_estimate_error_rejects_single_repetition():
    circuit = Circuit(AnsatzShape(1, 0), np.zeros(3))
    with pytest.raises(ValueError):
        estimate_error(circuit, measurement_plan(np.diag([1.0, -1.0])), 100, 1, 0)


def test_vqe_closed_free_single_qubit_modes():
    # at one qubit per mode the Hamiltonian is exactly zero
    spec = ModelSpec(Family.CLOSED_FREE, 1)
    result = vqe_run(
        spec,
        AnsatzShape(2, 1),
        objective_kind="constraint",
        spsa=SpsaConfig(iterations=10, calibration_samples=2, seed=0),
        repetitions=3,
    )
    assert result.h_mean == 0.0 and result.h2_mean == 0.0


def test_vqe_harmonic_upper_bound():
    spec = ModelSpec(Family.HARMONIC_OSC, 2)
    exact = eigendecompose(build_model(spec)).eigenvalues[0]
    result = vqe_run(spec, AnsatzShape(2, 2), spsa=SpsaConfig(iterations=200, seed=4))
    assert abs(result.h_mean - exact) <= 0.03 * abs(exact)
    assert result.h_mean >= exact - 2 * result.h_stderr


def test_vqe_result_contents():
    spec = ModelSpec(Family.HARMONIC_OSC, 2)
    result = vqe_run(
        spec,
        AnsatzShape(2, 1),
        spsa=SpsaConfig(iterations=20, calibration_samples=3, seed=5),
        repetitions=5,
    )
    assert len(result.trajectory) == 20
    assert result.h2_mean is None
    assert result.objective_kind == "energy"


def test_vqe_constraint_variance_inequality():
    spec = ModelSpec(Family.CLOSED_FREE, 1)
    result = vqe_run(
        spec,
        AnsatzShape(2, 1),
        objective_kind="constraint",
        spsa=SpsaConfig(iterations=10, calibration_samples=2, seed=6),
        repetitions=5,
    )
    spread = 2 * (result.h_stderr + (result.h2_stderr or 0.0))
    assert result.h2_mean >= result.h_mean**2 - spread


def test_vqe_deterministic_trajectory():
    spec = ModelSpec(Family.HARMONIC_OSC, 2)
    runs = [
        vqe_run(
            spec,
            AnsatzShape(2, 1),
            spsa=SpsaConfig(iterations=15, calibration_samples=3, seed=7),
            repetitions=3,
        )
        for _ in range(2)
    ]
    assert np.array_equal(runs[0].trajectory.objectives, runs[1].trajectory.objectives)
    assert runs[0].h_mean == runs[1].h_mean


def test_vqe_rejects_mismatched_shape():
    with pytest.raises(ValueError):
        vqe_run(ModelSpec(Family.HARMONIC_OSC, 2), AnsatzShape(3, 1))


def test_vqe_rejects_unknown_objective():
    with pytest.raises(ValueError):
        vqe_run(ModelSpec(Family.HARMONIC_OSC, 2), AnsatzShape(2, 1), objective_kind="foo")


def test_vqe_restarts_and_refinements_run():
    spec = ModelSpec(Family.HARMONIC_OSC, 2)
    result = vqe_run(
        spec,
        AnsatzShape(2, 1),
        spsa=SpsaConfig(iterations=15, calibration_samples=3, seed=8),
        repetitions=3,
        restarts=2,
        refinements=((10, 0.05, 4096),),
    )
    assert len(result.trajectory) == 15 * 2 + 10
    assert result.trajectory.params.shape == (40, 12) and result.trajectory.params.base is None


def test_smoothed_matches_loop_reference():
    def loop_smoothed(values, window):
        out = np.empty_like(values)
        csum = np.cumsum(values)
        for k in range(len(values)):
            lo = max(0, k - window + 1)
            out[k] = (csum[k] - (csum[lo - 1] if lo else 0.0)) / (k - lo + 1)
        return out

    rng = np.random.default_rng(31)
    for length in (0, 1, 4, 5, 6, 97):
        values = rng.normal(scale=rng.uniform(0.1, 100.0), size=length)
        for window in (1, 5, 8):
            assert np.array_equal(_smoothed(values, window), loop_smoothed(values, window))
