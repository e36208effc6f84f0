"""Optimizer tests.

Baselines run against closed-form toy objectives through the same
history-of-samples interface the harness uses. GP correctness is checked
against brute-force grid evaluation; BO behaviour against EI properties
and the 5-D sphere.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from beamtune.optics import BeamParameters
from beamtune.optimizers import (
    BayesianOptimizer,
    DoNothing,
    ExtremumSeeking,
    GaussianProcess,
    RandomSearch,
    ReinforcementPolicyOptimizer,
    expected_improvement,
)
from beamtune.optimizers.base import box_bounds, denormalize, normalize
from beamtune.optimizers.gp import GPFitError
from beamtune.optimizers.extremum_seeking import default_frequencies
from beamtune.task import Sample

DUMMY_PARAMS = BeamParameters(0.0, 0.1, 0.0, 0.1)


def toy_sample(step: int, u: np.ndarray, objective: float) -> Sample:
    return Sample(
        step_index=step,
        settings=denormalize(u),
        parameters=DUMMY_PARAMS,
        objective=float(objective),
        mae=float(objective) / 4.0,
    )


def drive(optimizer, fn, start_u, steps: int) -> list[Sample]:
    """Run an optimizer against a toy objective in normalized coordinates."""
    u = np.asarray(start_u, dtype=float)
    history = [toy_sample(0, u, fn(u))]
    for step in range(1, steps + 1):
        proposal = optimizer.propose(history)
        u = np.clip(normalize(proposal), -1.0, 1.0)  # the task clamps likewise
        history.append(toy_sample(step, u, fn(u)))
    return history


def sphere(u: np.ndarray) -> float:
    return float(np.sum(np.asarray(u) ** 2))


class TestDoNothing:
    def test_always_initial_settings(self):
        optimizer = DoNothing()
        history = drive(optimizer, sphere, np.full(5, 0.3), 10)
        assert all(s.settings == history[0].settings for s in history)


class TestRandomSearch:
    def test_within_box_and_reproducible(self):
        history = [toy_sample(0, np.zeros(5), 0.0)]
        sampler = RandomSearch(seed=5)
        sequence = [sampler.propose(history) for _ in range(10)]
        assert sequence[0] != sequence[1]  # actually random
        low, high = box_bounds()
        for settings in sequence:
            assert np.all(np.array(settings.as_tuple()) >= low)
            assert np.all(np.array(settings.as_tuple()) <= high)
        replay = RandomSearch(seed=5)
        assert [replay.propose(history) for _ in range(10)] == sequence


class TestExtremumSeeking:
    def test_zero_amplitude_freezes_settings(self):
        optimizer = ExtremumSeeking(seed=0, amplitude=0.0)
        history = drive(optimizer, sphere, np.full(5, 0.4), 5)
        for sample in history[1:]:
            assert np.allclose(
                np.array(sample.settings.as_tuple()),
                np.array(history[0].settings.as_tuple()),
                atol=1e-12,
            )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_descends_on_toy_sphere(self, seed):
        optimizer = ExtremumSeeking(seed=seed)
        start = np.array([0.5, 0.0, 0.0, 0.0, 0.0])  # ||u|| = 0.5
        history = drive(optimizer, sphere, start, 200)
        tail = [s.objective for s in history[-10:]]
        assert np.mean(tail) < history[0].objective

    def test_per_step_move_bounded(self):
        amplitude, dt = 0.0025, 1.0
        optimizer = ExtremumSeeking(seed=3, amplitude=amplitude, dt=dt)
        history = drive(optimizer, sphere, np.zeros(5), 60)
        bound = dt * np.sqrt(amplitude * default_frequencies())
        for previous, current in zip(history, history[1:]):
            step = np.abs(normalize(current.settings) - normalize(previous.settings))
            assert np.all(step <= bound + 1e-12)

    def test_total_drift_bounded(self):
        amplitude, dt, steps = 0.0025, 1.0, 80
        optimizer = ExtremumSeeking(seed=4, amplitude=amplitude, dt=dt)
        history = drive(optimizer, sphere, np.zeros(5), steps)
        drift = np.abs(normalize(history[-1].settings) - normalize(history[0].settings))
        assert np.all(drift <= steps * dt * math.sqrt(amplitude * default_frequencies()[-1]))

    def test_deterministic_given_seed(self):
        runs = []
        for _ in range(2):
            optimizer = ExtremumSeeking(seed=11)
            history = drive(optimizer, sphere, np.full(5, 0.2), 20)
            runs.append([s.settings for s in history])
        assert runs[0] == runs[1]


class TestGaussianProcess:
    def test_single_point_interpolation(self):
        gp = GaussianProcess.fit(np.array([[0.2, -0.1, 0.0, 0.3, 0.5]]), np.array([4.2]))
        mean, _ = gp.predict(gp.X)
        assert abs(mean[0] - 0.0) < 1e-6  # standardized single target is 0

    def test_prior_recovery_far_from_data(self):
        X = np.zeros((3, 5))
        X[1, 0] = 0.05
        X[2, 1] = -0.05
        gp = GaussianProcess.from_hyperparameters(
            X, np.array([1.0, 1.1, 0.9]), lengthscales=0.3, signal_std=1.0, noise_std=1e-3
        )
        far = np.full((1, 5), 1.0)  # several lengthscales away from the data
        _, std = gp.predict(far)
        assert std[0] == pytest.approx(1.0, rel=0.05)

    def test_interpolates_training_data_within_noise(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, size=(25, 5))
        y = np.sum(X**2, axis=1)
        gp = GaussianProcess.fit(X, y)
        mean, _ = gp.predict(X)
        y_std = (y - gp.y_mean) / gp.y_scale
        assert np.max(np.abs(mean - y_std)) <= 3.0 * gp.noise_std + 1e-6

    def test_quadratic_rmse_against_grid_oracle(self):
        # 20 samples of a 1-D quadratic; posterior mean must track the
        # closed form on a held-out grid to RMSE < 0.1 (standardized).
        rng = np.random.default_rng(1)
        X = rng.uniform(-1, 1, size=(20, 1))
        truth = lambda x: (x - 0.2) ** 2
        gp = GaussianProcess.fit(X, truth(X[:, 0]))
        grid = np.linspace(-1, 1, 101)[:, None]
        mean, _ = gp.predict(grid)
        oracle = (truth(grid[:, 0]) - gp.y_mean) / gp.y_scale
        rmse = float(np.sqrt(np.mean((mean - oracle) ** 2)))
        assert rmse < 0.1

    def test_duplicate_inputs_tolerated(self):
        X = np.zeros((4, 5))
        y = np.array([1.0, 1.0, 1.01, 0.99])
        gp = GaussianProcess.fit(X, y)
        mean, _ = gp.predict(X[:1])
        assert np.isfinite(mean[0])

    def test_constant_targets_do_not_crash(self):
        X = np.array([[0.0] * 5, [0.5] * 5])
        gp = GaussianProcess.fit(X, np.array([2.0, 2.0]))
        mean, std = gp.predict(np.array([[0.25] * 5]))
        assert np.isfinite(mean[0]) and np.isfinite(std[0])


class TestExpectedImprovement:
    def _toy_gp(self, noise_std: float) -> GaussianProcess:
        X = np.array([
            [0.0, 0.0, 0.0, 0.0, 0.0],
            [0.5, 0.0, 0.0, 0.0, 0.0],
            [-0.5, 0.2, 0.0, 0.0, 0.0],
        ])
        y = np.array([1.0, 0.2, 2.0])
        return GaussianProcess.from_hyperparameters(
            X, y, lengthscales=0.5, signal_std=1.0, noise_std=noise_std
        )

    def test_vanishes_at_noiseless_incumbent(self):
        gp = self._toy_gp(noise_std=1e-6)
        incumbent_point = gp.X[1:2]  # lowest target
        ei = expected_improvement(gp, incumbent_point)
        assert ei[0] <= 1e-9

    def test_positive_away_from_data(self):
        gp = self._toy_gp(noise_std=1e-6)
        ei = expected_improvement(gp, np.array([[0.9, -0.9, 0.5, 0.5, -0.5]]))
        assert ei[0] > 0.0

    def test_never_negative(self):
        gp = self._toy_gp(noise_std=1e-2)
        rng = np.random.default_rng(2)
        ei = expected_improvement(gp, rng.uniform(-1, 1, size=(256, 5)))
        assert np.all(ei >= 0.0)

    def test_observing_a_point_cannot_raise_its_ei(self):
        gp = self._toy_gp(noise_std=1e-6)
        probe = np.array([[0.3, 0.1, -0.2, 0.0, 0.1]])
        before = expected_improvement(gp, probe)[0]
        observed = gp.predict_raw(probe)[0][0]  # observe the posterior mean
        gp_after = GaussianProcess.from_hyperparameters(
            np.vstack([gp.X, probe]),
            np.append(gp.y_raw, observed),
            lengthscales=gp.lengthscales,
            signal_std=gp.signal_std,
            noise_std=gp.noise_std,
        )
        after = expected_improvement(gp_after, probe)[0]
        assert after <= before + 1e-6


class TestBayesianOptimizer:
    def test_initial_design_inside_box(self):
        optimizer = BayesianOptimizer(seed=0)
        history = [toy_sample(0, np.zeros(5), 1.0)]
        low, high = box_bounds()
        for _ in range(4):  # history sizes 1..4 use the design
            proposal = optimizer.propose(history)
            values = np.array(proposal.as_tuple())
            assert np.all(values >= low) and np.all(values <= high)
            u = normalize(proposal)
            history.append(toy_sample(len(history), u, sphere(u)))

    def test_deterministic_proposals(self):
        seqs = []
        for _ in range(2):
            optimizer = BayesianOptimizer(seed=3)
            history = drive(optimizer, sphere, np.full(5, 0.4), 8)
            seqs.append([s.settings for s in history])
        assert seqs[0] == seqs[1]

    def test_proposals_always_finite(self):
        optimizer = BayesianOptimizer(seed=1)
        history = drive(optimizer, sphere, np.full(5, 0.3), 12)
        for sample in history:
            assert sample.settings.is_finite()

    def test_degenerate_gp_falls_back_to_random(self, monkeypatch):
        def broken_fit(*args, **kwargs):
            raise GPFitError("forced")

        monkeypatch.setattr(GaussianProcess, "fit", broken_fit)
        optimizer = BayesianOptimizer(seed=2)
        history = [toy_sample(i, np.full(5, 0.1 * i), float(i)) for i in range(6)]
        proposal = optimizer.propose(history)
        assert proposal.is_finite() and proposal.in_range()
        assert optimizer.fallback_steps == [6]

    @pytest.mark.slow
    def test_sphere_performance_median_of_seeds(self):
        # best objective after 50 proposals < 5% of the start value
        start = np.full(5, 0.5)  # sphere value 1.25
        ratios = []
        for seed in range(5):
            optimizer = BayesianOptimizer(seed=seed)
            history = drive(optimizer, sphere, start, 50)
            best = min(s.objective for s in history)
            ratios.append(best / history[0].objective)
        assert float(np.median(ratios)) < 0.05


class TestPolicyStub:
    def test_wraps_callable_policy(self):
        policy = lambda history: history[0].settings
        optimizer = ReinforcementPolicyOptimizer(policy)
        history = [toy_sample(0, np.full(5, 0.1), 1.0)]
        assert optimizer.propose(history) == history[0].settings

    def test_rejects_non_callable(self):
        with pytest.raises(TypeError):
            ReinforcementPolicyOptimizer("not a policy")

    def test_from_spec_loads_module_attribute(self):
        optimizer = ReinforcementPolicyOptimizer.from_spec(
            "test_optimizers:_example_policy"
        )
        history = [toy_sample(0, np.full(5, 0.2), 1.0)]
        assert optimizer.propose(history) == history[0].settings

    def test_from_spec_rejects_malformed(self):
        with pytest.raises(ValueError):
            ReinforcementPolicyOptimizer.from_spec("no-colon")

    def test_from_spec_rejects_non_callable_attribute(self):
        with pytest.raises(TypeError):
            ReinforcementPolicyOptimizer.from_spec("math:pi")

    def test_from_spec_uses_the_attribute_as_the_policy(self):
        # loading never calls the policy, not even one that takes no arguments
        optimizer = ReinforcementPolicyOptimizer.from_spec(
            "test_optimizers:_policy_with_default_history"
        )
        history = [toy_sample(0, np.full(5, 0.2), 1.0)]
        assert optimizer.propose(history) == history[0].settings


def _example_policy(history):
    return history[0].settings


def _policy_with_default_history(history=()):
    return history[0].settings
