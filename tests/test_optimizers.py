"""Optimizer tests.

Baselines run against closed-form toy objectives through the same
history-of-samples interface the harness uses. GP correctness is checked
against brute-force grid evaluation; BO behaviour against EI properties
and the 5-D sphere.
"""

from __future__ import annotations

import dataclasses
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
from beamtune.optimizers.base import denormalize, normalize
from beamtune.optimizers import gp as gp_module
from beamtune.optimizers.gp import GPFitError, expected_improvement_and_gradient
from beamtune.optimizers.extremum_seeking import default_frequencies
from beamtune.task import ACTUATOR_RANGES, Sample

DUMMY_PARAMS = BeamParameters(0.0, 0.1, 0.0, 0.1)


def toy_sample(step: int, u: np.ndarray, objective: float) -> Sample:
    return Sample(
        step_index=step,
        settings=denormalize(u),
        parameters=DUMMY_PARAMS,
        objective=float(objective),
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
        low, high = np.array(ACTUATOR_RANGES).T
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
        y_std = (y - np.mean(y)) / np.std(y)
        assert np.max(np.abs(mean - y_std)) <= 3.0 * gp.noise_std + 1e-6

    def test_quadratic_rmse_against_grid_oracle(self):
        # 20 samples of a 1-D quadratic; posterior mean must track the
        # closed form on a held-out grid to RMSE < 0.1 (standardized).
        rng = np.random.default_rng(1)
        X = rng.uniform(-1, 1, size=(20, 1))
        truth = lambda x: (x - 0.2) ** 2
        y = truth(X[:, 0])
        gp = GaussianProcess.fit(X, y)
        grid = np.linspace(-1, 1, 101)[:, None]
        mean, _ = gp.predict(grid)
        oracle = (truth(grid[:, 0]) - np.mean(y)) / np.std(y)
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

    @staticmethod
    def _duplicated_rows() -> np.ndarray:
        X = np.random.default_rng(0).uniform(-1, 1, size=(4, 5))
        return np.vstack([X, X])  # an exactly singular kernel matrix without noise

    @staticmethod
    def _count_factorisations(monkeypatch) -> list[bool]:
        """Whether each Cholesky attempt of the jitter ladder succeeded."""
        outcomes = []
        cholesky = gp_module.cholesky

        def counting(K, **kwargs):
            try:
                L = cholesky(K, **kwargs)
            except np.linalg.LinAlgError:
                outcomes.append(False)
                raise
            outcomes.append(True)
            return L

        monkeypatch.setattr(gp_module, "cholesky", counting)
        return outcomes

    def test_singular_kernel_factorises_on_the_second_jitter(self, monkeypatch):
        outcomes = self._count_factorisations(monkeypatch)
        X = self._duplicated_rows()
        gp = GaussianProcess.from_hyperparameters(X, np.arange(8.0), 0.5, 1.0, 0.0)
        assert outcomes == [False, True]
        r = np.sqrt(gp_module._scaled_sq_dists(X, X, gp.lengthscales))
        K = gp_module._matern52(r, 1.0)[0] + gp_module._JITTERS[1] * np.eye(len(X))
        np.testing.assert_allclose(gp._L @ gp._L.T, K, rtol=0, atol=1e-14)

    def test_every_jitter_failing_raises_gp_fit_error(self, monkeypatch):
        # at signal_std 1e8 the kernel's entries are ~1e16, and the largest
        # jitter (1e-4) is below their rounding
        outcomes = self._count_factorisations(monkeypatch)
        with pytest.raises(GPFitError, match="^kernel matrix is not positive definite$"):
            GaussianProcess.from_hyperparameters(
                self._duplicated_rows(), np.arange(8.0), 0.5, 1e8, 0.0
            )
        assert outcomes == [False] * len(gp_module._JITTERS)


def _reference_nll_and_grad(log_theta, X, y):
    """The likelihood computed from ``X`` alone on every call, with the
    kernel and its lengthscale-gradient factor each stated inline with their
    own exponential: the reference for the fit's per-fit invariants and for
    the factors ``_matern52`` shares."""
    n, dim = X.shape
    lengthscales = np.exp(log_theta[:dim])
    signal_var = math.exp(2.0 * log_theta[dim])
    noise_var = math.exp(2.0 * log_theta[dim + 1])
    r = np.sqrt(gp_module._scaled_sq_dists(X, X, lengthscales))
    Kf = signal_var * (1.0 + math.sqrt(5.0) * r + 5.0 / 3.0 * r**2) * np.exp(-math.sqrt(5.0) * r)
    K = Kf + noise_var * np.eye(n)
    L = gp_module.cholesky(K + 1e-12 * np.eye(n), lower=True)
    alpha = gp_module.cho_solve((L, True), y)
    nll = (
        0.5 * float(y @ alpha)
        + float(np.sum(np.log(np.diag(L))))
        + 0.5 * n * math.log(2.0 * math.pi)
    )
    A = gp_module.cho_solve((L, True), np.eye(n)) - np.outer(alpha, alpha)
    grad = np.zeros_like(log_theta)
    base = signal_var * (5.0 / 3.0) * (1.0 + math.sqrt(5.0) * r) * np.exp(-math.sqrt(5.0) * r)
    for d in range(dim):
        s_d = ((X[:, d][:, None] - X[:, d][None, :]) / lengthscales[d]) ** 2
        grad[d] = 0.5 * float(np.sum(A * (base * s_d)))
    grad[dim] = 0.5 * float(np.sum(A * (2.0 * Kf)))
    grad[dim + 1] = 0.5 * float(np.trace(A)) * 2.0 * noise_var
    return nll, grad


class TestLikelihood:
    @pytest.mark.parametrize("n", [1, 7, 40])
    def test_same_bits_as_the_reference(self, n):
        rng = np.random.default_rng(n)
        X = rng.uniform(-1, 1, size=(n, 5))
        y = rng.standard_normal(n)
        diffs = X.T[:, :, None] - X.T[:, None, :]
        for _ in range(5):
            log_theta = np.concatenate([rng.uniform(-2.0, 2.0, 5), rng.uniform(-3.0, 1.0, 2)])
            nll, grad = gp_module._nll_and_grad(log_theta, X, diffs, np.eye(n), y)
            ref_nll, ref_grad = _reference_nll_and_grad(log_theta, X, y)
            assert nll == ref_nll
            assert np.array_equal(grad, ref_grad)


class TestExpectedImprovement:
    Y = np.array([1.0, 0.2, 2.0])

    def _toy_gp(self, noise_std: float) -> GaussianProcess:
        X = np.array([
            [0.0, 0.0, 0.0, 0.0, 0.0],
            [0.5, 0.0, 0.0, 0.0, 0.0],
            [-0.5, 0.2, 0.0, 0.0, 0.0],
        ])
        return GaussianProcess.from_hyperparameters(
            X, self.Y, lengthscales=0.5, signal_std=1.0, noise_std=noise_std
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
        # observe the posterior mean, in objective units
        observed = gp.predict(probe)[0][0] * np.std(self.Y) + np.mean(self.Y)
        gp_after = GaussianProcess.from_hyperparameters(
            np.vstack([gp.X, probe]),
            np.append(self.Y, observed),
            lengthscales=gp.lengthscales,
            signal_std=gp.signal_std,
            noise_std=gp.noise_std,
        )
        after = expected_improvement(gp_after, probe)[0]
        assert after <= before + 1e-6


class TestExpectedImprovementGradient:
    @pytest.fixture(scope="class")
    def gp(self) -> GaussianProcess:
        X = np.random.default_rng(4).uniform(-1, 1, size=(24, 5))
        return GaussianProcess.fit(X, self._targets(X))

    @staticmethod
    def _targets(X: np.ndarray) -> np.ndarray:
        return np.sum(X**2, axis=1) + 0.3 * np.sin(3.0 * X[:, 0])

    @staticmethod
    def _central_differences(function, U: np.ndarray, h: float = 1e-5) -> np.ndarray:
        steps = np.eye(U.shape[1]) * h
        return np.stack(
            [(function(U + e) - function(U - e)) / (2.0 * h) for e in steps], axis=1
        )

    def test_matches_central_differences(self, gp):
        U = np.random.default_rng(5).uniform(-1, 1, size=(64, 5))
        _, grad = expected_improvement_and_gradient(gp, U)
        numeric = self._central_differences(lambda V: expected_improvement(gp, V), U)
        assert np.abs(grad).max() > 1e-3
        np.testing.assert_allclose(grad, numeric, rtol=1e-6, atol=1e-6 * np.abs(grad).max())

    def test_values_equal_expected_improvement_exactly(self, gp):
        U = np.random.default_rng(6).uniform(-1, 1, size=(64, 5))
        ei, _ = expected_improvement_and_gradient(gp, U)
        assert np.array_equal(ei, expected_improvement(gp, U))

    def test_zero_where_ei_is_zero(self, gp):
        # an incumbent far below the posterior makes EI underflow to 0
        hopeless = dataclasses.replace(gp, incumbent=gp.incumbent - 50.0)
        U = np.random.default_rng(7).uniform(-1, 1, size=(32, 5))
        ei, grad = expected_improvement_and_gradient(hopeless, U)
        assert np.all(ei == 0.0)
        assert np.all(grad == 0.0)

    @staticmethod
    def _reference(gp: GaussianProcess, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """EI and its gradient with the kernel and its radial factor each
        computed inline from the scaled distances ``r``."""
        signal_var = gp.signal_std**2
        r = np.sqrt(gp_module._scaled_sq_dists(U, gp.X, gp.lengthscales))
        sqrt5 = math.sqrt(5.0)
        Ks = signal_var * (1.0 + sqrt5 * r + 5.0 / 3.0 * r**2) * np.exp(-sqrt5 * r)
        mean = Ks @ gp._alpha
        V = gp_module.solve_triangular(gp._L, Ks.T, lower=True)
        var = signal_var - np.sum(V**2, axis=0)
        var = np.where(var < gp_module._VARIANCE_FLOOR_FRACTION * signal_var, 0.0, var)
        std = np.sqrt(np.maximum(var, 0.0))
        ei, d_mean, d_std = gp_module._ei(gp.incumbent - mean, std)
        radial = -(5.0 / 3.0) * gp.signal_std**2 * (1.0 + sqrt5 * r) * np.exp(-sqrt5 * r)
        J = radial[:, :, None] * ((U[:, None, :] - gp.X[None, :, :]) / gp.lengthscales**2)
        grad_mean = np.einsum("ijd,j->id", J, gp._alpha)
        Kinv_k = gp_module.solve_triangular(gp._L, V, lower=True, trans="T")
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(std > 0, -1.0 / std, 0.0)
        grad_std = np.einsum("ijd,ji->id", J, Kinv_k) * scale[:, None]
        return ei, d_mean[:, None] * grad_mean + d_std[:, None] * grad_std

    def test_same_bits_as_the_reference(self, gp):
        rng = np.random.default_rng(8)
        # random rows, rows on the data (r = 0) and the refinement's stacked shape
        for U in (rng.uniform(-1, 1, size=(64, 5)), gp.X, rng.uniform(-1, 1, size=(8, 5))):
            ei, grad = expected_improvement_and_gradient(gp, U)
            ref_ei, ref_grad = self._reference(gp, U)
            assert ei.tobytes() == ref_ei.tobytes()
            assert grad.tobytes() == ref_grad.tobytes()

    def test_variance_floor_branch(self, gp):
        noiseless = GaussianProcess.from_hyperparameters(
            gp.X, self._targets(gp.X), lengthscales=gp.lengthscales, signal_std=gp.signal_std,
            noise_std=0.0,
        )
        assert np.all(noiseless.predict(gp.X)[1] == 0.0)
        ei, grad = expected_improvement_and_gradient(noiseless, gp.X)
        assert np.all(np.isfinite(grad))
        assert np.all(ei == 0.0) and np.all(grad == 0.0)  # nothing beats the data
        # with an incumbent above every observation, EI at an observed point is
        # its deterministic improvement, whose gradient is -grad(mean)
        raised = dataclasses.replace(noiseless, incumbent=noiseless.incumbent + 10.0)
        ei, grad = expected_improvement_and_gradient(raised, gp.X)
        assert np.all(ei > 0.0)
        mean_grad = self._central_differences(lambda V: raised.predict(V)[0], gp.X)
        np.testing.assert_allclose(grad, -mean_grad, rtol=1e-5, atol=1e-6 * np.abs(grad).max())


class TestBayesianOptimizer:
    def test_initial_design_inside_box(self):
        optimizer = BayesianOptimizer(seed=0)
        history = [toy_sample(0, np.zeros(5), 1.0)]
        low, high = np.array(ACTUATOR_RANGES).T
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

    @pytest.mark.parametrize("options, message", [
        ({"n_candidates": 0}, "n_candidates must be at least 1, got 0"),
        ({"n_refine": -1}, "n_refine must be non-negative, got -1"),
    ])
    def test_rejects_counts_out_of_range(self, options, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            BayesianOptimizer(seed=0, **options)

    def test_refined_proposal_beats_best_candidate(self):
        history = drive(BayesianOptimizer(seed=3), sphere, np.full(5, 0.4), 6)
        optimizer = BayesianOptimizer(seed=3)  # no warm start, like the fit below
        proposal = optimizer.propose(history)
        low, high = np.array(ACTUATOR_RANGES).T
        values = np.array(proposal.as_tuple())
        assert np.all(values >= low) and np.all(values <= high)
        X = np.array([normalize(s.settings) for s in history])
        gp = GaussianProcess.fit(X, np.array([s.objective for s in history]))
        best_candidate = expected_improvement(gp, optimizer._candidates(len(history))).max()
        assert expected_improvement(gp, normalize(proposal)[None, :])[0] >= best_candidate

    def test_one_refinement_per_surrogate_step(self, monkeypatch):
        # the starts are refined together, never one minimize call each
        import beamtune.optimizers.bayesian as bayesian

        sizes = []
        minimize = bayesian.optimize.minimize

        def counting(function, x0, **kwargs):
            sizes.append(np.size(x0))
            return minimize(function, x0, **kwargs)

        def fixed_fit(X, y, warm_start=None):  # the fit's own minimize calls
            return GaussianProcess.from_hyperparameters(X, y, 0.5, 1.0, 0.01)

        monkeypatch.setattr(GaussianProcess, "fit", fixed_fit)
        monkeypatch.setattr(bayesian.optimize, "minimize", counting)
        optimizer = BayesianOptimizer(seed=3)
        drive(optimizer, sphere, np.full(5, 0.4), 8)  # history sizes 5..8 use the GP
        assert sizes == [optimizer.n_refine * 5] * 4

    def test_no_refinement_proposes_best_candidate(self):
        history = drive(BayesianOptimizer(seed=3), sphere, np.full(5, 0.4), 6)
        optimizer = BayesianOptimizer(seed=3, n_refine=0)
        proposal = optimizer.propose(history)
        X = np.array([normalize(s.settings) for s in history])
        gp = GaussianProcess.fit(X, np.array([s.objective for s in history]))
        candidates = optimizer._candidates(len(history))
        best = candidates[np.argmax(expected_improvement(gp, candidates))]
        assert proposal == denormalize(best)

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
        reference = RandomSearch(seed=2)  # each fallback is its next draw
        history = [toy_sample(i, np.full(5, 0.1 * i), float(i)) for i in range(6)]
        proposal = optimizer.propose(history)
        assert proposal.is_finite() and proposal.in_range()
        assert optimizer.fallback_steps == [6]
        assert proposal == reference.propose(history)
        history.append(toy_sample(6, normalize(proposal), 6.0))
        assert optimizer.propose(history) == reference.propose(history)
        assert optimizer.fallback_steps == [6, 7]

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


def _example_policy(history):
    return history[0].settings


def _policy_with_default_history(history=()):
    return history[0].settings


def _dict_policy(history):
    return {name: 0.0 for name in ("q1", "q2", "cv", "q3", "ch")}


def _raising_policy(history):
    raise RuntimeError(f"policy failed at step {len(history)}")
