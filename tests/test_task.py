"""Tuning task tests: objective arithmetic, trial generation, environment."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from beamtune.optics import BeamParameters
from beamtune.task import (
    MagnetSettings,
    Trial,
    TrialGeneratorConfig,
    TuningEnvironment,
    make_trial,
    objective,
    trial_from_dict,
    trial_to_dict,
    trials_from_document,
    trials_to_document,
)

finite_mm = st.floats(min_value=-5000, max_value=5000, allow_nan=False)
positive_mm = st.floats(min_value=1e-3, max_value=5000, allow_nan=False)


def beam(mu_x, sigma_x, mu_y, sigma_y) -> BeamParameters:
    return BeamParameters(mu_x, sigma_x, mu_y, sigma_y)


class TestObjective:
    def test_equal_is_zero(self):
        b = beam(1.0, 0.2, -0.5, 0.3)
        assert objective(b, b) == 0.0
        assert objective(b, b) / 4.0 == 0.0

    def test_paper_example_arithmetic(self):
        observed = beam(-1038.63, 1893.75, -2353.77, 2226.94)
        target = beam(1.20, 0.11, 1.25, 0.06)
        assert objective(observed, target) == pytest.approx(7515.37, abs=1e-9)
        assert objective(observed, target) / 4.0 == pytest.approx(1878.8425, abs=1e-9)

    def test_unit_differences(self):
        assert objective(beam(1, 1, 1, 1), beam(0, 0, 0, 0)) == pytest.approx(4.0)

    @given(a=st.tuples(finite_mm, positive_mm, finite_mm, positive_mm),
           b=st.tuples(finite_mm, positive_mm, finite_mm, positive_mm))
    def test_symmetry(self, a, b):
        assert objective(beam(*a), beam(*b)) == objective(beam(*b), beam(*a))

    @given(a=st.tuples(finite_mm, positive_mm, finite_mm, positive_mm),
           b=st.tuples(finite_mm, positive_mm, finite_mm, positive_mm),
           c=st.tuples(finite_mm, positive_mm, finite_mm, positive_mm))
    def test_triangle_inequality(self, a, b, c):
        ab = objective(beam(*a), beam(*b))
        bc = objective(beam(*b), beam(*c))
        ac = objective(beam(*a), beam(*c))
        assert ac <= ab + bc + 1e-9

    @given(a=st.tuples(finite_mm, positive_mm, finite_mm, positive_mm),
           b=st.tuples(finite_mm, positive_mm, finite_mm, positive_mm),
           shift=st.floats(min_value=-100, max_value=100, allow_nan=False))
    def test_translation_invariance_in_mu(self, a, b, shift):
        base = objective(beam(*a), beam(*b))
        shifted = objective(
            beam(a[0] + shift, a[1], a[2], a[3]),
            beam(b[0] + shift, b[1], b[2], b[3]),
        )
        assert shifted == pytest.approx(base, rel=1e-12, abs=1e-9)


class TestMagnetSettings:
    def test_clamping(self):
        raw = MagnetSettings(q1=45.0, q2=-31.0, cv=0.0, q3=10.0, ch=7e-3)
        clamped, names = raw.clamped()
        assert clamped.q1 == 30.0 and clamped.q2 == -30.0 and clamped.ch == 6e-3
        assert names == ("q1", "q2", "ch")
        assert clamped.in_range()

    def test_in_range_bounds_inclusive(self):
        assert MagnetSettings(30.0, -30.0, 6e-3, 30.0, -6e-3).in_range()
        assert not MagnetSettings(30.0, -30.0, 6e-3, 30.0, -6.000001e-3).in_range()
        assert not MagnetSettings(0.0, 0.0, float("nan"), 0.0, 0.0).in_range()


class TestMakeTrial:
    def test_same_seed_identical(self):
        assert make_trial(7) == make_trial(7)

    def test_different_seeds_differ(self):
        assert make_trial(1) != make_trial(2)

    def test_fields_within_generator_ranges(self):
        for seed in range(20):
            trial = make_trial(seed)
            assert -2.0 <= trial.target.mu_x <= 2.0
            assert 0.05 <= trial.target.sigma_x <= 0.5
            assert trial.initial_settings.in_range()
            for dx, dy in trial.quad_misalignments:
                assert abs(dx) <= 0.5e-3 and abs(dy) <= 0.5e-3

    def test_zero_target_representable(self):
        # "focus to zero" style task: all four target parameters at 0 mm
        trial = make_trial(1)
        zeroed = Trial(
            trial_id="zero",
            seed=0,
            target=BeamParameters(0.0, 0.0, 0.0, 0.0),
            incoming=trial.incoming,
            quad_misalignments=trial.quad_misalignments,
            screen_misalignment=trial.screen_misalignment,
            initial_settings=trial.initial_settings,
        )
        env = TuningEnvironment(zeroed)
        sample = env.reset()
        assert sample.objective > 0

    @pytest.mark.parametrize("changes, message", [
        ({"screen_misalignment": (0.0, 0.0, 0.0)}, "screen misalignment has 3 values"),
        ({"screen_misalignment": (0.0,)}, "screen misalignment has 1 values"),
        ({"quad_misalignments": ((0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0))},
         "quad 2 misalignment has 3 values"),
        ({"quad_misalignments": ((0.0,), (0.0, 0.0), (0.0, 0.0))},
         "quad 1 misalignment has 1 values"),
    ], ids=["screen-3", "screen-1", "quad-3", "quad-1"])
    def test_misalignment_is_two_values(self, changes, message):
        # a trial built in Python, which no fixture reader has seen
        with pytest.raises(ValueError, match=f"^trial-001: {message}, expected 2$"):
            dataclasses.replace(make_trial(1), **changes)

    @pytest.mark.parametrize("seed", [2.7, 2.0, True, "2"])
    def test_fixture_seed_is_an_integer(self, seed):
        data = trial_to_dict(make_trial(1))
        data["seed"] = seed
        with pytest.raises(ValueError, match="^trial-001: seed: must be an integer, got "):
            trial_from_dict(data)

    def test_malformed_ranges_rejected(self):
        with pytest.raises(ValueError):
            TrialGeneratorConfig(target_position_mm=(2.0, -2.0))
        with pytest.raises(ValueError):
            TrialGeneratorConfig(target_sigma_mm=(0.0, 0.5))

    def test_fixture_round_trip(self):
        trial = make_trial(11)
        assert trial_from_dict(trial_to_dict(trial)) == trial

    @settings(deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32))
    def test_fixture_document_round_trip_is_exact(self, seed):
        trials = [make_trial(seed)]
        text = yaml.safe_dump(trials_to_document(trials))
        assert trials_from_document(yaml.safe_load(text)) == trials


class TestEnvironment:
    def test_reset_records_initial_measurement(self):
        env = TuningEnvironment(make_trial(1))
        sample = env.reset()
        assert len(env.history) == 1
        assert sample.step_index == 0
        assert sample.settings == env.trial.initial_settings
        assert sample.mae == pytest.approx(
            objective(sample.parameters, env.trial.target) / 4.0, abs=0
        )
        assert sample.objective == 4.0 * sample.mae

    def test_reset_is_deterministic(self):
        env = TuningEnvironment(make_trial(2))
        first = env.reset()
        second = env.reset()
        assert first == second
        assert len(env.history) == 1

    def test_step_repeating_settings_is_deterministic(self):
        env = TuningEnvironment(make_trial(3))
        initial = env.reset()
        repeat = env.step(env.trial.initial_settings)
        assert repeat.parameters == initial.parameters

    def test_step_clamps_and_flags(self):
        env = TuningEnvironment(make_trial(1))
        env.reset()
        sample = env.step(MagnetSettings(q1=45.0, q2=0.0, cv=0.0, q3=0.0, ch=0.0))
        assert sample.settings.q1 == 30.0
        assert sample.clamped == ("q1",)

    def test_step_rejects_non_finite(self):
        env = TuningEnvironment(make_trial(1))
        env.reset()
        with pytest.raises(ValueError):
            env.step(MagnetSettings(float("nan"), 0.0, 0.0, 0.0, 0.0))
        assert len(env.history) == 1  # rejected proposal was not applied

    def test_step_before_reset_fails(self):
        env = TuningEnvironment(make_trial(1))
        with pytest.raises(RuntimeError):
            env.step(MagnetSettings(0, 0, 0, 0, 0))

    def test_history_grows_by_one_per_step(self):
        env = TuningEnvironment(make_trial(4))
        env.reset()
        rng = np.random.default_rng(0)
        for expected in range(2, 12):
            env.step(MagnetSettings(*(rng.uniform(-1, 1, size=5))))
            assert len(env.history) == expected
        indices = [s.step_index for s in env.history]
        assert indices == list(range(len(env.history)))

    def test_applied_settings_always_in_box(self):
        env = TuningEnvironment(make_trial(5))
        env.reset()
        rng = np.random.default_rng(1)
        for _ in range(30):
            env.step(MagnetSettings(*(rng.uniform(-100, 100, size=5))))
        assert all(s.settings.in_range() for s in env.history)

    def test_mae_quarter_objective_exact(self):
        env = TuningEnvironment(make_trial(6))
        env.reset()
        rng = np.random.default_rng(2)
        for _ in range(10):
            env.step(MagnetSettings(*(rng.uniform(-20, 20, size=5))))
        assert all(s.mae * 4.0 == s.objective for s in env.history)

    def test_noise_mode_perturbs_positions_only(self):
        trial = make_trial(1)
        quiet = TuningEnvironment(trial)
        noisy = TuningEnvironment(trial, noise_sigma=2e-5, seed=123)
        a = quiet.reset()
        b = noisy.reset()
        assert a.parameters.sigma_x == b.parameters.sigma_x
        assert a.parameters.mu_x != b.parameters.mu_x

    @pytest.mark.parametrize("sigma", [-2e-5, float("nan"), float("inf")])
    def test_negative_or_nonfinite_noise_rejected(self, sigma):
        with pytest.raises(ValueError, match="noise_sigma must be a finite value >= 0"):
            TuningEnvironment(make_trial(1), noise_sigma=sigma)

    def test_noisy_reset_reproducible_for_fixed_seed(self):
        trial = make_trial(1)
        env1 = TuningEnvironment(trial, noise_sigma=2e-5, seed=9)
        env2 = TuningEnvironment(trial, noise_sigma=2e-5, seed=9)
        assert env1.reset() == env2.reset()
