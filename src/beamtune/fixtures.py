"""Canonical evaluation fixtures.

The benchmark's three trials are generated from seeds 1, 2 and 3, so that
results stay comparable across machines and code changes. A test pins the
suite's exact values, which catches drift in numpy's random stream.
"""

from __future__ import annotations

from .task import Trial, TrialGeneratorConfig, make_trial

__all__ = ["CANONICAL_SEEDS", "canonical_trials"]

CANONICAL_SEEDS = (1, 2, 3)


def canonical_trials(config: TrialGeneratorConfig | None = None) -> list[Trial]:
    """The canonical suite: one trial per seed in :data:`CANONICAL_SEEDS`."""
    return [make_trial(seed, config) for seed in CANONICAL_SEEDS]
