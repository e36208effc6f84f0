"""Canonical evaluation fixtures.

The benchmark's three trials are generated from seeds 1, 2 and 3 with the
default generator ranges and shipped as a versioned fixture file, so that
results stay comparable across machines and code changes. Regenerating
with the same seeds must reproduce the shipped file; a test pins this.
"""

from __future__ import annotations

from importlib import resources

import yaml

from .task import Trial, TrialGeneratorConfig, make_trial, trials_from_document

__all__ = ["CANONICAL_SEEDS", "canonical_trials", "generate_canonical_trials"]

CANONICAL_SEEDS = (1, 2, 3)


def generate_canonical_trials(config: TrialGeneratorConfig | None = None) -> list[Trial]:
    """Regenerate the canonical suite from its seeds."""
    return [make_trial(seed, config) for seed in CANONICAL_SEEDS]


def canonical_trials(config: TrialGeneratorConfig | None = None) -> list[Trial]:
    """The shipped canonical suite.

    With a non-default generator config the trials are regenerated instead
    of loaded, since the shipped file pins the default ranges only.

    The file stores targets in metres, and that round trip is not exact:
    the shipped trial-002 ``target.mu_y`` is 1.2569029623771215 mm, one ulp
    above the 1.2569029623771213 that :func:`generate_canonical_trials` and
    :func:`~beamtune.task.make_trial` give. So the default suite and a
    regenerated one differ in that bit, and BO episodes are chaotic in such
    bits. The shipped file stays the source of truth for the default suite.
    """
    if config is not None and config != TrialGeneratorConfig():
        return generate_canonical_trials(config)
    text = (
        resources.files("beamtune.resources")
        .joinpath("trials_v1.yaml")
        .read_text(encoding="utf-8")
    )
    return trials_from_document(yaml.safe_load(text))
