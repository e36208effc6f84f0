"""Optimizer interface and the trivial baselines."""

from __future__ import annotations

from typing import Protocol, Sequence

import numpy as np

from ..task import ACTUATOR_RANGES, MagnetSettings, Sample

__all__ = [
    "DoNothing",
    "Optimizer",
    "RandomSearch",
    "ReinforcementPolicyOptimizer",
    "denormalize",
    "normalize",
]


class Optimizer(Protocol):
    """Given the non-empty history after reset, propose the next settings."""

    def propose(self, history: Sequence[Sample]) -> MagnetSettings: ...


# the actuator box as (low, high) arrays in ACTUATOR_NAMES order
_LOW, _HIGH = np.array(ACTUATOR_RANGES).T


def normalize(settings: MagnetSettings) -> np.ndarray:
    """Map actuator values onto [-1, 1]^5."""
    x = np.array(settings.as_tuple())
    return 2.0 * (x - _LOW) / (_HIGH - _LOW) - 1.0


def denormalize(u: np.ndarray) -> MagnetSettings:
    """Inverse of :func:`normalize`; does not clamp."""
    x = _LOW + (np.asarray(u, dtype=float) + 1.0) / 2.0 * (_HIGH - _LOW)
    return MagnetSettings(*(float(v) for v in x))


class DoNothing:
    """Always re-propose the initial settings."""

    def propose(self, history: Sequence[Sample]) -> MagnetSettings:
        return history[0].settings


class RandomSearch:
    """Uniform sampling of the actuator box; reproducible from the seed."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)

    def propose(self, history: Sequence[Sample]) -> MagnetSettings:
        return MagnetSettings(*(float(v) for v in self._rng.uniform(_LOW, _HIGH)))


class ReinforcementPolicyOptimizer:
    """Adapter for an externally trained policy; no policy ships with this
    package.

    The policy is any callable mapping the sample history to the next
    :class:`MagnetSettings`, kept as ``policy``.
    """

    def __init__(self, policy) -> None:
        if not callable(policy):
            raise TypeError("policy must be callable(history) -> MagnetSettings")
        self.policy = policy

    def propose(self, history: Sequence[Sample]) -> MagnetSettings:
        settings = self.policy(history)
        if not isinstance(settings, MagnetSettings):
            raise TypeError("policy must return MagnetSettings")
        return settings
