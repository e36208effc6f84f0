"""Optimizer interface and the trivial baselines."""

from __future__ import annotations

from typing import Protocol, Sequence

import numpy as np

from ..task import MagnetSettings, Sample

__all__ = [
    "DoNothing",
    "Optimizer",
    "RandomSearch",
    "ReinforcementPolicyOptimizer",
    "box_bounds",
    "denormalize",
    "normalize",
]


class Optimizer(Protocol):
    """Given the non-empty history after reset, propose the next settings."""

    def propose(self, history: Sequence[Sample]) -> MagnetSettings: ...


def box_bounds() -> tuple[np.ndarray, np.ndarray]:
    """(low, high) arrays of the actuator box in lattice order."""
    ranges = MagnetSettings.ranges()
    low = np.array([lo for lo, _ in ranges])
    high = np.array([hi for _, hi in ranges])
    return low, high


def normalize(settings: MagnetSettings) -> np.ndarray:
    """Map actuator values onto [-1, 1]^5."""
    low, high = box_bounds()
    x = np.array(settings.as_tuple())
    return 2.0 * (x - low) / (high - low) - 1.0


def denormalize(u: np.ndarray) -> MagnetSettings:
    """Inverse of :func:`normalize`; does not clamp."""
    low, high = box_bounds()
    x = low + (np.asarray(u, dtype=float) + 1.0) / 2.0 * (high - low)
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
        low, high = box_bounds()
        return MagnetSettings(*(float(v) for v in self._rng.uniform(low, high)))


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
