"""Extremum seeking controller.

Each normalized actuator coordinate is dithered sinusoidally at its own
frequency while the measured objective modulates the dither phase:

    u_j(t + dt) = u_j(t) + dt * sqrt(a * w_j) * cos(w_j * t + k * C)

where C is the latest objective divided by its value at reset. On average
the phase coupling pushes each coordinate downhill, without any gradient
information. Frequencies are distinct per dimension so the dithers stay
decorrelated; the per-step move in any coordinate is bounded by
dt * sqrt(a * w_j).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..task import ACTUATOR_NAMES, MagnetSettings, Sample
from .base import denormalize, normalize

__all__ = ["ExtremumSeeking", "default_frequencies"]


def default_frequencies() -> np.ndarray:
    """Dither frequencies w_j = 2*pi*(j + sqrt(2)*j)/50, j = 1, 2, ..., one
    per actuator in ``ACTUATOR_NAMES`` order.

    The denominator keeps w_max * dt below pi for unit steps, so the
    dithers are properly sampled; faster frequencies alias and stall.
    """
    j = np.arange(1, len(ACTUATOR_NAMES) + 1, dtype=float)
    return 2.0 * math.pi * (j + math.sqrt(2.0) * j) / 50.0


class ExtremumSeeking:
    """Dither-based extremum seeking over the normalized actuator box.

    Parameters
    ----------
    seed:      selects the (arbitrary) initial dither phases.
    gain:      phase-coupling gain k applied to the rescaled objective.
    amplitude: dither energy a; zero freezes the settings.
    dt:        time step of the discretised update law.

    The dither frequencies are :func:`default_frequencies`.
    """

    def __init__(
        self,
        seed: int = 0,
        gain: float = 16.0,
        amplitude: float = 0.0025,
        dt: float = 1.0,
    ) -> None:
        self.gain = float(gain)
        self.amplitude = float(amplitude)
        self.dt = float(dt)
        self.frequencies = default_frequencies()
        if self.amplitude < 0:
            raise ValueError("amplitude must be non-negative")
        rng = np.random.default_rng(seed)
        self.phases = rng.uniform(0.0, 2.0 * math.pi, size=self.frequencies.shape)
        self._t = 0.0

    def propose(self, history: Sequence[Sample]) -> MagnetSettings:
        u = normalize(history[-1].settings)
        scale = history[0].objective
        rescaled = history[-1].objective / scale if scale > 0 else 0.0
        kick = (
            self.dt
            * np.sqrt(self.amplitude * self.frequencies)
            * np.cos(self.frequencies * self._t + self.phases + self.gain * rescaled)
        )
        self._t += self.dt
        return denormalize(u + kick)
