"""Bayesian optimization of the magnet settings.

The first proposals come from a scrambled low-discrepancy design over the
actuator box. Once enough samples exist, a Matern-5/2 Gaussian process is
fitted to (normalized settings -> objective) and the next proposal
maximises expected improvement below the best objective seen so far:
4096 quasi-random candidates are scored, and the best few are refined
together, as one stacked L-BFGS-B problem over the sum of their EIs with
the closed-form EI gradient. The refined point with the highest EI is
proposed when it beats the best candidate.

Everything is deterministic given the seed, including the candidate
streams, so repeated runs reproduce bit-identical proposal sequences.
"""

from __future__ import annotations

import warnings
from typing import Sequence

import numpy as np
from scipy import optimize

from ..task import ACTUATOR_NAMES, MagnetSettings, Sample
from .base import RandomSearch, denormalize, normalize
from .gp import (
    GaussianProcess,
    GPFitError,
    expected_improvement,
    expected_improvement_and_gradient,
)

__all__ = ["BayesianOptimizer"]


def _sobol(seed: int, n: int) -> np.ndarray:
    """``n`` scrambled Sobol points on the normalized actuator box."""
    # imported here: scipy.stats is about half of the CLI's import time, and
    # only BO needs it
    from scipy.stats import qmc

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # power-of-two draw sizes only
        return qmc.Sobol(d=len(ACTUATOR_NAMES), scramble=True, seed=seed).random(n) * 2.0 - 1.0


class BayesianOptimizer:
    """GP + expected improvement proposal strategy.

    The final proposal of a budgeted run re-applies the best settings seen
    so far instead of maximising EI: the run is scored on the last applied
    configuration, and a tuning controller leaves the machine on its best
    known settings rather than on an exploration point.

    Parameters
    ----------
    seed:         drives the initial design, all candidate streams and the
                  random proposals that stand in when the surrogate fails.
    n_init:       history size below which the low-discrepancy design is
                  used instead of the surrogate (the reset measurement
                  counts towards it).
    n_candidates: quasi-random EI candidates per step (power of two).
    n_refine:     how many of the best candidates are refined (jointly).
    budget:       proposals per run; the budget-th proposal returns to the
                  incumbent.
    """

    def __init__(
        self,
        seed: int = 0,
        n_init: int = 5,
        n_candidates: int = 4096,
        n_refine: int = 8,
        budget: int = 50,
    ) -> None:
        self.seed = int(seed)
        self.n_init = int(n_init)
        self.n_candidates = int(n_candidates)
        self.n_refine = int(n_refine)
        self.budget = int(budget)
        if self.n_candidates < 1:
            raise ValueError(f"n_candidates must be at least 1, got {self.n_candidates}")
        if self.n_refine < 0:
            raise ValueError(f"n_refine must be non-negative, got {self.n_refine}")
        self.fallback_steps: list[int] = []
        self._warm_start: np.ndarray | None = None
        self._fallback = RandomSearch(seed)
        count = max(self.n_init - 1, 1)
        self._design = _sobol(self.seed, 1 << (count - 1).bit_length())[:count]

    # -- helpers --------------------------------------------------------------

    def _candidates(self, step: int) -> np.ndarray:
        return _sobol(self.seed + 7919 * step, self.n_candidates)

    # -- interface -------------------------------------------------------------

    def propose(self, history: Sequence[Sample]) -> MagnetSettings:
        n = len(history)
        if n >= self.budget:
            return min(history, key=lambda s: s.objective).settings
        if n < self.n_init:
            return denormalize(self._design[n - 1])

        X = np.array([normalize(s.settings) for s in history])
        y = np.array([s.objective for s in history])
        try:
            gp = GaussianProcess.fit(X, y, warm_start=self._warm_start)
        except GPFitError:
            self.fallback_steps.append(n)
            return self._fallback.propose(history)
        self._warm_start = gp.log_theta

        candidates = self._candidates(n)
        ei = expected_improvement(gp, candidates)
        order = np.argsort(-ei)
        best_u = candidates[order[0]]
        best_ei = float(ei[order[0]])

        # all starts as one flat vector: the summed EI separates
        # by start, so one L-BFGS-B run refines every start at once
        starts = candidates[order[: self.n_refine]]

        def negative_total_ei(flat: np.ndarray) -> tuple[float, np.ndarray]:
            values, grad = expected_improvement_and_gradient(gp, flat.reshape(starts.shape))
            return -float(np.sum(values)), -grad.ravel()

        if len(starts):
            result = optimize.minimize(
                negative_total_ei,
                starts.ravel(),
                jac=True,
                method="L-BFGS-B",
                bounds=[(-1.0, 1.0)] * starts.size,
                options={"maxiter": 30 * len(starts)},
            )
            refined = np.clip(result.x.reshape(starts.shape), -1.0, 1.0)
            refined_ei = expected_improvement(gp, refined)
            top = int(np.argmax(refined_ei))
            if refined_ei[top] > best_ei:
                best_u = refined[top]
        return denormalize(best_u)
