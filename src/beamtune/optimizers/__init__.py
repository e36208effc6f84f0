"""Proposal strategies sharing one interface: history in, next settings out.

The history holds the run's samples so far, the reset sample first. Random
search, ES and BO are function optimizers: they read only the applied
settings and the scalar objective of past samples. The ``rlo`` adapter
hands the whole samples, beam parameters included, to its external policy.

Each strategy is deterministic given its seed and the sequence of
histories it is shown, with one ``propose`` call per step. It is not a
function of one history alone: ES advances its time counter, random search
draws from its generator and BO carries its warm start from one call to the
next. The built-in strategies return finite settings; the task rejects
non-finite ones and clamps the rest to the actuator box on application.
"""

from .base import DoNothing, Optimizer, RandomSearch, ReinforcementPolicyOptimizer
from .bayesian import BayesianOptimizer
from .extremum_seeking import ExtremumSeeking
from .gp import GaussianProcess, expected_improvement

__all__ = [
    "BayesianOptimizer",
    "DoNothing",
    "ExtremumSeeking",
    "GaussianProcess",
    "Optimizer",
    "RandomSearch",
    "ReinforcementPolicyOptimizer",
    "expected_improvement",
]
