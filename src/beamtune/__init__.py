"""beamtune: desk-scale benchmark for LLM-driven transverse beam tuning.

A linear optics simulator of a five-magnet accelerator section, the
associated tuning task and objective, classical baseline optimizers, an
LLM optimizer with four prompt styles and strict response parsing, and an
evaluation harness (3 trials x 3 seeds x 50 steps) with the benchmark's
metrics and success tiers.
"""

import os

# The GP's matrices have at most about 50 rows, where an OpenBLAS thread
# pool costs more than it saves; the results are the same bits either way.
# So default to one thread, before .optics loads numpy, unless the user set
# a count: OpenBLAS reads OPENBLAS_NUM_THREADS first, then OMP_NUM_THREADS.
if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

__version__ = "0.1.0"

from .optics import BeamParameters, Lattice, LatticeGeometry, TransverseState
from .task import MagnetSettings, Sample, Trial, TuningEnvironment, make_trial

__all__ = [
    "BeamParameters",
    "Lattice",
    "LatticeGeometry",
    "MagnetSettings",
    "Sample",
    "TransverseState",
    "Trial",
    "TuningEnvironment",
    "make_trial",
    "__version__",
]
