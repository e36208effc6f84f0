"""Episode loop, metrics, evaluation protocol, reporting and CLI."""

from .episode import Attempt, LLMOptimizer, RunRecord, run_episode
from .metrics import RunMetrics, SuiteSummary, compute_metrics, evaluate, suite_figures, summarize
from .report import load_summary, regenerate_csv, write_outputs

__all__ = [
    "Attempt",
    "LLMOptimizer",
    "RunMetrics",
    "RunRecord",
    "SuiteSummary",
    "compute_metrics",
    "evaluate",
    "load_summary",
    "regenerate_csv",
    "run_episode",
    "suite_figures",
    "summarize",
    "write_outputs",
]
