"""Run metrics, success tiers and the 3-trials x 3-seeds evaluation.

Per run, measured against the trial's initial settings:

* final beam difference: MAE of the last applied settings, in micrometres;
* normalised beam improvement: 100 * (mae_final - mae_initial) / mae_initial,
  negative is better;
* normalised integrated MAE: 100 * sum(mae_t, t = 1..budget) / (budget *
  mae_initial), over the run's own budget; runs that terminated early hold
  their last observed MAE for the missing steps (and say so);
* successful steps: accelerator interactions performed, i.e. iterations
  that produced parsable settings, second attempts not counted extra.

A run succeeds when the final MAE improves on the initial MAE by at least
40 um (twice the real-world screen measurement accuracy). Over the 9-run
suite an optimizer is outright successful when every run succeeds,
partially successful at six or more, and single-trial successful when all
runs of at least one trial succeed.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

from ..optics import LatticeGeometry
from ..task import Trial
from .episode import RunRecord, run_episode

__all__ = [
    "AGGREGATE_KEYS",
    "RUN_SUCCESS_THRESHOLD_MM",
    "RunMetrics",
    "SuiteSummary",
    "compute_metrics",
    "evaluate",
    "suite_figures",
    "summarize",
]

RUN_SUCCESS_THRESHOLD_MM = 0.040  # 40 um

# The RunMetrics fields whose mean and std over the suite are reported.
AGGREGATE_KEYS = (
    "final_beam_difference_um",
    "normalized_improvement_pct",
    "normalized_integrated_mae_pct",
    "successful_steps",
)


@dataclass(frozen=True)
class RunMetrics:
    final_beam_difference_um: float
    normalized_improvement_pct: float | None
    normalized_integrated_mae_pct: float | None
    successful_steps: int
    run_success: bool
    normalization_undefined: bool
    integrated_fill_applied: bool


def compute_metrics(record: RunRecord) -> RunMetrics:
    """Score one run; the integrated MAE spans the record's budget."""
    if not record.samples:
        raise ValueError("run record has no samples")
    mae_initial = record.samples[0].mae
    mae_final = record.samples[-1].mae

    # Normalised metrics divide by the initial MAE; at zero, flag and leave unset.
    undefined = mae_initial == 0.0
    improvement = integrated = None
    if not undefined:
        improvement = 100.0 * (mae_final - mae_initial) / mae_initial
        maes = [sample.mae for sample in record.samples[1:]]
        hold = maes[-1] if maes else mae_initial
        maes += [hold] * (record.budget - len(maes))
        integrated = 100.0 * math.fsum(maes) / (record.budget * mae_initial)

    return RunMetrics(
        final_beam_difference_um=mae_final * 1000.0,
        normalized_improvement_pct=improvement,
        normalized_integrated_mae_pct=integrated,
        successful_steps=record.steps_taken,
        run_success=(mae_initial - mae_final) >= RUN_SUCCESS_THRESHOLD_MM,
        normalization_undefined=undefined,
        integrated_fill_applied=record.steps_taken < record.budget,
    )


def _mean_std(values: Sequence[float]) -> dict[str, float | None]:
    if not values:
        return {"mean": None, "std": None}
    mean = math.fsum(values) / len(values)
    if len(values) == 1:
        return {"mean": mean, "std": 0.0}
    var = math.fsum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return {"mean": mean, "std": math.sqrt(var)}


@dataclass
class SuiteSummary:
    """One optimizer's runs over the whole suite, each with its metrics."""

    optimizer_id: str
    records: list[RunRecord]
    metrics: list[RunMetrics]


def summarize(optimizer_id: str, records: Sequence[RunRecord]) -> SuiteSummary:
    return SuiteSummary(optimizer_id, list(records), [compute_metrics(r) for r in records])


def suite_figures(summary: SuiteSummary) -> dict:
    """The suite's aggregates, success counts and tiers, as summary.json stores them."""
    aggregates = {}
    for key in AGGREGATE_KEYS:
        values = [getattr(m, key) for m in summary.metrics]
        aggregates[key] = _mean_std([float(v) for v in values if v is not None])

    per_trial: dict[str, dict[str, int]] = {}
    for record, metric in zip(summary.records, summary.metrics):
        counts = per_trial.setdefault(record.trial_id, {"successful": 0, "total": 0})
        counts["successful"] += metric.run_success
        counts["total"] += 1

    successes = sum(m.run_success for m in summary.metrics)
    total = len(summary.records)
    return {
        "aggregates": aggregates,
        "successes": successes,
        "successes_per_trial": per_trial,
        "success_tiers": {
            "outright": successes == total > 0,
            "partial": successes >= math.ceil(2 * total / 3) > 0,  # 6 of 9 on the canonical suite
            "single_trial": any(c["successful"] == c["total"] for c in per_trial.values()),
        },
    }


def evaluate(
    trials: Sequence[Trial],
    optimizer_factory: Callable[[Trial, int], object],
    optimizer_id: str,
    n_seeds: int = 3,
    budget: int = 50,
    geometry: LatticeGeometry | None = None,
    noise_sigma: float = 0.0,
    workers: int = 1,
) -> SuiteSummary:
    """Run the full evaluation protocol for one optimizer.

    Each trial is run ``n_seeds`` times; ``optimizer_factory(trial, seed)``
    must return a fresh optimizer per run. Runs are independent, so a
    worker pool may execute them in parallel without changing any result;
    records are always ordered by (trial, seed).

    An exception that ends a run propagates as the same object, with the
    note ``run <trial_id>/s<seed>`` added.
    """
    jobs = [(trial, seed) for trial in trials for seed in range(n_seeds)]

    def one(job: tuple[Trial, int]) -> RunRecord:
        trial, seed = job
        try:
            optimizer = optimizer_factory(trial, seed)
            return run_episode(
                trial,
                optimizer,
                budget=budget,
                seed=seed,
                geometry=geometry,
                noise_sigma=noise_sigma,
            )
        except Exception as exc:
            # exc.add_note, which Python 3.10 lacks; tracebacks show notes from 3.11
            exc.__notes__ = [*getattr(exc, "__notes__", ()), f"run {trial.trial_id}/s{seed}"]
            raise

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(one, jobs))
    else:
        records = [one(job) for job in jobs]
    return summarize(optimizer_id, records)
