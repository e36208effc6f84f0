"""One measured run of one workload, in a fresh process (started by run.py).

    PYTHONPATH=src python3 perfbench/worker.py --workload es --seed 1 \
        --seconds 30 --trace 0 --out .perfbench-out/es [--probe]

The worker sets up as ``beamtune run`` does (imports, ``load_config``,
``canonical_trials``, optimizer construction), then repeats whole rounds
of the workload's suites (``evaluate`` followed by ``write_outputs``)
and stops at the round end nearest to ``--seconds`` of round time, after
at least two rounds (so that their summaries can be compared byte for
byte) and at least MIN_STEPS steps. It checks the first round (see checks.py) and prints one
JSON line with its measurements.

``--probe`` stops at the first ``TuningEnvironment.step`` and prints the
moment it returned; run.py turns that into a set-up time. With
``--trace 1`` every second round is traced, and the JSON holds per-layer
metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
from script import make_script
from tracing import Tracer

perf_counter = time.perf_counter
ROOT = Path(__file__).resolve().parents[1]

PROMPT_KINDS = ("tuning", "explained", "chain_of_thought", "optimisation")
# Extremum-seeking episodes per canonical trial in one es round. ES final
# MAE varies with the optimizer seed (CV about 0.5 on trial-001), so the
# suite mean needs this many runs per trial to read steadily across seeds.
ES_RUNS_PER_TRIAL = 16
# LLM episodes per canonical trial and prompt kind in one llm-scripted
# round: the final MAE of a uniform random reply is heavy-tailed, and the
# suite mean over the canonical three seeds per trial moved by 0.24 of its
# median across workload seeds.
LLM_RUNS_PER_TRIAL = 9
# Timed steps a run needs at least, so that ten lie beyond the p95.
MIN_STEPS = 200
# The quantile over rounds that steps_per_s and step_p50_ms report: the
# slowest round of bo's four and llm-scripted's five or six, the third
# slowest of es's thirty (see README.md, "Why the upper decile").
SLOW_QUANTILE = 0.9


def nearest_rank(values, q: float) -> float:
    """The ``q`` quantile of ``values`` by the nearest-rank method."""
    ordered = sorted(values)
    return ordered[math.ceil(q * len(ordered)) - 1]


class ProbeDone(Exception):
    """Raised at the first step of a --probe run."""


@dataclass
class Suite:
    optimizer_id: str
    trials: list
    n_seeds: int
    factory: Callable
    # record -> (settings served per step, unparseable replies); LLM only
    served: Callable | None = None


class StepClock:
    """Wraps TuningEnvironment.reset/step to time steps and keep proposals.

    A step's latency is the time from the previous return of ``step`` in
    the same episode (or of ``reset``, for the first step) to its return.
    """

    def __init__(self, probe: bool) -> None:
        self.probe = probe
        self.latencies: list[float] = []
        self.proposals: list[list] = []  # per episode, in evaluation order
        self.first_step_at: float | None = None

    def install(self, env_class) -> None:
        reset, step = env_class.reset, env_class.step
        clock = self

        def timed_reset(env):
            sample = reset(env)
            env.bench_proposals = []
            clock.proposals.append(env.bench_proposals)
            env.bench_last_return = perf_counter()
            return sample

        def timed_step(env, proposed):
            sample = step(env, proposed)
            now = perf_counter()
            clock.latencies.append(now - env.bench_last_return)
            env.bench_last_return = now
            env.bench_proposals.append(proposed)
            if clock.first_step_at is None:
                clock.first_step_at = now
                if clock.probe:
                    raise ProbeDone
            return sample

        env_class.reset = timed_reset
        env_class.step = timed_step

    def take_proposals(self) -> list[list]:
        proposals, self.proposals = self.proposals, []
        return proposals


def scripted_suite(config, optimizer_id, kind, trials, n_seeds, script_for) -> Suite:
    """The LLM loop over ScriptedBackend; ``script_for(trial_id, run_seed)``
    gives each run its own script, as independent as sampled model replies."""
    from beamtune.harness import LLMOptimizer
    from beamtune.llm import ScriptedBackend, default_system_prompt

    llm = config.llm_options()
    scripts = {(trial.trial_id, run_seed): script_for(trial.trial_id, run_seed)
               for trial in trials for run_seed in range(n_seeds)}

    def scripted(trial, run_seed):
        return LLMOptimizer(
            backend=ScriptedBackend(scripts[(trial.trial_id, run_seed)].replies),
            model="scripted", prompt_kind=kind, target=trial.target,
            temperature=llm["temperature"], timeout=float(llm["timeout_s"]),
            window=int(llm["window"]), system_prompt=default_system_prompt("scripted"),
            second_chance_feedback=bool(llm["second_chance_feedback"]),
        )

    def served(record):
        script = scripts[(record.trial_id, record.seed)]
        return script.served, script.unparseable

    return Suite(optimizer_id, trials, n_seeds, scripted, served)


def build_suites(workload, seed, config, trials, budget) -> list[Suite]:
    from beamtune.optimizers import BayesianOptimizer, ExtremumSeeking

    if workload == "bo":
        opts = config.optimizer_options("bo")

        def bo(trial, run_seed):
            return BayesianOptimizer(seed=run_seed, n_init=int(opts["n_init"]),
                                     n_candidates=int(opts["n_candidates"]),
                                     n_refine=int(opts["n_refine"]), budget=budget)
        # One canonical episode (trial-001, run seed 0) per round, the same
        # in every run: BO final MAE varies by a factor of four across
        # optimizer seeds, and a run affords only four episodes.
        return [Suite("bo", trials[:1], 1, bo)]

    if workload == "es":
        opts = config.optimizer_options("es")

        def es(trial, run_seed):
            return ExtremumSeeking(seed=1000 * seed + run_seed, gain=float(opts["gain"]),
                                   amplitude=float(opts["amplitude"]), dt=float(opts["dt"]))
        return [Suite("es", trials, ES_RUNS_PER_TRIAL, es)]

    return [scripted_suite(config, f"llm-scripted-{kind}", kind, trials, LLM_RUNS_PER_TRIAL,
                           lambda trial_id, run_seed, kind=kind:
                           make_script(f"{seed}/{kind}/{trial_id}/{run_seed}", budget))
            for kind in PROMPT_KINDS]


def check_early_end(seed, config, trials, budget, geometry, noise_sigma, clock) -> None:
    """One scripted episode that ends early, by two unparseable replies in a
    row, to check the hold-fill of the integrated MAE and its flag. It runs
    once, untimed, and is not counted in ``attempted``."""
    from beamtune.harness import evaluate
    from beamtune.harness.report import summary_document

    rng = random.Random(f"{seed}/early-end")
    trial, kind, abort_at = rng.choice(trials), rng.choice(PROMPT_KINDS), rng.randrange(1, budget)
    suite = scripted_suite(config, "llm-scripted-early-end", kind, [trial], 1,
                           lambda trial_id, run_seed:
                           make_script(f"{seed}/early-end", budget, abort_at))
    summary = evaluate(suite.trials, suite.factory, optimizer_id=suite.optimizer_id, n_seeds=1,
                       budget=budget, geometry=geometry, noise_sigma=noise_sigma)
    (record,) = summary.records
    (entry,) = summary_document(summary)["runs"]
    (proposed,) = clock.take_proposals()
    checks.require(record.termination == "double_parse_failure"
                   and record.steps_taken == abort_at - 1,
                   f"early-end run: {record.termination} after {record.steps_taken} steps, "
                   f"expected double_parse_failure after {abort_at - 1}")
    checks.check_samples(record, trial, geometry, proposed)
    checks.check_run_metrics(record, entry, budget)
    checks.check_llm_run(record, *suite.served(record))


def check_round(workload, suites, summaries, proposals, trials, geometry, budget, report, out):
    """All per-sample and per-run checks on one round; raises CheckFailed."""
    by_id = {trial.trial_id: trial for trial in trials}
    episodes = iter(proposals)
    for suite, summary in zip(suites, summaries):
        document = report.load_summary(out / suite.optimizer_id)["optimizers"][0]
        improvements, successes = [], 0
        for record, entry in zip(summary.records, document["runs"], strict=True):
            checks.check_samples(record, by_id[record.trial_id], geometry, next(episodes))
            figures = checks.check_run_metrics(record, entry, budget)
            improvements.append(figures["normalized_improvement_pct"])
            successes += figures["run_success"]
            checks.require(record.termination == "budget_exhausted",
                           f"{record.trial_id}/s{record.seed}: ended {record.termination}")
            if workload == "bo":
                checks.check_bo_run(record)
            if suite.served is not None:
                checks.check_llm_run(record, *suite.served(record))
        runs = len(summary.records)
        mean_improvement = statistics.fmean(improvements)
        if workload == "bo":
            checks.require(successes == runs and mean_improvement <= -70.0,
                           f"bo: {successes}/{runs} successes, mean {mean_improvement:.1f} %")
        if workload == "es":
            checks.require(successes * 9 >= 7 * runs and mean_improvement <= -40.0,
                           f"es: {successes}/{runs} successes, mean {mean_improvement:.1f} %")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    # the modules `beamtune run` imports, timed as setup.import_s
    started = perf_counter()
    import beamtune
    import beamtune.llm
    import beamtune.optimizers
    from beamtune.config import load_config
    from beamtune.fixtures import canonical_trials
    from beamtune.harness import evaluate, report
    from beamtune.harness.report import summary_document
    from beamtune.task import TuningEnvironment
    import_s = perf_counter() - started
    if ROOT / "src" not in Path(beamtune.__file__).resolve().parents:
        raise SystemExit(f"beamtune imported from {beamtune.__file__}, not from this checkout")

    started = perf_counter()
    config = load_config()
    load_config_ms = (perf_counter() - started) * 1e3
    started = perf_counter()
    trials = canonical_trials(config.trial_generator())
    canonical_trials_ms = (perf_counter() - started) * 1e3

    harness = config.harness_options()
    budget = int(harness["budget"])
    geometry, noise_sigma = config.geometry(), config.noise_sigma()
    suites = build_suites(args.workload, args.seed, config, trials, budget)
    clock = StepClock(args.probe)
    clock.install(TuningEnvironment)
    out = Path(args.out)

    def run_round():
        began = perf_counter()
        summaries = []
        for suite in suites:
            summary = evaluate(suite.trials, suite.factory, optimizer_id=suite.optimizer_id,
                               n_seeds=suite.n_seeds, budget=budget, geometry=geometry,
                               noise_sigma=noise_sigma, workers=int(harness["workers"]))
            report.write_outputs([summary], out / suite.optimizer_id)
            summaries.append(summary)
        return summaries, perf_counter() - began

    def documents(summaries):
        return [json.dumps(summary_document(s), sort_keys=True) for s in summaries]

    try:
        first, first_s = run_round()
    except ProbeDone:
        print(json.dumps({"first_step_at": clock.first_step_at}))
        return 0
    # Everything between rounds is untimed: tallies, the checks, and a full
    # garbage collection, so that each round starts from the same heap as
    # a fresh `beamtune run` would and no round pays for another's garbage.
    errors = []
    timed_steps = len(clock.latencies)
    try:
        check_round(args.workload, suites, first, clock.take_proposals(), trials, geometry,
                    budget, report, out)
        if args.workload == "llm-scripted":
            check_early_end(args.seed, config, trials, budget, geometry, noise_sigma, clock)
    except checks.CheckFailed as exc:
        errors.append(str(exc))
    del clock.latencies[timed_steps:]  # the early-end episode is not timed
    first_documents = documents(first)
    attempted = failed = 0
    durations, mismatched_rounds = [first_s], 0
    round_ends = [timed_steps]  # index into clock.latencies after each round
    tracer = Tracer() if args.trace else None
    summaries = first
    del first
    while True:
        for summary in summaries:
            attempted += budget * len(summary.records)
            failed += sum(budget - record.steps_taken for record in summary.records)
        del summaries
        clock.take_proposals()
        gc.collect()
        # Whole rounds only: stop at the round end nearest to --seconds.
        if (len(durations) >= 2 and round_ends[-1] >= MIN_STEPS
                and math.fsum(durations) + statistics.median(durations) / 2 >= args.seconds):
            break
        if tracer is not None:
            # alternate traced and untraced rounds, so that the overhead
            # compares neighbours rather than rounds far apart in time
            if len(durations) == 1:
                tracer.install()
            tracer.enabled = len(durations) % 2 == 1
        summaries, seconds = run_round()
        durations.append(seconds)
        round_ends.append(len(clock.latencies))
        mismatched_rounds += documents(summaries) != first_documents
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if mismatched_rounds:
        errors.append(f"{mismatched_rounds} rounds wrote summaries that differ from the first")

    runs = [json.loads(doc)["runs"] for doc in first_documents]
    runs = [run for suite_runs in runs for run in suite_runs]
    result = {
        "rounds": len(durations),
        "round_s": durations,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "first_step_at": clock.first_step_at,
        "final_beam_difference_um":
            statistics.fmean(r["metrics"]["final_beam_difference_um"] for r in runs),
        "integrated_mae_pct":
            statistics.fmean(r["metrics"]["normalized_integrated_mae_pct"] for r in runs),
    }
    if args.trace:
        traced = range(1, len(durations), 2)
        overhead_pct = 100.0 * statistics.median(durations[i] / durations[i - 1] - 1.0
                                                  for i in traced)
        setup = {"import_s": import_s, "load_config_ms": load_config_ms,
                 "canonical_trials_ms": canonical_trials_ms}
        result["per_layer"] = tracer.per_layer(len(traced), setup, overhead_pct)
        tracer.write(out / "spans.jsonl")
    else:
        # On a shared virtual machine the CPU's speed switches between
        # states every few seconds, and the share of a run spent in each
        # varies from run to run. Rounds do identical work, so each is
        # measured apart and the upper decile over rounds is reported: it
        # lies in the slower state in nearly every run, where a mean or a
        # pooled median mixes the states in varying shares.
        latencies = clock.latencies
        rounds = [latencies[begin:end] for begin, end in zip([0, *round_ends], round_ends)]
        slow_round_s = nearest_rank(durations, SLOW_QUANTILE)
        result.update({
            "steps": len(latencies),
            "steps_per_s": len(latencies) / len(rounds) / slow_round_s,
            "step_p50_ms": nearest_rank([nearest_rank(r, 0.5) for r in rounds], SLOW_QUANTILE) * 1e3,
            "step_p95_ms": nearest_rank(latencies, 0.95) * 1e3,
            "peak_rss_mb": peak_rss_mb,
        })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
