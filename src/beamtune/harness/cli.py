"""Command line interface.

    beamtune run --optimizer bo --trials-fixture trials.yaml --out results/
    beamtune run --optimizer llm --prompt optimisation --model gpt-4-turbo \
                 --backend openai --out results/
    beamtune report --in results/
    beamtune trials generate --seed 1 --count 3 --out trials.yaml

``run`` executes the full evaluation protocol (every fixture trial times
``--seeds`` runs) for one optimizer and writes summary.json, summary.csv
and per-run transcripts. ``--script FILE`` swaps the HTTP backend for a
scripted one replaying a JSON list of responses, which exercises the whole
LLM loop offline.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import yaml

from ..config import Config, load_config
from ..llm import HttpBackend, ScriptedBackend, default_system_prompt
from ..optimizers import (
    BayesianOptimizer,
    DoNothing,
    ExtremumSeeking,
    RandomSearch,
    ReinforcementPolicyOptimizer,
)
from ..task import Trial, make_trial, trials_from_document, trials_to_document
from .episode import LLMOptimizer
from .metrics import evaluate
from .report import regenerate_csv, write_outputs

# Every optimizer but llm: its constructor, which takes the config section
# optimizers.<name> unchanged, and the keywords the harness supplies per run.
OPTIMIZERS = {
    "do-nothing": (DoNothing, ()),
    "random": (RandomSearch, ("seed",)),
    "es": (ExtremumSeeking, ("seed",)),
    "bo": (BayesianOptimizer, ("seed", "budget")),
    "rlo": (ReinforcementPolicyOptimizer.from_spec, ("spec",)),
}
PROMPT_ALIASES = {
    "tuning": "tuning",
    "explained": "explained",
    "cot": "chain_of_thought",
    "chain_of_thought": "chain_of_thought",
    "optimisation": "optimisation",
}


def _load_config(args) -> Config:
    try:
        return load_config(args.config)
    except ValueError as exc:  # unknown key or schema: exit naming it
        raise SystemExit(str(exc)) from exc


def _load_trials(args, config: Config) -> list[Trial]:
    if args.trials_fixture:
        try:
            with open(args.trials_fixture, "r", encoding="utf-8") as handle:
                return trials_from_document(yaml.safe_load(handle))
        except (OSError, ValueError) as exc:
            raise SystemExit(f"--trials-fixture: {exc}") from exc
    from ..fixtures import canonical_trials

    return canonical_trials(config.trial_generator())


def _build_backend_factory(args, config: Config):
    """Per-run backend factory.

    Scripted runs replay the script from the start in every run; a real
    HTTP backend is shared so its rate limit covers the whole evaluation.
    """
    if args.script:
        try:
            with open(args.script, "r", encoding="utf-8") as handle:
                responses = json.load(handle)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"--script: {exc}") from exc
        if not isinstance(responses, list) or not all(isinstance(r, str) for r in responses):
            raise SystemExit("--script file must hold a JSON list of strings")
        return lambda: ScriptedBackend(list(responses), on_exhaust=args.script_on_exhaust)
    try:
        options = config.backend_options(args.backend)
    except KeyError as exc:
        raise SystemExit(exc.args[0]) from exc
    shared = HttpBackend(**options)
    return lambda: shared


def _llm_factory(args, config: Config):
    if not args.model:
        raise SystemExit("--model is required for the llm optimizer")
    prompt_kind = PROMPT_ALIASES[args.prompt]
    backend_factory = _build_backend_factory(args, config)
    llm_options = config.llm_options()

    def factory(trial: Trial, seed: int) -> LLMOptimizer:
        return LLMOptimizer(
            backend=backend_factory(),
            model=args.model,
            prompt_kind=prompt_kind,
            target=trial.target,
            temperature=llm_options["temperature"],
            timeout=float(llm_options["timeout_s"]),
            window=int(llm_options["window"]),
            system_prompt=default_system_prompt(args.model),
            second_chance_feedback=bool(llm_options["second_chance_feedback"]),
        )

    return factory, f"llm-{args.model}-{args.prompt}"


def _optimizer_factory(args, config: Config, budget: int):
    name = args.optimizer
    if name == "llm":
        return _llm_factory(args, config)
    if name == "rlo" and not args.policy:
        raise SystemExit("--policy module:attribute is required for the rlo optimizer")
    constructor, supplied = OPTIMIZERS[name]
    options = config.optimizer_options(name)

    def factory(trial: Trial, seed: int):
        given = {"seed": seed, "budget": budget, "spec": args.policy}
        return constructor(**{key: given[key] for key in supplied}, **options)

    return factory, name


def _cmd_run(args) -> int:
    config = _load_config(args)
    harness_options = config.harness_options()
    budget = args.budget if args.budget is not None else int(harness_options["budget"])
    n_seeds = args.seeds if args.seeds is not None else int(harness_options["seeds"])
    for name, value in (("budget", budget), ("seeds", n_seeds)):
        if value < 1:
            raise SystemExit(f"{name} must be at least 1, got {value}")
    factory, optimizer_id = _optimizer_factory(args, config, budget)
    summary = evaluate(
        _load_trials(args, config),
        factory,
        optimizer_id=optimizer_id,
        n_seeds=n_seeds,
        budget=budget,
        geometry=config.geometry(),
        noise_sigma=config.noise_sigma(),
        workers=int(harness_options["workers"]),
    )
    paths = write_outputs([summary], args.out)
    improvement = summary.aggregates["normalized_improvement_pct"]
    print(f"{optimizer_id}: {summary.successes}/{summary.total_runs} successful runs")
    if improvement[0] is not None:
        print(f"mean normalised improvement: {improvement[0]:.1f}%")
    print(f"wrote {paths['summary_json']}")
    return 0


def _cmd_report(args) -> int:
    path = regenerate_csv(args.in_dir)
    print(f"wrote {path}")
    return 0


def _cmd_trials_generate(args) -> int:
    config = _load_config(args)
    trials = [
        make_trial(seed, config.trial_generator())
        for seed in range(args.seed, args.seed + args.count)
    ]
    text = yaml.safe_dump(trials_to_document(trials), sort_keys=False)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beamtune",
        description="Benchmark harness for transverse beam parameter tuning "
        "of a five-magnet accelerator section.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="evaluate one optimizer on the trial suite")
    run.add_argument("--config", default=None, help="YAML config overriding the defaults")
    run.add_argument("--optimizer", required=True, choices=(*OPTIMIZERS, "llm"))
    run.add_argument("--prompt", default="optimisation", choices=sorted(PROMPT_ALIASES))
    run.add_argument("--model", default=None, help="model name for the llm optimizer")
    run.add_argument("--backend", default="openai", help="backend name from the config")
    run.add_argument("--script", default=None,
                     help="JSON list of scripted responses replacing the HTTP backend")
    run.add_argument("--script-on-exhaust", default="repeat_last",
                     choices=("repeat_last", "error"))
    run.add_argument("--policy", default=None,
                     help="module:attribute of an external policy for the rlo optimizer")
    run.add_argument("--trials-fixture", default=None,
                     help="trial fixture YAML; defaults to the canonical suite")
    run.add_argument("--seeds", type=int, default=None)
    run.add_argument("--budget", type=int, default=None)
    run.add_argument("--out", required=True)
    run.set_defaults(func=_cmd_run)

    report = sub.add_parser("report", help="regenerate summary.csv from summary.json")
    report.add_argument("--in", dest="in_dir", required=True)
    report.set_defaults(func=_cmd_report)

    trials = sub.add_parser("trials", help="trial fixture tools")
    trials_sub = trials.add_subparsers(dest="trials_command", required=True)
    generate = trials_sub.add_parser("generate", help="generate a trial fixture")
    generate.add_argument("--config", default=None)
    generate.add_argument("--seed", type=int, required=True)
    generate.add_argument("--count", type=int, default=3)
    generate.add_argument("--out", default=None)
    generate.set_defaults(func=_cmd_trials_generate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
