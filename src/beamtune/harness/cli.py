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
from contextlib import contextmanager
from importlib import import_module
from pathlib import Path

import yaml

from ..config import Config, load_config
from ..fixtures import canonical_trials
from ..llm import DIALECTS, HttpBackend, RateLimiter, ScriptedBackend, default_system_prompt
from ..optimizers import (
    BayesianOptimizer,
    DoNothing,
    ExtremumSeeking,
    RandomSearch,
    ReinforcementPolicyOptimizer,
)
from ..prompts import PROMPT_KINDS
from ..task import Trial, make_trial, trials_from_document, trials_to_document
from .episode import LLMOptimizer
from .metrics import evaluate, suite_figures
from .report import regenerate_csv, write_outputs

# Every optimizer but llm: its constructor, which takes the config section
# optimizers.<name> unchanged, and the keywords the harness supplies per run.
OPTIMIZERS = {
    "do-nothing": (DoNothing, ()),
    "random": (RandomSearch, ("seed",)),
    "es": (ExtremumSeeking, ("seed",)),
    "bo": (BayesianOptimizer, ("seed", "budget")),
    "rlo": (ReinforcementPolicyOptimizer, ("policy",)),
}

# The run flags that only one choice reads, by their argparse names: the
# choice as the user makes it, whether the arguments make it, and its flags.
# The optimizers come first, so a flag of another optimizer is named as such.
OWN_FLAGS = (
    ("--optimizer llm", lambda args: args.optimizer == "llm",
     ("model", "prompt", "backend", "script", "script_on_exhaust")),
    ("--optimizer rlo", lambda args: args.optimizer == "rlo", ("policy",)),
    ("--script", lambda args: args.script is not None, ("script_on_exhaust",)),
    ("a run without --script", lambda args: args.script is None, ("backend",)),
)


@contextmanager
def _reading(source: str):
    """Exit with one line naming ``source`` if reading it fails."""
    try:
        yield
    except KeyError as exc:
        raise SystemExit(f"{source}: missing field {exc}") from exc
    except (OSError, ImportError, AttributeError, TypeError, ValueError, yaml.YAMLError) as exc:
        # on one line: YAML errors span several
        raise SystemExit(f"{source}: {' '.join(str(exc).split())}") from exc


def _at_least(flag: str, value: int | None, low: int) -> None:
    with _reading(flag):
        if value is not None and value < low:
            raise ValueError(f"must be at least {low}, got {value}")


def _load_config(args) -> Config:
    with _reading("--config"):
        return load_config(args.config)


def _load_trials(args, config: Config) -> list[Trial]:
    if args.trials_fixture:
        with _reading("--trials-fixture"), open(args.trials_fixture, encoding="utf-8") as handle:
            return trials_from_document(yaml.safe_load(handle))
    return canonical_trials(config.trial_generator())


def _build_backend_factory(args, config: Config):
    """Per-run backend factory.

    Scripted runs replay the script from the start in every run; HTTP runs
    each open their own backend and share one rate limiter, so the limit
    covers the whole evaluation.
    """
    if args.script:
        with _reading("--script"), open(args.script, encoding="utf-8") as handle:
            responses = json.load(handle)
            if not isinstance(responses, list) or not all(isinstance(r, str) for r in responses):
                raise ValueError("the file must hold a JSON list of strings")
        return lambda: ScriptedBackend(list(responses), args.script_on_exhaust or "repeat_last")
    dialect = args.backend or "openai"
    options = config.backend_options(dialect)
    limiter = RateLimiter(options["requests_per_minute"])
    return lambda: HttpBackend(options["base_url"], dialect, limiter)


def _llm_factory(args, config: Config):
    if not args.model:
        raise SystemExit("--model is required for the llm optimizer")
    prompt = args.prompt or "optimisation"
    backend_factory = _build_backend_factory(args, config)
    llm_options = config.llm_options()

    def factory(trial: Trial, seed: int) -> LLMOptimizer:
        return LLMOptimizer(
            backend=backend_factory(),
            model=args.model,
            prompt_kind=prompt,
            target=trial.target,
            temperature=llm_options["temperature"],
            timeout=float(llm_options["timeout_s"]),
            window=llm_options["window"],
            system_prompt=default_system_prompt(args.model),
            second_chance_feedback=llm_options["second_chance_feedback"],
        )

    return factory, f"llm-{args.model}-{prompt}"


def _load_policy(spec: str | None):
    """The callable ``--policy`` names, imported once before any run."""
    if not spec:
        raise SystemExit("--policy module:attribute is required for the rlo optimizer")
    with _reading("--policy"):
        module_name, _, attribute = spec.partition(":")
        if not module_name or not attribute:
            raise ValueError(f"policy spec must look like 'module:attribute', got {spec!r}")
        policy = getattr(import_module(module_name), attribute)
        if not callable(policy):
            raise TypeError(f"policy must be callable, got {policy!r}")
        return policy


def _optimizer_factory(args, config: Config, budget: int):
    name = args.optimizer
    if name == "llm":
        return _llm_factory(args, config)
    policy = _load_policy(args.policy) if name == "rlo" else None
    constructor, supplied = OPTIMIZERS[name]
    options = config.optimizer_options(name)

    def factory(trial: Trial, seed: int):
        given = {"seed": seed, "budget": budget, "policy": policy}
        return constructor(**{key: given[key] for key in supplied}, **options)

    return factory, name


def _reject_foreign_flags(args) -> None:
    """Exit if a flag that only another optimizer or llm backend reads was given."""
    for owner, chosen, names in OWN_FLAGS:
        for name in names:
            if not chosen(args) and getattr(args, name) is not None:
                flag = "--" + name.replace("_", "-")
                raise SystemExit(f"{flag}: only {owner} reads it")


def _cmd_run(args) -> int:
    _reject_foreign_flags(args)
    _at_least("--budget", args.budget, 1)
    _at_least("--seeds", args.seeds, 1)
    config = _load_config(args)
    harness_options = config.harness_options()
    budget = args.budget if args.budget is not None else harness_options["budget"]
    n_seeds = args.seeds if args.seeds is not None else harness_options["seeds"]
    factory, optimizer_id = _optimizer_factory(args, config, budget)
    trials = _load_trials(args, config)
    with _reading("--out"):  # a run's results are lost if they cannot be written at its end
        (Path(args.out) / "runs").mkdir(parents=True, exist_ok=True)
    try:
        summary = evaluate(
            trials,
            factory,
            optimizer_id=optimizer_id,
            n_seeds=n_seeds,
            budget=budget,
            geometry=config.geometry(),
            noise_sigma=config.noise_sigma(),
            workers=harness_options["workers"],
        )
    except Exception as exc:
        if not getattr(exc, "__notes__", None):
            raise  # not a run's failure but the harness's
        # one line, led by the note evaluate added to name the failed run
        message = " ".join(str(exc).split())
        raise SystemExit(f"{exc.__notes__[-1]}: {type(exc).__name__}: {message}") from exc
    paths = write_outputs([summary], args.out)
    figures = suite_figures(summary)
    improvement = figures["aggregates"]["normalized_improvement_pct"]["mean"]
    print(f"{optimizer_id}: {figures['successes']}/{len(summary.records)} successful runs")
    if improvement is not None:
        print(f"mean normalised improvement: {improvement:.1f}%")
    print(f"wrote {paths['summary_json']}")
    return 0


def _cmd_report(args) -> int:
    with _reading("--in"):
        path = regenerate_csv(args.in_dir)
    print(f"wrote {path}")
    return 0


def _cmd_trials_generate(args) -> int:
    _at_least("--count", args.count, 1)
    _at_least("--seed", args.seed, 0)
    config = _load_config(args)
    trials = [
        make_trial(seed, config.trial_generator())
        for seed in range(args.seed, args.seed + args.count)
    ]
    text = yaml.safe_dump(trials_to_document(trials), sort_keys=False)
    if args.out:
        with _reading("--out"):
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
    # OWN_FLAGS default to None, so a flag given to another choice shows;
    # the llm factory supplies the defaults the help names
    run.add_argument("--prompt", default=None, choices=PROMPT_KINDS,
                     help="prompt kind for the llm optimizer (default: optimisation)")
    run.add_argument("--model", default=None, help="model name for the llm optimizer")
    run.add_argument("--backend", default=None, choices=DIALECTS,
                     help="wire dialect (default: openai); its server is "
                     "llm.backends.<dialect> in the config")
    run.add_argument("--script", default=None,
                     help="JSON list of scripted responses replacing the HTTP backend")
    run.add_argument("--script-on-exhaust", default=None, choices=("repeat_last", "error"),
                     help="when the script runs out (default: repeat_last)")
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
