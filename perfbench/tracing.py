"""Spans around the program's layer boundaries, recorded from outside it.

``Tracer.install`` replaces the public functions and methods that the
evaluation loop calls through module or class attributes with wrappers
that record a span (name, start, end, parent) and per-call counts in
memory. ``per_layer`` turns the spans of the traced rounds into the
per-layer metrics; ``write`` dumps the spans as JSON lines.

A layer's self time is its span's duration minus the part its direct
child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

perf_counter = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self.enabled = True
        self._stack: list[int] = []
        self._bo_optimizers: dict[int, object] = {}  # for their fallback_steps

    # -- recording ---------------------------------------------------------------

    def _parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def wrap(self, fn, name, on_return=None):
        """``fn`` recording a span; ``name`` may be a function of the parent's name."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            span_name = name if isinstance(name, str) else name(self._parent_name())
            index = len(spans)
            spans.append([span_name, perf_counter(), 0.0, parent])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(span_name, args, result, spans[index])
            return result

        return traced

    def patch(self, owner, attribute: str, name, on_return=None) -> None:
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        if isinstance(original, classmethod):
            setattr(owner, attribute, classmethod(self.wrap(original.__func__, name, on_return)))
        else:
            setattr(owner, attribute, self.wrap(original, name, on_return))

    def install(self) -> None:
        """Wrap every layer boundary the benchmark reports on."""
        import scipy.optimize

        import beamtune.harness.episode as episode
        import beamtune.harness.metrics as metrics
        import beamtune.harness.report as report
        import beamtune.task as task
        from beamtune.optimizers.bayesian import BayesianOptimizer, GaussianProcess
        import beamtune.optimizers.bayesian as bayesian
        from beamtune.optimizers.extremum_seeking import ExtremumSeeking
        from beamtune.prompts import ParseFailure

        counts = self.counts

        def count_rows(name, args, result, span):
            counts["ei.rows"] += len(args[1])

        def count_nfev(name, args, result, span):
            if name == "gp.fit.lbfgs":
                counts["gp.fit.lbfgs_evals"] += result.nfev

        def count_render(name, args, result, span):
            counts["render.bytes"] += len(result.encode("utf-8"))

        def count_parse(name, args, result, span):
            counts["parse.failures"] += isinstance(result, ParseFailure)

        def remember_optimizer(name, args, result, span):
            self._bo_optimizers[id(args[0])] = args[0]

        def count_outputs(name, args, result, span):
            files = [result["summary_json"], result["summary_csv"], *result["runs_dir"].iterdir()]
            counts["write_outputs.bytes"] += sum(p.stat().st_size for p in files)

        self.patch(task, "track", "optics.track")
        self.patch(task, "read_screen", "optics.read_screen")
        self.patch(task.TuningEnvironment, "step", "task.step")
        self.patch(task.TuningEnvironment, "reset", "task.reset")
        self.patch(metrics, "run_episode", "episode.run")
        self.patch(metrics, "summarize", "metrics.summarize")
        self.patch(report, "write_outputs", "report.write_outputs", count_outputs)
        self.patch(BayesianOptimizer, "propose", "bo.propose", remember_optimizer)
        self.patch(BayesianOptimizer, "_candidates", "bo.candidates")
        self.patch(GaussianProcess, "fit", "gp.fit")
        self.patch(bayesian, "expected_improvement", "gp.expected_improvement", count_rows)
        # scipy.optimize.minimize serves both the GP hyperparameter fit and the
        # EI refinement; the enclosing span tells them apart.
        self.patch(scipy.optimize, "minimize",
                   lambda parent: "gp.fit.lbfgs" if parent == "gp.fit" else "bo.refine",
                   count_nfev)
        self.patch(ExtremumSeeking, "propose", "es.propose")
        self.patch(episode.LLMOptimizer, "propose_with_attempts", "llm.propose")
        self.patch(episode, "render", "prompts.render", count_render)
        self.patch(episode, "parse", "prompts.parse", count_parse)
        self.patch(episode, "chat", "llm.chat")

    def fallback_steps(self) -> int:
        return sum(len(o.fallback_steps) for o in self._bo_optimizers.values())

    # -- reporting ---------------------------------------------------------------

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

    def per_layer(self, rounds: int, setup: dict[str, float], overhead_pct: float) -> dict:
        """Per-layer metrics; counts are per round of the workload."""
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        child: dict[str, float] = defaultdict(float)
        under: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0, 0.0])
        for name, start, end, parent in self.spans:
            duration = end - start
            calls[name] += 1
            total[name] += duration
            if parent >= 0:
                parent_name = self.spans[parent][0]
                child[parent_name] += duration
                pair = under[(name, parent_name)]
                pair[0] += 1
                pair[1] += duration
        # child time is summed per parent name, which equals the sum over each
        # parent span's own children
        selftime = {name: total[name] - child[name] for name in total}

        def per_call(name, scale):
            return total[name] / calls[name] * scale if calls[name] else 0.0

        def per_round(value):
            return value / rounds

        steps = calls["task.step"]
        per_step = (lambda value: value / steps) if steps else (lambda value: 0.0)
        c = self.counts
        return {
            "setup.import_s": (setup["import_s"], "s"),
            "setup.load_config_ms": (setup["load_config_ms"], "ms"),
            "setup.canonical_trials_ms": (setup["canonical_trials_ms"], "ms"),
            "optics.track.calls": (per_round(calls["optics.track"]), "count"),
            "optics.track.us_per_call": (per_call("optics.track", 1e6), "us"),
            "optics.read_screen.us_per_call": (per_call("optics.read_screen", 1e6), "us"),
            "task.step.calls": (per_round(steps), "count"),
            "task.step.self_us_per_call":
                (selftime.get("task.step", 0.0) / steps * 1e6 if steps else 0.0, "us"),
            "gp.fit.calls": (per_round(calls["gp.fit"]), "count"),
            "gp.fit.ms_per_call": (per_call("gp.fit", 1e3), "ms"),
            "gp.fit.lbfgs_evals": (per_round(c["gp.fit.lbfgs_evals"]), "count"),
            "gp.expected_improvement.calls": (per_round(calls["gp.expected_improvement"]), "count"),
            "gp.expected_improvement.rows": (per_round(c["ei.rows"]), "count"),
            "gp.expected_improvement.us_per_call": (per_call("gp.expected_improvement", 1e6), "us"),
            "bo.propose.ms_per_call": (per_call("bo.propose", 1e3), "ms"),
            "bo.candidates.ms_per_step": (per_step(
                total["bo.candidates"] + under[("gp.expected_improvement", "bo.propose")][1]) * 1e3,
                "ms"),
            "bo.refine.ms_per_step": (per_step(total["bo.refine"]) * 1e3, "ms"),
            "bo.refine.ei_calls_per_step":
                (per_step(under[("gp.expected_improvement", "bo.refine")][0]), "count"),
            "bo.fallback_steps": (per_round(self.fallback_steps()), "count"),
            "es.propose.us_per_call": (per_call("es.propose", 1e6), "us"),
            "prompts.render.calls": (per_round(calls["prompts.render"]), "count"),
            "prompts.render.us_per_call": (per_call("prompts.render", 1e6), "us"),
            "prompts.render.kb_per_call": (
                c["render.bytes"] / 1024 / calls["prompts.render"] if calls["prompts.render"] else 0.0,
                "KiB"),
            "prompts.parse.calls": (per_round(calls["prompts.parse"]), "count"),
            "prompts.parse.us_per_call": (per_call("prompts.parse", 1e6), "us"),
            "prompts.parse.failures": (per_round(c["parse.failures"]), "count"),
            "llm.chat.calls": (per_round(calls["llm.chat"]), "count"),
            "llm.chat.ms_per_call": (per_call("llm.chat", 1e3), "ms"),
            "episode.run.s_per_call": (per_call("episode.run", 1.0), "s"),
            "episode.overhead_us_per_step": (per_step(selftime.get("episode.run", 0.0)) * 1e6, "us"),
            "metrics.summarize.ms_per_call": (per_call("metrics.summarize", 1e3), "ms"),
            "report.write_outputs.ms_per_call": (per_call("report.write_outputs", 1e3), "ms"),
            "report.write_outputs.kb": (
                c["write_outputs.bytes"] / 1024 / calls["report.write_outputs"]
                if calls["report.write_outputs"] else 0.0, "KiB"),
            "trace.overhead_pct": (overhead_pct, "%"),
        }
