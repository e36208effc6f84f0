"""Harness tests: episode loop with the second-chance rule, metrics,
success tiers, persistence and the CLI surface."""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
import requests
import yaml

from beamtune.fixtures import CANONICAL_SEEDS, canonical_trials
from beamtune.harness import (
    LLMOptimizer,
    RunRecord,
    compute_metrics,
    evaluate,
    run_episode,
    suite_figures,
    summarize,
    write_outputs,
)
from beamtune.harness.cli import main as cli_main
from beamtune.harness.report import load_summary, regenerate_csv, render_csv, summary_document
from beamtune.llm import HttpBackend, ScriptedBackend, TransportError
from beamtune.optics import BeamParameters
from beamtune.optimizers import BayesianOptimizer, DoNothing, ExtremumSeeking, RandomSearch
from beamtune.task import MagnetSettings, Sample, make_trial, trials_to_document

VALID_RESPONSE = """```json
{
    "Q1": -5.00,
    "Q2": 3.00,
    "CV": 1.00,
    "Q3": -2.00,
    "CH": -1.00
}
```"""

INVALID_RESPONSE = "I think we should try lowering Q1 a bit."


def scripted_optimizer(trial, responses, **kwargs) -> LLMOptimizer:
    return LLMOptimizer(
        backend=ScriptedBackend(responses, **kwargs),
        model="scripted-model",
        prompt_kind="optimisation",
        target=trial.target,
        temperature=0.0,
    )


class TestEpisode:
    def test_do_nothing_runs_full_budget(self):
        trial = make_trial(1)
        record = run_episode(trial, DoNothing(), budget=50)
        assert record.termination == "budget_exhausted"
        assert record.steps_taken == 50
        assert len(record.samples) == 51
        first = record.samples[0]
        assert all(s.parameters == first.parameters for s in record.samples)

    def test_alternating_invalid_valid_uses_second_chance(self):
        trial = make_trial(1)
        optimizer = scripted_optimizer(
            trial, [INVALID_RESPONSE, VALID_RESPONSE] * 50
        )
        record = run_episode(trial, optimizer, budget=50)
        assert record.termination == "budget_exhausted"
        assert record.steps_taken == 50
        assert record.model_calls == 100  # every step needed both attempts
        assert all(a.attempt in (1, 2) for a in record.transcripts)
        # a second attempt shares its step
        assert [a.step for a in record.transcripts] == [
            step for step in range(1, 51) for _ in (1, 2)
        ]

    def test_double_failure_terminates_run(self):
        k = 7
        responses = [VALID_RESPONSE] * (k - 1) + [INVALID_RESPONSE, INVALID_RESPONSE]
        trial = make_trial(1)
        record = run_episode(
            trial, scripted_optimizer(trial, responses, on_exhaust="error"), budget=50
        )
        assert record.termination == "double_parse_failure"
        assert record.steps_taken == k - 1
        assert record.model_calls == k + 1  # k-1 good calls + 2 failures
        # the aborted step is the one after the last step taken
        assert [a.step for a in record.transcripts] == [*range(1, k), k, k]
        assert record.transcripts[-1].step == record.steps_taken + 1

    def test_transport_failure_terminates_run(self):
        trial = make_trial(1)
        optimizer = scripted_optimizer(
            trial, [VALID_RESPONSE] * 3, on_exhaust="error"
        )
        record = run_episode(trial, optimizer, budget=50)
        assert record.termination == "transport_failure"
        assert record.steps_taken == 3
        assert record.transcripts[-1].failure_reason == "ScriptExhausted"
        assert [a.step for a in record.transcripts] == [1, 2, 3, 4]
        assert record.transcripts[-1].step == record.steps_taken + 1

    def test_second_chance_resends_identical_prompt(self):
        trial = make_trial(2)
        backend = ScriptedBackend([INVALID_RESPONSE, VALID_RESPONSE] * 10)
        optimizer = LLMOptimizer(
            backend=backend,
            model="m",
            prompt_kind="tuning",
            target=trial.target,
        )
        run_episode(trial, optimizer, budget=3)
        prompts = [r.user_message for r in backend.requests]
        assert prompts[0] == prompts[1]  # identical re-prompt
        assert prompts[2] == prompts[3]

    def test_second_chance_feedback_mode_appends_error(self):
        trial = make_trial(2)
        backend = ScriptedBackend([INVALID_RESPONSE, VALID_RESPONSE] * 10)
        optimizer = LLMOptimizer(
            backend=backend,
            model="m",
            prompt_kind="tuning",
            target=trial.target,
            second_chance_feedback=True,
        )
        run_episode(trial, optimizer, budget=2)
        prompts = [r.user_message for r in backend.requests]
        assert prompts[1].startswith(prompts[0])
        assert "could not be parsed" in prompts[1]

    def test_parsed_settings_are_applied_with_clamping(self):
        trial = make_trial(1)
        huge = VALID_RESPONSE.replace("-5.00", "-55.00")
        optimizer = scripted_optimizer(trial, [huge] * 3)
        record = run_episode(trial, optimizer, budget=3)
        assert all(s.settings.q1 == -30.0 for s in record.samples[1:])
        assert record.clamp_counts == {"q1": 3}

    def test_trailing_comma_response_takes_parse_failure_path(self):
        # the trailing-comma failure fixture, scripted end to end
        trial = make_trial(1)
        trailing = (Path(__file__).parent / "data" / "corpus" / "trailing_comma.txt").read_text()
        optimizer = scripted_optimizer(trial, [trailing, VALID_RESPONSE])
        record = run_episode(trial, optimizer, budget=1)
        assert record.termination == "budget_exhausted"
        first, second = record.transcripts
        assert not first.parsed and first.failure_reason == "invalid_json"
        assert second.parsed and second.attempt == 2

    def test_llm_prompts_grow_with_history(self):
        trial = make_trial(3)
        backend = ScriptedBackend([VALID_RESPONSE] * 5)
        optimizer = LLMOptimizer(
            backend=backend, model="m", prompt_kind="explained", target=trial.target
        )
        run_episode(trial, optimizer, budget=5)
        lengths = [len(r.user_message) for r in backend.requests]
        assert lengths == sorted(lengths) and lengths[0] < lengths[-1]


class TestMetrics:
    def test_do_nothing_exact_zero_and_hundred(self):
        trial = make_trial(1)
        record = run_episode(trial, DoNothing(), budget=50)
        metrics = compute_metrics(record)
        assert metrics.normalized_improvement_pct == 0.0
        assert metrics.normalized_integrated_mae_pct == 100.0
        assert metrics.run_success is False
        assert metrics.integrated_fill_applied is False

    def test_halved_mae_is_minus_fifty(self):
        trial = make_trial(1)
        record = run_episode(trial, DoNothing(), budget=2)
        halved = record.samples[-1]
        record.samples[-1] = Sample(
            step_index=halved.step_index,
            settings=halved.settings,
            parameters=halved.parameters,
            objective=record.samples[0].objective / 2.0,
        )
        metrics = compute_metrics(record)
        assert metrics.normalized_improvement_pct == pytest.approx(-50.0)
        assert metrics.run_success is True

    @pytest.mark.parametrize("budget, steps", [(50, 10), (10, 4)],
                             ids=["budget-50", "budget-10"])
    def test_early_termination_fill_rule(self, budget, steps):
        # terminated after `steps` steps, constant mae m thereafter: the
        # integrated metric holds m for the rest of the run's own budget.
        # The last step differs from the ones before it, so m is not the
        # mean and the number of held steps shows in the result.
        trial = make_trial(1)
        other = VALID_RESPONSE.replace("-5.00", "5.00")
        responses = [other] * (steps - 1) + [VALID_RESPONSE, INVALID_RESPONSE, INVALID_RESPONSE]
        record = run_episode(
            trial, scripted_optimizer(trial, responses, on_exhaust="error"), budget=budget
        )
        assert record.steps_taken == steps
        metrics = compute_metrics(record)
        maes = [s.mae for s in record.samples[1:]]
        held = maes + [maes[-1]] * (budget - steps)
        expected = 100.0 * math.fsum(held) / (budget * record.samples[0].mae)
        assert metrics.normalized_integrated_mae_pct == pytest.approx(expected, rel=1e-12)
        assert metrics.integrated_fill_applied is True
        assert metrics.successful_steps == steps

    def test_final_beam_difference_in_micrometres(self):
        trial = make_trial(2)
        record = run_episode(trial, DoNothing(), budget=1)
        metrics = compute_metrics(record)
        assert metrics.final_beam_difference_um == pytest.approx(
            record.samples[-1].mae * 1000.0
        )

    def test_success_threshold_is_forty_micrometres(self):
        trial = make_trial(1)
        record = run_episode(trial, DoNothing(), budget=1)
        base = record.samples[0]

        def with_final(delta_mm: float) -> RunRecord:
            improved = Sample(1, base.settings, base.parameters, base.objective - 4 * delta_mm)
            return RunRecord(
                trial_id=record.trial_id, seed=0, budget=1,
                samples=[base, improved], transcripts=[], termination="budget_exhausted",
            )

        assert compute_metrics(with_final(0.0401)).run_success is True
        assert compute_metrics(with_final(0.0399)).run_success is False

    def test_call_accounting_conserved(self):
        # model_calls = steps_taken + second attempts for LLM runs;
        # non-LLM runs have successful_steps equal to steps taken
        trial = make_trial(2)
        responses = [VALID_RESPONSE, INVALID_RESPONSE, VALID_RESPONSE] * 20
        record = run_episode(trial, scripted_optimizer(trial, responses), budget=20)
        second_attempts = sum(1 for a in record.transcripts if a.attempt == 2)
        assert record.model_calls == record.steps_taken + second_attempts

        baseline = run_episode(trial, DoNothing(), budget=20)
        assert compute_metrics(baseline).successful_steps == baseline.steps_taken

    def test_run_success_monotone_in_final_mae(self):
        trial = make_trial(1)
        record = run_episode(trial, DoNothing(), budget=1)
        base = record.samples[0]
        previous_success = None
        for final_mae in (base.mae, base.mae - 0.039, base.mae - 0.041, 0.0):
            improved = Sample(1, base.settings, base.parameters, 4 * final_mae)
            candidate = RunRecord(
                trial_id=record.trial_id, seed=0, budget=1,
                samples=[base, improved], transcripts=[], termination="budget_exhausted",
            )
            success = compute_metrics(candidate).run_success
            if previous_success is not None:
                assert success >= previous_success  # lowering mae never flips to failure
            previous_success = success

    def test_zero_initial_mae_flagged_and_excluded(self):
        trial = make_trial(1)
        base = run_episode(trial, DoNothing(), budget=1).samples[0]
        perfect = Sample(0, base.settings, base.parameters, 0.0)
        record = RunRecord(
            trial_id="t", seed=0, budget=1, samples=[perfect, perfect],
            transcripts=[], termination="budget_exhausted",
        )
        metrics = compute_metrics(record)
        assert metrics.normalization_undefined is True
        assert metrics.normalized_improvement_pct is None
        aggregates = suite_figures(summarize("x", [record]))["aggregates"]
        assert aggregates["normalized_improvement_pct"] == {"mean": None, "std": None}


def _record_with_success(trial_id: str, seed: int, success: bool) -> RunRecord:
    params = BeamParameters(0, 0.1, 0, 0.1)
    settings = MagnetSettings(0, 0, 0, 0, 0)
    initial = Sample(0, settings, params, objective=4.0)
    final_mae = 0.5 if success else 1.0  # 500 um improvement vs none
    final = Sample(1, settings, params, objective=4 * final_mae)
    return RunRecord(
        trial_id=trial_id, seed=seed, budget=1,
        samples=[initial, final], transcripts=[], termination="budget_exhausted",
    )


def tiered_figures(successes: list[int]) -> dict:
    """successes[i] in {0..3} per trial; the figures of a 3x3 suite."""
    records = []
    for t, count in enumerate(successes):
        for seed in range(3):
            records.append(_record_with_success(f"trial-{t}", seed, seed < count))
    return suite_figures(summarize("fake", records))


class TestSuccessTiers:
    def test_outright(self):
        tiers = tiered_figures([3, 3, 3])["success_tiers"]
        assert tiers["outright"] and tiers["partial"]
        assert tiers["single_trial"]

    def test_partial_six_of_nine(self):
        tiers = tiered_figures([3, 3, 0])["success_tiers"]
        assert not tiers["outright"]
        assert tiers["partial"]
        assert tiers["single_trial"]

    def test_partial_pattern_from_mixed_trials(self):
        # successes on runs (1,1,1) (0,0,0) (1,1,1) -> 6/9 partial,
        # single-trial via the first and third trials
        records = []
        pattern = {"trial-a": [1, 1, 1], "trial-b": [0, 0, 0], "trial-c": [1, 1, 1]}
        for trial_id, flags in pattern.items():
            for seed, flag in enumerate(flags):
                records.append(_record_with_success(trial_id, seed, bool(flag)))
        figures = suite_figures(summarize("fake", records))
        tiers = figures["success_tiers"]
        assert figures["successes"] == 6
        assert tiers["partial"] and not tiers["outright"]
        assert tiers["single_trial"]

    def test_five_of_nine_is_not_partial(self):
        tiers = tiered_figures([3, 2, 0])["success_tiers"]
        assert not tiers["partial"]
        assert tiers["single_trial"]

    def test_single_trial_only(self):
        tiers = tiered_figures([3, 0, 0])["success_tiers"]
        assert not tiers["partial"]
        assert tiers["single_trial"]

    def test_nothing(self):
        tiers = tiered_figures([2, 2, 1])["success_tiers"]
        assert not tiers["outright"]
        assert not tiers["partial"]
        assert not tiers["single_trial"]


class TestEvaluateAndReport:
    def test_do_nothing_suite_tiers_all_false(self):
        trials = canonical_trials()
        summary = evaluate(trials, lambda t, s: DoNothing(), "do-nothing")
        figures = suite_figures(summary)
        tiers = figures["success_tiers"]
        assert len(summary.records) == 9
        assert figures["successes"] == 0
        assert not tiers["outright"]
        assert not tiers["partial"]
        assert not tiers["single_trial"]
        # untuned final beam difference sits at the mm scale, as expected
        # for random initial settings on this task
        mean_final_um = figures["aggregates"]["final_beam_difference_um"]["mean"]
        assert 500.0 < mean_final_um < 10000.0

    def test_parallel_equals_serial(self):
        trials = canonical_trials()[:2]
        serial = evaluate(trials, lambda t, s: RandomSearch(seed=s), "random",
                          n_seeds=2, budget=5, workers=1)
        parallel = evaluate(trials, lambda t, s: RandomSearch(seed=s), "random",
                            n_seeds=2, budget=5, workers=4)
        assert summary_document(serial) == summary_document(parallel)

    def test_outputs_and_reload(self, tmp_path):
        trials = canonical_trials()[:1]
        summary = evaluate(trials, lambda t, s: DoNothing(), "do-nothing",
                           n_seeds=2, budget=3)
        paths = write_outputs([summary], tmp_path)
        data = load_summary(tmp_path)
        assert data["optimizers"][0]["optimizer_id"] == "do-nothing"
        csv_text = paths["summary_csv"].read_text()
        header = csv_text.splitlines()[0]
        for group in ("final_beam_difference_um", "normalised_beam_improvement_pct",
                      "normalised_integrated_mae_pct", "successful_steps"):
            assert group in header

    def test_report_regeneration_is_byte_identical(self, tmp_path):
        trials = canonical_trials()[:1]
        summary = evaluate(trials, lambda t, s: DoNothing(), "do-nothing",
                           n_seeds=2, budget=3)
        paths = write_outputs([summary], tmp_path)
        before = paths["summary_csv"].read_bytes()
        regenerate_csv(tmp_path)
        after = (tmp_path / "summary.csv").read_bytes()
        assert before == after

    def test_transcript_line_count_equals_model_calls(self, tmp_path):
        trial = canonical_trials()[0]
        responses = [INVALID_RESPONSE, VALID_RESPONSE] * 5

        def factory(t, s):
            return scripted_optimizer(t, list(responses))

        summary = evaluate([trial], factory, "llm-scripted", n_seeds=1, budget=5)
        paths = write_outputs([summary], tmp_path)
        transcript_files = sorted(paths["runs_dir"].glob("*.jsonl"))
        assert len(transcript_files) == 1
        lines = transcript_files[0].read_text().splitlines()
        assert len(lines) == summary.records[0].model_calls == 10
        assert all(json.loads(line)["prompt"] for line in lines)

    def test_successful_steps_not_applicable_for_baselines(self, tmp_path):
        trials = canonical_trials()[:1]
        summary = evaluate(trials, lambda t, s: DoNothing(), "do-nothing",
                           n_seeds=1, budget=2)
        csv_text = render_csv([summary_document(summary)])
        row = csv_text.splitlines()[1].split(",")
        header = csv_text.splitlines()[0].split(",")
        assert row[header.index("successful_steps_mean")] == "-"

    def test_noise_mode_reproducible_across_executions(self):
        # measurement-noise mode: runs are seeded from (trial seed, run
        # seed), so two executions agree bit for bit; improvement is no
        # longer exactly zero for do-nothing
        trials = canonical_trials()[:2]
        docs = []
        for _ in range(2):
            summary = evaluate(trials, lambda t, s: DoNothing(), "do-nothing",
                               n_seeds=2, budget=5, noise_sigma=2e-5)
            docs.append(json.dumps(summary_document(summary), sort_keys=True))
        assert docs[0] == docs[1]
        summary = evaluate(trials, lambda t, s: DoNothing(), "do-nothing",
                           n_seeds=2, budget=5, noise_sigma=2e-5)
        improvements = [m.normalized_improvement_pct for m in summary.metrics]
        assert any(v != 0.0 for v in improvements)
        assert all(abs(v) < 20.0 for v in improvements)  # 20 um on mm-scale MAE

    def test_es_competent_in_noise_mode(self):
        # criterion 6's ES thresholds, with 20 um screen-position noise
        summary = evaluate(canonical_trials(), lambda t, s: ExtremumSeeking(seed=s), "es",
                           noise_sigma=2e-5)
        figures = suite_figures(summary)
        mean_improvement = figures["aggregates"]["normalized_improvement_pct"]["mean"]
        assert len(summary.records) == 9
        assert figures["successes"] >= 7 and mean_improvement <= -40.0

    @pytest.mark.slow
    def test_bo_competent_in_noise_mode(self):
        # criterion 6's BO thresholds, with 20 um screen-position noise
        summary = evaluate(canonical_trials(), lambda t, s: BayesianOptimizer(seed=s), "bo",
                           noise_sigma=2e-5)
        figures = suite_figures(summary)
        mean_improvement = figures["aggregates"]["normalized_improvement_pct"]["mean"]
        assert len(summary.records) == 9
        assert figures["successes"] == 9 and figures["success_tiers"]["outright"]
        assert mean_improvement <= -70.0

    def test_suite_bit_reproducible_with_fixed_script(self):
        trials = canonical_trials()[:2]
        responses = [VALID_RESPONSE, INVALID_RESPONSE, VALID_RESPONSE] * 20

        def factory(t, s):
            return scripted_optimizer(t, list(responses))

        docs = []
        for _ in range(2):
            summary = evaluate(trials, factory, "llm-scripted", n_seeds=2, budget=10)
            docs.append(json.dumps(summary_document(summary), sort_keys=True))
        assert docs[0] == docs[1]


class _FakeReply:
    def __init__(self, status_code: int, body):
        self.status_code = status_code
        self._body = body

    def json(self):
        if isinstance(self._body, str):
            raise json.JSONDecodeError("Expecting value", self._body, 0)
        return self._body


class _FakeSession:
    """Plays back one scripted outcome per POST: a status and body, or an exception."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)

    def post(self, url, **kwargs):
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return _FakeReply(*outcome)


class TestFaultInjection:
    def test_transport_faults_mid_suite(self, tmp_path):
        budget, k = 5, 3
        ok = (200, {"choices": [{"message": {"content": VALID_RESPONSE}}]})
        session = _FakeSession(
            [ok, (429, {}), (503, {}), ok, ok, ok, ok]  # run 1 recovers
            + [ok] * (k - 1) + [requests.Timeout()] * 3  # run 2 times out at step k
            + [(200, "<html>bad gateway</html>")]  # run 3 gets a non-JSON body
        )
        sleeps = []
        backend = HttpBackend("http://fake", session=session, sleeper=sleeps.append)

        def factory(trial, seed):
            return LLMOptimizer(backend, "fake-model", "optimisation", trial.target,
                                temperature=0.0)

        trials = canonical_trials()
        summary = evaluate(trials, factory, "llm-fake", n_seeds=1, budget=budget)
        first, second, third = summary.records

        assert [(r.trial_id, r.seed) for r in summary.records] == [
            (t.trial_id, 0) for t in trials
        ]
        assert first.termination == "budget_exhausted"
        assert first.model_calls == first.steps_taken == budget
        assert second.termination == "transport_failure"
        assert second.steps_taken == k - 1
        assert second.transcripts[-1].failure_reason == "BackendTimeout"
        assert third.termination == "transport_failure"
        assert third.steps_taken == 0
        assert third.transcripts[-1].failure_reason == "MalformedReplyError"
        assert session.outcomes == [] and sleeps == [0.5, 1.0, 0.5, 1.0]

        paths = write_outputs([summary], tmp_path)
        assert load_summary(tmp_path)["optimizers"][0]["optimizer_id"] == "llm-fake"
        assert len(list(paths["runs_dir"].glob("*.jsonl"))) == 3

    def test_failed_call_latency_is_recorded(self, tmp_path):
        class SlowFailingBackend:
            def complete(self, request):
                time.sleep(0.05)
                raise TransportError("connection refused")

        trial = make_trial(1)
        optimizer = LLMOptimizer(SlowFailingBackend(), "m", "optimisation", trial.target)
        summary = evaluate([trial], lambda t, s: optimizer, "llm-slow", n_seeds=1, budget=1)
        paths = write_outputs([summary], tmp_path)
        (transcript,) = paths["runs_dir"].glob("*.jsonl")
        (line,) = transcript.read_text().splitlines()
        entry = json.loads(line)
        assert entry["failure_reason"] == "TransportError"
        assert entry["latency_s"] >= 0.05


# sha256 of the canonical suite's fixture document, serialised as sorted JSON
CANONICAL_SHA256 = "bb1150820aa5139629c7b480e123a34f76a1b5eab80ee122b59e603868568f50"


class TestFixtures:
    def test_canonical_suite_values_are_pinned(self):
        # every bit of the suite, so drift in numpy's random stream shows here
        trials = canonical_trials()
        document = json.dumps(trials_to_document(trials), sort_keys=True)
        assert hashlib.sha256(document.encode()).hexdigest() == CANONICAL_SHA256
        assert trials[1].target.mu_y == 1.2569029623771213

    def test_canonical_seeds(self):
        assert [t.seed for t in canonical_trials()] == list(CANONICAL_SEEDS)


_RUN = ["run", "--optimizer", "do-nothing", "--out", "{tmp}/r"]
_GENERATE = ["trials", "generate", "--seed", "1"]
_LLM_RUN = ["run", "--optimizer", "llm", "--model", "m", "--out", "{tmp}/r"]
# a short suite, so that a flag check that lets the run go ends soon
_FOREIGN = ["run", "--budget", "2", "--seeds", "1", "--out", "{tmp}/r", "--optimizer"]


def _fixture_with(value, *path) -> str:
    """A fixture of ``make_trial(1)`` with the item at ``path`` in its trial set to ``value``."""
    document = trials_to_document([make_trial(1)])
    *parents, last = path
    node = document["trials"][0]
    for key in parents:
        node = node[key]
    node[last] = value
    return yaml.safe_dump(document)


class TestCLI:
    def test_run_report_and_trials_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "results"
        assert cli_main([
            "run", "--optimizer", "do-nothing", "--budget", "3",
            "--out", str(out),
        ]) == 0
        assert (out / "summary.json").exists()
        assert cli_main(["report", "--in", str(out)]) == 0

        fixture = tmp_path / "trials.yaml"
        assert cli_main([
            "trials", "generate", "--seed", "1", "--count", "3",
            "--out", str(fixture),
        ]) == 0
        doc = yaml.safe_load(fixture.read_text())
        assert doc["schema"] == "beamtune/trials/v2"
        assert len(doc["trials"]) == 3

        # a fixture generated from the canonical seeds runs as the default suite
        assert cli_main([
            "run", "--optimizer", "do-nothing", "--budget", "3",
            "--trials-fixture", str(fixture), "--out", str(tmp_path / "r2"),
        ]) == 0
        assert (tmp_path / "r2" / "summary.json").read_bytes() == (
            out / "summary.json"
        ).read_bytes()

    @pytest.mark.parametrize("name, build", [
        ("bo", lambda trial, seed: BayesianOptimizer(seed=seed, budget=6)),
        ("es", lambda trial, seed: ExtremumSeeking(seed=seed)),
        ("random", lambda trial, seed: RandomSearch(seed=seed)),
        ("do-nothing", lambda trial, seed: DoNothing()),
    ], ids=["bo", "es", "random", "do-nothing"])
    def test_run_equals_library_defaults(self, tmp_path, name, build):
        out = tmp_path / "results"
        assert cli_main([
            "run", "--optimizer", name, "--budget", "6", "--seeds", "1",
            "--out", str(out),
        ]) == 0
        expected = evaluate(canonical_trials(), build, name, n_seeds=1, budget=6)
        (written,) = load_summary(out)["optimizers"]
        assert json.dumps(written, sort_keys=True) == json.dumps(
            summary_document(expected), sort_keys=True
        )

    def test_unknown_optimizer_key_exits_with_its_name(self, tmp_path):
        config = tmp_path / "config.yaml"
        config.write_text("optimizers:\n  bo:\n    n_candidate: 512\n")
        with pytest.raises(SystemExit, match=r"optimizers\.bo\.n_candidate"):
            cli_main([
                "run", "--optimizer", "bo", "--config", str(config),
                "--out", str(tmp_path / "r"),
            ])
        assert not (tmp_path / "r").exists()

    def test_unknown_backend_key_exits_with_its_name(self, tmp_path):
        config = tmp_path / "config.yaml"
        config.write_text("llm:\n  backends:\n    openai:\n      rate: 5\n")
        with pytest.raises(SystemExit, match=r"llm\.backends\.openai\.rate"):
            cli_main([
                "run", "--optimizer", "llm", "--model", "m", "--config", str(config),
                "--out", str(tmp_path / "r"),
            ])

    def test_unconfigured_backend_exits_with_its_name(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main([
                "run", "--optimizer", "llm", "--model", "m", "--backend", "nosuch",
                "--out", str(tmp_path / "r"),
            ])
        assert exit_info.value.code == 2
        assert "argument --backend: invalid choice: 'nosuch'" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_backend_without_base_url_exits_at_load(self, tmp_path):
        config = tmp_path / "config.yaml"
        config.write_text("llm:\n  backends:\n    openai:\n      base_url: null\n")
        expected = (r"^--config: llm\.backends\.openai\.base_url must be a non-empty string, "
                    r"got None$")
        with pytest.raises(SystemExit, match=expected):
            cli_main([
                "run", "--optimizer", "llm", "--model", "m",
                "--config", str(config), "--out", str(tmp_path / "r"),
            ])
        assert not (tmp_path / "r").exists()

    def test_trials_fixture_with_unknown_schema_exits(self, tmp_path):
        fixture = tmp_path / "trials.yaml"
        fixture.write_text("schema: nope\ntrials: []\n")
        expected = r"^--trials-fixture: unsupported trial fixture schema 'nope'"
        with pytest.raises(SystemExit, match=expected):
            cli_main([
                "run", "--optimizer", "do-nothing", "--trials-fixture", str(fixture),
                "--out", str(tmp_path / "r"),
            ])
        assert not (tmp_path / "r").exists()

    def test_missing_script_file_exits(self, tmp_path):
        with pytest.raises(SystemExit, match=r"^--script: .*absent\.json"):
            cli_main([
                "run", "--optimizer", "llm", "--model", "m",
                "--script", str(tmp_path / "absent.json"), "--out", str(tmp_path / "r"),
            ])

    @pytest.mark.parametrize("flags, config_text, message", [
        (["--budget", "0"], None, "--budget: must be at least 1, got 0"),
        (["--budget", "-3"], None, "--budget: must be at least 1, got -3"),
        (["--seeds", "0"], None, "--seeds: must be at least 1, got 0"),
        ([], "harness:\n  seeds: 0\n", r"--config: harness\.seeds must be an integer >= 1, got 0"),
    ], ids=["budget-0", "budget-negative", "seeds-0", "config-seeds-0"])
    def test_budget_and_seeds_below_one_exit(self, tmp_path, flags, config_text, message):
        if config_text is not None:
            config = tmp_path / "config.yaml"
            config.write_text(config_text)
            flags = [*flags, "--config", str(config)]
        with pytest.raises(SystemExit, match=f"^{message}$"):
            cli_main(["run", "--optimizer", "do-nothing", *flags, "--out", str(tmp_path / "r")])
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("argv, files, message", [
        ([*_RUN, "--config", "{tmp}/absent.yaml"], {},
         r"^--config: \[Errno 2\] No such file or directory: '.*absent\.yaml'$"),
        ([*_RUN, "--config", "{tmp}/c.yaml"], {"c.yaml": "lattice: {q2: 0.1\n"},
         r"^--config: while parsing a flow mapping in \".*c\.yaml\", line 1, column 10 .*$"),
        ([*_RUN, "--config", "{tmp}/c.yaml"], {"c.yaml": "lattice:\n  q2: 0.1\n"},
         r"^--config: lattice: element order violated at 'q2': starts at 0\.1 before 0\.302$"),
        ([*_GENERATE, "--config", "{tmp}/c.yaml"], {"c.yaml": "lattice:\n  q2: 0.1\n"},
         r"^--config: lattice: element order violated at 'q2'"),
        ([*_RUN, "--config", "{tmp}/c.yaml"],
         {"c.yaml": "trial_generator:\n  target_sigma_mm: [1.0, 0.5]\n"},
         r"^--config: trial_generator: malformed generator range target_sigma_mm: "
         r"\(1\.0, 0\.5\)$"),
        ([*_GENERATE, "--config", "{tmp}/c.yaml"],
         {"c.yaml": "trial_generator:\n  target_sigma_mm: [1.0, 0.5]\n"},
         r"^--config: trial_generator: malformed generator range target_sigma_mm"),
        ([*_RUN, "--config", "{tmp}/c.yaml"], {"c.yaml": "harness:\n  workers: two\n"},
         r"^--config: harness\.workers must be an integer >= 1, got 'two'$"),
        ([*_RUN, "--config", "{tmp}/c.yaml"], {"c.yaml": "harness:\n  workers: 1.5\n"},
         r"^--config: harness\.workers must be an integer >= 1, got 1\.5$"),
        ([*_RUN, "--config", "{tmp}/c.yaml"], {"c.yaml": "harness:\n  workers: -4\n"},
         r"^--config: harness\.workers must be an integer >= 1, got -4$"),
        ([*_RUN, "--config", "{tmp}/c.yaml"], {"c.yaml": "harness:\n  workers: 0\n"},
         r"^--config: harness\.workers must be an integer >= 1, got 0$"),
        ([*_RUN, "--config", "{tmp}/c.yaml"], {"c.yaml": "harness: null\n"},
         r"^--config: harness must be a mapping, got None$"),
        ([*_RUN, "--config", "{tmp}/c.yaml"], {"c.yaml": "llm: {window: 0}\n"},
         r"^--config: llm\.window must be an integer >= 1, got 0$"),
        ([*_RUN, "--config", "{tmp}/c.yaml"], {"c.yaml": "llm: {temperature: -1.0}\n"},
         r"^--config: llm\.temperature must be null or a finite value >= 0, got -1\.0$"),
        ([*_RUN, "--config", "{tmp}/c.yaml"], {"c.yaml": "llm: {timeout_s: fast}\n"},
         r"^--config: llm\.timeout_s must be a finite value > 0, got 'fast'$"),
        ([*_RUN, "--config", "{tmp}/c.yaml"], {"c.yaml": "llm: {second_chance_feedback: 3}\n"},
         r"^--config: llm\.second_chance_feedback must be true or false, got 3$"),
        ([*_RUN, "--config", "{tmp}/c.yaml"], {"c.yaml": "optimizers: {es: {amplitude: -1.0}}\n"},
         r"^--config: optimizers\.es\.amplitude must be a finite value >= 0, got -1\.0$"),
        ([*_RUN, "--config", "{tmp}/c.yaml"], {"c.yaml": "optimizers: {es: null}\n"},
         r"^--config: optimizers\.es must be a mapping, got None$"),
        ([*_RUN, "--config", "{tmp}/c.yaml"], {"c.yaml": "optimizers: {bo: {n_candidates: 0}}\n"},
         r"^--config: optimizers\.bo\.n_candidates must be an integer >= 1, got 0$"),
        ([*_RUN, "--config", "{tmp}/c.yaml"], {"c.yaml": "optimizers: {bo: {n_refine: -1}}\n"},
         r"^--config: optimizers\.bo\.n_refine must be an integer >= 0, got -1$"),
        ([*_GENERATE, "--count", "0", "--out", "{tmp}/r"], {},
         r"^--count: must be at least 1, got 0$"),
        ([*_GENERATE, "--count", "-2", "--out", "{tmp}/r"], {},
         r"^--count: must be at least 1, got -2$"),
        ([*_RUN, "--trials-fixture", "{tmp}/t.yaml"], {"t.yaml": "schema: [\n"},
         r"^--trials-fixture: while parsing a flow node .*t\.yaml\", line 2, column 1$"),
        ([*_RUN, "--trials-fixture", "{tmp}/t.yaml"], {"t.yaml": "- 1\n- 2\n"},
         r"^--trials-fixture: a trial fixture is a mapping, got list$"),
        ([*_RUN, "--trials-fixture", "{tmp}/t.yaml"],
         {"t.yaml": "schema: beamtune/trials/v2\ntrials:\n- trial_id: t\n  seed: 1\n"},
         r"^--trials-fixture: missing field 'target_mm'$"),
        ([*_RUN, "--trials-fixture", "{tmp}/t.yaml"],
         {"t.yaml": "schema: beamtune/trials/v2\ntrials: []\n"},
         r"^--trials-fixture: a trial fixture needs at least one trial, got none$"),
        ([*_RUN, "--trials-fixture", "{tmp}/t.yaml"],
         {"t.yaml": "schema: beamtune/trials/v1\ntrials: []\n"},
         r"^--trials-fixture: unsupported trial fixture schema 'beamtune/trials/v1', "
         r"expected 'beamtune/trials/v2'$"),
        ([*_RUN, "--trials-fixture", "{tmp}/t.yaml"],
         {"t.yaml": _fixture_with(math.nan, "target_mm", "mu_x")},
         r"^--trials-fixture: trial-001: non-finite target \(nan, "),
        ([*_RUN, "--trials-fixture", "{tmp}/t.yaml"],
         {"t.yaml": _fixture_with(math.inf, "screen_misalignment_m", 0)},
         r"^--trials-fixture: trial-001: non-finite screen misalignment \(inf, "),
        ([*_RUN, "--trials-fixture", "{tmp}/t.yaml"],
         {"t.yaml": _fixture_with(math.nan, "quad_misalignments_m", 1, 0)},
         r"^--trials-fixture: trial-001: non-finite quad misalignments \(.*, nan, "),
        ([*_RUN, "--trials-fixture", "{tmp}/t.yaml"],
         {"t.yaml": _fixture_with(math.nan, "incoming", "mean", 0)},
         r"^--trials-fixture: trial-001: non-finite incoming mean \(nan, "),
        ([*_RUN, "--trials-fixture", "{tmp}/t.yaml"],
         {"t.yaml": _fixture_with([0.0, 0.0, 0.0], "incoming", "mean")},
         r"^--trials-fixture: trial-001: incoming mean and covariance have shapes \(3,\) and "
         r"\(4, 4\), expected \(4,\) and \(4, 4\)$"),
        ([*_RUN, "--trials-fixture", "{tmp}/t.yaml"],
         {"t.yaml": _fixture_with(1e-9, "incoming", "covariance", 0, 1)},
         r"^--trials-fixture: trial-001: incoming covariance is not symmetric$"),
        ([*_RUN, "--trials-fixture", "{tmp}/t.yaml"],
         {"t.yaml": _fixture_with(-1e-8, "incoming", "covariance", 2, 2)},
         r"^--trials-fixture: trial-001: incoming covariance has a negative diagonal$"),
        ([*_RUN, "--trials-fixture", "{tmp}/t.yaml"],
         {"t.yaml": _fixture_with(math.nan, "initial_settings", "q1")},
         r"^--trials-fixture: trial-001: non-finite initial settings \(nan, "),
        ([*_RUN, "--trials-fixture", "{tmp}/t.yaml"],
         {"t.yaml": _fixture_with(31.0, "initial_settings", "q1")},
         r"^--trials-fixture: trial-001: initial settings outside the actuator ranges$"),
        ([*_RUN, "--trials-fixture", "{tmp}/t.yaml"],
         {"t.yaml": _fixture_with(-0.1, "target_mm", "sigma_y")},
         r"^--trials-fixture: trial-001: target beam sizes must be non-negative$"),
        ([*_RUN, "--trials-fixture", "{tmp}/t.yaml"],
         {"t.yaml": yaml.safe_dump(trials_to_document([make_trial(1)] * 2))},
         r"^--trials-fixture: duplicate trial_id 'trial-001'$"),
        (["report", "--in", "{tmp}"], {},
         r"^--in: \[Errno 2\] No such file or directory: '.*summary\.json'$"),
        (["report", "--in", "{tmp}"], {"summary.json": '{"schema": "other/v1"}'},
         r"^--in: unsupported summary schema 'other/v1'$"),
        (["report", "--in", "{tmp}"],
         {"summary.json": '{"schema": "beamtune/summary/v1", "optimizers": [{}]}'},
         r"^--in: missing field 'aggregates'$"),
        (["report", "--in", "{tmp}"], {"summary.json": "[]"},
         r"^--in: a summary is a mapping, got list$"),
        ([*_GENERATE[:-1], "-1", "--out", "{tmp}/r"], {}, r"^--seed: must be at least 0, got -1$"),
        ([*_LLM_RUN, "--config", "{tmp}/c.yaml"], {"c.yaml": "llm: null\n"},
         r"^--config: llm must be a mapping, got None$"),
        ([*_LLM_RUN, "--config", "{tmp}/c.yaml"], {"c.yaml": "llm: {backends: null}\n"},
         r"^--config: llm\.backends must be a mapping, got None$"),
        ([*_LLM_RUN, "--config", "{tmp}/c.yaml"],
         {"c.yaml": "llm: {backends: {openai: null}}\n"},
         r"^--config: llm\.backends\.openai must be a mapping, got None$"),
        ([*_LLM_RUN, "--config", "{tmp}/c.yaml"],
         {"c.yaml": "llm: {backends: {openai: {base_url: null}}}\n"},
         r"^--config: llm\.backends\.openai\.base_url must be a non-empty string, got None$"),
        ([*_LLM_RUN, "--config", "{tmp}/c.yaml"],
         {"c.yaml": "llm: {backends: {openai: {base_url: 3}}}\n"},
         r"^--config: llm\.backends\.openai\.base_url must be a non-empty string, got 3$"),
        ([*_LLM_RUN, "--config", "{tmp}/c.yaml"],
         {"c.yaml": "llm: {backends: {openai: {requests_per_minute: -5}}}\n"},
         r"^--config: llm\.backends\.openai\.requests_per_minute must be null or a finite "
         r"value > 0, got -5$"),
        ([*_LLM_RUN, "--config", "{tmp}/c.yaml"],
         {"c.yaml": "llm: {backends: {openai: {requests_per_minute: abc}}}\n"},
         r"^--config: llm\.backends\.openai\.requests_per_minute must be null or a finite "
         r"value > 0, got 'abc'$"),
        ([*_LLM_RUN, "--config", "{tmp}/c.yaml"],
         {"c.yaml": "llm: {backends: {openai: {dialect: ollama}}}\n"},
         r"^--config: unknown config key: llm\.backends\.openai\.dialect$"),
        ([*_LLM_RUN, "--config", "{tmp}/c.yaml"],
         {"c.yaml": 'llm: {backends: {mine: {base_url: "http://x"}}}\n'},
         r"^--config: unknown config key: llm\.backends\.mine$"),
        ([*_GENERATE, "--config", "{tmp}/c.yaml", "--out", "{tmp}/r"],
         {"c.yaml": "harness: {budget: 0}\n"},
         r"^--config: harness\.budget must be an integer >= 1, got 0$"),
        ([*_RUN, "--trials-fixture", "{tmp}/t.yaml"],
         {"t.yaml": _fixture_with([0.0, 0.0, 0.0], "incoming", "covariance", 1)},
         r"^--trials-fixture: trial-001: incoming covariance: setting an array element with a "
         r"sequence\. "),
        ([*_RUN, "--trials-fixture", "{tmp}/t.yaml"],
         {"t.yaml": _fixture_with("abc", "target_mm", "mu_x")},
         r"^--trials-fixture: trial-001: target: could not convert string to float: 'abc'$"),
        ([*_FOREIGN, "es", "--script", "{tmp}/absent.json"], {},
         r"^--script: only --optimizer llm reads it$"),
        ([*_FOREIGN, "bo", "--policy", "nosuch:x"], {},
         r"^--policy: only --optimizer rlo reads it$"),
        ([*_FOREIGN, "random", "--model", "m"], {}, r"^--model: only --optimizer llm reads it$"),
        ([*_FOREIGN, "do-nothing", "--prompt", "tuning"], {},
         r"^--prompt: only --optimizer llm reads it$"),
        ([*_FOREIGN, "rlo", "--policy", "test_optimizers:_example_policy", "--backend", "ollama"],
         {}, r"^--backend: only --optimizer llm reads it$"),
        ([*_FOREIGN, "llm", "--model", "m", "--script", "{tmp}/s.json", "--policy", "nosuch:x"],
         {"s.json": json.dumps([VALID_RESPONSE])}, r"^--policy: only --optimizer rlo reads it$"),
        # an HTTP run to a closed port, so that a run the check lets go ends soon
        ([*_FOREIGN, "llm", "--model", "m", "--script-on-exhaust", "error",
          "--config", "{tmp}/c.yaml"],
         {"c.yaml": 'llm: {backends: {openai: {base_url: "http://127.0.0.1:9"}}}\n'},
         r"^--script-on-exhaust: only --script reads it$"),
        ([*_FOREIGN, "llm", "--model", "m", "--script", "{tmp}/s.json", "--backend", "ollama"],
         {"s.json": json.dumps([VALID_RESPONSE])},
         r"^--backend: only a run without --script reads it$"),
        ([*_RUN, "--trials-fixture", "{tmp}/t.yaml"], {"t.yaml": _fixture_with("t/1", "trial_id")},
         r"^--trials-fixture: trial_id 't/1' may hold only letters, digits, '\.', '_' and '-'$"),
        ([*_GENERATE, "--out", "{tmp}/missing/x.yaml"], {},
         r"^--out: \[Errno 2\] No such file or directory: '.*x\.yaml'$"),
    ], ids=[
        "config-missing", "config-not-yaml", "run-lattice", "generate-lattice",
        "run-trial-generator", "generate-trial-generator", "workers-word", "workers-float",
        "workers-negative", "workers-zero", "harness-null", "llm-window-0",
        "llm-temperature-negative", "llm-timeout-word", "llm-second-chance-int",
        "es-amplitude-negative", "es-null", "bo-n-candidates-0", "bo-n-refine-negative",
        "generate-count-0", "generate-count-negative",
        "fixture-not-yaml", "fixture-list", "fixture-missing-field", "fixture-no-trials",
        "fixture-v1", "fixture-target-nan", "fixture-screen-inf", "fixture-quad-nan",
        "fixture-mean-nan", "fixture-mean-3", "fixture-cov-asymmetric",
        "fixture-cov-negative-diagonal", "fixture-initial-nan", "fixture-initial-out-of-range",
        "fixture-target-sigma-negative", "fixture-duplicate-trial",
        "report-no-summary", "report-foreign-schema", "report-missing-field", "report-list",
        "generate-seed-negative", "llm-null", "backends-null", "openai-null",
        "openai-base-url-null", "openai-base-url-int", "openai-rpm-negative", "openai-rpm-word",
        "openai-dialect", "backend-not-a-dialect", "generate-config-budget-0",
        "fixture-cov-ragged", "fixture-target-word",
        "es-script", "bo-policy", "random-model", "do-nothing-prompt", "rlo-backend",
        "llm-policy", "llm-exhaust-without-script", "llm-backend-with-script",
        "fixture-unsafe-trial-id", "generate-out-missing-dir",
    ])
    def test_malformed_input_exits_with_one_line(self, tmp_path, argv, files, message):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        with pytest.raises(SystemExit, match=message) as exit_info:
            cli_main([arg.format(tmp=tmp_path) for arg in argv])
        assert "\n" not in exit_info.value.code
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("optimizer", ["es", "do-nothing"])
    def test_runs_without_model_calls_leave_runs_dir_empty(self, tmp_path, optimizer):
        out = tmp_path / "results"
        assert cli_main([
            "run", "--optimizer", optimizer, "--budget", "2", "--seeds", "1", "--out", str(out),
        ]) == 0
        assert (out / "runs").is_dir()
        assert list((out / "runs").iterdir()) == []

    def test_cli_import_leaves_scipy_stats_unloaded(self):
        # scipy.stats is only needed once a BayesianOptimizer is built, and
        # requests once an HttpBackend talks; loading the config does neither
        import beamtune

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(beamtune.__file__).parents[1]), env.get("PYTHONPATH", "")]
        )
        code = (
            "import sys, beamtune.harness.cli; beamtune.config.load_config(); "
            "print('scipy.stats' in sys.modules, 'requests' in sys.modules)"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert result.stdout.split() == ["False", "False"]

    def test_rlo_run_with_external_policy(self, tmp_path):
        out = tmp_path / "results"
        assert cli_main([
            "run", "--optimizer", "rlo", "--policy", "test_optimizers:_example_policy",
            "--budget", "2", "--seeds", "1", "--out", str(out),
        ]) == 0
        data = load_summary(out)
        assert data["optimizers"][0]["optimizer_id"] == "rlo"

    def test_rlo_policy_is_the_named_attribute(self, tmp_path):
        # loading never calls the policy, not even one that takes no arguments
        out = tmp_path / "results"
        assert cli_main([
            "run", "--optimizer", "rlo",
            "--policy", "test_optimizers:_policy_with_default_history",
            "--budget", "2", "--seeds", "1", "--out", str(out),
        ]) == 0
        runs = load_summary(out)["optimizers"][0]["runs"]
        assert [run["steps_taken"] for run in runs] == [2] * len(runs)

    @pytest.mark.parametrize("spec, message", [
        ("nosuchmod:x", r"^--policy: No module named 'nosuchmod'$"),
        ("os", r"^--policy: policy spec must look like 'module:attribute', got 'os'$"),
        ("os:nosuch", r"^--policy: module 'os' has no attribute 'nosuch'$"),
        ("math:pi", r"^--policy: policy must be callable"),
    ], ids=["no-module", "no-colon", "no-attribute", "not-callable"])
    def test_bad_policy_exits_before_any_run(self, tmp_path, monkeypatch, spec, message):
        import beamtune.harness.cli as cli

        started = []
        monkeypatch.setattr(cli, "evaluate", lambda *args, **kwargs: started.append(args))
        with pytest.raises(SystemExit, match=message) as exit_info:
            cli_main(["run", "--optimizer", "rlo", "--policy", spec, "--out", str(tmp_path / "r")])
        assert "\n" not in exit_info.value.code
        assert started == []
        assert not (tmp_path / "r").exists()

    def test_unwritable_out_exits_before_any_run(self, tmp_path, monkeypatch):
        # the runs would be lost when write_outputs fails to create runs/
        import beamtune.harness.cli as cli

        built = []
        make_factory = cli._optimizer_factory

        def counting_factory(*args):
            factory, optimizer_id = make_factory(*args)
            return (lambda trial, seed: built.append(seed) or factory(trial, seed)), optimizer_id

        monkeypatch.setattr(cli, "_optimizer_factory", counting_factory)
        script = tmp_path / "script.json"
        script.write_text(json.dumps([VALID_RESPONSE]))
        not_a_directory = tmp_path / "file"
        not_a_directory.write_text("")
        with pytest.raises(SystemExit, match=r"^--out: .*file") as exit_info:
            cli_main([
                "run", "--optimizer", "llm", "--model", "scripted", "--script", str(script),
                "--out", str(not_a_directory / "x"),
            ])
        assert isinstance(exit_info.value.code, str)  # exits with status 1
        assert "\n" not in exit_info.value.code
        assert built == []

    def test_http_runs_get_their_own_backend_and_share_one_limiter(self, tmp_path):
        import beamtune.harness.cli as cli

        config = tmp_path / "config.yaml"
        config.write_text(
            'llm: {backends: {ollama: {base_url: "http://127.0.0.1:9", requests_per_minute: 30}}}\n'
        )
        args = cli.build_parser().parse_args([
            "run", "--optimizer", "llm", "--model", "m", "--backend", "ollama",
            "--config", str(config), "--out", str(tmp_path / "r"),
        ])
        factory, _ = cli._optimizer_factory(args, cli._load_config(args), 2)
        trial = make_trial(1)
        first, second = (factory(trial, seed).backend for seed in (0, 1))
        assert isinstance(first, HttpBackend) and first is not second
        assert (first.base_url, first.dialect) == ("http://127.0.0.1:9", "ollama")
        assert first._limiter is second._limiter and first._limiter.rate == 0.5
        assert first._session is None and second._session is None  # each opens its own

    def test_rlo_without_policy_exits_with_error(self, tmp_path):
        with pytest.raises(SystemExit):
            cli_main([
                "run", "--optimizer", "rlo", "--out", str(tmp_path / "r"),
            ])

    def test_llm_run_with_script_file(self, tmp_path):
        script = tmp_path / "script.json"
        script.write_text(json.dumps([VALID_RESPONSE] * 200))
        out = tmp_path / "results"
        assert cli_main([
            "run", "--optimizer", "llm", "--model", "scripted", "--prompt", "chain_of_thought",
            "--script", str(script), "--budget", "4", "--seeds", "1",
            "--out", str(out),
        ]) == 0
        data = load_summary(out)
        assert data["optimizers"][0]["llm_loop"] is True
        runs = data["optimizers"][0]["runs"]
        assert all(r["metrics"]["successful_steps"] == 4 for r in runs)
