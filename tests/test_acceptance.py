"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line with its
measured numbers (run with ``pytest -s tests/test_acceptance.py`` to see
them). Tolerances are fixed here and nowhere else.

Criteria:
  1. do-nothing reproduces the analytic table rows exactly (0 +- 0 %,
     100 +- 0 %), in under a second;
  2. objective arithmetic on the reference example pair, to 1e-9 mm,
     against a decimal-arithmetic oracle;
  3. optics property grid (determinants, k -> 0 continuity, focusing signs,
     mean affinity);
  4. parser corpus: the example response parses exactly, the three failure
     responses classify as invalid_json / no_json / ambiguous_multiple;
  5. prompt golden files byte-for-byte, including descending objective
     ordering;
  6. baseline competence on the canonical suite: BO 9/9 successes with
     mean improvement <= -70 %, ES >= 7/9 with mean <= -40 %, random search
     no better than BO on final MAE; all at budget 50;
  7. LLM-loop mechanics with a scripted backend, including second chances,
     double-failure termination and bit-reproducibility;
  8. success-tier classification on constructed vectors.
"""

from __future__ import annotations

import json
import time
from decimal import Decimal

import numpy as np
import pytest

from beamtune.fixtures import canonical_trials
from beamtune.harness import LLMOptimizer, compute_metrics, evaluate, run_episode, summarize
from beamtune.harness.report import summary_document
from beamtune.llm import ScriptedBackend
from beamtune.optics import BeamParameters, Lattice, TransverseState, quad_blocks, track
from beamtune.optimizers import BayesianOptimizer, DoNothing, ExtremumSeeking, RandomSearch
from beamtune.prompts import PROMPT_KINDS, ParseFailure, parse, render
from beamtune.task import MagnetSettings, objective

import conftest
from conftest import read_data
from test_harness import _record_with_success


def report(criterion: int, passed: bool, detail: str) -> None:
    line = f"{'PASS' if passed else 'FAIL'} criterion {criterion}: {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert passed, f"criterion {criterion}: {detail}"


# -- criterion 1 -------------------------------------------------------------

def test_criterion_1_do_nothing_table_rows():
    trials = canonical_trials()
    started = time.perf_counter()
    summary = evaluate(trials, lambda t, s: DoNothing(), "do-nothing")
    elapsed = time.perf_counter() - started

    improvements = [m.normalized_improvement_pct for m in summary.metrics]
    integrated = [m.normalized_integrated_mae_pct for m in summary.metrics]
    exact = (
        summary.total_runs == 9
        and all(v == 0.0 for v in improvements)
        and all(v == 100.0 for v in integrated)
        and summary.aggregates["normalized_improvement_pct"] == (0.0, 0.0)
        and summary.aggregates["normalized_integrated_mae_pct"] == (100.0, 0.0)
    )
    report(
        1,
        exact and elapsed < 1.0,
        f"do-nothing improvement 0 +- 0 %, integrated 100 +- 0 % (tolerance 0), "
        f"9 runs in {elapsed:.3f} s",
    )


# -- criterion 2 -------------------------------------------------------------

def test_criterion_2_objective_arithmetic():
    observed = BeamParameters(-1038.63, 1893.75, -2353.77, 2226.94)
    target = BeamParameters(1.20, 0.11, 1.25, 0.06)

    # independent oracle: exact decimal arithmetic on the reference strings
    oracle = (
        abs(Decimal("-1038.63") - Decimal("1.20"))
        + abs(Decimal("-2353.77") - Decimal("1.25"))
        + abs(Decimal("1893.75") - Decimal("0.11"))
        + abs(Decimal("2226.94") - Decimal("0.06"))
    )
    assert oracle == Decimal("7515.37")
    assert oracle / 4 == Decimal("1878.8425")

    obj = objective(observed, target)
    err_obj = abs(obj - float(oracle))
    err_mae = abs(objective(observed, target) / 4.0 - float(oracle / 4))
    report(
        2,
        err_obj < 1e-9 and err_mae < 1e-9,
        f"objective 7515.37 mm (err {err_obj:.2e}), MAE 1878.8425 mm "
        f"(err {err_mae:.2e}), tolerance 1e-9",
    )


# -- criterion 3 -------------------------------------------------------------

def test_criterion_3_optics_property_grid():
    grid = np.linspace(-30.0, 30.0, 100)
    det_err = 0.0
    signs_ok = True
    for k1 in grid:
        x, y = quad_blocks(float(k1), 0.122)
        det_err = max(
            det_err,
            abs(np.linalg.det(x) - 1.0),
            abs(np.linalg.det(y) - 1.0),
        )
        if k1 > 0:
            signs_ok &= x[1, 0] < 0 and y[1, 0] > 0
        elif k1 < 0:
            signs_ok &= x[1, 0] > 0 and y[1, 0] < 0

    continuity = max(
        np.max(np.abs(eps - zero))
        for eps, zero in zip(quad_blocks(1e-8, 0.122), quad_blocks(0.0, 0.122))
    )

    lattice = Lattice(
        quad_misalignments=((1e-4, -2e-4), (0.0, 3e-4), (-2e-4, 1e-4)),
    )
    settings = MagnetSettings(12.0, -20.0, 3e-3, 8.0, -2e-3)
    sig = (2e-4, 1e-4, 2e-4, 1e-4)
    m1 = np.array([3e-4, 1e-5, -2e-4, 2e-5])
    m2 = np.array([-1e-4, -3e-5, 4e-4, -1e-5])

    def mean_out(mean):
        return track(lattice, settings, TransverseState.from_moments(tuple(mean), sig)).mean

    affinity = np.max(
        np.abs(mean_out(m1) + mean_out(m2) - mean_out(np.zeros(4)) - mean_out(m1 + m2))
    )

    report(
        3,
        det_err < 1e-12 and continuity < 1e-6 and signs_ok and affinity < 1e-12,
        f"determinant err {det_err:.2e} (<1e-12), continuity at k=1e-8 "
        f"{continuity:.2e} (<1e-6), focusing signs on all 100 grid points: "
        f"{signs_ok}, mean-affinity err {affinity:.2e} (<1e-12)",
    )


# -- criterion 4 -------------------------------------------------------------

def test_criterion_4_parser_corpus():
    example = parse(read_data("corpus", "example_response.txt"))
    example_ok = example == MagnetSettings(
        q1=-14.30, q2=-9.70, cv=-2.55 * 1e-3, q3=-8.10, ch=-5.21 * 1e-3,
    )

    expected_reasons = {
        "trailing_comma.txt": "invalid_json",
        "cot_essay.txt": "no_json",
        "incoherent.txt": "ambiguous_multiple",
    }
    got_reasons = {}
    for name in expected_reasons:
        outcome = parse(read_data("corpus", name))
        got_reasons[name] = outcome.reason if isinstance(outcome, ParseFailure) else "parsed"

    report(
        4,
        example_ok and got_reasons == expected_reasons,
        f"example response -> (-14.30, -9.70, -2.55, -8.10, -5.21): {example_ok}; "
        f"failure reasons {got_reasons}",
    )


# -- criterion 5 -------------------------------------------------------------

def test_criterion_5_prompt_goldens(reference_target, reference_history):
    mismatches = []
    for kind in PROMPT_KINDS:
        rendered = render(kind, reference_target, reference_history)
        if rendered != read_data("goldens", f"{kind}.txt"):
            mismatches.append(kind)

    rendered = render("optimisation", reference_target, reference_history)
    values = [
        float(line.split("=")[1])
        for line in rendered.splitlines()
        if line.startswith("Objective value =")
    ]
    ordering_ok = values == sorted(values, reverse=True) and values == [7515.37, 2.37, 2.28]

    report(
        5,
        not mismatches and ordering_ok,
        f"golden byte-match for {list(PROMPT_KINDS)} (mismatches: {mismatches or 'none'}), "
        f"objective ordering {values} descending: {ordering_ok}",
    )


# -- criterion 6 -------------------------------------------------------------

@pytest.mark.slow
def test_criterion_6_baseline_competence():
    trials = canonical_trials()
    started = time.perf_counter()

    bo = evaluate(trials, lambda t, s: BayesianOptimizer(seed=s), "bo")
    es = evaluate(trials, lambda t, s: ExtremumSeeking(seed=s), "es")
    rs = evaluate(trials, lambda t, s: RandomSearch(seed=s), "random")
    elapsed = time.perf_counter() - started

    bo_mean_improvement = bo.aggregates["normalized_improvement_pct"][0]
    es_mean_improvement = es.aggregates["normalized_improvement_pct"][0]
    bo_final = bo.aggregates["final_beam_difference_um"][0]
    rs_final = rs.aggregates["final_beam_difference_um"][0]

    bo_ok = bo.successes == 9 and bo.outright_success and bo_mean_improvement <= -70.0
    es_ok = es.successes >= 7 and es_mean_improvement <= -40.0
    rs_ok = rs_final >= bo_final

    report(
        6,
        bo_ok and es_ok and rs_ok and elapsed < 600.0,
        f"BO {bo.successes}/9 mean improvement {bo_mean_improvement:.1f}% (<= -70), "
        f"ES {es.successes}/9 mean {es_mean_improvement:.1f}% (<= -40), "
        f"random final MAE {rs_final:.0f} um >= BO {bo_final:.0f} um, "
        f"total {elapsed:.0f} s (< 600)",
    )


# -- criterion 7 -------------------------------------------------------------

VALID = """```json
{
    "Q1": -5.00,
    "Q2": 3.00,
    "CV": 1.00,
    "Q3": -2.00,
    "CH": -1.00
}
```"""
INVALID = "Let me think about the magnet physics first..."


def _scripted_factory(responses):
    def factory(trial, seed):
        return LLMOptimizer(
            backend=ScriptedBackend(list(responses)),
            model="scripted",
            prompt_kind="optimisation",
            target=trial.target,
        )

    return factory


def test_criterion_7_llm_loop_mechanics():
    trial = canonical_trials()[0]

    alternating = _scripted_factory([INVALID, VALID] * 50)(trial, 0)
    record = run_episode(trial, alternating, budget=50)
    alt_ok = (
        record.termination == "budget_exhausted"
        and record.steps_taken == 50
        and record.model_calls == 100
    )

    k = 13
    failing = LLMOptimizer(
        backend=ScriptedBackend([VALID] * (k - 1) + [INVALID, INVALID]),
        model="scripted",
        prompt_kind="optimisation",
        target=trial.target,
    )
    failed_record = run_episode(trial, failing, budget=50)
    fail_ok = (
        failed_record.termination == "double_parse_failure"
        and compute_metrics(failed_record).successful_steps == k - 1
    )

    documents = []
    for _ in range(2):
        summary = evaluate(
            canonical_trials(),
            _scripted_factory([VALID, INVALID, VALID] * 40),
            "llm-scripted",
        )
        documents.append(json.dumps(summary_document(summary), sort_keys=True))
    repro_ok = documents[0] == documents[1]

    report(
        7,
        alt_ok and fail_ok and repro_ok,
        f"alternating script: 50 steps / 100 calls: {alt_ok}; double failure at "
        f"step {k}: successful_steps = {k - 1}: {fail_ok}; suite bit-reproducible: "
        f"{repro_ok}",
    )


# -- criterion 8 -------------------------------------------------------------

def test_criterion_8_success_tiers():
    def suite(success_counts):
        records = []
        for t, count in enumerate(success_counts):
            for seed in range(3):
                records.append(_record_with_success(f"trial-{t}", seed, seed < count))
        return summarize("constructed", records)

    outright = suite([3, 3, 3])
    partial = suite([3, 3, 0])
    single = suite([3, 1, 0])
    nothing = suite([2, 2, 1])  # five successes, no trial fully solved

    checks = (
        outright.outright_success
        and outright.partial_success
        and outright.single_trial_success
        and not partial.outright_success
        and partial.partial_success
        and partial.single_trial_success
        and not single.partial_success
        and single.single_trial_success
        and not nothing.outright_success
        and not nothing.partial_success
        and not nothing.single_trial_success
    )
    report(
        8,
        checks,
        "outright 9/9, partial 6/9, single-trial 3/3 and 6/9-without-full-trial "
        "classified exactly as defined",
    )
