"""Prompt rendering: golden files, formatting rules, ordering, windowing."""

from __future__ import annotations

import pytest

from beamtune.prompts import PROMPT_KINDS, format_value, parse, render, settings_block
from beamtune.task import MagnetSettings

from conftest import read_data


@pytest.mark.parametrize("kind", PROMPT_KINDS)
def test_golden_prompts_byte_for_byte(kind, reference_target, reference_history):
    rendered = render(kind, reference_target, reference_history)
    assert rendered == read_data("goldens", f"{kind}.txt")


def test_render_is_deterministic(reference_target, reference_history):
    first = render("tuning", reference_target, reference_history)
    second = render("tuning", reference_target, reference_history)
    assert first == second


def test_target_block_renders_exact_json_snippet(reference_target, reference_history):
    rendered = render("tuning", reference_target, reference_history)
    snippet = (
        "Target beam parameters:\n"
        "```json\n"
        "{\n"
        '    "mu_x": 1.20,\n'
        '    "sigma_x": 0.11,\n'
        '    "mu_y": 1.25,\n'
        '    "sigma_y": 0.06\n'
        "}\n"
        "```"
    )
    assert snippet in rendered


def test_optimisation_orders_objectives_descending(reference_target, reference_history):
    rendered = render("optimisation", reference_target, reference_history)
    values = [
        float(line.split("=")[1])
        for line in rendered.splitlines()
        if line.startswith("Objective value =")
    ]
    assert values == [7515.37, 2.37, 2.28]
    assert values == sorted(values, reverse=True)


def test_chronological_order_follows_history(reference_target, reference_history):
    rendered = render("explained", reference_target, reference_history)
    q1_lines = [
        line.strip() for line in rendered.splitlines() if line.strip().startswith('"Q1"')
    ]
    # last entry belongs to the schema ("Q1": float)
    assert q1_lines[:3] == ['"Q1": 25.12,', '"Q1": -13.25,', '"Q1": -13.50,']


def test_two_decimal_formatting():
    assert format_value(3.94159) == "3.94"
    assert format_value(-8.2551) == "-8.26"
    assert format_value(7515.37) == "7515.37"
    assert format_value(-0.001) == "0.00"
    assert format_value(0.0) == "0.00"


def test_windowing_keeps_most_recent_for_chronological(reference_target, reference_history):
    rendered = render("tuning", reference_target, reference_history, window=2)
    assert '"Q1": 25.12' not in rendered  # oldest dropped
    assert '"Q1": -13.25' in rendered and '"Q1": -13.50' in rendered


def test_windowing_keeps_best_for_optimisation(reference_target, reference_history):
    rendered = render("optimisation", reference_target, reference_history, window=2)
    assert "7515.37" not in rendered  # worst dropped
    values = [
        float(line.split("=")[1])
        for line in rendered.splitlines()
        if line.startswith("Objective value =")
    ]
    assert values == [2.37, 2.28]


def test_empty_history_rejected(reference_target):
    with pytest.raises(ValueError):
        render("tuning", reference_target, [])


def test_unknown_kind_rejected(reference_target, reference_history):
    with pytest.raises(ValueError):
        render("zero-shot", reference_target, reference_history)


def test_settings_block_round_trips_through_parser():
    settings = MagnetSettings(q1=-14.30, q2=-9.70, cv=-2.55e-3, q3=-8.10, ch=-5.21e-3)
    parsed = parse(settings_block(settings))
    assert parsed == MagnetSettings(
        q1=-14.30, q2=-9.70, cv=-2.55 * 1e-3, q3=-8.10, ch=-5.21 * 1e-3
    )


def test_render_includes_schema_instruction(reference_target, reference_history):
    for kind in PROMPT_KINDS:
        rendered = render(kind, reference_target, reference_history)
        assert '"```json" and "```"' in rendered
        assert rendered.count("<<") == 0  # all placeholders substituted
