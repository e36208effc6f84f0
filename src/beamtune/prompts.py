"""Prompt rendering and response parsing for the LLM tuning loop.

The four prompt kinds share one structure: a task description, the list of
previously evaluated samples, a request for the next settings and output
format instructions. Template texts live as versioned resource files next
to this module so golden tests can pin them byte for byte.

Magnet strengths render in 1/m^2 and corrector angles in mrad, all with
exactly two decimals. The tuning, explained and chain-of-thought prompts
list (settings, beam parameters) pairs chronologically; the optimisation
prompt lists (settings, objective) pairs sorted so objective values
descend down the prompt, i.e. the best sample comes last.

Responses are expected to carry exactly one markdown JSON code block with
the keys Q1, Q2, CV, Q3, CH. Parsing is deliberately strict (no trailing
commas, no comments, no extra keys) and never raises: :func:`parse` returns
the :class:`~beamtune.task.MagnetSettings` or a :class:`ParseFailure` with a
classified reason.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from importlib import resources
from typing import Sequence

from .task import MagnetSettings, Sample

__all__ = [
    "PROMPT_KINDS",
    "ParseFailure",
    "format_value",
    "parse",
    "render",
    "settings_block",
    "template_text",
]

PROMPT_KINDS = ("tuning", "explained", "chain_of_thought", "optimisation")

SETTING_KEYS = ("Q1", "Q2", "CV", "Q3", "CH")


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def format_value(value: float) -> str:
    """Render a number with exactly two decimals; never emits "-0.00"."""
    text = f"{value:.2f}"
    return "0.00" if text == "-0.00" else text


def _json_block(pairs: Sequence[tuple[str, float]]) -> str:
    lines = [f'    "{key}": {format_value(value)},' for key, value in pairs]
    lines[-1] = lines[-1].rstrip(",")
    return "```json\n{\n" + "\n".join(lines) + "\n}\n```"


def settings_block(settings: MagnetSettings) -> str:
    """Magnet settings as the prompts' JSON snippet (angles in mrad)."""
    return _json_block([
        ("Q1", settings.q1),
        ("Q2", settings.q2),
        ("CV", settings.cv * 1e3),
        ("Q3", settings.q3),
        ("CH", settings.ch * 1e3),
    ])


def _parameters_block(parameters) -> str:
    return _json_block([
        ("mu_x", parameters.mu_x),
        ("sigma_x", parameters.sigma_x),
        ("mu_y", parameters.mu_y),
        ("sigma_y", parameters.sigma_y),
    ])


def template_text(kind: str) -> str:
    if kind not in PROMPT_KINDS:
        raise ValueError(f"unknown prompt kind {kind!r}; expected one of {PROMPT_KINDS}")
    return (
        resources.files("beamtune.resources.prompts")
        .joinpath(f"{kind}.txt")
        .read_text(encoding="utf-8")
    )


def _chronological_samples(history: Sequence[Sample], window: int) -> str:
    sections = []
    for sample in history[-window:]:
        sections.append(
            "Magnet settings:\n"
            + settings_block(sample.settings)
            + "\n\nBeam parameters:\n"
            + _parameters_block(sample.parameters)
        )
    return "\n\n".join(sections)


def _descending_objective_samples(history: Sequence[Sample], window: int) -> str:
    best_first = sorted(history, key=lambda s: s.objective)[:window]
    worst_first = sorted(best_first, key=lambda s: s.objective, reverse=True)
    sections = [
        "Inputs:\n"
        + settings_block(sample.settings)
        + f"\nObjective value = {format_value(sample.objective)}"
        for sample in worst_first
    ]
    return "\n\n".join(sections)


def render(
    kind: str,
    target,
    history: Sequence[Sample],
    window: int = 50,
) -> str:
    """Build the full prompt text for one optimisation step.

    ``target`` is the trial's target :class:`~beamtune.optics.BeamParameters`
    (unused by the optimisation prompt, which only sees objective values).
    When the history exceeds ``window`` samples, the chronological prompts
    keep the most recent ones and the optimisation prompt keeps the best.
    """
    if not history:
        raise ValueError("history must contain at least the reset sample")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    text = template_text(kind)
    if kind == "optimisation":
        samples = _descending_objective_samples(history, window)
    else:
        samples = _chronological_samples(history, window)
        text = text.replace("<<TARGET_BLOCK>>", _parameters_block(target))
    return text.replace("<<SAMPLES>>", samples)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParseFailure:
    """Why a response yielded no settings."""

    reason: str  # no_json | invalid_json | ambiguous_multiple | missing_keys
    #            | non_numeric | extra_keys_disallowed


# Ordered least to most specific; used to pick the reported reason when a
# response yields no conforming candidate.
_REASON_SPECIFICITY = (
    "no_json",
    "invalid_json",
    "missing_keys",
    "extra_keys_disallowed",
    "non_numeric",
)

_JSON_FENCE = re.compile(r"```json\s*(.*?)\s*```", re.DOTALL | re.IGNORECASE)
_BARE_TAG = re.compile(r"^[A-Za-z0-9_+-]+\s*\n")


def _fenced_blocks(text: str) -> list[str]:
    """Code block contents, preferring json-tagged fences.

    When json-tagged fences exist only those are considered; otherwise bare
    fences are paired in order of appearance.
    """
    tagged = [m.group(1) for m in _JSON_FENCE.finditer(text)]
    if tagged:
        return tagged
    if "```" not in text:
        return []
    parts = text.split("```")
    blocks = []
    for inner in parts[1::2]:
        blocks.append(_BARE_TAG.sub("", inner).strip())
    return blocks


def _bare_brace_groups(text: str) -> list[str]:
    """Balanced top-level brace groups whose "{" opens a line.

    The fallback for fence-less responses: an object quoted mid-sentence is
    the model talking about settings, not answering in the requested format,
    so only groups standing on their own line qualify.
    """
    groups = []
    depth = 0
    start = -1
    line_start = True
    for i, ch in enumerate(text):
        if depth == 0:
            if ch == "{" and line_start:
                depth = 1
                start = i
            elif ch == "\n":
                line_start = True
            elif not ch.isspace():
                line_start = False
        else:
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0:
                    groups.append(text[start : i + 1])
                    line_start = False
    return groups


def _classify(block: str) -> tuple[dict[str, float] | None, str | None]:
    """(conforming values, None) or (None, failure reason) for one block."""
    try:
        data = json.loads(block)
    except (json.JSONDecodeError, ValueError):
        return None, "invalid_json"
    if not isinstance(data, dict):
        return None, "invalid_json"
    keys = set(data)
    required = set(SETTING_KEYS)
    if not required.issubset(keys):
        return None, "missing_keys"
    if keys != required:
        return None, "extra_keys_disallowed"
    values = {}
    for key in SETTING_KEYS:
        v = data[key]
        # bool is an int subclass; true/false are not magnet settings
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            return None, "non_numeric"
        values[key] = float(v)
    return values, None


def parse(response_text: str) -> MagnetSettings | ParseFailure:
    """Extract magnet settings from a model response.

    Returns the :class:`~beamtune.task.MagnetSettings` (angles converted
    from mrad to rad) when the response contains exactly one conforming
    JSON object, otherwise a :class:`ParseFailure`; never raises. Values
    outside the actuator ranges come back unclamped: the environment clamps
    them on application and records which ones it clamped. Extraction looks
    at fenced code blocks first and falls back to bare brace groups only
    when the response has no fences at all.
    """
    blocks = _fenced_blocks(response_text)
    if not blocks:
        blocks = _bare_brace_groups(response_text)
    if not blocks:
        return ParseFailure("no_json")

    candidates: list[dict[str, float]] = []
    reasons: list[str] = []
    for block in blocks:
        values, reason = _classify(block)
        if values is not None:
            candidates.append(values)
        else:
            reasons.append(reason)

    if len(candidates) > 1:
        return ParseFailure("ambiguous_multiple")
    if not candidates:
        return ParseFailure(max(reasons, key=_REASON_SPECIFICITY.index))

    raw = candidates[0]
    # multiply by 1e-3 rather than divide by 1e3: the two round differently
    return MagnetSettings(
        q1=raw["Q1"],
        q2=raw["Q2"],
        cv=raw["CV"] * 1e-3,
        q3=raw["Q3"],
        ch=raw["CH"] * 1e-3,
    )
