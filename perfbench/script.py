"""Scripted model replies for the llm-scripted workload.

A script is drawn from a string key with ``random.Random``: for every step
a valid JSON block with five settings uniform in the prompts' display
ranges (Q1/Q2/Q3 in 1/m^2, CV/CH in mrad, two decimals), bare or wrapped
in prose; before one step of the episode an unparseable reply, which the
second chance recovers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

KEYS = ("Q1", "Q2", "CV", "Q3", "CH")
DISPLAY_RANGES = {"Q1": (-30.0, 30.0), "Q2": (-30.0, 30.0), "CV": (-6.0, 6.0),
                  "Q3": (-30.0, 30.0), "CH": (-6.0, 6.0)}

PROSE_BEFORE = "Based on the samples so far, the next setting to try is:\n\n"
PROSE_AFTER = "\n\nThis should move the beam closer to the target."

# Unparseable first replies per episode. No parse-failure rate is known
# for the paper's models, so this is the least that exercises the second
# chance in every run of every prompt kind, not a measured share.
UNPARSEABLE_PER_EPISODE = 1


def settings_block(values: dict[str, float]) -> str:
    """A JSON code block in the format the prompts ask for."""
    body = ",\n".join(f'    "{key}": {values[key]:.2f}' for key in KEYS)
    return "```json\n{\n" + body + "\n}\n```"


def uniform_settings(unit: list[float]) -> dict[str, float]:
    """Map five numbers in [0, 1) onto the display ranges, two decimals."""
    values = {}
    for key, u in zip(KEYS, unit):
        lo, hi = DISPLAY_RANGES[key]
        values[key] = float(f"{lo + u * (hi - lo):.2f}")
    return values


def wrap(block: str, style: int) -> str:
    """0: the bare block, 1: prose before it, 2: prose before and after."""
    if style == 0:
        return block
    return PROSE_BEFORE + block + (PROSE_AFTER if style == 2 else "")


UNPARSEABLE_REPLIES = (
    "I would raise the strength of Q1 a little and leave the correctors alone.",
    '```json\n{"Q1": 1.00, "Q2": -2.00, "CV": 0.10, "Q3": 3.00, "CH": -0.20,}\n```',
    '```json\n{"Q1": 1.00, "Q2": -2.00, "CV": 0.10}\n```',
    '```json\n{"Q1": 1.00, "Q2": -2.00, "CV": 0.10, "Q3": 3.00, "CH": -0.20, "Q4": 0.50}\n```',
    '```json\n{"Q1": "high", "Q2": -2.00, "CV": 0.10, "Q3": 3.00, "CH": -0.20}\n```',
    "Either\n" + settings_block(dict(Q1=1.0, Q2=-2.0, CV=0.1, Q3=3.0, CH=-0.2))
    + "\nor\n" + settings_block(dict(Q1=-1.0, Q2=2.0, CV=-0.1, Q3=-3.0, CH=0.2)),
)


@dataclass
class Script:
    replies: list[str]
    served: list[dict[str, float]]  # settings of the replies that were applied
    unparseable: int


def make_script(key: str, budget: int, abort_at: int | None = None) -> Script:
    """Scripted replies for one episode, drawn from ``key``.

    With ``abort_at``, step ``abort_at`` gets two unparseable replies in a
    row, so the episode ends there by the second-chance rule.
    """
    rng = random.Random(key)
    bad_steps = set(rng.sample(range(budget), UNPARSEABLE_PER_EPISODE))
    replies, served = [], []
    for step in range(budget):
        if abort_at is not None and step == abort_at - 1:
            replies += rng.sample(UNPARSEABLE_REPLIES, 2)
            return Script(replies, served, len(replies) - len(served))
        if step in bad_steps:
            replies.append(rng.choice(UNPARSEABLE_REPLIES))
        values = uniform_settings([rng.random() for _ in range(5)])
        replies.append(wrap(settings_block(values), rng.randrange(3)))
        served.append(values)
    return Script(replies, served, len(bad_steps))
