"""One tuning episode: reset, then propose/apply/measure for a fixed budget.

For LLM optimizers each iteration renders the prompt from the full history,
queries the backend and parses the response. A response that fails to parse
gets exactly one second chance within the same iteration (the identical
prompt is re-sent; an optional mode appends the parse error instead). A
second failure terminates the run, as does a transport failure that
survives the backend's own retries. Terminated runs keep their last applied
settings as the final configuration.

Every model call, including second attempts, is recorded in the run's
transcript; transport-level retries inside the backend are not steps and
never appear in the history.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from ..llm import DEFAULT_TIMEOUT_S, ChatRequest, TransportError, chat
from ..optics import BeamParameters, LatticeGeometry
from ..prompts import ParsedSettings, parse, render
from ..task import MagnetSettings, Sample, Trial, TuningEnvironment

__all__ = [
    "Attempt",
    "LLMOptimizer",
    "RunRecord",
    "TERMINATIONS",
    "run_episode",
]

TERMINATIONS = ("budget_exhausted", "double_parse_failure", "transport_failure")

_SECOND_CHANCE_FEEDBACK = (
    "\n\nYour previous response could not be parsed ({reason}). Respond with "
    'exactly one markdown code snippet in the requested schema, including the '
    'leading and trailing "```json" and "```".'
)


@dataclass(frozen=True)
class Attempt:
    """One model call: the prompt sent and what came back."""

    step: int
    attempt: int  # 1 = first try, 2 = second chance
    prompt: str
    response: str | None  # None when transport failed
    parsed: bool
    failure_reason: str | None
    latency: float


@dataclass
class RunRecord:
    """Full episode record for one (trial, seed, optimizer) run."""

    trial_id: str
    seed: int
    optimizer_id: str
    samples: list[Sample]
    transcripts: list[Attempt]
    termination: str
    clamp_counts: dict[str, int]
    step_wall_clock: list[float]

    @property
    def model_calls(self) -> int:
        return len(self.transcripts)

    @property
    def steps_taken(self) -> int:
        return len(self.samples) - 1


class _EpisodeAbort(Exception):
    def __init__(self, cause: str):
        self.cause = cause


class LLMOptimizer:
    """Prompt-driven proposal strategy.

    Parameters
    ----------
    backend:     anything with ``complete(ChatRequest) -> ChatResponse``.
    model:       model name passed through to the backend.
    prompt_kind: tuning | explained | chain_of_thought | optimisation.
    target:      the trial's target beam parameters (rendered into the
                 accelerator-flavoured prompts).
    temperature: sampling temperature; None uses the dialect default.
    window:      history window for prompt rendering.
    second_chance_feedback: when True, the re-prompt appends the parse
                 error instead of repeating the identical prompt.
    """

    def __init__(
        self,
        backend,
        model: str,
        prompt_kind: str,
        target: BeamParameters,
        temperature: float | None = None,
        timeout: float = DEFAULT_TIMEOUT_S,
        window: int = 50,
        system_prompt: str | None = None,
        second_chance_feedback: bool = False,
    ) -> None:
        self.backend = backend
        self.model = model
        self.prompt_kind = prompt_kind
        self.target = target
        self.temperature = temperature
        self.timeout = timeout
        self.window = window
        self.system_prompt = system_prompt
        self.second_chance_feedback = second_chance_feedback

    def _call(self, prompt: str) -> tuple[str | None, float]:
        request = ChatRequest(
            model=self.model,
            user_message=prompt,
            system_prompt=self.system_prompt,
            temperature=self.temperature,
            timeout=self.timeout,
        )
        started = time.perf_counter()
        response = chat(self.backend, request)
        return response.text, time.perf_counter() - started

    def propose_with_attempts(
        self, step: int, history: Sequence[Sample]
    ) -> tuple[MagnetSettings | None, list[Attempt], str | None]:
        """(settings, attempts, abort cause). Settings is None on abort."""
        prompt = render(self.prompt_kind, self.target, history, window=self.window)
        attempts: list[Attempt] = []
        for attempt_index in (1, 2):
            try:
                text, latency = self._call(prompt)
            except TransportError:
                attempts.append(Attempt(step, attempt_index, prompt, None, False, None, 0.0))
                return None, attempts, "transport_failure"
            outcome = parse(text)
            if isinstance(outcome, ParsedSettings):
                attempts.append(Attempt(step, attempt_index, prompt, text, True, None, latency))
                return outcome.values, attempts, None
            attempts.append(
                Attempt(step, attempt_index, prompt, text, False, outcome.reason, latency)
            )
            if attempt_index == 1 and self.second_chance_feedback:
                prompt = prompt + _SECOND_CHANCE_FEEDBACK.format(reason=outcome.reason)
        return None, attempts, "double_parse_failure"


def run_episode(
    trial: Trial,
    optimizer,
    budget: int = 50,
    seed: int = 0,
    geometry: LatticeGeometry | None = None,
    noise_sigma: float = 0.0,
    optimizer_id: str | None = None,
) -> RunRecord:
    """Run one tuning episode of at most ``budget`` accelerator interactions.

    ``seed`` tags the record and seeds the environment's measurement noise;
    optimizer randomness is owned by the optimizer instance itself.
    """
    env = TuningEnvironment(
        trial,
        geometry=geometry,
        noise_sigma=noise_sigma,
        seed=(trial.seed, seed),
    )
    env.reset()
    transcripts: list[Attempt] = []
    wall_clock: list[float] = []
    termination = "budget_exhausted"

    is_llm = hasattr(optimizer, "propose_with_attempts")
    try:
        for step in range(1, budget + 1):
            started = time.perf_counter()
            if is_llm:
                settings, attempts, abort = optimizer.propose_with_attempts(step, env.history)
                transcripts.extend(attempts)
                if abort is not None:
                    raise _EpisodeAbort(abort)
            else:
                settings = optimizer.propose(env.history)
            env.step(settings)
            wall_clock.append(time.perf_counter() - started)
    except _EpisodeAbort as abort:
        termination = abort.cause

    clamp_counts: dict[str, int] = {}
    for sample in env.history[1:]:
        for name in sample.clamped:
            clamp_counts[name] = clamp_counts.get(name, 0) + 1

    return RunRecord(
        trial_id=trial.trial_id,
        seed=seed,
        optimizer_id=optimizer_id or type(optimizer).__name__,
        samples=list(env.history),
        transcripts=transcripts,
        termination=termination,
        clamp_counts=clamp_counts,
        step_wall_clock=wall_clock,
    )
