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
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from ..llm import DEFAULT_TIMEOUT_S, ChatRequest, TransportError, chat
from ..optics import BeamParameters, LatticeGeometry
from ..prompts import ParseFailure, parse, render
from ..task import MagnetSettings, Sample, Trial, TuningEnvironment

__all__ = [
    "Attempt",
    "LLMOptimizer",
    "RunRecord",
    "run_episode",
]

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
    failure_reason: str | None  # parse failure, or the transport error's class
    latency: float

    @property
    def parsed(self) -> bool:
        return self.failure_reason is None


@dataclass
class RunRecord:
    """Full episode record for one (trial, seed, optimizer) run."""

    trial_id: str
    seed: int
    budget: int
    samples: list[Sample]
    transcripts: list[Attempt]
    termination: str  # budget_exhausted | double_parse_failure | transport_failure

    @property
    def clamp_counts(self) -> dict[str, int]:
        """Clamps per actuator over the applied proposals, sorted by name."""
        counts = Counter(name for sample in self.samples[1:] for name in sample.clamped)
        return dict(sorted(counts.items()))

    @property
    def model_calls(self) -> int:
        return len(self.transcripts)

    @property
    def steps_taken(self) -> int:
        return len(self.samples) - 1


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

    def propose_with_attempts(
        self, history: Sequence[Sample]
    ) -> tuple[MagnetSettings | None, list[Attempt], str | None]:
        """(settings, attempts, abort cause) for the next step.

        Settings is None on abort. The step's number is ``len(history)``:
        the history holds the reset sample and one sample per step taken.
        """
        step = len(history)
        prompt = render(self.prompt_kind, self.target, history, window=self.window)
        attempts: list[Attempt] = []
        for attempt_index in (1, 2):
            request = ChatRequest(
                model=self.model,
                user_message=prompt,
                system_prompt=self.system_prompt,
                temperature=self.temperature,
                timeout=self.timeout,
            )
            started = time.perf_counter()  # a failed call's retries and backoff count too
            try:
                text = chat(self.backend, request).text
            except TransportError as exc:
                text, reason = None, type(exc).__name__
            latency = time.perf_counter() - started
            if text is not None:
                outcome = parse(text)
                reason = outcome.reason if isinstance(outcome, ParseFailure) else None
            attempts.append(Attempt(step, attempt_index, prompt, text, reason, latency))
            if text is None:
                return None, attempts, "transport_failure"
            if reason is None:
                return outcome, attempts, None
            if attempt_index == 1 and self.second_chance_feedback:
                prompt += _SECOND_CHANCE_FEEDBACK.format(reason=reason)
        return None, attempts, "double_parse_failure"


def run_episode(
    trial: Trial,
    optimizer,
    budget: int = 50,
    seed: int = 0,
    geometry: LatticeGeometry | None = None,
    noise_sigma: float = 0.0,
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
    termination = "budget_exhausted"

    is_llm = hasattr(optimizer, "propose_with_attempts")
    for _ in range(budget):
        if is_llm:
            settings, attempts, abort = optimizer.propose_with_attempts(env.history)
            transcripts.extend(attempts)
            if abort is not None:
                termination = abort
                break
        else:
            settings = optimizer.propose(env.history)
        env.step(settings)

    return RunRecord(
        trial_id=trial.trial_id,
        seed=seed,
        budget=budget,
        samples=list(env.history),
        transcripts=transcripts,
        termination=termination,
    )
