"""Chat-completion backends.

Two wire dialects are spoken: the OpenAI-compatible ``/v1/chat/completions``
endpoint and the local-server (Ollama-style) ``/api/chat`` endpoint. A
scripted in-memory backend provides deterministic playback for tests and
for reproducing recorded runs.

Transport failures (connection errors, timeouts, HTTP 408/429/5xx) are
retried up to twice with exponential backoff and are invisible to the
optimization history; anything the model actually said is returned verbatim
and never retried here. Authentication problems and malformed server
replies surface as their own error classes so the harness can distinguish
them from parse failures.

Credentials come exclusively from the ``LLM_API_KEY`` environment variable.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # imported where used: only HttpBackend needs requests
    import requests

__all__ = [
    "AuthenticationError",
    "BackendTimeout",
    "ChatRequest",
    "ChatResponse",
    "DIALECTS",
    "HttpBackend",
    "MalformedReplyError",
    "RateLimiter",
    "ScriptExhausted",
    "ScriptedBackend",
    "TransportError",
    "chat",
    "default_system_prompt",
    "default_temperature",
]

API_KEY_ENV = "LLM_API_KEY"

DEFAULT_TIMEOUT_S = 120.0
DEFAULT_TEMPERATURE = {"openai": 0.7, "ollama": 0.8}
DIALECTS = tuple(DEFAULT_TEMPERATURE)
_MAX_TRANSPORT_RETRIES = 2
_BACKOFF_BASE_S = 0.5
_RETRYABLE_STATUS = (408, 429, 500, 502, 503, 504)

# Published default system prompts for models that ship with one; all other
# models run without a system prompt.
_SYSTEM_PROMPT_PROFILES = {
    "orca": (
        "You are Orca, an AI language model created by Microsoft. You are a "
        "cautious assistant. You carefully follow instructions. You are helpful "
        "and harmless and you follow ethical guidelines and promote positive "
        "behavior."
    ),
    "vicuna": (
        "A chat between a curious user and an artificial intelligence "
        "assistant. The assistant gives helpful, detailed, and polite answers "
        "to the user's questions."
    ),
}


class TransportError(RuntimeError):
    """Could not obtain a model response (network, server or protocol)."""


class BackendTimeout(TransportError):
    """The backend did not answer within the request timeout."""


class AuthenticationError(TransportError):
    """The backend rejected the credentials."""


class MalformedReplyError(TransportError):
    """The server answered, but not in the expected wire format."""


class ScriptExhausted(TransportError):
    """A scripted backend ran out of responses with on_exhaust='error'."""


def default_system_prompt(model: str) -> str | None:
    """The model's published default system prompt, if it has one."""
    name = model.lower()
    for fragment, prompt in _SYSTEM_PROMPT_PROFILES.items():
        if fragment in name:
            return prompt
    return None


def default_temperature(dialect: str) -> float:
    return DEFAULT_TEMPERATURE[dialect]


@dataclass(frozen=True)
class ChatRequest:
    model: str
    user_message: str
    system_prompt: str | None = None
    temperature: float | None = None  # None: backend dialect default
    timeout: float = DEFAULT_TIMEOUT_S

    def validate(self) -> None:
        if not self.user_message:
            raise ValueError("user_message must be non-empty")
        if self.temperature is not None and not (
            math.isfinite(self.temperature) and self.temperature >= 0
        ):
            raise ValueError(f"invalid temperature {self.temperature!r}")


@dataclass(frozen=True)
class ChatResponse:
    text: str
    prompt_tokens: int | None
    completion_tokens: int | None


class RateLimiter:
    """Token bucket limiting requests per minute, shared by every backend
    of one evaluation.

    ``requests_per_minute`` is None (no limit) or a finite value > 0.
    ``clock``/``sleeper`` are injectable for tests; with the defaults the
    limiter simply sleeps until a token is available.
    """

    def __init__(self, requests_per_minute: float | None, clock=time.monotonic, sleeper=time.sleep):
        rpm = requests_per_minute
        if rpm is not None and (
            isinstance(rpm, bool) or not isinstance(rpm, (int, float)) or not 0 < rpm < math.inf
        ):
            raise ValueError(f"requests_per_minute must be None or a finite value > 0, got {rpm!r}")
        self.rate = None if rpm is None else rpm / 60.0
        self.capacity = rpm or 0.0
        self._tokens = self.capacity
        self._clock = clock
        self._sleeper = sleeper
        self._last = clock()
        self._lock = threading.Lock()  # parallel runs' backends share one limiter

    def acquire(self) -> None:
        if self.rate is None:
            return
        with self._lock:
            now = self._clock()
            self._tokens = min(self.capacity, self._tokens + (now - self._last) * self.rate)
            self._last = now
            if self._tokens < 1.0:
                wait = (1.0 - self._tokens) / self.rate
                self._sleeper(wait)
                self._last = self._clock()
                self._tokens = 1.0
            self._tokens -= 1.0


def chat(backend, request: ChatRequest) -> ChatResponse:
    """Send one chat request, validating before any network activity."""
    request.validate()
    return backend.complete(request)


# ---------------------------------------------------------------------------
# HTTP backend (OpenAI-compatible and local-server dialects)
# ---------------------------------------------------------------------------

class HttpBackend:
    """Chat client for an HTTP endpoint, serving one run at a time.

    Parameters
    ----------
    base_url:   server root, e.g. "https://api.openai.com" or
                "http://localhost:11434".
    dialect:    one of ``DIALECTS``: "openai" or "ollama".
    limiter:    a ``RateLimiter``, shared by the backends of parallel runs
                so that one limit covers them all; None: no limit.
    session:    the ``requests.Session`` to post through; by default the
                backend opens its own on its first request.
    """

    def __init__(
        self,
        base_url: str,
        dialect: str = "openai",
        limiter: RateLimiter | None = None,
        session: requests.Session | None = None,
        sleeper=time.sleep,
    ) -> None:
        if dialect not in DIALECTS:
            raise ValueError(f"unknown dialect {dialect!r}")
        self.base_url = base_url.rstrip("/")
        self.dialect = dialect
        self._limiter = limiter if limiter is not None else RateLimiter(None)
        self._session = session
        self._sleeper = sleeper

    # -- wire formats -------------------------------------------------------

    def _endpoint(self) -> str:
        if self.dialect == "openai":
            return f"{self.base_url}/v1/chat/completions"
        return f"{self.base_url}/api/chat"

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        key = os.environ.get(API_KEY_ENV)
        if key:
            headers["Authorization"] = f"Bearer {key}"
        return headers

    def _payload(self, request: ChatRequest) -> dict:
        messages = []
        if request.system_prompt:
            messages.append({"role": "system", "content": request.system_prompt})
        messages.append({"role": "user", "content": request.user_message})
        temperature = (
            request.temperature
            if request.temperature is not None
            else default_temperature(self.dialect)
        )
        if self.dialect == "openai":
            return {
                "model": request.model,
                "messages": messages,
                "temperature": temperature,
            }
        return {
            "model": request.model,
            "messages": messages,
            "stream": False,
            "options": {"temperature": temperature},
        }

    def _extract(self, data: dict) -> tuple[str, int | None, int | None]:
        try:
            if self.dialect == "openai":
                text = data["choices"][0]["message"]["content"]
                usage = data.get("usage") or {}
                return text, usage.get("prompt_tokens"), usage.get("completion_tokens")
            text = data["message"]["content"]
            return text, data.get("prompt_eval_count"), data.get("eval_count")
        except (KeyError, IndexError, TypeError) as exc:
            raise MalformedReplyError(f"unexpected reply shape: {exc!r}") from exc

    # -- transport ----------------------------------------------------------

    def complete(self, request: ChatRequest) -> ChatResponse:
        import requests

        if self._session is None:
            self._session = requests.Session()
        payload = self._payload(request)
        url = self._endpoint()
        last_error: TransportError | None = None
        for attempt in range(_MAX_TRANSPORT_RETRIES + 1):
            if attempt:
                self._sleeper(_BACKOFF_BASE_S * 2 ** (attempt - 1))
            self._limiter.acquire()
            try:
                reply = self._session.post(
                    url, json=payload, headers=self._headers(), timeout=request.timeout
                )
            except requests.Timeout as exc:
                last_error = BackendTimeout(f"no reply within {request.timeout}s")
                last_error.__cause__ = exc
                continue
            except requests.RequestException as exc:
                last_error = TransportError(f"connection failed: {exc}")
                last_error.__cause__ = exc
                continue

            if reply.status_code in (401, 403):
                raise AuthenticationError(f"HTTP {reply.status_code} from {url}")
            if reply.status_code in _RETRYABLE_STATUS:
                last_error = TransportError(f"HTTP {reply.status_code} from {url}")
                continue
            if reply.status_code != 200:
                raise TransportError(f"HTTP {reply.status_code} from {url}")
            try:
                data = reply.json()
            except (json.JSONDecodeError, ValueError) as exc:
                raise MalformedReplyError("reply body is not JSON") from exc
            text, prompt_tokens, completion_tokens = self._extract(data)
            if not isinstance(text, str):
                raise MalformedReplyError(f"reply text has type {type(text).__name__}")
            return ChatResponse(
                text=text.strip(),
                prompt_tokens=prompt_tokens,
                completion_tokens=completion_tokens,
            )
        assert last_error is not None
        raise last_error


# ---------------------------------------------------------------------------
# Scripted backend (test double / replay)
# ---------------------------------------------------------------------------

class ScriptedBackend:
    """Deterministic playback of a fixed response script.

    Every request is recorded for later assertion. When responses run out,
    either the last one repeats (``on_exhaust="repeat_last"``) or a
    :class:`ScriptExhausted` transport error is raised.
    """

    def __init__(self, responses: list[str], on_exhaust: str = "repeat_last") -> None:
        if not responses:
            raise ValueError("scripted backend needs at least one response")
        if on_exhaust not in ("repeat_last", "error"):
            raise ValueError(f"unknown on_exhaust policy {on_exhaust!r}")
        self.responses = list(responses)
        self.on_exhaust = on_exhaust
        self.requests: list[ChatRequest] = []

    def complete(self, request: ChatRequest) -> ChatResponse:
        self.requests.append(request)
        index = len(self.requests) - 1
        if index >= len(self.responses):
            if self.on_exhaust == "error":
                raise ScriptExhausted(
                    f"script exhausted after {len(self.responses)} responses"
                )
            index = len(self.responses) - 1
        return ChatResponse(
            text=self.responses[index].strip(),
            prompt_tokens=None,
            completion_tokens=None,
        )
