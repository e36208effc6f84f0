"""Backend tests: wire formats against a local HTTP server, retry and
rate-limit behaviour, parallel runs over one limiter, scripted playback,
request validation."""

from __future__ import annotations

import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from beamtune.fixtures import canonical_trials
from beamtune.harness import LLMOptimizer, evaluate
from beamtune.harness.report import summary_document
from beamtune.llm import (
    AuthenticationError,
    ChatRequest,
    HttpBackend,
    MalformedReplyError,
    RateLimiter,
    ScriptExhausted,
    ScriptedBackend,
    TransportError,
    chat,
    default_system_prompt,
    default_temperature,
)


class _Script:
    """Programmable behaviour for the fake server, consumed per request."""

    def __init__(self):
        self.actions = []  # list of ("ok", text) | ("status", code) | ("garbage",)
        self.fallback = ("ok", "fallback")  # once the actions run out
        self.seen = []     # recorded request payloads and headers

    def next_action(self):
        return self.actions.pop(0) if self.actions else self.fallback


def _make_handler(script: _Script):
    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            payload = json.loads(self.rfile.read(length) or b"{}")
            script.seen.append(
                {"path": self.path, "payload": payload,
                 "auth": self.headers.get("Authorization")}
            )
            action = script.next_action()
            if action[0] == "status":
                self.send_response(action[1])
                self.end_headers()
                return
            if action[0] == "garbage":
                self.send_response(200)
                self.end_headers()
                self.wfile.write(b"not json at all")
                return
            text = action[1]
            if self.path.startswith("/v1/"):
                body = {
                    "choices": [{"message": {"role": "assistant", "content": text}}],
                    "usage": {"prompt_tokens": 21, "completion_tokens": 8},
                }
            else:
                body = {"message": {"role": "assistant", "content": text},
                        "prompt_eval_count": 21, "eval_count": 8}
            data = json.dumps(body).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, *args):
            pass

    return Handler


@pytest.fixture
def server():
    script = _Script()
    httpd = HTTPServer(("127.0.0.1", 0), _make_handler(script))
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield script, f"http://127.0.0.1:{httpd.server_port}"
    httpd.shutdown()
    httpd.server_close()


def _request(**overrides) -> ChatRequest:
    values = dict(model="test-model", user_message="hello", timeout=5.0)
    values.update(overrides)
    return ChatRequest(**values)


VALID_BLOCK = '```json\n{"Q1": 1.0, "Q2": -1.0, "CV": 0.5, "Q3": 2.0, "CH": -0.5}\n```'


class _CountingLimiter(RateLimiter):
    """No limit; records the thread of every acquire."""

    def __init__(self):
        super().__init__(None)
        self.acquires = []

    def acquire(self) -> None:
        self.acquires.append(threading.get_ident())
        super().acquire()


class TestParallelRuns:
    def test_runs_share_one_limiter_and_no_session(self, server):
        script, url = server
        script.fallback = ("ok", VALID_BLOCK)
        trials, n_seeds, budget = canonical_trials()[:2], 2, 3
        documents = []
        for workers in (1, 2):
            limiter = _CountingLimiter()
            backends = []

            def factory(trial, seed):
                backends.append(HttpBackend(url, limiter=limiter))
                return LLMOptimizer(backends[-1], "test-model", "optimisation", trial.target,
                                    temperature=0.0)

            summary = evaluate(trials, factory, "llm-http", n_seeds=n_seeds, budget=budget,
                               workers=workers)
            documents.append(summary_document(summary))
            runs = len(trials) * n_seeds
            assert [record.model_calls for record in summary.records] == [budget] * runs
            assert len(limiter.acquires) == runs * budget
            # one worker runs in this thread, a pool only in its own
            in_this_thread = {ident == threading.get_ident() for ident in limiter.acquires}
            assert in_this_thread == {workers == 1}
            assert len(backends) == runs
            assert all(backend._limiter is limiter for backend in backends)
            sessions = [backend._session for backend in backends]
            assert None not in sessions and len({id(s) for s in sessions}) == runs
        assert len(script.seen) == 2 * runs * budget
        assert documents[0] == documents[1]


class TestOpenAIDialect:
    def test_round_trip(self, server, monkeypatch):
        script, url = server
        monkeypatch.setenv("LLM_API_KEY", "sk-test")
        script.actions.append(("ok", "  answer text  "))
        backend = HttpBackend(url, dialect="openai")
        response = chat(backend, _request())
        assert response.text == "answer text"  # outer whitespace trimmed only
        assert response.prompt_tokens == 21 and response.completion_tokens == 8
        seen = script.seen[0]
        assert seen["path"] == "/v1/chat/completions"
        assert seen["auth"] == "Bearer sk-test"
        assert seen["payload"]["model"] == "test-model"
        assert seen["payload"]["messages"][-1] == {"role": "user", "content": "hello"}

    def test_default_temperature_point_seven(self, server):
        script, url = server
        script.actions.append(("ok", "x"))
        chat(HttpBackend(url, dialect="openai"), _request())
        assert script.seen[0]["payload"]["temperature"] == 0.7

    def test_explicit_temperature_passes_through(self, server):
        script, url = server
        script.actions.append(("ok", "x"))
        chat(HttpBackend(url, dialect="openai"), _request(temperature=0.0))
        assert script.seen[0]["payload"]["temperature"] == 0.0

    def test_system_prompt_message(self, server):
        script, url = server
        script.actions.append(("ok", "x"))
        chat(HttpBackend(url, dialect="openai"), _request(system_prompt="be brief"))
        assert script.seen[0]["payload"]["messages"][0] == {
            "role": "system", "content": "be brief",
        }


class TestLocalDialect:
    def test_round_trip(self, server):
        script, url = server
        script.actions.append(("ok", "local answer"))
        backend = HttpBackend(url, dialect="ollama")
        response = chat(backend, _request())
        assert response.text == "local answer"
        seen = script.seen[0]
        assert seen["path"] == "/api/chat"
        assert seen["payload"]["stream"] is False
        assert seen["payload"]["options"]["temperature"] == 0.8  # local default

    def test_usage_extracted(self, server):
        script, url = server
        script.actions.append(("ok", "x"))
        response = chat(HttpBackend(url, dialect="ollama"), _request())
        assert response.prompt_tokens == 21 and response.completion_tokens == 8


class TestTransportBehaviour:
    def test_retries_on_server_error_then_succeeds(self, server):
        script, url = server
        script.actions += [("status", 500), ("status", 503), ("ok", "recovered")]
        backend = HttpBackend(url, sleeper=lambda s: None)
        response = chat(backend, _request())
        assert response.text == "recovered"
        assert len(script.seen) == 3

    def test_gives_up_after_two_retries(self, server):
        script, url = server
        script.actions += [("status", 500)] * 5
        backend = HttpBackend(url, sleeper=lambda s: None)
        with pytest.raises(TransportError):
            chat(backend, _request())
        assert len(script.seen) == 3  # initial attempt + 2 retries

    def test_auth_failure_no_retry(self, server):
        script, url = server
        script.actions += [("status", 401)] * 3
        backend = HttpBackend(url, sleeper=lambda s: None)
        with pytest.raises(AuthenticationError):
            chat(backend, _request())
        assert len(script.seen) == 1

    def test_malformed_reply_raises_distinct_error(self, server):
        script, url = server
        script.actions.append(("garbage",))
        backend = HttpBackend(url, sleeper=lambda s: None)
        with pytest.raises(MalformedReplyError):
            chat(backend, _request())

    def test_connection_refused_is_transport_error(self):
        backend = HttpBackend("http://127.0.0.1:9", sleeper=lambda s: None)
        with pytest.raises(TransportError):
            chat(backend, _request(timeout=0.5))

    def test_empty_message_rejected_before_network(self):
        backend = HttpBackend("http://127.0.0.1:9", sleeper=lambda s: None)
        with pytest.raises(ValueError):
            chat(backend, _request(user_message=""))

    def test_request_not_mutated(self, server):
        script, url = server
        script.actions.append(("ok", "x"))
        request = _request()
        chat(HttpBackend(url), request)
        assert request == _request()


class TestScriptedBackend:
    def test_playback_order_preserved(self):
        backend = ScriptedBackend([f"response {i}" for i in range(50)])
        texts = [chat(backend, _request()).text for _ in range(50)]
        assert texts == [f"response {i}" for i in range(50)]

    def test_records_every_request(self):
        backend = ScriptedBackend(["a", "b"])
        for _ in range(5):
            chat(backend, _request())
        assert len(backend.requests) == 5

    def test_repeat_last_on_exhaust(self):
        backend = ScriptedBackend(["only"], on_exhaust="repeat_last")
        assert [chat(backend, _request()).text for _ in range(3)] == ["only"] * 3

    def test_error_on_exhaust(self):
        backend = ScriptedBackend(["only"], on_exhaust="error")
        chat(backend, _request())
        with pytest.raises(ScriptExhausted):
            chat(backend, _request())

    def test_identical_scripts_identical_transcripts(self):
        first = ScriptedBackend(["a", "b", "c"])
        second = ScriptedBackend(["a", "b", "c"])
        out1 = [chat(first, _request()).text for _ in range(3)]
        out2 = [chat(second, _request()).text for _ in range(3)]
        assert out1 == out2

    def test_needs_at_least_one_response(self):
        with pytest.raises(ValueError):
            ScriptedBackend([])


class TestDefaults:
    def test_dialect_temperatures(self):
        assert default_temperature("openai") == 0.7
        assert default_temperature("ollama") == 0.8

    def test_model_system_prompt_profiles(self):
        assert "Orca" in default_system_prompt("orca2:13b")
        assert "curious user" in default_system_prompt("vicuna:7b-16k")
        assert default_system_prompt("mixtral:8x7b") is None
        assert default_system_prompt("gpt-4-turbo") is None

    def test_invalid_temperature_rejected(self):
        with pytest.raises(ValueError):
            ChatRequest(model="m", user_message="x", temperature=-1.0).validate()


class TestRateLimiter:
    @pytest.mark.parametrize("rate", [-5, 0, "abc", float("nan"), float("inf"), True],
                             ids=["negative", "zero", "word", "nan", "inf", "bool"])
    def test_rate_it_cannot_keep_rejected_at_construction(self, rate):
        expected = r"^requests_per_minute must be None or a finite value > 0, got "
        with pytest.raises(ValueError, match=expected):
            RateLimiter(rate)

    def test_no_limit_never_sleeps(self):
        calls = []
        limiter = RateLimiter(None, sleeper=calls.append)
        for _ in range(100):
            limiter.acquire()
        assert calls == []

    def test_limits_burst(self):
        clock = [0.0]
        sleeps = []

        def sleeper(duration):
            sleeps.append(duration)
            clock[0] += duration

        limiter = RateLimiter(60, clock=lambda: clock[0], sleeper=sleeper)
        for _ in range(61):
            limiter.acquire()
        # 60 tokens in the bucket, the 61st call must wait ~1 second
        assert len(sleeps) == 1
        assert sleeps[0] == pytest.approx(1.0, rel=0.01)

    def test_threads_share_one_bucket(self):
        # the backends of parallel runs draw on one limiter: a token lost
        # to a race between threads would show as a missing sleep
        clock = [0.0]
        sleeps = []

        def sleeper(duration):
            sleeps.append(duration)
            clock[0] += duration
            time.sleep(0)  # let another thread in, as a real wait would

        limiter = RateLimiter(60, clock=lambda: clock[0], sleeper=sleeper)
        n_threads, calls = 8, 1000
        start = threading.Barrier(n_threads)

        def worker():
            start.wait(timeout=30)
            for _ in range(calls):
                limiter.acquire()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        # the clock moves only by the sleeps: 60 tokens, then one second per call
        assert len(sleeps) == n_threads * calls - 60
        assert clock[0] == pytest.approx(len(sleeps))
