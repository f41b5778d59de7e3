from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from uplift.backend import (
    ChatMessage,
    ChatRequest,
    HttpBackend,
    MatchMode,
    Role,
    ScriptEntry,
    ScriptedBackend,
    load_script,
)
from uplift.errors import (
    BackendExhausted,
    CredentialMissing,
    ScriptExhausted,
    ScriptParseError,
)
from uplift.evaluation import run_bench
from uplift.pipeline import PipelineConfig, PipelineMode, RunStatus, Transcript, run_pipeline

from conftest import SECTIONS_REPLY, seq


def request_with(user: str = "hello") -> ChatRequest:
    return ChatRequest(messages=(ChatMessage(Role.SYSTEM, "sys"), ChatMessage(Role.USER, user)))


class TestChatTypes:
    def test_first_message_must_be_system(self):
        with pytest.raises(ValueError):
            ChatRequest(messages=(ChatMessage(Role.USER, "hi"),))

    def test_messages_must_be_non_empty(self):
        with pytest.raises(ValueError):
            ChatRequest(messages=())

    def test_system_and_user_content_non_empty(self):
        with pytest.raises(ValueError):
            ChatMessage(Role.USER, "")
        ChatMessage(Role.ASSISTANT, "")  # assistant may be empty

    def test_payload_omits_unset_sampling_fields(self):
        payload = request_with().to_payload()
        assert "temperature" not in payload and "max_tokens" not in payload
        full = ChatRequest(
            messages=(ChatMessage(Role.SYSTEM, "s"), ChatMessage(Role.USER, "u")),
            temperature=0.2,
            max_output_tokens=64,
        ).to_payload()
        assert full["temperature"] == 0.2 and full["max_tokens"] == 64


class TestScriptedBackend:
    def test_sequence_entries_in_load_order_then_exhausted(self):
        backend = seq("one", "two", "three")
        got = [backend.complete(request_with()).content for _ in range(3)]
        assert got == ["one", "two", "three"]
        with pytest.raises(ScriptExhausted):
            backend.complete(request_with())

    def test_substring_routes_on_last_user_message(self):
        backend = ScriptedBackend(
            [
                ScriptEntry(MatchMode.SUBSTRING, "VERDICT: ACCEPT", pattern="VERDICT"),
                ScriptEntry(MatchMode.SEQUENCE, "fallthrough"),
            ]
        )
        assert backend.complete(request_with("please give a VERDICT")).content == "VERDICT: ACCEPT"
        assert backend.complete(request_with("anything")).content == "fallthrough"

    def test_substring_entry_consumed_once(self):
        backend = ScriptedBackend([ScriptEntry(MatchMode.SUBSTRING, "yes", pattern="ping")])
        assert backend.complete(request_with("ping")).content == "yes"
        with pytest.raises(ScriptExhausted):
            backend.complete(request_with("ping"))

    def test_concurrent_consumption_is_exactly_once(self):
        backend = seq(*[f"r{i}" for i in range(20)])
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda _: backend.complete(request_with()).content, range(20)))
        assert sorted(results) == sorted(f"r{i}" for i in range(20))
        assert backend.remaining == 0


class TestLoadScript:
    def test_empty_script_exhausts_immediately(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text("[]")
        backend = load_script(path)
        with pytest.raises(ScriptExhausted):
            backend.complete(request_with())

    def test_single_entry_consumed_once(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps([{"match": "sequence", "response": "only"}]))
        backend = load_script(path)
        assert backend.complete(request_with()).content == "only"
        with pytest.raises(ScriptExhausted):
            backend.complete(request_with())

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text("[{]")
        with pytest.raises(ScriptParseError):
            load_script(path)

    def test_bad_entry_shapes(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps([{"match": "substring", "response": "x"}]))
        with pytest.raises(ScriptParseError):
            load_script(path)
        path.write_text(json.dumps([{"match": "sequence", "response": "x", "bogus": 1}]))
        with pytest.raises(ScriptParseError):
            load_script(path)


class FakeTransport:
    """Scripted (status, body) pairs; an Exception instance raises instead."""

    def __init__(self, *outcomes):
        self.outcomes = list(outcomes)
        self.calls = 0

    def __call__(self, endpoint, payload, api_key, timeout):
        self.calls += 1
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def ok_body(content="fine"):
    return 200, {
        "choices": [{"message": {"content": content}}],
        "usage": {"prompt_tokens": 7, "completion_tokens": 3},
    }


class TestHttpBackend:
    def test_credential_missing_before_any_network(self, monkeypatch):
        monkeypatch.delenv("LLM_API_KEY", raising=False)
        transport = FakeTransport(ok_body())
        backend = HttpBackend("http://x/v1/chat/completions", transport=transport)
        with pytest.raises(CredentialMissing):
            backend.complete(request_with())
        assert transport.calls == 0

    def test_success_parses_content_and_usage(self, monkeypatch):
        monkeypatch.setenv("LLM_API_KEY", "k")
        backend = HttpBackend("http://x", transport=FakeTransport(ok_body("hello")))
        response = backend.complete(request_with())
        assert response.content == "hello"
        assert response.prompt_tokens == 7 and response.completion_tokens == 3
        assert response.latency_seconds >= 0

    def test_retries_on_429_and_5xx_then_succeeds(self, monkeypatch):
        monkeypatch.setenv("LLM_API_KEY", "k")
        sleeps = []
        transport = FakeTransport((429, {}), (503, {}), ok_body())
        backend = HttpBackend("http://x", transport=transport, sleep=sleeps.append)
        assert backend.complete(request_with()).content == "fine"
        assert transport.calls == 3
        assert sleeps == [0.5, 1.0]  # exponential backoff

    def test_exhausted_after_max_attempts(self, monkeypatch):
        monkeypatch.setenv("LLM_API_KEY", "k")
        transport = FakeTransport((500, {}), OSError("boom"), (502, {}))
        backend = HttpBackend("http://x", transport=transport, sleep=lambda _: None)
        with pytest.raises(BackendExhausted):
            backend.complete(request_with())
        assert transport.calls == 3

    def test_non_retryable_status_fails_fast(self, monkeypatch):
        monkeypatch.setenv("LLM_API_KEY", "k")
        transport = FakeTransport((401, {}))
        backend = HttpBackend("http://x", transport=transport, sleep=lambda _: None)
        with pytest.raises(BackendExhausted):
            backend.complete(request_with())
        assert transport.calls == 1

    def test_null_content_is_a_backend_failure(self, monkeypatch):
        monkeypatch.setenv("LLM_API_KEY", "k")
        transport = FakeTransport(ok_body(None))
        backend = HttpBackend("http://x", transport=transport, sleep=lambda _: None)
        with pytest.raises(BackendExhausted, match="malformed completion body"):
            backend.complete(request_with())
        assert transport.calls == 1


class TestNullContentRun:
    """A refusal or tool-call reply ("content": null) ends its run as a
    recorded failed run and never aborts a bench."""

    @staticmethod
    def null_executor_backend():
        transport = FakeTransport(ok_body(SECTIONS_REPLY), ok_body(None))
        return HttpBackend("http://x", transport=transport, sleep=lambda _: None)

    def test_run_ends_failed_with_error_on_last_exchange(self, monkeypatch, original_code, two_requirements):
        monkeypatch.setenv("LLM_API_KEY", "k")
        config = PipelineConfig(mode=PipelineMode.SYSTEM_SINGLE_TASK, backend=self.null_executor_backend())
        transcript = Transcript("r1")
        outcome = run_pipeline(original_code, two_requirements, config, transcript=transcript)
        assert outcome.status is RunStatus.FAILED_GENERATION
        last = transcript.entries[-1]
        assert last.agent == "executor"
        assert last.response is None
        assert last.error.startswith("BackendExhausted: malformed completion body")

    def test_bench_returns_every_outcome(self, monkeypatch, fixtures_dir, tmp_path):
        monkeypatch.setenv("LLM_API_KEY", "k")
        config = PipelineConfig(mode=PipelineMode.SYSTEM_SINGLE_TASK, backend=self.null_executor_backend())
        outcomes = run_bench(
            fixtures_dir / "case_view",
            config,
            4,
            out_dir=tmp_path,
            backend_factory=lambda i: self.null_executor_backend(),
            parallelism=2,
        )
        assert [o.run_id for o in outcomes] == ["run-001", "run-002", "run-003", "run-004"]
        assert all(o.status is RunStatus.FAILED_GENERATION for o in outcomes)
        assert sorted(p.name for p in tmp_path.iterdir()) == [f"run-00{i}.jsonl" for i in range(1, 5)]
