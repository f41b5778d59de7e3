from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from uplift.backend import (
    ChatMessage,
    ChatRequest,
    ChatResponse,
    HttpBackend,
    MatchMode,
    Role,
    ScriptEntry,
    ScriptedBackend,
    load_script,
)
from uplift.errors import (
    BackendError,
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
        assert set(request_with().to_payload()) == {"model", "messages"}


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
        with pytest.raises(ScriptExhausted):
            backend.complete(request_with())


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

    @pytest.mark.parametrize(
        "entry",
        [
            {"match": "sequence", "response": 5},
            {"match": "sequence", "response": ["x"]},
            {"match": "sequence", "response": None},
            {"match": "substring", "pattern": 5, "response": "x"},
            {"match": "substring", "pattern": None, "response": "x"},
        ],
    )
    def test_non_string_values_rejected(self, tmp_path, entry):
        path = tmp_path / "s.json"
        path.write_text(json.dumps([entry]))
        with pytest.raises(ScriptParseError, match="must be a string"):
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


def usage_body(*usage):
    """A 200 reply with text content and, when given, this usage value."""
    body = {"choices": [{"message": {"content": "fine"}}]}
    if usage:
        body["usage"] = usage[0]
    return 200, body


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

    @pytest.mark.parametrize(
        "usage",
        [
            {"prompt_tokens": "12"},
            {"prompt_tokens": -1},
            {"completion_tokens": True},
            {"completion_tokens": 1.5},
            [7, 3],
            "7",
        ],
        ids=repr,
    )
    def test_malformed_usage_is_a_backend_failure(self, monkeypatch, usage):
        monkeypatch.setenv("LLM_API_KEY", "k")
        transport = FakeTransport(usage_body(usage))
        backend = HttpBackend("http://x", transport=transport, sleep=lambda _: None)
        with pytest.raises(BackendExhausted, match="malformed completion body"):
            backend.complete(request_with())
        assert transport.calls == 1

    @pytest.mark.parametrize(
        "usage, counts",
        [((), (None, None)), ((None,), (None, None)), (({"prompt_tokens": 0},), (0, None))],
        ids=["absent", "null", "partial"],
    )
    def test_absent_usage_counts_are_none(self, monkeypatch, usage, counts):
        monkeypatch.setenv("LLM_API_KEY", "k")
        response = HttpBackend("http://x", transport=FakeTransport(usage_body(*usage))).complete(request_with())
        assert (response.prompt_tokens, response.completion_tokens) == counts


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=8,
)
counts = st.none() | st.booleans() | st.integers(min_value=-3) | st.floats() | st.text(max_size=3)
usages = json_values | st.fixed_dictionaries({}, optional={"prompt_tokens": counts, "completion_tokens": counts})


@st.composite
def completion_bodies(draw):
    """Chat-completion bodies, well formed from the outside down to a drawn
    depth and junk below it; depth 5 carries text content."""
    depth = draw(st.integers(0, 5))
    node = draw(st.text(max_size=20) if depth == 5 else json_values)
    wrappers = (lambda n: {"content": n}, lambda n: {"message": n}, lambda n: [n], lambda n: {"choices": n})
    for wrap in wrappers[4 - min(depth, 4) :]:
        node = wrap(node)
    if depth and draw(st.booleans()):
        node["usage"] = draw(usages)
    return node


class TestCompletionBodyFuzz:
    @given(completion_bodies())
    def test_any_body_gives_a_response_or_a_backend_error(self, body):
        backend = HttpBackend("http://x", transport=FakeTransport((200, body)), sleep=lambda _: None)
        with mock.patch.dict(os.environ, {"LLM_API_KEY": "k"}):
            try:
                response = backend.complete(request_with())
            except BackendError:
                return
        assert isinstance(response, ChatResponse) and isinstance(response.content, str)
        for count in (response.prompt_tokens, response.completion_tokens):
            assert count is None or type(count) is int


class TestNullContentRun:
    """A reply the backend cannot pass on ("content": null from a refusal or
    tool call, or a malformed usage block) ends its run as a recorded failed
    run and never aborts a bench."""

    @staticmethod
    def null_executor_backend(executor_reply=ok_body(None)):
        transport = FakeTransport(ok_body(SECTIONS_REPLY), executor_reply)
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

    def test_malformed_usage_ends_run_failed(self, monkeypatch, original_code, two_requirements):
        monkeypatch.setenv("LLM_API_KEY", "k")
        backend = self.null_executor_backend(usage_body({"prompt_tokens": "12"}))
        config = PipelineConfig(mode=PipelineMode.SYSTEM_SINGLE_TASK, backend=backend)
        transcript = Transcript("r1")
        outcome = run_pipeline(original_code, two_requirements, config, transcript=transcript)
        assert outcome.status is RunStatus.FAILED_GENERATION
        assert transcript.entries[-1].error.startswith("BackendExhausted: malformed completion body")

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
