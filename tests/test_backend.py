from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

import uplift
from uplift.backend import (
    ChatMessage,
    ChatRequest,
    ChatResponse,
    HttpBackend,
    Role,
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
from uplift.pipeline import PipelineConfig, PipelineMode, RunStatus, run_pipeline
from uplift.transcript import Transcript

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
        with pytest.raises(ScriptExhausted) as exc:
            backend.complete(request_with())
        # Transcripts record this message, so replays depend on its exact text.
        assert str(exc.value) == "no unconsumed script entry matches the request (3 loaded)"

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
        path.write_text(json.dumps([{"match": "sequence", "response": "x", "bogus": 1}]))
        with pytest.raises(ScriptParseError):
            load_script(path)

    @pytest.mark.parametrize(
        "entry, reason",
        [
            ({"match": "substring", "response": "x"}, """entry 1: match must be "sequence", got 'substring'"""),
            ({"match": "sequence", "pattern": "AFTER", "response": "x"}, "entry 1 has unknown keys ['pattern']"),
            ({"match": None, "response": "x"}, """entry 1: match must be "sequence", got None"""),
            ({"response": ""}, "entry 1: script entry response must be non-empty"),
        ],
    )
    def test_entry_other_than_an_in_order_reply_rejected(self, tmp_path, entry, reason):
        path = tmp_path / "s.json"
        path.write_text(json.dumps([{"response": "first"}, entry]))
        with pytest.raises(ScriptParseError) as exc:
            load_script(path)
        assert str(exc.value) == f"{path}: {reason}"

    def test_readme_example_replays_in_order(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n### Scripted backend\n", 1)[1]
        path = tmp_path / "s.json"
        path.write_text(section.split("```json\n", 1)[1].split("```", 1)[0], encoding="utf-8")
        documented = [entry["response"] for entry in json.loads(path.read_text(encoding="utf-8"))]
        backend = load_script(path)
        assert [backend.complete(request_with()).content for _ in documented] == documented
        with pytest.raises(ScriptExhausted):
            backend.complete(request_with())

    @pytest.mark.parametrize(
        "entry",
        [
            {"match": "sequence", "response": 5},
            {"match": "sequence", "response": ["x"]},
            {"match": "sequence", "response": None},
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

    def test_latency_excludes_backoff_sleeps(self, monkeypatch):
        monkeypatch.setenv("LLM_API_KEY", "k")
        transport = FakeTransport((503, {}), ok_body())
        backend = HttpBackend("http://x", transport=transport, sleep=lambda _: time.sleep(0.2))
        response = backend.complete(request_with())
        assert transport.calls == 2
        assert response.latency_seconds < 0.1

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


class FakeHttpResponse:
    status_code = 200

    def json(self):
        return ok_body("over http")[1]


class TestRequestsTransport:
    """The default transport, with ``requests.post`` patched: no network."""

    @staticmethod
    def patch_post(monkeypatch, *outcomes):
        import requests

        calls = []

        def post(url, **kwargs):
            calls.append(url)
            outcome = outcomes[len(calls) - 1]
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        monkeypatch.setattr(requests, "post", post)
        monkeypatch.setenv("LLM_API_KEY", "k")
        return calls

    def test_retries_requests_errors_then_succeeds(self, monkeypatch):
        import requests

        calls = self.patch_post(
            monkeypatch, requests.ConnectionError("refused"), requests.Timeout("slow"), FakeHttpResponse()
        )
        sleeps = []
        response = HttpBackend("http://x", sleep=sleeps.append).complete(request_with())
        assert response.content == "over http"
        assert calls == ["http://x"] * 3
        assert sleeps == [0.5, 1.0]

    def test_three_connection_errors_exhaust(self, monkeypatch):
        import requests

        self.patch_post(monkeypatch, *(requests.ConnectionError(f"refused {i}") for i in range(3)))
        with pytest.raises(BackendExhausted) as info:
            HttpBackend("http://x", sleep=lambda _: None).complete(request_with())
        for i in range(3):
            assert f"attempt {i + 1}: refused {i}" in str(info.value)


LAZY_IMPORT_CHILD = """
import json, sys
preloaded = "requests" in sys.modules
src, case = sys.argv[1:]
sys.path.insert(0, src)
import uplift
from uplift.cli import main
script = case + "/script.json"
codes = [
    main(["plan", case + "/requirements.txt", "--script", script]),
    main(["run", case + "/original.php", case + "/requirements.txt", "--script", script]),
    main(["bench", case, "--script", script, "--reps", "1"]),
    main(["report", "out/case_view", "ledger.csv", "--label", "x"]),
]
print(json.dumps({"preloaded": preloaded, "codes": codes, "loaded": "requests" in sys.modules}))
"""


def test_offline_commands_never_import_requests(fixtures_dir, tmp_path):
    (tmp_path / "ledger.csv").write_text("run_id,mistake_id,category,description\nrun-001,m1,fatal,x\n")
    src = Path(uplift.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_IMPORT_CHILD, str(src), str(fixtures_dir / "case_view")],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    if result["preloaded"]:
        pytest.skip("the interpreter's site setup imports requests")
    assert result["codes"] == [0, 0, 0, 0]
    assert not result["loaded"]


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
