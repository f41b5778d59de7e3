from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from hashlib import sha256
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
    BackendExhausted,
    ConfigError,
    CredentialMissing,
    ScriptExhausted,
)
from uplift.evaluation import run_bench, run_once
from uplift.pipeline import PipelineConfig, PipelineMode, RunStatus, run_pipeline
from uplift.model import CodeArtifact
from uplift.transcript import Transcript, dump_record, read_transcript

from conftest import ACCEPT_REPLY, CODE_REPLY, SECTIONS_REPLY, FakeTransport, seq


def request_with(user: str = "hello") -> ChatRequest:
    return ChatRequest(messages=(ChatMessage(Role.SYSTEM, "sys"), ChatMessage(Role.USER, user)), model="m")


class TestChatTypes:
    def test_first_message_must_be_system(self):
        with pytest.raises(ValueError):
            ChatRequest(messages=(ChatMessage(Role.USER, "hi"),), model="m")

    def test_messages_must_be_non_empty(self):
        with pytest.raises(ValueError):
            ChatRequest(messages=(), model="m")

    def test_system_and_user_content_non_empty(self):
        with pytest.raises(ValueError):
            ChatMessage(Role.USER, "")
        ChatMessage(Role.ASSISTANT, "")  # assistant may be empty

    def test_payload_omits_unset_sampling_fields(self):
        assert set(request_with().to_payload()) == {"model", "messages"}

    # A plain str role is rejected too: the payload writes a Role's value.
    @pytest.mark.parametrize("role, content", [(Role.USER, None), (Role.ASSISTANT, 5), (1, "hi"), ("user", "hi")])
    def test_message_role_and_content_are_checked(self, role, content):
        with pytest.raises(ValueError, match="^a message's role must be a Role and its content a str$"):
            ChatMessage(role, content)

    @pytest.mark.parametrize("model", [None, 4, b"m"])
    def test_model_must_be_a_str(self, model):
        with pytest.raises(ValueError, match="^model must be a str, not "):
            ChatRequest(messages=(ChatMessage(Role.SYSTEM, "sys"),), model=model)

    @pytest.mark.parametrize("content", [5, None, b"x", "\ud800"], ids=repr)
    def test_response_content_must_be_a_str_a_transcript_can_hold(self, content):
        with pytest.raises(ValueError, match="^response content must be a str with no lone surrogate$"):
            ChatResponse(content=content, latency_seconds=0.0)

    @pytest.mark.parametrize(
        "field, count", [("prompt_tokens", True), ("prompt_tokens", 1.5), ("completion_tokens", False)]
    )
    def test_token_counts_are_none_or_non_bool_ints(self, field, count):
        with pytest.raises(ValueError, match=f"^{field} must be None or an int >= 0, not {count!r}$"):
            ChatResponse(content="x", latency_seconds=0.0, **{field: count})


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
        with pytest.raises(ConfigError) as exc:
            load_script(path)
        assert str(exc.value) == f"{path}: line 1 column 3: Expecting property name enclosed in double quotes"

    def test_bad_entry_shapes(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps([{"match": "sequence", "response": "x", "bogus": 1}]))
        with pytest.raises(ConfigError) as exc:
            load_script(path)
        assert str(exc.value) == f"{path}: entry 0 has unknown keys ['bogus']"

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
        with pytest.raises(ConfigError) as exc:
            load_script(path)
        assert str(exc.value) == f"{path}: {reason}"

    def test_lone_surrogate_response_rejected(self, tmp_path):
        # json.dumps writes the lone surrogate as the escape "\ud800".
        path = tmp_path / "s.json"
        path.write_text(json.dumps([{"response": "```php\n<?php echo 1; // \ud800\n```"}]))
        assert "\\ud800" in path.read_text()
        with pytest.raises(ConfigError) as exc:
            load_script(path)
        assert str(exc.value) == f"{path}: entry 0: response holds a lone surrogate escape"

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
        with pytest.raises(ConfigError, match=r"^.*: entry 0: response must be a string$"):
            load_script(path)


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

    @pytest.mark.parametrize("key", ["sk-abc\u2026", "sk-abc\n", "sk-abc\r", "sk abc", "\t"], ids=repr)
    def test_malformed_key_fails_before_any_network(self, monkeypatch, key):
        monkeypatch.setenv("LLM_API_KEY", key)
        transport = FakeTransport(ok_body())
        backend = HttpBackend("http://x/v1/chat/completions", transport=transport)
        with pytest.raises(CredentialMissing) as exc:
            backend.complete(request_with())
        assert str(exc.value) == "environment variable LLM_API_KEY holds a character other than visible ASCII"
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

    @pytest.mark.parametrize("content", ["\ud800", "```php\n<?php echo 1; // \udfff\n```"], ids=repr)
    def test_lone_surrogate_content_is_a_backend_failure(self, monkeypatch, content):
        monkeypatch.setenv("LLM_API_KEY", "k")
        transport = FakeTransport(ok_body(content))
        backend = HttpBackend("http://x", transport=transport, sleep=lambda _: None)
        with pytest.raises(BackendExhausted, match="malformed completion body") as exc:
            backend.complete(request_with())
        str(exc.value).encode("utf-8")  # the message a transcript records is writable
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
            # Falsy, yet not null: `usage or {}` would let these through.
            [],
            0,
            "",
            False,
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

    def test_deeply_nested_body_is_a_backend_failure(self, monkeypatch):
        import requests

        response = requests.Response()
        response.status_code = 200
        response._content = b"[" * 2000 + b"]" * 2000
        self.patch_post(monkeypatch, response)
        with pytest.raises(BackendExhausted, match="malformed completion body"):
            HttpBackend("http://x", sleep=lambda _: None).complete(request_with())


LAZY_IMPORT_CHILD = """
import json, sys
watched = ("requests", "logging", "uuid", "statistics", "concurrent.futures")
steps = {"site": [m for m in watched if m in sys.modules]}
src, case = sys.argv[1:]
sys.path.insert(0, src)
import uplift
steps["import"] = [m for m in watched if m in sys.modules]
from uplift.cli import main
script = case + "/script.json"
commands = {
    "plan": ["plan", case + "/requirements.txt", "--script", script],
    "run": ["run", case + "/original.php", case + "/requirements.txt", "--script", script],
    "bench": ["bench", case, "--script", script, "--reps", "1"],
    "report": ["report", "out/case_view", "ledger.csv", "--label", "x"],
}
codes = []
for step, argv in commands.items():
    codes.append(main(argv))
    steps[step] = [m for m in watched if m in sys.modules]
print(json.dumps({"codes": codes, "steps": steps}))
"""


@pytest.fixture(scope="module")
def offline_imports(tmp_path_factory):
    """For a fresh interpreter that imports uplift, then runs the scripted
    plan, run, bench and report in turn: the watched modules loaded by the
    site setup and after each step."""
    workdir = tmp_path_factory.mktemp("imports")
    (workdir / "ledger.csv").write_text("run_id,mistake_id,category,description\nrun-001,m1,fatal,x\n")
    src = Path(uplift.__file__).resolve().parents[1]
    case = Path(__file__).parent / "fixtures" / "case_view"
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_IMPORT_CHILD, str(src), str(case)],
        cwd=workdir,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0, 0]
    return result["steps"]


def test_offline_commands_never_import_requests(offline_imports):
    if "requests" in offline_imports["site"]:
        pytest.skip("the interpreter's site setup imports requests")
    assert "requests" not in offline_imports["report"]


@pytest.mark.parametrize("module", ["logging", "uuid", "statistics", "concurrent.futures"])
def test_import_and_serial_run_load_no_unused_stdlib_module(offline_imports, module):
    if module in offline_imports["site"]:
        pytest.skip(f"the interpreter's site setup imports {module}")
    for step in ("import", "plan", "run", "bench"):
        assert module not in offline_imports[step], step
    if module != "statistics":  # report's standard deviation may load it
        assert module not in offline_imports["report"]


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=8,
)
counts = st.none() | st.booleans() | st.integers(min_value=-3) | st.floats() | st.text(max_size=3)
usages = json_values | st.one_of(
    st.fixed_dictionaries({}, optional={"prompt_tokens": c, "completion_tokens": c})
    for c in (counts, st.integers(min_value=0))
)


# Text that may hold a lone surrogate, as a "\ud800" escape in a body decodes to.
lone_surrogates = st.sampled_from("\ud800\udbff\udc00\udfff")
replies = st.text(max_size=20) | st.text(st.characters() | lone_surrogates, max_size=20)


@st.composite
def completion_bodies(draw):
    """Chat-completion bodies, well formed from the outside down to a drawn
    depth and junk below it; depth 5, half of all bodies, carries text content."""
    depth = draw(st.just(5) | st.integers(0, 4))
    node = draw(replies if depth == 5 else json_values)
    wrappers = (lambda n: {"content": n}, lambda n: {"message": n}, lambda n: [n], lambda n: {"choices": n})
    for wrap in wrappers[4 - min(depth, 4) :]:
        node = wrap(node)
    if depth and draw(st.booleans()):
        node["usage"] = draw(usages)
    return node


def reply_fields(body):
    """The oracle: (content, prompt_tokens, completion_tokens) when a 200 body
    is a reply, None when it is malformed. A reply's content is a str with no
    lone surrogate; its usage is absent, null, or an object whose two counts
    are each absent, null or a non-bool int >= 0."""
    choices = body.get("choices") if isinstance(body, dict) else None
    if not (isinstance(choices, list) and choices and isinstance(choices[0], dict)):
        return None
    message = choices[0].get("message")
    content = message.get("content") if isinstance(message, dict) else None
    if not isinstance(content, str) or any("\ud800" <= c <= "\udfff" for c in content):
        return None
    usage = {} if body.get("usage") is None else body["usage"]
    if not isinstance(usage, dict):
        return None
    counts = (usage.get("prompt_tokens"), usage.get("completion_tokens"))
    if not all(c is None or (type(c) is int and c >= 0) for c in counts):
        return None
    return (content, *counts)


class TestCompletionBodyFuzz:
    @given(completion_bodies())
    def test_a_body_gives_a_response_exactly_when_it_is_a_reply(self, body):
        backend = HttpBackend("http://x", transport=FakeTransport((200, body)), sleep=lambda _: None)
        expected = reply_fields(body)
        with mock.patch.dict(os.environ, {"LLM_API_KEY": "k"}):
            try:
                response = backend.complete(request_with())
            except BackendExhausted as exc:
                assert expected is None
                assert str(exc) == f"malformed completion body: {json.dumps(body)[:200]}"
                return
        fields = (response.content, response.prompt_tokens, response.completion_tokens)
        assert fields == expected and [type(f) for f in fields] == [type(f) for f in expected]


def test_each_exchange_records_the_payload_posted(monkeypatch, two_requirements, tmp_path):
    # Quotes, a backslash, a tab and non-ASCII text: each must be written as json writes it.
    code = CodeArtifact('<?php echo "caf\u00e9 \\ \t \u2028 \U0001f600"; ?>')
    monkeypatch.setenv("LLM_API_KEY", "k")
    transport = FakeTransport(ok_body(SECTIONS_REPLY), ok_body(CODE_REPLY), ok_body(ACCEPT_REPLY))
    backend = HttpBackend("http://x", transport=transport)
    config = PipelineConfig(mode=PipelineMode.SYSTEM_SINGLE_TASK, backend=backend)
    outcome = run_once(code, two_requirements, config, "run-001", tmp_path, ".php")
    assert outcome.status is RunStatus.COMPLETED
    # Split on "\n" alone: U+2028 stands raw inside a line.
    *lines, _summary, _ = (tmp_path / "run-001.jsonl").read_text(encoding="utf-8").split("\n")
    assert len(lines) == len(transport.payloads) == 3
    for line, payload in zip(lines, transport.payloads):
        posted = dump_record(payload)
        assert f'"request": {posted}, "request_digest": "{sha256(posted.encode()).hexdigest()}"' in line


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
        assert outcome.failure == last.error

    def test_malformed_usage_ends_run_failed(self, monkeypatch, original_code, two_requirements):
        monkeypatch.setenv("LLM_API_KEY", "k")
        backend = self.null_executor_backend(usage_body({"prompt_tokens": "12"}))
        config = PipelineConfig(mode=PipelineMode.SYSTEM_SINGLE_TASK, backend=backend)
        transcript = Transcript("r1")
        outcome = run_pipeline(original_code, two_requirements, config, transcript=transcript)
        assert outcome.status is RunStatus.FAILED_GENERATION
        assert transcript.entries[-1].error.startswith("BackendExhausted: malformed completion body")
        assert outcome.failure == transcript.entries[-1].error

    def test_lone_surrogate_reply_is_a_recorded_failed_run(
        self, monkeypatch, original_code, two_requirements, tmp_path
    ):
        monkeypatch.setenv("LLM_API_KEY", "k")
        backend = self.null_executor_backend(ok_body("```php\n<?php echo 1; // \ud800\n```"))
        config = PipelineConfig(mode=PipelineMode.SYSTEM_SINGLE_TASK, backend=backend)
        outcome = run_once(original_code, two_requirements, config, "run-001", tmp_path, ".php")
        assert outcome.failure.startswith("BackendExhausted: malformed completion body")
        *exchanges, summary = read_transcript(tmp_path / "run-001.jsonl")
        assert [e["agent"] for e in exchanges] == ["prompt_maker", "executor"]
        assert exchanges[-1]["error"] == summary["failure"] == outcome.failure
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run-001.jsonl"]

    # A custom backend's reply: a ChatResponse that no transcript line could hold.
    @pytest.mark.parametrize("content", [5, "```php\n<?php echo 1; // \ud800\n```"], ids=["int", "surrogate"])
    def test_reply_a_transcript_cannot_hold_is_a_recorded_failed_run(self, fixtures_dir, tmp_path, content):
        class Reply:
            def complete(self, request):
                return ChatResponse(content=content, latency_seconds=0.0)

        config = PipelineConfig(mode=PipelineMode.BASELINE_ZSL, backend=Reply())
        outcomes = run_bench(fixtures_dir / "case_view_zsl", config, 2, out_dir=tmp_path)
        assert [o.status for o in outcomes] == [RunStatus.FAILED_GENERATION] * 2
        for outcome in outcomes:
            *exchanges, summary = read_transcript(tmp_path / f"{outcome.run_id}.jsonl")
            assert summary["record"] == "summary"
            assert summary["failure"].startswith("ValueError: response content must be a str")
            assert [e["error"] for e in exchanges] == [summary["failure"]]

    def test_a_reply_other_than_a_chat_response_is_a_recorded_failed_exchange(self, fixtures_dir, tmp_path):
        class Text:
            def complete(self, request):
                return "```php\n<?php echo 1;\n```"

        config = PipelineConfig(mode=PipelineMode.BASELINE_ZSL, backend=Text())
        (outcome,) = run_bench(fixtures_dir / "case_view_zsl", config, 1, out_dir=tmp_path)
        assert outcome.status is RunStatus.FAILED_GENERATION
        *exchanges, summary = read_transcript(tmp_path / "run-001.jsonl")
        assert [e["error"] for e in exchanges] == [summary["failure"]] == [outcome.failure]
        assert outcome.failure == "TypeError: complete() returned a str, not a ChatResponse"

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
        assert all(o.failure.startswith("BackendExhausted: malformed completion body") for o in outcomes)
        assert sorted(p.name for p in tmp_path.iterdir()) == [f"run-00{i}.jsonl" for i in range(1, 5)]
