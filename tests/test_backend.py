from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from hashlib import sha256
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
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
from uplift.evaluation import case_files, run_bench
from uplift.pipeline import PipelineConfig, PipelineMode, RunOutcome, RunStatus, run_pipeline
from uplift.model import CodeArtifact, extract_code, parse_requirements
from uplift.transcript import Transcript, dump_record, write_transcript

from conftest import ACCEPT_REPLY, CODE_REPLY, REVISE_REPLY, SECTIONS_REPLY, FakeTransport, run_records, seq


def request_with(user: str = "hello") -> ChatRequest:
    return ChatRequest(messages=(ChatMessage(Role.SYSTEM, ("sys",)), ChatMessage(Role.USER, (user,))), model="m")


class TestChatTypes:
    def test_payload_omits_unset_sampling_fields(self):
        assert set(request_with().to_payload()) == {"model", "messages"}

    @pytest.mark.parametrize("content", [5, None, b"x", "\ud800"], ids=repr)
    def test_response_content_must_be_a_str_a_transcript_can_hold(self, content):
        with pytest.raises(ValueError, match="^response content must be a str with no lone surrogate$"):
            ChatResponse(content=content)

    # An exchange's latency is timed by AgentContext.call, and no run reads token counts.
    @pytest.mark.parametrize("field", ["latency_seconds", "prompt_tokens", "completion_tokens"])
    def test_a_reply_carries_only_its_content(self, field):
        with pytest.raises(TypeError, match=field):
            ChatResponse(content="x", **{field: 0})


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

    @pytest.mark.parametrize(
        "data, reason", [({"response": "x"}, "expected a JSON array of entries"), (["x"], "entry 0 is not an object")]
    )
    def test_script_that_is_not_an_array_of_objects(self, tmp_path, data, reason):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError) as exc:
            load_script(path)
        assert str(exc.value) == f"{path}: {reason}"

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
        assert str(exc.value) == f"{path}: entry 0: response content must be a str with no lone surrogate"

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
        with pytest.raises(ConfigError, match=r"^.*: entry 0: response content must be a str with no lone surrogate$"):
            load_script(path)


def ok_body(content="fine"):
    return 200, {
        "choices": [{"message": {"content": content}}],
        "usage": {"prompt_tokens": 7, "completion_tokens": 3},
    }


def usage_body(*usage, content="fine"):
    """A 200 reply with this content and, when given, this usage value."""
    body = {"choices": [{"message": {"content": content}}]}
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

    def test_success_parses_content(self, monkeypatch):
        monkeypatch.setenv("LLM_API_KEY", "k")
        backend = HttpBackend("http://x", transport=FakeTransport(ok_body("hello")))
        assert backend.complete(request_with()) == ChatResponse("hello")

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

    @pytest.mark.parametrize("reason", ["length", "content_filter"])
    def test_a_cut_off_or_filtered_reply_fails_without_a_retry(self, monkeypatch, reason):
        monkeypatch.setenv("LLM_API_KEY", "k")
        status, body = ok_body("```php\n<?php")
        body["choices"][0]["finish_reason"] = reason
        transport = FakeTransport((status, body), ok_body())
        backend = HttpBackend("http://x", transport=transport, sleep=lambda _: None)
        with pytest.raises(BackendExhausted) as exc:
            backend.complete(request_with())
        assert str(exc.value) == f"incomplete reply: finish_reason {reason!r}"
        assert transport.calls == 1

    @pytest.mark.parametrize("reason", ["stop", "tool_calls", None, 5, ["length"], {"length": 1}], ids=repr)
    def test_any_other_finish_reason_is_not_read(self, monkeypatch, reason):
        monkeypatch.setenv("LLM_API_KEY", "k")
        status, body = ok_body("hello")
        body["choices"][0]["finish_reason"] = reason
        backend = HttpBackend("http://x", transport=FakeTransport((status, body)))
        assert backend.complete(request_with()) == ChatResponse("hello")

    # k 503s, then a 200: the exchange's latency holds the k real backoff sleeps.
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_latency_includes_backoff_sleeps(self, monkeypatch, original_code, k):
        monkeypatch.setenv("LLM_API_KEY", "k")
        transport = FakeTransport(*[(503, {})] * k, ok_body(CODE_REPLY))
        backend = HttpBackend("http://x", backoff_base=0.02, transport=transport)
        config = PipelineConfig(mode=PipelineMode.BASELINE_ZSL, backend=backend)
        transcript = Transcript("r1")
        outcome = run_pipeline(original_code, "Upgrade the code.", config, transcript=transcript)
        assert outcome.status is RunStatus.COMPLETED and transport.calls == k + 1
        [entry] = transcript.entries
        assert sum(0.02 * 2**i for i in range(k)) <= entry.latency_seconds <= outcome.duration_seconds

    # A usage block is never read: whatever it holds, the reply is its content.
    @pytest.mark.parametrize(
        "usage",
        [
            (),
            *[
                (value,)
                for value in [
                    None,
                    {"prompt_tokens": 12, "completion_tokens": 3},
                    {"prompt_tokens": 12},
                    {"prompt_tokens": "12"},
                    {"prompt_tokens": -1},
                    {"completion_tokens": True},
                    {"completion_tokens": 1.5},
                    [7, 3],
                    "7",
                    [],
                    0,
                    "",
                    False,
                ]
            ],
        ],
        ids=lambda usage: repr(usage[0]) if usage else "absent",
    )
    def test_any_usage_parses_to_the_content(self, monkeypatch, usage):
        monkeypatch.setenv("LLM_API_KEY", "k")
        transport = FakeTransport(usage_body(*usage))
        backend = HttpBackend("http://x", transport=transport, sleep=lambda _: None)
        assert backend.complete(request_with()) == ChatResponse("fine")
        assert transport.calls == 1


class FakeHttpResponse:
    status_code = 200

    def json(self):
        return ok_body("over http")[1]


class TestRequestsTransport:
    """The default transport, with ``requests.Session.post`` patched: no network."""

    @staticmethod
    def patch_post(monkeypatch, *outcomes):
        import requests

        calls = []

        def post(session, url, **kwargs):
            calls.append(url)
            outcome = outcomes[len(calls) - 1]
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        monkeypatch.setattr(requests.Session, "post", post)
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


class OneReplyHandler(BaseHTTPRequestHandler):
    """Answers every POST with one completion on a kept-alive connection, and
    notes each connection its server accepts in server.connections."""

    protocol_version = "HTTP/1.1"
    # One write per reply: written unbuffered, the headers and the body go
    # out apart and each reply stalls on the client's delayed ACK.
    wbufsize = -1
    timeout = 30

    def setup(self):
        super().setup()
        self.server.connections.append(self.client_address)

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        body = json.dumps(ok_body("over loopback")[1]).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def loopback(monkeypatch):
    """The URL of a loopback HTTP server and the list of connections it has
    accepted. Every requests.Session made meanwhile is closed afterwards."""
    import requests

    sessions = []

    class ClosedAfterwards(requests.Session):
        def __init__(self):
            super().__init__()
            sessions.append(self)

    monkeypatch.setattr(requests, "Session", ClosedAfterwards)
    for name in ("http_proxy", "HTTP_PROXY", "all_proxy", "ALL_PROXY"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("LLM_API_KEY", "k")
    server = ThreadingHTTPServer(("127.0.0.1", 0), OneReplyHandler)
    server.connections = []
    serving = threading.Thread(target=server.serve_forever)
    serving.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions", server.connections
    finally:
        for session in sessions:
            session.close()
        server.shutdown()
        server.server_close()
        serving.join()


def test_a_backend_keeps_one_connection_per_thread(loopback):
    url, connections = loopback
    backend = HttpBackend(url)
    assert [backend.complete(request_with()).content for _ in range(5)] == ["over loopback"] * 5
    assert len(connections) == 1

    backend = HttpBackend(url)
    replies = []
    threads = [
        threading.Thread(target=lambda: replies.extend(backend.complete(request_with()).content for _ in range(4)))
        for _ in range(2)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert replies == ["over loopback"] * 8
    assert len(connections) == 1 + 2


LAZY_IMPORT_CHILD = """
import json, sys
watched = ("requests", "logging", "uuid", "statistics", "concurrent.futures", "uplift.evaluation", "csv")
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


@pytest.mark.parametrize("module", ["uplift.evaluation", "csv"])
def test_import_uplift_loads_only_the_run_path(offline_imports, module):
    if module in offline_imports["site"]:
        pytest.skip(f"the interpreter's site setup imports {module}")
    assert module not in offline_imports["import"]
    assert module in offline_imports["bench"]
    assert module in offline_imports["report"]


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=8,
)
counts = st.none() | st.booleans() | st.integers(min_value=-3) | st.floats() | st.text(max_size=3)
usages = json_values | st.fixed_dictionaries({}, optional={"prompt_tokens": counts, "completion_tokens": counts})


# Text that may hold a lone surrogate, as a "\ud800" escape in a body decodes to.
lone_surrogates = st.sampled_from("\ud800\udbff\udc00\udfff")
replies = st.text(max_size=20) | st.text(st.characters() | lone_surrogates, max_size=20)
finish_reasons = st.sampled_from(["stop", "length", "content_filter", "tool_calls"]) | json_values


@st.composite
def completion_bodies(draw):
    """Chat-completion bodies, well formed from the outside down to a drawn
    depth and junk below it; depth 5, half of all bodies, carries text content."""
    depth = draw(st.just(5) | st.integers(0, 4))
    node = draw(replies if depth == 5 else json_values)
    wrappers = (lambda n: {"content": n}, lambda n: {"message": n}, lambda n: [n], lambda n: {"choices": n})
    for wrap in wrappers[4 - min(depth, 4) :]:
        node = wrap(node)
    if depth >= 3 and draw(st.booleans()):  # the first choice is an object
        node["choices"][0]["finish_reason"] = draw(finish_reasons)
    if depth and draw(st.booleans()):
        node["usage"] = draw(usages)
    return node


def reply_content(body):
    """The oracle: the content when a 200 body is a whole reply, else the
    error it fails with. A reply's content is a str with no lone surrogate;
    a reply whose first choice ends for "length" or "content_filter" is
    incomplete; any other finish_reason, and its usage, whatever it holds,
    are never read."""
    malformed = f"malformed completion body: {json.dumps(body)[:200]}"
    choices = body.get("choices") if isinstance(body, dict) else None
    if not (isinstance(choices, list) and choices and isinstance(choices[0], dict)):
        return BackendExhausted(malformed)
    message = choices[0].get("message")
    content = message.get("content") if isinstance(message, dict) else None
    if not isinstance(content, str) or any("\ud800" <= c <= "\udfff" for c in content):
        return BackendExhausted(malformed)
    reason = choices[0].get("finish_reason")
    if reason in ("length", "content_filter"):
        return BackendExhausted(f"incomplete reply: finish_reason {reason!r}")
    return content


class TestCompletionBodyFuzz:
    @given(completion_bodies())
    def test_a_body_gives_a_response_exactly_when_it_is_a_reply(self, body):
        backend = HttpBackend("http://x", transport=FakeTransport((200, body)), sleep=lambda _: None)
        expected = reply_content(body)
        with mock.patch.dict(os.environ, {"LLM_API_KEY": "k"}):
            try:
                response = backend.complete(request_with())
            except BackendExhausted as exc:
                assert isinstance(expected, BackendExhausted)
                assert str(exc) == str(expected)
                return
        assert response == ChatResponse(expected)


# One transport attempt: an OSError, or any status with any JSON value as its body.
attempts = st.builds(OSError, st.text(max_size=10)) | st.tuples(
    st.sampled_from([200, 400, 429, 500, 503]) | st.integers(100, 599), completion_bodies() | json_values
)
# The spec, and the replies of a completed run, of each mode the property drives.
WHOLE_RUNS = {
    PipelineMode.BASELINE_ZSL: ("Upgrade the code.", (CODE_REPLY,)),
    PipelineMode.SYSTEM_SINGLE_TASK: (
        parse_requirements("Requirement1: Upgrade the code."),
        (SECTIONS_REPLY, CODE_REPLY, REVISE_REPLY, CODE_REPLY, ACCEPT_REPLY),
    ),
}


@st.composite
def endpoint_attempts(draw, mode):
    """What an endpoint returns, attempt by attempt: each reply a completed run
    needs, or a drawn one, as a 200 body with any finish_reason; each after
    up to two drawn attempts."""
    drawn = []
    for reply in WHOLE_RUNS[mode][1]:
        drawn += draw(st.lists(attempts, max_size=2))
        choice = {"message": {"content": draw(st.just(reply) | st.just(reply) | replies)}}
        drawn.append((200, {"choices": [{**choice, "finish_reason": draw(finish_reasons)}]}))
    return drawn


class TestWholeRunThroughAnyEndpoint:
    @pytest.mark.parametrize("mode", list(WHOLE_RUNS), ids=lambda m: m.value)
    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_a_run_ends_recorded_whatever_the_endpoint_returns(self, tmp_path_factory, mode, data):
        pending = iter(data.draw(endpoint_attempts(mode)))

        def transport(endpoint, payload, api_key, timeout):
            attempt = next(pending, None)
            if attempt is None or isinstance(attempt, OSError):
                raise attempt or OSError("connection refused")
            return attempt

        backend = HttpBackend("http://x", transport=transport, sleep=lambda _: None)
        config = PipelineConfig(mode=mode, backend=backend)
        out = tmp_path_factory.mktemp("run")
        transcript = Transcript("run-001")
        with mock.patch.dict(os.environ, {"LLM_API_KEY": "k"}):
            outcome = run_pipeline(CodeArtifact("<?php echo 1;"), WHOLE_RUNS[mode][0], config, transcript=transcript)
        write_transcript(outcome, transcript.entries, out / "run-001.jsonl")
        assert isinstance(outcome, RunOutcome)
        assert (outcome.failure is None) is (outcome.status is RunStatus.COMPLETED)
        assert outcome.failure is None or outcome.final_code is None
        lines = (out / "run-001.jsonl").read_text(encoding="utf-8").split("\n")
        assert lines.pop() == ""
        *exchanges, summary = [json.loads(line) for line in lines]
        assert lines == [dump_record(record) for record in (*exchanges, summary)]
        assert (summary["record"], summary["status"], summary["failure"]) == (
            "summary", outcome.status.value, outcome.failure
        )
        for exchange in exchanges:
            request = dump_record(exchange["request"])
            assert exchange["request_digest"] == sha256(request.encode("utf-8")).hexdigest()
            response = exchange["response"]
            assert exchange["response_digest"] == ("" if response is None else sha256(response.encode()).hexdigest())
        if outcome.final_code is not None:  # the code of the last whole reply that carried a file
            code = [e["response"] for e in exchanges if e["agent"] in ("baseline", "executor", "finalizer")][-1]
            assert outcome.final_code.content == extract_code(code)


def test_each_exchange_records_the_payload_posted(monkeypatch, two_requirements, tmp_path):
    # Quotes, a backslash, a tab and non-ASCII text: each must be written as json writes it.
    code = CodeArtifact('<?php echo "caf\u00e9 \\ \t \u2028 \U0001f600"; ?>')
    monkeypatch.setenv("LLM_API_KEY", "k")
    transport = FakeTransport(ok_body(SECTIONS_REPLY), ok_body(CODE_REPLY), ok_body(ACCEPT_REPLY))
    backend = HttpBackend("http://x", transport=transport)
    config = PipelineConfig(mode=PipelineMode.SYSTEM_SINGLE_TASK, backend=backend)
    transcript = Transcript("run-001")
    outcome = run_pipeline(code, two_requirements, config, transcript=transcript)
    write_transcript(outcome, transcript.entries, tmp_path / "run-001.jsonl")
    assert outcome.status is RunStatus.COMPLETED
    # Split on "\n" alone: U+2028 stands raw inside a line.
    *lines, _summary, _ = (tmp_path / "run-001.jsonl").read_text(encoding="utf-8").split("\n")
    assert len(lines) == len(transport.payloads) == 3
    for line, payload in zip(lines, transport.payloads):
        posted = dump_record(payload)
        assert f'"request": {posted}, "request_digest": "{sha256(posted.encode()).hexdigest()}"' in line


def cyclic_body():
    body = {}
    body["choices"] = body
    return body


def deeply_nested_body():
    body = []
    for _ in range(100_000):
        body = [body]
    return body


class TestNullContentRun:
    """A reply the backend cannot pass on ("content": null from a refusal or
    tool call) ends its run as a recorded failed run and never aborts a bench.
    A malformed usage block is not one: it is never read."""

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

    @pytest.mark.parametrize(
        "usage",
        [{"prompt_tokens": "12"}, {"prompt_tokens": 12.0}, {"prompt_tokens": True}, {"prompt_tokens": -1}, [], "n/a"],
    )
    def test_malformed_usage_run_completes(self, monkeypatch, original_code, two_requirements, usage):
        monkeypatch.setenv("LLM_API_KEY", "k")
        executor_reply = usage_body(usage, content=CODE_REPLY)
        transport = FakeTransport(ok_body(SECTIONS_REPLY), executor_reply, ok_body(ACCEPT_REPLY))
        backend = HttpBackend("http://x", transport=transport, sleep=lambda _: None)
        config = PipelineConfig(mode=PipelineMode.SYSTEM_SINGLE_TASK, backend=backend)
        transcript = Transcript("r1")
        outcome = run_pipeline(original_code, two_requirements, config, transcript=transcript)
        assert outcome.status is RunStatus.COMPLETED and outcome.failure is None
        assert [e.error for e in transcript.entries] == [None] * 3 and transport.calls == 3

    def test_lone_surrogate_reply_is_a_recorded_failed_run(self, monkeypatch, fixtures_dir, tmp_path):
        monkeypatch.setenv("LLM_API_KEY", "k")
        backend = self.null_executor_backend(ok_body("```php\n<?php echo 1; // \ud800\n```"))
        config = PipelineConfig(mode=PipelineMode.SYSTEM_SINGLE_TASK, backend=backend)
        (outcome,) = run_bench(*case_files(fixtures_dir / "case_view", config.mode), config, 1, out_dir=tmp_path)
        assert outcome.failure.startswith("BackendExhausted: malformed completion body")
        *exchanges, summary = run_records(tmp_path / "run-001.jsonl")
        assert [e["agent"] for e in exchanges] == ["prompt_maker", "executor"]
        assert exchanges[-1]["error"] == summary["failure"] == outcome.failure
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run-001.jsonl"]

    # A custom backend's reply: a ChatResponse that no transcript line could hold.
    @pytest.mark.parametrize("content", [5, "```php\n<?php echo 1; // \ud800\n```"], ids=["int", "surrogate"])
    def test_reply_a_transcript_cannot_hold_is_a_recorded_failed_run(self, fixtures_dir, tmp_path, content):
        class Reply:
            def complete(self, request):
                return ChatResponse(content=content)

        config = PipelineConfig(mode=PipelineMode.BASELINE_ZSL, backend=Reply())
        outcomes = run_bench(*case_files(fixtures_dir / "case_view_zsl", config.mode), config, 2, out_dir=tmp_path)
        assert [o.status for o in outcomes] == [RunStatus.FAILED_GENERATION] * 2
        for outcome in outcomes:
            *exchanges, summary = run_records(tmp_path / f"{outcome.run_id}.jsonl")
            assert summary["record"] == "summary"
            assert summary["failure"].startswith("ValueError: response content must be a str")
            assert [e["error"] for e in exchanges] == [summary["failure"]]

    def test_a_reply_other_than_a_chat_response_is_a_recorded_failed_exchange(self, fixtures_dir, tmp_path):
        class Text:
            def complete(self, request):
                return "```php\n<?php echo 1;\n```"

        config = PipelineConfig(mode=PipelineMode.BASELINE_ZSL, backend=Text())
        (outcome,) = run_bench(*case_files(fixtures_dir / "case_view_zsl", config.mode), config, 1, out_dir=tmp_path)
        assert outcome.status is RunStatus.FAILED_GENERATION
        *exchanges, summary = run_records(tmp_path / "run-001.jsonl")
        assert [e["error"] for e in exchanges] == [summary["failure"]] == [outcome.failure]
        assert outcome.failure == "TypeError: complete() returned a str, not a ChatResponse"

    def test_a_reply_cut_off_at_the_output_limit_is_a_failed_run_not_a_shorter_file(self, monkeypatch, tmp_path):
        monkeypatch.setenv("LLM_API_KEY", "k")
        lines = [f"echo {i};" for i in range(50)]
        status, body = ok_body("```php\n" + "\n".join(lines[:10]))
        body["choices"][0]["finish_reason"] = "length"
        backend = HttpBackend("http://x", transport=FakeTransport((status, body)), sleep=lambda _: None)
        config = PipelineConfig(mode=PipelineMode.BASELINE_ZSL, backend=backend)
        (tmp_path / "view.php").write_text("\n".join(lines), encoding="utf-8")
        (tmp_path / "prompt.txt").write_text("Upgrade the code.", encoding="utf-8")
        out = tmp_path / "out"
        (outcome,) = run_bench(tmp_path / "view.php", tmp_path / "prompt.txt", config, 1, out_dir=out)
        assert (outcome.status, outcome.loc) == (RunStatus.FAILED_GENERATION, None)
        assert outcome.failure == "BackendExhausted: incomplete reply: finish_reason 'length'"
        *exchanges, summary = run_records(out / "run-001.jsonl")
        assert [e["error"] for e in exchanges] == [summary["failure"]] == [outcome.failure]
        assert sorted(p.name for p in out.iterdir()) == ["run-001.jsonl"]

    # Bodies an injected transport can return and json.dumps cannot encode.
    @pytest.mark.parametrize(
        "make_body, kind",
        [(cyclic_body, "dict"), (lambda: {"choices": b"x"}, "dict"), (deeply_nested_body, "list")],
        ids=["cycle", "bytes", "deep"],
    )
    def test_a_body_json_cannot_encode_is_named_by_its_type(self, monkeypatch, tmp_path, make_body, kind):
        monkeypatch.setenv("LLM_API_KEY", "k")
        backend = HttpBackend("http://x", transport=FakeTransport((200, make_body())), sleep=lambda _: None)
        config = PipelineConfig(mode=PipelineMode.BASELINE_ZSL, backend=backend)
        transcript = Transcript("run-001")
        outcome = run_pipeline(CodeArtifact("<?php echo 1;"), "Upgrade the code.", config, transcript=transcript)
        write_transcript(outcome, transcript.entries, tmp_path / "run-001.jsonl")
        assert outcome.failure == f"BackendExhausted: malformed completion body: a {kind} that JSON cannot encode"
        *exchanges, summary = run_records(tmp_path / "run-001.jsonl")
        assert [e["error"] for e in exchanges] == [summary["failure"]] == [outcome.failure]

    def test_bench_returns_every_outcome(self, monkeypatch, fixtures_dir, tmp_path):
        monkeypatch.setenv("LLM_API_KEY", "k")
        config = PipelineConfig(mode=PipelineMode.SYSTEM_SINGLE_TASK, backend=self.null_executor_backend())
        outcomes = run_bench(
            *case_files(fixtures_dir / "case_view", config.mode),
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
