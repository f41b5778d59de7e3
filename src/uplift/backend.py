"""Chat-completion backends.

Two implementations share one duck-typed interface (``complete``): a live
HTTP backend for OpenAI-compatible endpoints and a scripted backend that
replays canned responses for deterministic offline runs.
"""

from __future__ import annotations

import json
import math
import os
import re
import time
from dataclasses import dataclass
from enum import Enum
from json.encoder import encode_basestring as _quote
from pathlib import Path
from threading import Lock
from typing import Any, Callable, Iterable, Protocol

from .errors import BackendExhausted, ConfigError, CredentialMissing, ScriptExhausted

DEFAULT_MODEL = "gpt-4o-mini"
API_KEY_ENV = "LLM_API_KEY"
MAX_ATTEMPTS = 3
TIMEOUT_S = 120.0


def utf8_encodable(text: str) -> bool:
    """False when text holds a lone surrogate, as a JSON "\\ud800" escape
    without its pair decodes to: no UTF-8 file can hold one. ASCII text,
    which isascii() tells in O(1), holds none and skips the scan."""
    return text.isascii() or re.search("[\ud800-\udfff]", text) is None


class Role(str, Enum):
    SYSTEM = "system"
    USER = "user"
    ASSISTANT = "assistant"


@dataclass(frozen=True)
class ChatMessage:
    role: Role
    content: str

    def __post_init__(self):
        if not isinstance(self.role, Role) or not isinstance(self.content, str):
            raise ValueError("a message's role must be a Role and its content a str")
        if self.role in (Role.SYSTEM, Role.USER) and not self.content:
            raise ValueError(f"{self.role.value} message content must be non-empty")


@dataclass(frozen=True)
class ChatRequest:
    messages: tuple[ChatMessage, ...]
    model: str

    def __post_init__(self):
        if not isinstance(self.model, str):
            raise ValueError(f"model must be a str, not {type(self.model).__name__}")
        if not self.messages or not all(isinstance(m, ChatMessage) for m in self.messages):
            raise ValueError("a request needs at least one message, each a ChatMessage")
        if self.messages[0].role is not Role.SYSTEM:
            raise ValueError("the first message must have the system role")

    def to_payload(self) -> dict[str, Any]:
        return {
            "model": self.model,
            "messages": [{"role": m.role.value, "content": m.content} for m in self.messages],
        }

    def to_json(self) -> str:
        """to_payload() as transcript.dump_record writes it, from a template
        (a Role is a str, so _quote writes its value)."""
        messages = [f'{{"content": {_quote(m.content)}, "role": {_quote(m.role)}}}' for m in self.messages]
        return f'{{"messages": [{", ".join(messages)}], "model": {_quote(self.model)}}}'


@dataclass(frozen=True)
class ChatResponse:
    """A backend's reply. Its checks are the one rule for what a reply may hold:
    one that breaks them raises ValueError, or TypeError for a latency that is
    not a number (from HttpBackend, BackendExhausted)."""

    content: str
    latency_seconds: float
    prompt_tokens: int | None = None
    completion_tokens: int | None = None

    def __post_init__(self):
        if not (isinstance(self.content, str) and utf8_encodable(self.content)):
            raise ValueError("response content must be a str with no lone surrogate")
        # NaN passes a "< 0" test, and a transcript cannot hold it or an infinity as JSON.
        if not (math.isfinite(self.latency_seconds) and self.latency_seconds >= 0):
            raise ValueError(f"latency must be finite and non-negative, not {self.latency_seconds!r}")
        for field in ("prompt_tokens", "completion_tokens"):
            value = getattr(self, field)
            if not (value is None or (type(value) is int and value >= 0)):  # a bool is not a count
                raise ValueError(f"{field} must be None or an int >= 0, not {value!r}")


class Backend(Protocol):
    def complete(self, request: ChatRequest) -> ChatResponse: ...


class ScriptedBackend:
    """Deterministic backend replaying a fixed script: the replies are served
    in load order, each at most once. The index advances behind a lock so
    the order stays well-defined under concurrent callers.
    """

    def __init__(self, replies: Iterable[str]):
        self.replies = tuple(replies)
        self._next = 0
        self._lock = Lock()

    def complete(self, request: ChatRequest) -> ChatResponse:
        start = time.perf_counter()
        with self._lock:
            index = self._next
            if index == len(self.replies):
                raise ScriptExhausted(
                    f"no unconsumed script entry matches the request ({len(self.replies)} loaded)"
                )
            self._next += 1
        return ChatResponse(content=self.replies[index], latency_seconds=time.perf_counter() - start)


def load_script(path: str | Path) -> ScriptedBackend:
    """Load a JSON array of script entries into a fresh scripted backend.
    Each entry is an object with a non-empty string "response" and an
    optional "match", which must be "sequence"."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except RecursionError:
        raise ConfigError(f"{path}: JSON nested too deeply") from None
    if not isinstance(data, list):
        raise ConfigError(f"{path}: expected a JSON array of entries")
    replies = []
    for i, item in enumerate(data):
        if not isinstance(item, dict):
            raise ConfigError(f"{path}: entry {i} is not an object")
        unknown = set(item) - {"match", "response"}
        if unknown:
            raise ConfigError(f"{path}: entry {i} has unknown keys {sorted(unknown)}")
        if item.get("match", "sequence") != "sequence":
            raise ConfigError(f"{path}: entry {i}: match must be \"sequence\", got {item['match']!r}")
        response = item.get("response", "")
        if not isinstance(response, str):
            raise ConfigError(f"{path}: entry {i}: response must be a string")
        if not response:
            raise ConfigError(f"{path}: entry {i}: script entry response must be non-empty")
        if not utf8_encodable(response):
            raise ConfigError(f"{path}: entry {i}: response holds a lone surrogate escape")
        replies.append(response)
    return ScriptedBackend(replies)


Transport = Callable[[str, dict[str, Any], str, float], tuple[int, dict[str, Any]]]


def _requests_transport(endpoint: str, payload: dict[str, Any], api_key: str, timeout: float):
    # Imported here so that scripted runs, reports and injected transports
    # never load the HTTP stack.
    import requests

    resp = requests.post(
        endpoint,
        json=payload,
        headers={"Authorization": f"Bearer {api_key}", "Content-Type": "application/json"},
        timeout=timeout,
    )
    try:
        body = resp.json()
    except (ValueError, RecursionError):  # RecursionError: a deeply nested body
        body = {}
    return resp.status_code, body


class HttpBackend:
    """OpenAI-compatible chat-completions client with bounded retries.

    Retries transport errors and HTTP 429/5xx with exponential backoff, up
    to ``MAX_ATTEMPTS`` tries total. The API key is read from the
    environment on every call so a missing credential fails before any
    network activity, and so does one that no HTTP header can carry.
    """

    def __init__(
        self,
        endpoint: str,
        *,
        backoff_base: float = 0.5,
        transport: Transport | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.endpoint = endpoint
        self.backoff_base = backoff_base
        self._transport = transport or _requests_transport
        self._sleep = sleep

    def complete(self, request: ChatRequest) -> ChatResponse:
        api_key = os.environ.get(API_KEY_ENV, "")
        if not re.fullmatch("[!-~]+", api_key):  # an HTTP header carries visible ASCII only
            problem = "holds a character other than visible ASCII" if api_key else "is not set"
            raise CredentialMissing(f"environment variable {API_KEY_ENV} {problem}")
        payload = request.to_payload()
        latency = 0.0  # transport time summed over attempts; backoff sleeps excluded
        failures: list[str] = []
        for attempt in range(MAX_ATTEMPTS):
            if attempt:
                self._sleep(self.backoff_base * 2 ** (attempt - 1))
            start = time.perf_counter()
            try:
                status, body = self._transport(self.endpoint, payload, api_key, TIMEOUT_S)
            except OSError as exc:  # every requests.RequestException is one
                failures.append(f"attempt {attempt + 1}: {exc}")
                continue
            finally:
                latency += time.perf_counter() - start
            if status == 429 or 500 <= status < 600:
                failures.append(f"attempt {attempt + 1}: HTTP {status}")
                continue
            if status != 200:
                raise BackendExhausted(f"non-retryable HTTP {status} from {self.endpoint}")
            return self._parse_body(body, latency)
        raise BackendExhausted(
            f"{MAX_ATTEMPTS} attempts failed against {self.endpoint}: " + "; ".join(failures)
        )

    @staticmethod
    def _parse_body(body: dict[str, Any], latency: float) -> ChatResponse:
        """The reply a 200 body holds. A body that lacks one, or whose reply
        ChatResponse rejects (refusals and tool-call replies carry "content":
        null), is malformed: BackendExhausted."""
        try:
            usage = body.get("usage")
            if usage is None:  # not `or {}`: a falsy usage such as [] or 0 is malformed
                usage = {}
            return ChatResponse(
                content=body["choices"][0]["message"]["content"],
                latency_seconds=latency,
                prompt_tokens=usage.get("prompt_tokens"),
                completion_tokens=usage.get("completion_tokens"),
            )
        except (KeyError, IndexError, TypeError, AttributeError, ValueError):
            raise BackendExhausted(f"malformed completion body: {json.dumps(body)[:200]}") from None
