"""Chat-completion backends.

Two implementations share one duck-typed interface (``complete``): a live
HTTP backend for OpenAI-compatible endpoints and a scripted backend that
replays canned responses for deterministic offline runs.
"""

from __future__ import annotations

import json
import os
import re
import time
from dataclasses import dataclass
from enum import Enum
from json.encoder import encode_basestring as _quote
from pathlib import Path
from threading import Lock, local
from typing import Any, Callable, Iterable, Protocol

from .errors import BackendExhausted, ConfigError, CredentialMissing, ScriptExhausted
from .model import load_json

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
    """A message's text is its parts, in order: a user message holds the run's
    file texts themselves, not a copy of them. A bare str would be taken as
    one part per character, so every builder passes a tuple."""

    role: Role
    parts: tuple[str, ...]

    @property
    def content(self) -> str:
        """The text a backend reads: the parts joined, anew on every read."""
        return "".join(self.parts)


@dataclass(frozen=True)
class ChatRequest:
    """What AgentContext.call sends: a system message first, each system and
    user message non-empty, and the run's model. _ask and call, which build it, keep that."""

    messages: tuple[ChatMessage, ...]
    model: str

    def to_payload(self) -> dict[str, Any]:
        return {
            "model": self.model,
            "messages": [{"role": m.role.value, "content": m.content} for m in self.messages],
        }

    def to_json(self, escaped: dict[str, str] | None = None) -> str:
        """to_payload() as transcript.dump_record writes it, from a template
        (a Role is a str, so _quote writes its value). JSON escapes a string
        one code point at a time, so a content is its parts escaped one by
        one; escaped maps each part met so far to that escape, so a caller
        that shares it across requests escapes each distinct text once."""
        if escaped is None:
            escaped = {}
        out = ['{"messages": [']
        for i, m in enumerate(self.messages):
            out.append('{"content": "' if i == 0 else ', {"content": "')
            for part in m.parts:
                text = escaped.get(part)
                if text is None:
                    text = escaped[part] = _quote(part)[1:-1]
                out.append(text)
            out.append(f'", "role": {_quote(m.role)}}}')
        out.append(f'], "model": {_quote(self.model)}}}')
        return "".join(out)


@dataclass(frozen=True)
class ChatResponse:
    """A backend's reply: its content alone. Its check is the one rule for what
    a reply may hold: HttpBackend turns its ValueError into BackendExhausted,
    load_script into ConfigError. AgentContext.call, not the reply, times calls."""

    content: str

    def __post_init__(self):
        if not (isinstance(self.content, str) and utf8_encodable(self.content)):
            raise ValueError("response content must be a str with no lone surrogate")


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
        with self._lock:
            index = self._next
            if index == len(self.replies):
                raise ScriptExhausted(
                    f"no unconsumed script entry matches the request ({len(self.replies)} loaded)"
                )
            self._next += 1
        return ChatResponse(content=self.replies[index])


def load_script(path: str | Path) -> ScriptedBackend:
    """Load a JSON array of script entries into a fresh scripted backend.
    Each entry is an object with a non-empty "response" that passes
    ChatResponse's check and an optional "match", which must be "sequence"."""
    data = load_json(path)
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
        try:
            ChatResponse(response)
        except ValueError as exc:
            raise ConfigError(f"{path}: entry {i}: {exc}") from None
        if not response:
            raise ConfigError(f"{path}: entry {i}: script entry response must be non-empty")
        replies.append(response)
    return ScriptedBackend(replies)


Transport = Callable[[str, dict[str, Any], str, float], tuple[int, dict[str, Any]]]


class _SessionTransport(local):
    """The default transport: each thread posts through its own
    requests.Session, so one backend's calls on a thread share a connection
    (a Session is not safe to share across threads). A thread's session is
    made at its first post, so scripted runs, reports and injected
    transports never load the HTTP stack."""

    session = None  # a thread's own once set: the instance is a threading.local

    def __call__(self, endpoint: str, payload: dict[str, Any], api_key: str, timeout: float):
        if self.session is None:
            import requests

            self.session = requests.Session()
        resp = self.session.post(
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
        self._transport = transport or _SessionTransport()
        self._sleep = sleep

    def complete(self, request: ChatRequest) -> ChatResponse:
        api_key = os.environ.get(API_KEY_ENV, "")
        if not re.fullmatch("[!-~]+", api_key):  # an HTTP header carries visible ASCII only
            problem = "holds a character other than visible ASCII" if api_key else "is not set"
            raise CredentialMissing(f"environment variable {API_KEY_ENV} {problem}")
        payload = request.to_payload()
        failures: list[str] = []
        for attempt in range(MAX_ATTEMPTS):
            if attempt:
                self._sleep(self.backoff_base * 2 ** (attempt - 1))
            try:
                status, body = self._transport(self.endpoint, payload, api_key, TIMEOUT_S)
            except OSError as exc:  # every requests.RequestException is one
                failures.append(f"attempt {attempt + 1}: {exc}")
                continue
            if status == 429 or 500 <= status < 600:
                failures.append(f"attempt {attempt + 1}: HTTP {status}")
                continue
            if status != 200:
                raise BackendExhausted(f"non-retryable HTTP {status} from {self.endpoint}")
            return self._parse_body(body)
        raise BackendExhausted(
            f"{MAX_ATTEMPTS} attempts failed against {self.endpoint}: " + "; ".join(failures)
        )

    @staticmethod
    def _parse_body(body: dict[str, Any]) -> ChatResponse:
        """The reply a 200 body holds. A body that lacks one, or whose reply
        ChatResponse rejects (refusals and tool-call replies carry "content":
        null), is malformed: BackendExhausted. So is a reply the endpoint cut
        off at its output limit or filtered, by its first choice's
        "finish_reason": a shorter file is not an updated one."""
        try:
            choice = body["choices"][0]
            reply = ChatResponse(content=choice["message"]["content"])
        except (KeyError, IndexError, TypeError, ValueError):
            try:
                shown = json.dumps(body)[:200]
            except (TypeError, ValueError, RecursionError):  # bytes, a cycle, deep nesting
                shown = f"a {type(body).__name__} that JSON cannot encode"
            raise BackendExhausted(f"malformed completion body: {shown}") from None
        if (reason := choice.get("finish_reason")) in ("length", "content_filter"):
            raise BackendExhausted(f"incomplete reply: finish_reason {reason!r}")
        return reply
