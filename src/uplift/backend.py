"""Chat-completion backends.

Two implementations share one duck-typed interface (``complete``): a live
HTTP backend for OpenAI-compatible endpoints and a scripted backend that
replays canned responses for deterministic offline runs.
"""

from __future__ import annotations

import json
import logging
import os
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from threading import Lock
from typing import Any, Callable, Iterable, Protocol

from .errors import (
    BackendExhausted,
    CredentialMissing,
    ScriptExhausted,
    ScriptParseError,
)

log = logging.getLogger(__name__)

DEFAULT_MODEL = "gpt-4o-mini"
API_KEY_ENV = "LLM_API_KEY"
MAX_ATTEMPTS = 3
TIMEOUT_S = 120.0


class Role(str, Enum):
    SYSTEM = "system"
    USER = "user"
    ASSISTANT = "assistant"


@dataclass(frozen=True)
class ChatMessage:
    role: Role
    content: str

    def __post_init__(self):
        if self.role in (Role.SYSTEM, Role.USER) and not self.content:
            raise ValueError(f"{self.role.value} message content must be non-empty")


@dataclass(frozen=True)
class ChatRequest:
    messages: tuple[ChatMessage, ...]
    model: str = DEFAULT_MODEL

    def __post_init__(self):
        if not self.messages:
            raise ValueError("a request needs at least one message")
        if self.messages[0].role is not Role.SYSTEM:
            raise ValueError("the first message must have the system role")

    def to_payload(self) -> dict[str, Any]:
        return {
            "model": self.model,
            "messages": [{"role": m.role.value, "content": m.content} for m in self.messages],
        }


@dataclass(frozen=True)
class ChatResponse:
    content: str
    latency_seconds: float
    prompt_tokens: int | None = None
    completion_tokens: int | None = None

    def __post_init__(self):
        if self.latency_seconds < 0:
            raise ValueError("latency cannot be negative")
        for field in ("prompt_tokens", "completion_tokens"):
            value = getattr(self, field)
            if value is not None and value < 0:
                raise ValueError(f"{field} cannot be negative")


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
        raise ScriptParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    if not isinstance(data, list):
        raise ScriptParseError(f"{path}: expected a JSON array of entries")
    replies = []
    for i, item in enumerate(data):
        if not isinstance(item, dict):
            raise ScriptParseError(f"{path}: entry {i} is not an object")
        unknown = set(item) - {"match", "response"}
        if unknown:
            raise ScriptParseError(f"{path}: entry {i} has unknown keys {sorted(unknown)}")
        if item.get("match", "sequence") != "sequence":
            raise ScriptParseError(f"{path}: entry {i}: match must be \"sequence\", got {item['match']!r}")
        response = item.get("response", "")
        if not isinstance(response, str):
            raise ScriptParseError(f"{path}: entry {i}: response must be a string")
        if not response:
            raise ScriptParseError(f"{path}: entry {i}: script entry response must be non-empty")
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
    except ValueError:
        body = {}
    return resp.status_code, body


class HttpBackend:
    """OpenAI-compatible chat-completions client with bounded retries.

    Retries transport errors and HTTP 429/5xx with exponential backoff, up
    to ``MAX_ATTEMPTS`` tries total. The API key is read from the
    environment on every call so a missing credential fails before any
    network activity.
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
        api_key = os.environ.get(API_KEY_ENV)
        if not api_key:
            raise CredentialMissing(f"environment variable {API_KEY_ENV} is not set")
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
                log.debug("transport error on attempt %d: %s", attempt + 1, exc)
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
        try:
            content = body["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError):
            content = None
        # Refusals and tool-call replies carry "content": null; only text
        # can reach the parsers, and only counts can reach ChatResponse.
        counts = _token_counts(body.get("usage")) if isinstance(content, str) else None
        if counts is None:
            raise BackendExhausted(f"malformed completion body: {json.dumps(body)[:200]}")
        return ChatResponse(content=content, latency_seconds=latency, **counts)


def _token_counts(usage: Any) -> dict[str, int | None] | None:
    """ChatResponse's token-count fields from a completion's usage block, or
    None when it is malformed. An absent or null usage or count gives None;
    a count that is present must be a non-negative int."""
    if usage is None:
        usage = {}
    if not isinstance(usage, dict):
        return None
    counts = {key: usage.get(key) for key in ("prompt_tokens", "completion_tokens")}
    if all(c is None or (type(c) is int and c >= 0) for c in counts.values()):
        return counts
    return None
