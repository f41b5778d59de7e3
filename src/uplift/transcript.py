"""Append-only record of every backend exchange in a run.

Transcripts are written as JSONL with full prompt/response bodies inline;
the digests make it cheap to diff runs. Every line is dump_record of its
record. An exchange line is written from one template in that same form,
with ChatRequest.to_json() as its request. Two runs against the same script
write the same bytes but for the values of the timing fields, so a replay is
checked by comparing bytes with those values masked.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from hashlib import sha256
from json.encoder import encode_basestring as _quote  # _ENCODER's escaper, for keys and values alike
from pathlib import Path
from typing import Any, Iterable, TYPE_CHECKING

from .backend import ChatRequest, utf8_encodable

if TYPE_CHECKING:  # pragma: no cover
    from .pipeline import RunOutcome

TIMING_FIELDS = ("latency_seconds", "duration_seconds")
_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=False)  # json.dumps would build one per call


def _digest(text: str) -> str:
    return sha256(text.encode("utf-8")).hexdigest()


def error_text(exc: BaseException) -> str:
    """How an exception is recorded: an exchange's error, a run's failure. A
    lone surrogate, which no UTF-8 file can hold, is written as its \\uXXXX escape.
    Never raises: an exception whose str() raises is written by its type name."""
    try:
        message = str(exc)
    except Exception:
        message = "<str() failed>"
    text = f"{type(exc).__name__}: {message}"
    return text if utf8_encodable(text) else text.encode("utf-8", "backslashreplace").decode("utf-8")


def dump_record(record: dict[str, Any]) -> str:
    """Canonical one-line JSON used for every transcript record."""
    return _ENCODER.encode(record)


@dataclass
class TranscriptEntry:
    """One backend exchange, as AgentContext.call records it."""

    step: int
    agent: str
    request: ChatRequest
    response: str | None
    latency_seconds: float
    task_ordinal: int | None = None
    iteration: int | None = None
    error: str | None = None
    flags: set[str] = field(default_factory=set)

    def to_line(self, run_id: str, escaped: dict[str, str] | None = None) -> str:
        """The exchange as one line, stamped with its run's id: the 13 keys
        in sorted order, written as dump_record writes the record. Strings
        go through dump_record's escaper and numbers through the reprs its
        encoder uses. The request's text, ChatRequest.to_json(escaped), is
        both hashed and spliced in."""
        request = self.request.to_json(escaped)
        response = self.response
        error = self.error
        iteration = self.iteration
        task_ordinal = self.task_ordinal
        return (
            f'{{"agent": {_quote(self.agent)}, '
            f'"error": {"null" if error is None else _quote(error)}, '
            f'"flags": [{", ".join([_quote(flag) for flag in sorted(self.flags)])}], '
            f'"iteration": {"null" if iteration is None else int.__repr__(iteration)}, '
            f'"latency_seconds": {float.__repr__(self.latency_seconds)}, '
            '"record": "exchange", '
            f'"request": {request}, '
            f'"request_digest": "{_digest(request)}", '
            f'"response": {"null" if response is None else _quote(response)}, '
            f'"response_digest": "{"" if response is None else _digest(response)}", '
            f'"run_id": {_quote(run_id)}, '
            f'"step": {int.__repr__(self.step)}, '
            f'"task_ordinal": {"null" if task_ordinal is None else int.__repr__(task_ordinal)}}}'
        )


class Transcript:
    """Collects exchange entries for one run, in call order."""

    def __init__(self, run_id: str):
        if not run_id:
            raise ValueError("run_id must be non-empty")
        self.run_id = run_id
        self.entries: list[TranscriptEntry] = []

    def record(self, agent: str, request: ChatRequest, **fields: Any) -> None:
        """Append an exchange as the next step; `fields` are its other TranscriptEntry fields.
        The request is the ChatRequest that AgentContext.call built and sent."""
        self.entries.append(TranscriptEntry(len(self.entries) + 1, agent, request, **fields))

    def annotate_last(self, *flags: str) -> None:
        """Attach flags to the most recent exchange (parser fallbacks etc.).
        _ask calls it only after a call has recorded one."""
        self.entries[-1].flags.update(flags)


def write_transcript(run: "RunOutcome", entries: Iterable[TranscriptEntry], path: str | Path) -> None:
    """Write exchanges plus a trailing summary record as JSONL. Every
    exchange line carries the run's id. The summary holds each RunOutcome
    field but final_code and loc, which it gives as final_loc.

    Each line is written as soon as it is encoded, so one line at a time is
    held, not the whole transcript, beside one escape of each distinct
    request part: the lines share one table, so a file text that many
    requests carry is escaped once. A write that stops part-way leaves the
    exchange lines written so far and no summary: an unfinished run."""
    summary = {f.name: getattr(run, f.name) for f in fields(run) if f.name not in ("final_code", "loc")}
    summary.update(record="summary", status=run.status.value, final_loc=run.loc)
    escaped: dict[str, str] = {}
    with open(path, "w", encoding="utf-8") as out:
        for entry in entries:
            print(entry.to_line(run.run_id, escaped), file=out)
        print(dump_record(summary), file=out)


def strip_timing(records: Iterable[dict[str, Any]]) -> list[dict[str, Any]]:
    """Copies of the records with wall-clock fields zeroed, for replay diffs."""
    return [{**record, **{key: 0.0 for key in TIMING_FIELDS if key in record}} for record in records]
