"""Append-only record of every backend exchange in a run.

Transcripts are written as JSONL with full prompt/response bodies inline;
the digests make it cheap to diff runs. Each request is JSON-encoded once,
at write time, and its digest and its line share that encoding. Two runs
against the same script produce byte-identical files except for the timing
fields, so replay tests compare records through strip_timing().
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from hashlib import sha256
from pathlib import Path
from typing import Any, Iterable, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .pipeline import RunOutcome

TIMING_FIELDS = ("latency_seconds", "duration_seconds")


def _digest(text: str) -> str:
    return sha256(text.encode("utf-8")).hexdigest()


def dump_record(record: dict[str, Any]) -> str:
    """Canonical one-line JSON used for every transcript record."""
    return json.dumps(record, sort_keys=True, ensure_ascii=False)


@dataclass
class TranscriptEntry:
    run_id: str
    step: int
    agent: str
    request: dict[str, Any]
    response: str | None
    latency_seconds: float
    task_ordinal: int | None = None
    iteration: int | None = None
    error: str | None = None
    flags: set[str] = field(default_factory=set)

    def to_line(self) -> str:
        """The exchange as one dump_record line. The request is encoded once:
        that text is hashed for request_digest and spliced into the line, in
        the place its key sorts to."""
        request = dump_record(self.request)
        record = {f.name: getattr(self, f.name) for f in fields(self)}
        record.update(
            record="exchange",
            request=None,
            request_digest=_digest(request),
            response_digest=_digest(self.response) if self.response is not None else "",
            flags=sorted(self.flags),
        )
        # The key is the only unescaped '"request": null' in the line: quotes
        # inside string values are escaped.
        return dump_record(record).replace('"request": null', f'"request": {request}', 1)


class Transcript:
    """Collects exchange entries for one run, in call order."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.entries: list[TranscriptEntry] = []

    def record(
        self,
        *,
        agent: str,
        request: dict[str, Any],
        response: str | None,
        latency_seconds: float,
        task_ordinal: int | None = None,
        iteration: int | None = None,
        error: str | None = None,
        flags: Iterable[str] = (),
    ) -> TranscriptEntry:
        entry = TranscriptEntry(
            run_id=self.run_id,
            step=len(self.entries) + 1,
            agent=agent,
            request=request,
            response=response,
            latency_seconds=latency_seconds,
            task_ordinal=task_ordinal,
            iteration=iteration,
            error=error,
            flags=set(flags),
        )
        self.entries.append(entry)
        return entry

    def annotate_last(self, *flags: str) -> None:
        """Attach flags to the most recent exchange (parser fallbacks etc.)."""
        if not self.entries:
            raise ValueError("no exchange to annotate")
        self.entries[-1].flags.update(flags)


def write_transcript(run: "RunOutcome", entries: Iterable[TranscriptEntry], path: str | Path) -> None:
    """Write exchanges plus a trailing summary record as JSONL."""
    entries = list(entries)
    for entry in entries:
        if entry.run_id != run.run_id:
            raise ValueError(f"entry run_id {entry.run_id!r} does not belong to run {run.run_id!r}")
    lines = [e.to_line() for e in entries]
    lines.append(
        dump_record(
            {
                "record": "summary",
                "run_id": run.run_id,
                "status": run.status.value,
                "duration_seconds": run.duration_seconds,
                "task_count": run.task_count,
                "finalizer_invocations": run.finalizer_invocations,
                "final_loc": run.loc,
            }
        )
    )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_transcript(path: str | Path) -> list[dict[str, Any]]:
    """Load a transcript back as raw records (exchanges + summary)."""
    records = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            records.append(json.loads(line))
    return records


def strip_timing(records: Iterable[dict[str, Any]]) -> list[dict[str, Any]]:
    """Copies of the records with wall-clock fields zeroed, for replay diffs."""
    stripped = []
    for record in records:
        clone = dict(record)
        for key in TIMING_FIELDS:
            if key in clone:
                clone[key] = 0.0
        stripped.append(clone)
    return stripped
