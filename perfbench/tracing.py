"""Tracing from outside the package.

The traced run wraps public functions of each layer under the names their
callers look up at call time (``uplift.pipeline.execute``,
``uplift.agents.extract_code``, ``uplift.cli.run_bench`` ...). Each wrapped
call becomes a span (name, start, end, parent, run id); spans stay in memory
and are written out when the run ends. Counters are kept at the same
boundaries, so ratios are measured where the work happens.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

from spec import AGENT_OPS, AGENT_ROLES, LAYERS

Hook = Callable[["Tracer", tuple, dict, Any, BaseException | None], None]


def nbytes(text: str | None) -> int:
    if text is None:
        return 0
    return len(text) if text.isascii() else len(text.encode("utf-8"))


class Tracer:
    def __init__(self) -> None:
        # (id, name, start, end, parent id, run id, thread id)
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        # The open span that hands work to a thread pool (run_bench): spans
        # that start on a thread with an empty stack become its children.
        self._fan_out: int | None = None

    def add(self, key: str, value: int = 1) -> None:
        with self._lock:
            self.counts[key] += value

    def _state(self) -> threading.local:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.run_id = None
            local.role = None
        return local

    def wrap(
        self,
        fn: Callable,
        name: str,
        hook: Hook | None = None,
        run_id_of: Callable[[tuple, dict], str] | None = None,
        fans_out: bool = False,
    ) -> Callable:
        """`fn` recording a span per call, then calling `hook` with the
        arguments and the result or exception (outside the span). Spans
        inherit the run id of their caller unless `run_id_of` names one.
        With `fans_out`, spans that pool threads start during the call get
        this call's span as parent."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = tracer._state()
            stack = local.stack
            run_id = local.run_id
            if run_id_of is not None:
                local.run_id = run_id_of(args, kwargs)
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else tracer._fan_out
            stack.append(span_id)
            if fans_out:
                fan_out, tracer._fan_out = tracer._fan_out, span_id
            error = None
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                if fans_out:
                    tracer._fan_out = fan_out
                tracer.spans.append(
                    (span_id, name, start, end, parent, local.run_id, threading.get_ident())
                )
                local.run_id = run_id
                if hook is not None:
                    hook(tracer, args, kwargs, result, error)
            return result

        return traced

    def with_role(self, fn: Callable) -> Callable:
        """Wrap AgentContext.call: no span of its own, but the agent role is
        kept for the backend spans beneath it, and re-asks are counted."""
        tracer = self

        @functools.wraps(fn)
        def call(ctx, agent, messages, **kwargs):
            local = tracer._state()
            if "re_ask" in kwargs.get("flags", ()):
                tracer.add("agents.re_asks")
            local.role = agent
            try:
                return fn(ctx, agent, messages, **kwargs)
            finally:
                local.role = None

        return call

    def role(self) -> str | None:
        return self._state().role

    @contextmanager
    def installed(self, uplift: Any) -> Iterator[None]:
        """Patch the traced names for the duration of the block."""
        patches = _targets(self, uplift)
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        keys = ("id", "name", "start", "end", "parent", "run_id", "thread")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


# --- hooks: counters at the layer boundaries ------------------------------------

def _on_complete(tracer: Tracer, args, kwargs, result, error) -> None:
    request = args[1]
    role = tracer.role() or "unknown"
    tracer.add(f"backend.calls.{role}")
    tracer.add(f"backend.request_bytes.{role}", sum(nbytes(m.content) for m in request.messages))
    if error is None:
        tracer.add(f"backend.response_bytes.{role}", nbytes(result.content))
    else:
        tracer.add("backend.failures")


def _on_annotate(tracer: Tracer, args, kwargs, result, error) -> None:
    for flag in args[1:]:
        if flag in ("verdict_fallback", "confirm_fallback"):
            tracer.add(f"agents.{flag}s")


def _on_verify(tracer: Tracer, args, kwargs, result, error) -> None:
    tracer.add("agents.verify.calls")
    if result is not None and result.decision.value == "accept":
        tracer.add("agents.verify.accepted")


def _on_extract(tracer: Tracer, args, kwargs, result, error) -> None:
    tracer.add("model.extract_code.calls")
    tracer.add("model.extract_code.bytes", nbytes(args[0]))


def _on_write(tracer: Tracer, args, kwargs, result, error) -> None:
    if error is None:
        tracer.add("transcript.write.bytes", os.path.getsize(args[2]))


def _on_record(tracer: Tracer, args, kwargs, result, error) -> None:
    tracer.add("transcript.record.calls")


def _on_run(tracer: Tracer, args, kwargs, result, error) -> None:
    if error is not None:
        kind = type(error).__name__ if isinstance(error, AttributeError) else "other"
        tracer.add(f"pipeline.uncaught.{kind}")
        return
    tracer.add("pipeline.finalizer_invocations", result.finalizer_invocations)
    if result.status.value == "failed_generation":
        tracer.add("pipeline.failed_generation")


def _on_ledger(tracer: Tracer, args, kwargs, result, error) -> None:
    if error is None:
        with open(args[0], encoding="utf-8") as fh:
            rows = sum(1 for line in fh if line.strip()) - 1
        tracer.add("evaluation.ledger_rows", rows)
        tracer.add("evaluation.ledger_records", len(result))


def _on_load_script(tracer: Tracer, args, kwargs, result, error) -> None:
    tracer.add("cli.load_script.calls")


def _targets(tracer: Tracer, uplift: Any) -> list[tuple[Any, str, Callable]]:
    cli, evaluation, pipeline = uplift.cli, uplift.evaluation, uplift.pipeline
    agents, model, backend, transcript = uplift.agents, uplift.model, uplift.backend, uplift.transcript

    def span(owner, attr, name, hook=None, run_id_of=None, fans_out=False):
        return (owner, attr, tracer.wrap(getattr(owner, attr), name, hook, run_id_of, fans_out))

    def run_of_transcript(args, kwargs):
        return kwargs["transcript"].run_id

    def run_of_outcome(args, kwargs):
        return args[0].run_id

    targets = [
        span(cli, "main", "cli.main"),
        span(cli, "load_script", "cli.load_script", _on_load_script),
        span(cli, "run_bench", "evaluation.run_bench", fans_out=True),
        span(cli, "write_bench_index", "evaluation.bench_index"),
        span(cli, "read_bench_index", "evaluation.bench_index"),
        span(evaluation, "write_bench_index", "evaluation.bench_index"),
        span(cli, "ingest_ledger", "evaluation.ingest_ledger", _on_ledger),
        span(cli, "aggregate", "evaluation.aggregate"),
        span(cli, "emit_report", "evaluation.emit_report"),
        span(evaluation, "run_pipeline", "pipeline.run", _on_run, run_of_transcript),
        span(pipeline, "run_pipeline", "pipeline.run", _on_run, run_of_transcript),
        span(evaluation, "write_transcript", "transcript.write", _on_write, run_of_outcome),
        span(pipeline, "write_transcript", "transcript.write", _on_write, run_of_outcome),
        span(transcript.Transcript, "record", "transcript.record", _on_record),
        span(agents, "extract_code", "model.extract_code", _on_extract),
        span(pipeline, "extract_code", "model.extract_code", _on_extract),
        span(model, "count_loc", "model.count_loc"),
        span(backend.ScriptedBackend, "complete", "backend.complete", _on_complete),
        span(backend.HttpBackend, "complete", "backend.complete", _on_complete),
        span(transcript.Transcript, "annotate_last", "transcript.annotate", _on_annotate),
        (agents.AgentContext, "call", tracer.with_role(agents.AgentContext.call)),
    ]
    for op in AGENT_OPS:
        targets.append(span(pipeline, op, f"agents.{op}", _on_verify if op == "verify" else None))
    return targets


# --- per-layer metrics ---------------------------------------------------------------

def span_times(spans: list[tuple]) -> tuple[dict[str, float], dict[str, float]]:
    """Inclusive and self time per span name. A span's self time is its
    duration minus the wall time during which any of its direct children
    ran; children on pool threads overlap, so their union is taken."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, _, start, end, parent, _, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    inclusive: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for span_id, name, start, end, _, _, _ in spans:
        inclusive[name] += end - start
        own[name] += end - start - covered(children.get(span_id, []))
    return inclusive, own


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(spans: list[tuple], counts: Counter, rounds: int, *, injected_s: float) -> dict[str, float]:
    """Per-layer metrics for one round of the workload: counts are those of
    one round, times are the mean over `rounds` traced rounds. Without a
    `transport.attempts` count, each backend call is one attempt."""
    inclusive, own = span_times(spans)

    def per_round(value: float) -> float:
        return value / rounds

    m: dict[str, float] = {}
    for role in AGENT_ROLES:
        for kind in ("calls", "request_bytes", "response_bytes"):
            m[f"backend.{kind}.{role}"] = counts[f"backend.{kind}.{role}"]
    m["backend.busy_s"] = per_round(inclusive["backend.complete"])
    calls = sum(counts[f"backend.calls.{role}"] for role in AGENT_ROLES)
    m["backend.attempts"] = counts.get("transport.attempts", calls)
    m["backend.retries"] = m["backend.attempts"] - calls
    m["backend.failures"] = counts["backend.failures"]
    m["backend.injected_s"] = injected_s
    for op in AGENT_OPS:
        m[f"agents.self_s.{op}"] = per_round(own[f"agents.{op}"])
    m["agents.re_asks"] = counts["agents.re_asks"]
    m["agents.verdict_fallbacks"] = counts["agents.verdict_fallbacks"]
    m["agents.confirm_fallbacks"] = counts["agents.confirm_fallbacks"]
    verified = counts["agents.verify.calls"]
    m["agents.verify_accept_ratio"] = counts["agents.verify.accepted"] / verified if verified else 0.0
    m["model.extract_code.calls"] = counts["model.extract_code.calls"]
    m["model.extract_code.s"] = per_round(inclusive["model.extract_code"])
    m["model.extract_code.bytes"] = counts["model.extract_code.bytes"]
    m["model.count_loc.s"] = per_round(inclusive["model.count_loc"])
    m["transcript.record.calls"] = counts["transcript.record.calls"]
    m["transcript.record.s"] = per_round(inclusive["transcript.record"])
    m["transcript.write.s"] = per_round(inclusive["transcript.write"])
    m["transcript.write.bytes"] = counts["transcript.write.bytes"]
    m["pipeline.run.s"] = per_round(inclusive["pipeline.run"])
    m["pipeline.self_s"] = per_round(own["pipeline.run"])
    m["pipeline.finalizer_invocations"] = counts["pipeline.finalizer_invocations"]
    m["pipeline.failed_generation"] = counts["pipeline.failed_generation"]
    m["pipeline.uncaught.AttributeError"] = counts["pipeline.uncaught.AttributeError"]
    m["pipeline.uncaught.other"] = counts["pipeline.uncaught.other"]
    for name in ("run_bench", "bench_index", "ingest_ledger", "aggregate", "emit_report"):
        m[f"evaluation.{name}.s"] = per_round(inclusive[f"evaluation.{name}"])
    rows = counts["evaluation.ledger_rows"]
    m["evaluation.ledger_rows"] = rows
    m["evaluation.dedup_ratio"] = counts["evaluation.ledger_records"] / rows if rows else 0.0
    m["cli.main.self_s"] = per_round(own["cli.main"])
    m["cli.load_script.calls"] = counts["cli.load_script.calls"]
    m["cli.load_script.s"] = per_round(inclusive["cli.load_script"])
    for layer in LAYERS:
        m[f"{layer}.layer_self_s"] = per_round(
            sum(t for name, t in own.items() if name.split(".", 1)[0] == layer)
        )
    m["trace.spans"] = per_round(len(spans))
    return m
