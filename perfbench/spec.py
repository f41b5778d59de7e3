"""What the benchmark measures: workloads, metrics, units and bounds.

This module is the single source for ``BENCHMARK.json`` at the repository
root (``python3 perfbench/run.py --manifest`` prints it) and for the
self-check every run makes before printing its result line.
"""

from __future__ import annotations

from dataclasses import dataclass

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 45

AGENT_ROLES = ("manager", "prompt_maker", "executor", "verifier", "finalizer")
AGENT_OPS = ("manager_plan", "manager_confirm", "make_prompt", "execute", "verify", "finalize")
LAYERS = ("backend", "agents", "model", "transcript", "pipeline", "evaluation", "cli")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # Full-size parameters, and the tiny ones the smoke mode uses.
    full: dict
    smoke: dict


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None


# Sizes, mode and latency model are part of each `why`, because the manifest
# carries nothing else per workload.
WORKLOADS = (
    Workload(
        "many_small",
        "uplift bench via cli.main: 40-line PHP, 2 tasks, 500 reps per call, parallelism 2, "
        "scripted, no latency; then uplift report on a seeded ledger: fixed per-run and CLI cost",
        full=dict(lines=40, tasks=2, batch=500, setup_samples=11),
        smoke=dict(lines=40, tasks=2, batch=20, setup_samples=1),
    ),
    Workload(
        "live_faults",
        "HttpBackend, in-process transport: 500-line PHP, 3 tasks, 2 threads, 4 ms+50 ns/B latency, "
        "seeded 429/503/malformed/null faults; null escapes as AttributeError (known defect)",
        full=dict(lines=500, tasks=3, latency_scale=1.0, setup_samples=11),
        smoke=dict(lines=60, tasks=2, latency_scale=0.05, setup_samples=1),
    ),
)
WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)

END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("run_s.p50", "s", "lower", 0.25),
    Metric("run_s.p90", "s", "lower", 0.25),
    Metric("runs_per_s", "1/s", "higher", 0.25),
    Metric("transcript_bytes_per_run", "B", "lower", 0.05),
    Metric("peak_rss_mb", "MiB", "lower", 0.1),
    # Completed over attempted rather than failed over attempted, so that the
    # value is never 0 on the workloads where every run completes.
    Metric("completed_run_ratio", "ratio", "higher", 0.02),
)


def _per_layer() -> tuple[Metric, ...]:
    out = []
    for role in AGENT_ROLES:
        out.append(Metric(f"backend.calls.{role}", "count", "lower"))
        out.append(Metric(f"backend.request_bytes.{role}", "B", "lower"))
        out.append(Metric(f"backend.response_bytes.{role}", "B", "lower"))
    out += [
        Metric("backend.busy_s", "s", "lower"),
        Metric("backend.attempts", "count", "lower"),
        Metric("backend.retries", "count", "lower"),
        Metric("backend.failures", "count", "lower"),
        Metric("backend.injected_s", "s", "lower"),
    ]
    out += [Metric(f"agents.self_s.{op}", "s", "lower") for op in AGENT_OPS]
    out += [
        Metric("agents.re_asks", "count", "lower"),
        Metric("agents.verdict_fallbacks", "count", "lower"),
        Metric("agents.confirm_fallbacks", "count", "lower"),
        Metric("agents.verify_accept_ratio", "ratio", "higher"),
        Metric("model.extract_code.calls", "count", "lower"),
        Metric("model.extract_code.s", "s", "lower"),
        Metric("model.extract_code.bytes", "B", "lower"),
        Metric("model.count_loc.s", "s", "lower"),
        Metric("transcript.record.calls", "count", "lower"),
        Metric("transcript.record.s", "s", "lower"),
        Metric("transcript.write.s", "s", "lower"),
        Metric("transcript.write.bytes", "B", "lower"),
        Metric("pipeline.run.s", "s", "lower"),
        Metric("pipeline.self_s", "s", "lower"),
        Metric("pipeline.finalizer_invocations", "count", "lower"),
        Metric("pipeline.failed_generation", "count", "lower"),
        Metric("pipeline.uncaught.AttributeError", "count", "lower"),
        Metric("pipeline.uncaught.other", "count", "lower"),
        Metric("evaluation.run_bench.s", "s", "lower"),
        Metric("evaluation.bench_index.s", "s", "lower"),
        Metric("evaluation.ingest_ledger.s", "s", "lower"),
        Metric("evaluation.aggregate.s", "s", "lower"),
        Metric("evaluation.emit_report.s", "s", "lower"),
        Metric("evaluation.ledger_rows", "count", "lower"),
        Metric("evaluation.dedup_ratio", "ratio", "lower"),
        Metric("cli.main.self_s", "s", "lower"),
        Metric("cli.load_script.calls", "count", "lower"),
        Metric("cli.load_script.s", "s", "lower"),
    ]
    out += [Metric(f"{layer}.layer_self_s", "s", "lower") for layer in LAYERS]
    out += [
        Metric("trace.spans", "count", "lower"),
        Metric("trace.overhead_s", "s", "lower"),
    ]
    return tuple(out)


PER_LAYER = _per_layer()


def metrics_for(trace: bool) -> tuple[Metric, ...]:
    return PER_LAYER if trace else END_TO_END


def manifest() -> dict:
    """The content of BENCHMARK.json."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in END_TO_END
        ],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }


def workload(name: str) -> Workload:
    for w in WORKLOADS:
        if w.name == name:
            return w
    raise KeyError(name)
