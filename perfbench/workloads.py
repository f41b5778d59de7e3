"""The two workloads, their output checks and their metrics.

Each workload drives ``uplift`` only through its public entry points and
measures in rounds: a round is the workload's unit of work (one
``uplift bench`` call, or one block of 100 runs on two threads), followed
by checks of everything the round wrote. Untraced runs repeat rounds until
the time is up; traced runs alternate an untraced and a traced round of
identical input, so that every count of a traced round repeats exactly and
the difference between the two is the tracing overhead.
"""

from __future__ import annotations

import csv
import dataclasses
import gc
import io
import itertools
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any

import inputs
from spec import LAYERS
from tracing import Tracer, layer_metrics, nbytes

HERE = Path(__file__).resolve().parent
# Never contacted: the live_faults transport answers in-process.
ENDPOINT = "http://localhost/v1/chat/completions"
BACKOFF_BASE_S = 0.001
LATENCY_BASE_S = 0.004
LATENCY_PER_BYTE_S = 50e-9
MIN_RUNS_FOR_ROUND_P90 = 100
# Worker threads of many_small's bench and of live_faults' pool.
WORKERS = 2
# Counts of a traced round that depend on timing digits in the transcript,
# and so are not expected to repeat exactly.
INEXACT_COUNTS = {"transcript.write.bytes"}


@dataclass
class RunResult:
    run_id: str
    # None where runs are not timed one by one (many_small).
    seconds: float | None
    completed: bool
    as_expected: bool
    transcript_bytes: int | None = None
    escaped: str | None = None
    outcome: Any = None


@dataclass
class Round:
    runs: list[RunResult]
    wall: float
    # Counted by the live_faults transport; the scripted backends make one
    # attempt per call.
    attempts: int | None = None
    injected_s: float = 0.0
    # Mean time a run held a worker, for rounds whose runs are not timed
    # one by one: wall time x workers / completed runs.
    per_run_s: float | None = None

    def run_times(self) -> list[float]:
        if self.per_run_s is not None:
            return [self.per_run_s]
        return [r.seconds for r in self.runs if r.completed]


@dataclass
class Context:
    uplift: SimpleNamespace
    src: Path
    work: Path
    seed: int
    params: dict
    trace: bool
    problems: list[str] = field(default_factory=list)

    def expect(self, condition: bool, message: str) -> bool:
        if not condition:
            self.problems.append(message)
        return condition


def same_transcript(uplift: SimpleNamespace, a: Path, b: Path) -> bool:
    """Record-by-record equality after strip_timing, streamed."""
    strip = uplift.pipeline.strip_timing
    with open(a, encoding="utf-8") as fa, open(b, encoding="utf-8") as fb:
        for la, lb in itertools.zip_longest(fa, fb):
            if la is None or lb is None:
                return False
            if strip([json.loads(la)]) != strip([json.loads(lb)]):
                return False
    return True


def quiet_cli(uplift: SimpleNamespace, argv: list[str]) -> tuple[int, str, float]:
    """Run `uplift.cli.main`, returning its exit code, stdout and wall time."""
    buf = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(buf):
        code = uplift.cli.main(argv)
    return code, buf.getvalue(), time.perf_counter() - start


class Workload:
    requirements: int
    setup_target: list[str]

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.u = ctx.uplift
        self.params = ctx.params
        self.out = ctx.work / "out"
        self.out.mkdir(parents=True)
        self.replayed = False

    def round(self, index: int) -> Round:
        raise NotImplementedError

    def checked_round(self, index: int) -> Round:
        """One round, started from a collected heap, with every run checked
        against what its inputs prescribe."""
        gc.collect()
        rnd = self.round(index)
        for r in rnd.runs:
            state = f"escaped {r.escaped}" if r.escaped else ("completed" if r.completed else "failed")
            self.ctx.expect(r.as_expected, f"{r.run_id}: {state}, not as its inputs prescribe")
        return rnd

    def report_input(self) -> tuple[Path, list[str]]:
        """The bench output directory `uplift report` reads, and its run ids."""
        raise NotImplementedError

    def close(self) -> None:
        pass

    def report(self) -> None:
        """Run `uplift report` over the report input with a seeded ledger and
        scores, and check its output against the generator's own aggregate."""
        index_dir, run_ids = self.report_input()
        rdir = self.ctx.work / "report"
        rdir.mkdir(exist_ok=True)
        ledger, scores = inputs.write_ledger_and_scores(self.ctx.seed, run_ids, self.requirements, rdir)
        label = "perfbench"
        argv = ["report", str(index_dir), str(ledger), "--scores", str(scores), "--label", label, "--out", str(rdir)]
        code, _, _ = quiet_cli(self.u, argv)
        self.ctx.expect(code == 0, f"uplift report exited {code}")
        self.check_report(rdir, index_dir / "index.csv", ledger, scores, label)

    def check_report(self, rdir: Path, index_csv: Path, ledger: Path, scores: Path, label: str) -> None:
        want_row, want_categories = inputs.expected_report(index_csv, ledger, scores, label)
        with open(rdir / "report.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if not self.ctx.expect(len(rows) == 1, f"report.csv has {len(rows)} rows"):
            return
        got = rows[0]
        self.ctx.expect(set(got) == set(want_row), f"report.csv columns {sorted(got)}")
        for key, want in want_row.items():
            value = got.get(key)
            if want is None or isinstance(want, (int, str)):
                ok = value == ("" if want is None else str(want))
            else:
                ok = value is not None and abs(float(value) - want) <= 5e-4 + 1e-9
            self.ctx.expect(ok, f"report.csv {key}={value!r}, expected {want!r}")
        categories = json.loads((rdir / "report.categories.json").read_text(encoding="utf-8"))
        self.ctx.expect(categories == want_categories, f"report.categories.json {categories}")

    def check_replay(self, first: Path, replay: Path) -> None:
        self.ctx.expect(same_transcript(self.u, first, replay), f"replay of {first.name} gave another transcript")


class ManySmall(Workload):
    """`uplift bench` through cli.main on a small case, parallelism 2."""

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        p = self.params
        self.case = inputs.build_case(ctx.seed, p["lines"], p["tasks"], parse_fallbacks=True)
        self.requirements = p["tasks"]
        self.case_dir = ctx.work / "case"
        self.case.write(self.case_dir)
        script = ctx.work / "case.script.json"
        self.setup_target = ["script", str(script)]
        self.config = ctx.work / "uplift.json"
        self.config.write_text(
            json.dumps(
                {
                    "backend": {"kind": "script", "script_path": str(script)},
                    "pipeline": {"mode": "system_manager"},
                    "bench": {"repetitions": p["batch"], "parallelism": WORKERS},
                }
            ),
            encoding="utf-8",
        )

    def bench(self, out_root: Path, *extra: str) -> tuple[int, str, float]:
        shutil.rmtree(out_root, ignore_errors=True)
        argv = ["bench", str(self.case_dir), "--config", str(self.config), "--out", str(out_root), *extra]
        return quiet_cli(self.u, argv)

    def round(self, index: int) -> Round:
        batch = self.params["batch"]
        code, stdout, wall = self.bench(self.out)
        self.ctx.expect(code == 0, f"uplift bench exited {code}")
        self.ctx.expect(stdout.startswith(f"{batch} runs (0 failed)"), f"uplift bench printed {stdout!r}")
        out = self.out / self.case_dir.name
        with open(out / "index.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        self.ctx.expect(len(rows) == batch, f"index.csv has {len(rows)} rows, expected {batch}")
        runs = []
        expected_code = self.case.final_code + "\n"
        for run_id, status, _, _ in rows:
            transcript = out / f"{run_id}.jsonl"
            summary = json.loads(transcript.read_text(encoding="utf-8").splitlines()[-1])
            updated = out / f"{run_id}.updated.php"
            completed = status == "completed" and summary["status"] == "completed"
            ok = completed and updated.read_text(encoding="utf-8") == expected_code
            runs.append(RunResult(run_id, None, completed, ok, transcript.stat().st_size))
        if not self.replayed:
            self.replayed = True
            replay_root = self.ctx.work / "replay"
            code, _, _ = self.bench(replay_root, "--reps", "1")
            self.ctx.expect(code == 0, f"replay bench exited {code}")
            self.check_replay(out / "run-001.jsonl", replay_root / self.case_dir.name / "run-001.jsonl")
        # cli bench runs are not timed one by one from outside; both workers
        # stay busy until the last runs, so each run held one for about this
        # long, transcript and updated file written, plus its share of the
        # call's fixed cost.
        completed = sum(r.completed for r in runs)
        return Round(runs, wall, per_run_s=wall * WORKERS / completed if completed else None)

    def report_input(self) -> tuple[Path, list[str]]:
        index_dir = self.out / self.case_dir.name
        with open(index_dir / "index.csv", encoding="utf-8", newline="") as fh:
            return index_dir, [row[0] for row in list(csv.reader(fh))[1:]]


class FaultTransport:
    """An OpenAI-shaped endpoint in-process: JSON-encodes each request, sleeps
    a fixed base plus a per-request-byte latency, and answers from the case's
    replies, following one run's fault plan."""

    def __init__(self, plan: inputs.RunPlan, replies: tuple[str, ...], base_s: float, per_byte_s: float):
        self.plan = plan
        self.replies = replies
        self.base_s = base_s
        self.per_byte_s = per_byte_s
        self.calls = 0
        self.retry = 0
        self.attempts = 0
        self.injected_s = 0.0

    def __call__(self, endpoint: str, payload: dict, api_key: str, timeout: float) -> tuple[int, dict]:
        size = len(json.dumps(payload).encode("utf-8"))
        self.attempts += 1
        start = time.perf_counter()
        time.sleep(self.base_s + self.per_byte_s * size)
        self.injected_s += time.perf_counter() - start
        call = self.calls
        pending = self.plan.transients.get(call, ())
        if self.retry < len(pending):
            status = pending[self.retry]
            self.retry += 1
            return status, {"error": {"message": "injected", "code": status}}
        self.calls += 1
        self.retry = 0
        if call >= len(self.replies):
            return 400, {"error": {"message": "more calls than the case scripts"}}
        if call == self.plan.fault_call and self.plan.fault == "malformed":
            return 200, {"object": "chat.completion", "choices": []}
        content = None if call == self.plan.fault_call else self.replies[call]
        return 200, {
            "object": "chat.completion",
            "choices": [{"index": 0, "message": {"role": "assistant", "content": content}, "finish_reason": "stop"}],
            "usage": {"prompt_tokens": size // 4, "completion_tokens": nbytes(content) // 4},
        }


class LiveFaults(Workload):
    """system_manager runs called directly, with HttpBackend over
    FaultTransport, on two worker threads, with seeded faults."""

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        u, p = self.u, self.params
        self.case = inputs.build_case(ctx.seed, p["lines"], p["tasks"])
        self.requirements = p["tasks"]
        self.case.write(ctx.work / "case")
        self.code = u.model.artifact_from_file(ctx.work / "case" / "original.php")
        self.reqs = u.model.load_requirements(ctx.work / "case" / "requirements.txt")
        self.config = u.pipeline.PipelineConfig(
            mode=u.pipeline.PipelineMode.SYSTEM_MANAGER, backend=u.backend.ScriptedBackend([])
        )
        self.first_outcomes: list | None = None
        self.setup_target = ["http"]
        self.base_s = LATENCY_BASE_S * self.params["latency_scale"]
        self.per_byte_s = LATENCY_PER_BYTE_S * self.params["latency_scale"]
        self.pool = ThreadPoolExecutor(max_workers=WORKERS)

    def close(self) -> None:
        self.pool.shutdown(wait=True)

    def run_one(self, plan: inputs.RunPlan, path: Path) -> tuple[RunResult, FaultTransport]:
        u = self.u
        run_id = f"run-{plan.run_index + 1:04d}"
        transport = FaultTransport(plan, self.case.replies, self.base_s, self.per_byte_s)
        start = time.perf_counter()
        try:
            backend = u.backend.HttpBackend(ENDPOINT, backoff_base=BACKOFF_BASE_S, transport=transport)
            config = dataclasses.replace(self.config, backend=backend)
            transcript = u.pipeline.Transcript(run_id)
            outcome = u.pipeline.run_pipeline(self.code, self.reqs, config, transcript=transcript)
            u.pipeline.write_transcript(outcome, transcript.entries, path)
        except Exception as exc:  # an escaped run is a result to record, not a reason to stop
            seconds = time.perf_counter() - start
            # Known defect: a `content: null` reply escapes as AttributeError.
            # Any other escape is a run that did not end as its plan says.
            known = plan.fault == "null" and isinstance(exc, AttributeError)
            return RunResult(run_id, seconds, False, known, escaped=type(exc).__name__), transport
        seconds = time.perf_counter() - start
        completed = outcome.status.value == "completed"
        if plan.fault is None:
            ok = completed and outcome.final_code.content == self.case.final_code
        else:
            ok = not completed
        return RunResult(run_id, seconds, completed, ok, path.stat().st_size, outcome=outcome), transport

    def round(self, index: int) -> Round:
        plans = inputs.plan_block(self.ctx.seed, 0 if self.ctx.trace else index, self.case.calls)
        paths = [self.out / f"run-{p.run_index + 1:04d}.jsonl" for p in plans]
        start = time.perf_counter()
        results = list(self.pool.map(self.run_one, plans, paths))
        wall = time.perf_counter() - start
        runs = [r for r, _ in results]
        for plan, (run, transport) in zip(plans, results):
            calls, attempts = plan.predicted_attempts(self.case.calls)
            self.ctx.expect(
                (transport.calls, transport.attempts) == (calls, attempts),
                f"{run.run_id}: {transport.calls} calls in {transport.attempts} attempts, "
                f"plan predicts {calls} in {attempts}",
            )
        if not self.replayed:
            # One completed and one recorded failed run must replay identically.
            self.replayed = True
            for wanted in (None, "malformed"):
                i = next(i for i, p in enumerate(plans) if p.fault == wanted)
                replay = self.out / "replay.jsonl"
                self.run_one(plans[i], replay)
                self.check_replay(paths[i], replay)
        for path in paths:
            path.unlink(missing_ok=True)
        if self.first_outcomes is None:
            self.first_outcomes = [r.outcome for r in runs if r.outcome is not None]
        return Round(
            runs,
            wall,
            attempts=sum(t.attempts for _, t in results),
            injected_s=sum(t.injected_s for _, t in results),
        )

    def report_input(self) -> tuple[Path, list[str]]:
        index_dir = self.ctx.work / "report_in"
        index_dir.mkdir(exist_ok=True)
        self.u.evaluation.write_bench_index(self.first_outcomes, index_dir / "index.csv")
        return index_dir, [o.run_id for o in self.first_outcomes]


WORKLOAD_CLASSES = {"many_small": ManySmall, "live_faults": LiveFaults}


# --- measurement -------------------------------------------------------------------

def probe_setup(ctx: Context, target: list[str]) -> float:
    """Time, in a fresh interpreter, importing uplift and building the first
    backend, PipelineConfig and PromptLibrary."""
    cmd = [sys.executable, "-E", str(HERE / "setup_probe.py"), str(ctx.src), *target]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    data = json.loads(proc.stdout.strip().splitlines()[-1])
    ctx.expect(
        Path(data["module"]).resolve().is_relative_to(ctx.src.resolve()),
        f"setup probe imported uplift from {data['module']}",
    )
    return data["setup_s"]


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(ctx: Context, workload: Workload, seconds: float) -> tuple[dict, int, int]:
    p = ctx.params
    # The first interpreter writes the bytecode caches and is not counted.
    probe_setup(ctx, workload.setup_target)
    rounds: list[Round] = []
    setup_times: list[float] = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(workload.checked_round(len(rounds)))
        # Spread the set-up probes over the whole run, so that their median
        # does not rest on one moment of the machine's load.
        if len(setup_times) < p["setup_samples"]:
            setup_times.append(probe_setup(ctx, workload.setup_target))
    workload.report()
    while len(setup_times) < p["setup_samples"]:
        setup_times.append(probe_setup(ctx, workload.setup_target))
    setup_s = statistics.median(setup_times)

    runs = [r for rnd in rounds for r in rnd.runs]
    completed = [r for r in runs if r.completed]
    recorded = [r.transcript_bytes for r in runs if r.transcript_bytes is not None]
    if not ctx.expect(bool(completed) and bool(recorded), "no run completed"):
        return {}, len(runs), len(runs)
    # The machine's speed drifts during a run; a median over per-round
    # medians keeps a slow stretch from moving the figures. The p90 is taken
    # per round where a round holds enough runs for its own (live_faults),
    # else over all run times (many_small: over the rounds' per-run means).
    per_round = [t for t in (rnd.run_times() for rnd in rounds) if t]
    p50_s = statistics.median(statistics.median(t) for t in per_round)
    if min(len(t) for t in per_round) >= MIN_RUNS_FOR_ROUND_P90:
        p90_s = statistics.median(p90(t) for t in per_round)
    else:
        p90_s = p90([t for ts in per_round for t in ts])
    metrics = {
        "setup_s": setup_s,
        "run_s.p50": p50_s,
        "run_s.p90": p90_s,
        "runs_per_s": statistics.median(
            sum(r.completed for r in rnd.runs) / rnd.wall for rnd in rounds
        ),
        "transcript_bytes_per_run": statistics.fmean(recorded),
        "peak_rss_mb": peak_rss_mb(),
        "completed_run_ratio": len(completed) / len(runs),
    }
    escaped = [r.escaped for r in runs if r.escaped]
    if escaped:
        print(
            f"{len(escaped)} of {len(runs)} runs ended in an escaped exception: "
            + ", ".join(f"{name} x{escaped.count(name)}" for name in sorted(set(escaped))),
            file=sys.stderr,
        )
    return metrics, len(runs), sum(1 for r in runs if not r.as_expected)


def traced(ctx: Context, workload: Workload, seconds: float, spans_path: Path) -> tuple[dict, int, int]:
    tracer = Tracer()
    untraced_times: list[float] = []
    traced_times: list[float] = []
    first_counts: dict | None = None
    rounds = attempted = failed = 0
    injected_s = traced_wall = 0.0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        plain = workload.checked_round(0)
        workload.report()
        tracer.counts.clear()
        with tracer.installed(ctx.uplift):
            block = time.perf_counter()
            base = workload.checked_round(0)
            workload.report()
            traced_wall += time.perf_counter() - block
        if base.attempts is not None:
            tracer.add("transport.attempts", base.attempts)
        injected_s += base.injected_s
        for rnd, times in ((plain, untraced_times), (base, traced_times)):
            times += rnd.run_times()
            attempted += len(rnd.runs)
            failed += sum(1 for r in rnd.runs if not r.as_expected)
        counts = {k: v for k, v in tracer.counts.items() if k not in INEXACT_COUNTS}
        if first_counts is None:
            first_counts = dict(tracer.counts)
        else:
            exact = {k: v for k, v in first_counts.items() if k not in INEXACT_COUNTS}
            ctx.expect(counts == exact, f"traced round {rounds + 1} counted {counts}, round 1 {exact}")
        rounds += 1
    tracer.write(spans_path)
    metrics = layer_metrics(tracer.spans, Counter(first_counts), rounds, injected_s=injected_s / rounds)
    # At most WORKERS threads run traced code at a time, so self times, each
    # counted once, cannot add up to more than WORKERS x the traced wall time.
    self_s = sum(metrics[f"{layer}.layer_self_s"] for layer in LAYERS) * rounds
    ctx.expect(
        self_s <= WORKERS * traced_wall,
        f"layer self times add up to {self_s:.3f} s in {traced_wall:.3f} s on {WORKERS} threads",
    )
    if ctx.expect(bool(untraced_times) and bool(traced_times), "no run completed"):
        metrics["trace.overhead_s"] = statistics.median(traced_times) - statistics.median(untraced_times)
    return metrics, attempted, failed
