"""Offline benchmark for uplift.

    python3 perfbench/run.py --workload many_small --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn
    python3 perfbench/run.py --workload all --smoke    # tiny sizes, for tests
    python3 perfbench/run.py --manifest > BENCHMARK.json

Run from the repository root: the package is imported from ./src. Each run
prints one line per metric (workload, name, value, unit), then, as its last
line, one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the per-layer
ones of a traced run. The exit code is 1 when an output check fails and 2
on a usage error or when ./src/uplift is missing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
MODULES = ("backend", "agents", "model", "transcript", "pipeline", "evaluation", "cli")


def import_uplift() -> SimpleNamespace:
    sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"uplift.{name}") for name in MODULES}
    package = sys.modules["uplift"]
    if not Path(package.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: imported uplift from {package.__file__}, not from {SRC}")
    return SimpleNamespace(**modules)


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> int:
    import workloads

    uplift = import_uplift()
    # HttpBackend reads its key from the environment; the transport is in-process.
    os.environ[uplift.backend.API_KEY_ENV] = "offline-benchmark"
    w = spec.workload(name)
    work = WORK / f"{name}-{os.getpid()}"
    ctx = workloads.Context(uplift, SRC, work, seed, w.smoke if smoke else w.full, trace)
    workload = None
    try:
        workload = workloads.WORKLOAD_CLASSES[name](ctx)
        if trace:
            spans = WORK / f"spans-{name}.jsonl"
            metrics, attempted, failed = workloads.traced(ctx, workload, seconds, spans)
            print(f"spans written to {spans}", file=sys.stderr)
        else:
            metrics, attempted, failed = workloads.end_to_end(ctx, workload, seconds)
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(work, ignore_errors=True)

    expected = spec.metrics_for(trace)
    missing = [m.name for m in expected if m.name not in metrics]
    ctx.expect(not missing, f"metrics not measured: {missing}")
    result = {
        "correct": not ctx.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m.name: {"value": metrics[m.name], "unit": m.unit} for m in expected if m.name in metrics},
    }
    for problem in ctx.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    for metric, entry in result["metrics"].items():
        print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own interpreter, so that peak RSS and set-up stay
    per workload; the last line combines their results."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in spec.WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = status or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result line (exit {proc.returncode})", file=sys.stderr)
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return status or (0 if combined["correct"] else 1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*spec.WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--manifest", action="store_true", help="print BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if args.manifest:
        print(json.dumps(spec.manifest(), indent=2))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "uplift" / "__init__.py").is_file():
        print(f"error: {SRC / 'uplift'} not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)


if __name__ == "__main__":
    sys.exit(main())
