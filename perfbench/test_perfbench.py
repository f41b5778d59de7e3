"""Tests of the benchmark itself: python3 -m pytest perfbench

They run every workload at smoke size, so they take a few seconds each.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_manifest_matches_benchmark_json():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert on_disk == spec.manifest()


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_prints_every_metric_with_its_unit(trace):
    proc = bench("--workload", "all", "--smoke", "--seconds", "0.1", "--trace", trace)
    result = result_of(proc)
    assert result["correct"] and result["failed"] == 0
    for workload in spec.WORKLOAD_NAMES:
        for metric in spec.metrics_for(trace == "1"):
            entry = result["metrics"][f"{workload}.{metric.name}"]
            assert entry["unit"] == metric.unit
            assert isinstance(entry["value"], (int, float))
            assert f"{workload} {metric.name} " in proc.stdout


def test_live_fault_counts_repeat_for_a_seed():
    keys = (
        "backend.attempts",
        "backend.retries",
        "pipeline.failed_generation",
        "pipeline.uncaught.AttributeError",
    )
    runs = [
        result_of(bench("--workload", "live_faults", "--smoke", "--seconds", "0.1", "--trace", "1", "--seed", "7"))
        for _ in range(2)
    ]
    first, second = ({k: r["metrics"][k]["value"] for k in keys} for r in runs)
    assert first == second
    assert first["backend.retries"] > 0 and first["pipeline.failed_generation"] > 0


def test_bench_pool_runs_nest_under_run_bench():
    # run_bench's runs happen on its pool threads; their spans are its
    # children, so its self time leaves them out.
    metrics = result_of(bench("--workload", "many_small", "--smoke", "--seconds", "0.1", "--trace", "1"))["metrics"]
    assert metrics["evaluation.layer_self_s"]["value"] < metrics["evaluation.run_bench.s"]["value"] / 2


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = bench("--workload", "many_small", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
