"""The benchmark's own output checks, at smoke sizes: replay equality after
strip_timing, the exact report, and each fault plan's calls and attempts.
perfbench/ is outside this suite's testpaths, so without this test a change
to transcripts or script loading that breaks the benchmark would pass here.
The traced round also runs the benchmark's tracer, which wraps
AgentContext.call, Transcript.record and the other names it patches."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("trace", ["0", "1"], ids=["untraced", "traced"])
def test_benchmark_smoke_run_is_correct(trace):
    argv = [sys.executable, "perfbench/run.py", "--workload", "all", "--smoke", "--seconds", "0.1", "--trace", trace]
    result = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
    summary = json.loads(result.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
