"""The benchmark's own output checks, at smoke sizes: replay equality after
strip_timing, the exact report, and each fault plan's calls and attempts.
perfbench/ is outside this suite's testpaths, so without this test a change
to transcripts or script loading that breaks the benchmark would pass here."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_run_is_correct():
    argv = [sys.executable, "perfbench/run.py", "--workload", "all", "--smoke", "--seconds", "0.1", "--trace", "0"]
    result = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
    summary = json.loads(result.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
