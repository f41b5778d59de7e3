"""Golden transcripts: scripted scenarios, built from tests/fixtures, whose
output is checked in under tests/golden/<scenario>/ and compared byte for byte.

Each scenario writes into a fresh directory. What is compared:
- each run-NNN.jsonl as written, byte for byte, but for the values of
  latency_seconds and duration_seconds, each set to 0.0;
- each run-NNN.updated.<ext> as written;
- index.csv with every duration_seconds cell set to 0.000;
- exit_code, the CLI's exit code, for the scenarios that go through cli.main.

The test never rewrites a golden file. After a change meant to alter them,
regenerate every scenario and review the diff:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import csv
import io
import json
import os
import shutil
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from uplift.backend import API_KEY_ENV, HttpBackend
from uplift.cli import _FLAGS, main
from uplift.evaluation import case_files, run_bench, write_bench_index
from uplift.pipeline import PipelineConfig, PipelineMode

from conftest import FIXTURES, FakeTransport, untimed

GOLDEN = Path(__file__).parent / "golden"

PLAN = "TASK 1: Update helper calls to 4.5\nTASK 2: Fix ORM access"
SECTIONS = (
    "INSTRUCTION: Update helper calls to the 4.5 style.\n"
    "EXAMPLE BEFORE: echo $html->link('x');\n"
    "EXAMPLE AFTER: echo $this->Html->link('x');"
)
CODE_A = "```php\n<?php echo $this->Html->link('Back to search', ['action' => 'search']); ?>\n```"
CODE_B = "Revised:\n```php\n<?php echo $this->Html->link('Back', ['action' => 'search']); ?>\n<p>first()</p>\n```"
REVISE = "VERDICT: REVISE\nFEEDBACK: first() is not used on the ORM result"
ACCEPT = "VERDICT: ACCEPT"

# Scenario name: (script replies written to script.json, or None, and the
# argv; "{w}" stands for the scenario's work directory and "{out}" for its
# output directory).
CLI_SCENARIOS: dict[str, tuple[list[str] | None, list[str]]] = {
    "run_system_manager": (
        None,
        ["run", "{w}/case_view/original.php", "{w}/case_view/requirements.txt",
         "--script", "{w}/case_view/script.json", "--out", "{out}"],
    ),
    "bench_baseline_zsl": (
        None,
        ["bench", "{w}/case_view_zsl", "--script", "{w}/case_view_zsl/script.json",
         "--mode", "baseline_zsl", "--reps", "2", "--out", "{out}"],
    ),
    # The config asks for 3 finalizer passes; --max-loop 1 overrides it, so
    # the second REVISE advances the code anyway.
    "run_config_finalizer_cap": (
        [SECTIONS, CODE_A, REVISE, CODE_B, REVISE],
        ["run", "{w}/case_view/original.php", "{w}/case_view/requirements.txt",
         "--config", "{w}/config.json", "--max-loop", "1", "--out", "{out}"],
    ),
    # re_ask on the plan, confirm_fallback, re_ask on the sections,
    # verdict_fallback, then a REVISE that one finalizer pass answers.
    "run_reasks_and_fallbacks": (
        ["no plan here", PLAN, "no confirmation",
         "INSTRUCTION: only one section", SECTIONS, CODE_A, "looks fine", "still fine",
         SECTIONS, CODE_A, REVISE, CODE_B, ACCEPT],
        ["run", "{w}/case_view/original.php", "{w}/case_view/requirements.txt",
         "--script", "{w}/script.json", "--mode", "system_manager", "--out", "{out}"],
    ),
    "run_failed_generation": (
        ["I cannot update this file."],
        ["run", "{w}/case_view_zsl/original.php", "{w}/case_view_zsl/prompt.txt",
         "--script", "{w}/script.json", "--mode", "baseline_osl", "--out", "{out}"],
    ),
    "run_plan_parse_error": (
        ["no tasks", "still no tasks"],
        ["run", "{w}/case_view/original.php", "{w}/case_view/requirements.txt",
         "--script", "{w}/script.json", "--out", "{out}"],
    ),
    "run_prompt_spec_parse_error": (
        ["INSTRUCTION: only one section", "INSTRUCTION: still one"],
        ["run", "{w}/case_view/original.php", "{w}/case_view/requirements.txt",
         "--script", "{w}/script.json", "--mode", "system_per_requirement", "--out", "{out}"],
    ),
    # Each run gets the plan and its confirmation, then finds the script spent.
    "bench_script_exhausted": (
        [PLAN, PLAN],
        ["bench", "{w}/case_view", "--script", "{w}/script.json", "--reps", "2",
         "--max-loop", "0", "--config", "{w}/config.json", "--out", "{out}"],
    ),
}

CONFIGS = {
    "run_config_finalizer_cap": {
        "backend": {"kind": "script", "script_path": "{w}/script.json"},
        "pipeline": {"mode": "system_single_task", "max_loop_iterations": 3},
    },
    "bench_script_exhausted": {"bench": {"parallelism": 2}},
}

HTTP_ENDPOINT = "http://localhost/v1/chat/completions"
ZSL_REPLY = json.loads((FIXTURES / "case_view_zsl/script.json").read_text(encoding="utf-8"))[0]["response"]


# run_id: (LLM_API_KEY, the transport's replies). Each runs baseline_zsl on
# case_view_zsl through HttpBackend.
HTTP_RUNS = {
    "run-001": ("k", [(200, {"choices": [{"message": {"content": ZSL_REPLY}}],
                             "usage": {"prompt_tokens": 120, "completion_tokens": 60}})]),
    "run-002": ("k", [(503, {}), (429, {}), OSError("connection reset")]),
    "run-003": ("k", [(200, {"choices": [{"message": {"content": None}}]})]),
    "run-004": ("", []),
}


class _KeyedBackend:
    """An HttpBackend whose calls see LLM_API_KEY set to key: "" for a missing credential."""

    def __init__(self, key: str, replies: list):
        self.key = key
        self.backend = HttpBackend(HTTP_ENDPOINT, transport=FakeTransport(*replies), sleep=lambda _: None)

    def complete(self, request):
        with mock.patch.dict(os.environ, {API_KEY_ENV: self.key}):
            return self.backend.complete(request)


def _http_runs(work: Path, out: Path) -> None:
    """The failures an HTTP backend raises, recorded as failed runs:
    BackendExhausted after retries and on a malformed body, and
    CredentialMissing."""
    backends = [_KeyedBackend(key, replies) for key, replies in HTTP_RUNS.values()]
    config = PipelineConfig(mode=PipelineMode.BASELINE_ZSL, backend=backends[0])
    files = case_files(work / "case_view_zsl", config.mode)
    outcomes = run_bench(*files, config, len(backends), out_dir=out, backend_factory=lambda i: backends[i - 1])
    assert [o.run_id for o in outcomes] == list(HTTP_RUNS)
    write_bench_index(outcomes, out / "index.csv")


SCENARIOS = sorted([*CLI_SCENARIOS, "http_backend_failures"])


def produce(name: str, work: Path) -> dict[str, bytes]:
    """Run one scenario in work and return its compared files by relative path."""
    for case in ("case_view", "case_view_zsl"):
        shutil.copytree(FIXTURES / case, work / case)
    out = work / "out"
    out.mkdir()
    files: dict[str, bytes] = {}
    if name in CLI_SCENARIOS:
        replies, argv = CLI_SCENARIOS[name]
        if replies is not None:
            entries = [{"response": r} for r in replies]
            (work / "script.json").write_text(json.dumps(entries), encoding="utf-8")
        if name in CONFIGS:
            config = json.dumps(CONFIGS[name]).replace("{w}", str(work))
            (work / "config.json").write_text(config, encoding="utf-8")
        code = main([arg.format(w=work, out=out) for arg in argv])
        files["exit_code"] = f"{code}\n".encode()
    else:
        _http_runs(work, out)
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        files[path.relative_to(out).as_posix()] = _normalized(path)
    return files


def _normalized(path: Path) -> bytes:
    if path.suffix == ".jsonl":
        return untimed(path)
    if path.name == "index.csv":
        with open(path, encoding="utf-8", newline="") as fh:
            header, *rows = csv.reader(fh)
        text = io.StringIO()
        csv.writer(text).writerows([header, *([run_id, status, "0.000", loc] for run_id, status, _, loc in rows)])
        return text.getvalue().encode("utf-8")
    return path.read_bytes()


def golden(name: str) -> dict[str, bytes]:
    root = GOLDEN / name
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", SCENARIOS)
def test_scenario_matches_its_golden_files(tmp_path, name):
    expected = golden(name)
    assert expected, f"no golden files for {name}; regenerate them (see the module docstring)"
    produced = produce(name, tmp_path)
    assert sorted(produced) == sorted(expected)
    for path, content in produced.items():
        assert content == expected[path], path


def test_scenarios_use_every_run_and_bench_flag():
    used = {arg for _, argv in CLI_SCENARIOS.values() for arg in argv if arg.startswith("--")}
    assert used == set(_FLAGS)


def test_golden_runs_end_in_every_failure_a_run_records_offline():
    failures = set()
    for path in GOLDEN.rglob("*.jsonl"):
        summary = json.loads(path.read_text(encoding="utf-8").splitlines()[-1])
        if summary["failure"]:
            failures.add(summary["failure"].split(":", 1)[0])
    assert failures == {
        "FailedGeneration", "PlanParseError", "PromptSpecParseError",
        "ScriptExhausted", "BackendExhausted", "CredentialMissing",
    }


def regenerate() -> None:
    for name in SCENARIOS:
        with tempfile.TemporaryDirectory() as tmp:
            files = produce(name, Path(tmp))
        shutil.rmtree(GOLDEN / name, ignore_errors=True)
        for rel, content in files.items():
            target = GOLDEN / name / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(content)
        print(f"{name}: {len(files)} files")


if __name__ == "__main__":
    regenerate()
