"""Acceptance criteria, one test per criterion, each printed as a pass/fail
line by the hook in conftest.py.

Criterion 6 pins the requirement total of 10 completed runs in which
requirements 1, 2 and 3 pass in the first 5, 3 and 2 runs. The runs pass
3, 3, 2, 1, 1, 0, 0, 0, 0 and 0 requirements: 10 passes over 10 runs, a
mean of 1.000 per run, which is also 0.5 + 0.3 + 0.2, the sum of the means.
An earlier version pinned 0.900, copied from a reference row whose total
disagreed with its own means; no rule turns these inputs into 0.900.
"""

from __future__ import annotations

import io
import json
import os
import random
import time

import pytest

from uplift.backend import load_script
from uplift.evaluation import (
    ErrorCategory,
    ErrorRecord,
    RequirementScoreRecord,
    aggregate,
    population_sd,
    read_ledger,
)
from uplift.model import artifact_from_file, load_requirements, parse_requirements
from uplift.pipeline import PipelineConfig, PipelineMode, RunRecord, RunStatus, run_pipeline
from uplift.transcript import Transcript, write_transcript

from conftest import CODE_REPLY, PLAN_REPLY, REVISE_REPLY, SECTIONS_REPLY, ACCEPT_REPLY, seq, untimed


def test_criterion_01_loop_cap(original_code):
    """Always-revising verifier with cap 2: exactly 2 finalizer calls, then done."""
    requirements = parse_requirements("Requirement1: update the file")
    backend = seq(
        SECTIONS_REPLY, CODE_REPLY,
        REVISE_REPLY, CODE_REPLY, REVISE_REPLY, CODE_REPLY, REVISE_REPLY,
    )
    config = PipelineConfig(
        mode=PipelineMode.SYSTEM_SINGLE_TASK, backend=backend, max_loop_iterations=2
    )
    transcript = Transcript("cap")
    start = time.perf_counter()
    outcome = run_pipeline(original_code, requirements, config, transcript=transcript)
    elapsed = time.perf_counter() - start
    assert [e.agent for e in transcript.entries].count("finalizer") == 2
    assert outcome.finalizer_invocations == 2
    assert outcome.status is RunStatus.COMPLETED
    assert elapsed < 1.0


def test_criterion_02_manager_confirmation(original_code, two_requirements):
    """system_manager issues exactly 2 manager-role calls: plan + confirm."""
    backend = seq(
        PLAN_REPLY, PLAN_REPLY,
        SECTIONS_REPLY, CODE_REPLY, ACCEPT_REPLY,
        SECTIONS_REPLY, CODE_REPLY, ACCEPT_REPLY,
    )
    config = PipelineConfig(mode=PipelineMode.SYSTEM_MANAGER, backend=backend)
    transcript = Transcript("mgr")
    outcome = run_pipeline(original_code, two_requirements, config, transcript=transcript)
    assert outcome.status is RunStatus.COMPLETED
    assert [e.agent for e in transcript.entries].count("manager") == 2


def test_criterion_03_statistics_oracle_a():
    values = [2, 2, 2, 2, 2, 2, 1, 1, 1, 1]
    assert population_sd(values) == pytest.approx(0.490, abs=1e-3)
    assert sum(values) / len(values) == 1.600


def test_criterion_04_statistics_oracle_b():
    values = [2, 1, 1, 0, 0, 0, 0, 0, 0, 0]
    assert population_sd(values) == pytest.approx(0.663, abs=1e-3)
    assert sum(values) / len(values) == 0.400


def test_criterion_05_failed_generation_exclusion():
    """10 runs, 1 failed, 11 distinct errors over the 9 completed."""
    outcomes = [
        RunRecord(f"run-{i:03d}", RunStatus.COMPLETED, 10.0, 100) for i in range(1, 10)
    ] + [RunRecord("run-010", RunStatus.FAILED_GENERATION, 10.0, None)]
    per_run = [2, 2, 2, 1, 1, 1, 1, 1, 0]
    errors = []
    for outcome, n in zip(outcomes, per_run):
        errors.extend(
            ErrorRecord(outcome.run_id, f"m{i}", ErrorCategory.FATAL, "x") for i in range(n)
        )
    assert len(errors) == 11
    metrics = aggregate(outcomes, errors, [], "View C system")
    assert metrics.mean_errors == pytest.approx(1.222, abs=1e-3)
    assert metrics.runs_failed == 1


def test_criterion_06_requirement_aggregation():
    """Pass counts 5/10, 3/10, 2/10: means [0.500, 0.300, 0.200], total 1.000.

    Derived by hand: run by run, 3 + 3 + 2 + 1 + 1 + 0 + 0 + 0 + 0 + 0 = 10
    requirements pass over 10 runs, so the mean count per run is 1.000; the
    means sum to the same 0.5 + 0.3 + 0.2 = 1.0. The old pinned 0.900 came
    from a reference row inconsistent with its own means.
    """
    outcomes = [RunRecord(f"run-{i:03d}", RunStatus.COMPLETED, 10.0, 100) for i in range(1, 11)]
    scores = []
    for index, n_pass in {1: 5, 2: 3, 3: 2}.items():
        for i, outcome in enumerate(outcomes):
            scores.append(RequirementScoreRecord(outcome.run_id, index, 1 if i < n_pass else 0))
    metrics = aggregate(outcomes, [], scores, "View D system")
    assert metrics.requirement_means == pytest.approx((0.500, 0.300, 0.200), abs=1e-9)
    assert metrics.requirement_total == pytest.approx(1.000, abs=1e-9)


def test_criterion_07_randomized_property_suite():
    """Dedup idempotence, aggregate permutation invariance, category-count
    conservation, SD scaling/permutation: 1000 randomized cases each."""
    rng = random.Random(20240901)
    start = time.perf_counter()

    run_ids = ["run-001", "run-002", "run-003", "run-004"]
    categories = [c.value for c in ErrorCategory]

    def random_rows():
        return [
            (rng.choice(run_ids), f"m{rng.randint(1, 5)}", rng.choice(categories))
            for _ in range(rng.randint(0, 10))
        ]

    def to_csv(rows):
        lines = ["run_id,mistake_id,category,description"]
        lines += [f"{r},{m},{c},desc" for r, m, c in rows]
        return "\n".join(lines) + "\n"

    for _ in range(1000):  # dedup idempotence
        rows = random_rows()
        assert read_ledger(io.StringIO(to_csv(rows))) == read_ledger(
            io.StringIO(to_csv(rows + rows))
        )

    for _ in range(1000):  # category-count conservation
        records = read_ledger(io.StringIO(to_csv(random_rows())))
        outcomes = [RunRecord(r, RunStatus.COMPLETED, 1.0, 10) for r in run_ids]
        metrics = aggregate(outcomes, records, [], "x")
        assert sum(metrics.category_counts.values()) == len(records)

    for _ in range(1000):  # aggregate permutation invariance
        records = read_ledger(io.StringIO(to_csv(random_rows())))
        outcomes = []
        for r in run_ids:
            status = rng.choice(list(RunStatus))
            loc = 10 if status is RunStatus.COMPLETED else None
            outcomes.append(RunRecord(r, status, rng.randint(1, 20) / 2, loc))
        scores = [
            RequirementScoreRecord(r, i, rng.randint(0, 1)) for r in run_ids for i in (1, 2)
        ]
        base = aggregate(outcomes, records, scores, "x")
        shuffled_outcomes = outcomes[:]
        shuffled_records = records[:]
        shuffled_scores = scores[:]
        for pool in (shuffled_outcomes, shuffled_records, shuffled_scores):
            rng.shuffle(pool)
        assert aggregate(shuffled_outcomes, shuffled_records, shuffled_scores, "x") == base

    for _ in range(1000):  # SD permutation (exact) and scaling (tolerance)
        values = [rng.uniform(-50, 50) for _ in range(rng.randint(1, 15))]
        shuffled = values[:]
        rng.shuffle(shuffled)
        assert population_sd(values) == population_sd(shuffled)
        c = rng.uniform(-5, 5)
        assert population_sd([c * v for v in values]) == pytest.approx(
            abs(c) * population_sd(values), rel=1e-9, abs=1e-12
        )

    assert time.perf_counter() - start < 10.0


def test_criterion_08_deterministic_replay(fixtures_dir, tmp_path):
    """Same script, same run id: run files byte-identical but for the timing values."""
    case = fixtures_dir / "case_view"
    code = artifact_from_file(case / "original.php")
    requirements = load_requirements(case / "requirements.txt")

    def run_once(path):
        config = PipelineConfig(
            mode=PipelineMode.SYSTEM_MANAGER, backend=load_script(case / "script.json")
        )
        transcript = Transcript("replay")
        outcome = run_pipeline(code, requirements, config, transcript=transcript)
        assert outcome.status is RunStatus.COMPLETED
        write_transcript(outcome, transcript.entries, path)
        return path

    first = run_once(tmp_path / "a.jsonl")
    second = run_once(tmp_path / "b.jsonl")
    assert untimed(first) == untimed(second)


def test_criterion_09_failed_generation_detection(fixtures_dir, tmp_path, monkeypatch, capsys):
    """Codeless executor reply: failed_generation, no output file, exit 4."""
    from uplift.cli import main

    monkeypatch.chdir(tmp_path)
    (tmp_path / "original.php").write_text(
        (fixtures_dir / "case_view/original.php").read_text(encoding="utf-8"), encoding="utf-8"
    )
    (tmp_path / "requirements.txt").write_text("Requirement1: update the file\n", encoding="utf-8")
    (tmp_path / "script.json").write_text(
        json.dumps(
            [
                {
                    "match": "sequence",
                    "response": "INSTRUCTION: u\nEXAMPLE BEFORE: a\nEXAMPLE AFTER: b",
                },
                {"match": "sequence", "response": "I am sorry, I cannot help with that."},
            ]
        ),
        encoding="utf-8",
    )
    code = main(
        [
            "run",
            "original.php",
            "requirements.txt",
            "--script",
            "script.json",
            "--mode",
            "system_single_task",
        ]
    )
    assert code == 4
    assert "status=failed_generation" in capsys.readouterr().out
    assert not (tmp_path / "out/original/run-001.updated.php").exists()


def test_criterion_10_baseline_parity(fixtures_dir):
    """baseline_zsl: one call; request carries the prompt verbatim, then the file."""
    case = fixtures_dir / "case_view_zsl"
    code = artifact_from_file(case / "original.php")
    prompt_text = (case / "prompt.txt").read_text(encoding="utf-8")
    config = PipelineConfig(
        mode=PipelineMode.BASELINE_ZSL, backend=load_script(case / "script.json")
    )
    transcript = Transcript("base")
    outcome = run_pipeline(code, prompt_text, config, transcript=transcript)
    assert outcome.status is RunStatus.COMPLETED
    assert len(transcript.entries) == 1
    rendered = "\n".join(
        m.content for m in transcript.entries[0].request.messages
    )
    assert prompt_text in rendered
    assert rendered.index(prompt_text) < rendered.index(code.content)


@pytest.mark.skipif(
    not (os.environ.get("UPLIFT_LIVE_TEST") and os.environ.get("LLM_API_KEY")),
    reason="live smoke test; set UPLIFT_LIVE_TEST=1 and LLM_API_KEY (optional, non-gating)",
)
def test_criterion_11_live_smoke(fixtures_dir):
    """10 live baseline runs; at least 8 must yield extractable code."""
    from uplift.backend import HttpBackend
    from uplift.cli import DEFAULT_ENDPOINT

    case = fixtures_dir / "case_view_zsl"
    code = artifact_from_file(case / "original.php")
    prompt_text = (case / "prompt.txt").read_text(encoding="utf-8")
    endpoint = os.environ.get("UPLIFT_LIVE_ENDPOINT", DEFAULT_ENDPOINT)
    config = PipelineConfig(mode=PipelineMode.BASELINE_ZSL, backend=HttpBackend(endpoint))
    completed = 0
    for i in range(10):
        outcome = run_pipeline(code, prompt_text, config, transcript=Transcript(f"live-{i + 1:02d}"))
        completed += outcome.status is RunStatus.COMPLETED
    assert completed >= 8
