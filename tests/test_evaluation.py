from __future__ import annotations

import io
import json
import math
from pathlib import Path

import pytest

from uplift.backend import load_script
from uplift.errors import (
    ConfigError,
    DanglingReference,
    UnknownCategory,
)
from uplift.evaluation import (
    ErrorCategory,
    ErrorRecord,
    RequirementScoreRecord,
    RunRecord,
    aggregate,
    emit_report,
    ingest_ledger,
    ingest_replaced_functions,
    ingest_scores,
    parse_category,
    population_sd,
    read_bench_index,
    read_ledger,
    run_bench,
    write_bench_index,
)
from uplift.pipeline import PipelineConfig, PipelineMode, RunStatus
from uplift.transcript import read_transcript


def brute_force_sd(values):
    """Independent oracle: direct transcription of the population formula."""
    mean = sum(values) / len(values)
    return math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))


def completed(run_id, loc=50, duration=10.0) -> RunRecord:
    return RunRecord(run_id=run_id, status=RunStatus.COMPLETED, duration_seconds=duration, loc=loc)


def failed(run_id, duration=10.0) -> RunRecord:
    return RunRecord(
        run_id=run_id, status=RunStatus.FAILED_GENERATION, duration_seconds=duration, loc=None
    )


def error(run_id, mistake, category=ErrorCategory.FATAL) -> ErrorRecord:
    return ErrorRecord(run_id=run_id, mistake_id=mistake, category=category, description="d")


class TestPopulationSd:
    def test_view_a_zsl_distribution(self):
        values = [2, 2, 2, 2, 2, 2, 1, 1, 1, 1]
        assert brute_force_sd(values) == pytest.approx(0.4899, abs=1e-3)
        assert population_sd(values) == pytest.approx(0.4899, abs=1e-3)
        assert sum(values) / len(values) == pytest.approx(1.6)

    def test_view_a_osl_distribution(self):
        values = [2, 1, 1, 0, 0, 0, 0, 0, 0, 0]
        assert brute_force_sd(values) == pytest.approx(0.6633, abs=1e-3)
        assert population_sd(values) == pytest.approx(0.6633, abs=1e-3)
        assert sum(values) / len(values) == pytest.approx(0.4)

    def test_constant_input_is_zero(self):
        assert population_sd([5, 5, 5]) == 0

    def test_empty_input(self):
        from statistics import StatisticsError

        with pytest.raises(StatisticsError, match="requires at least one data point"):
            population_sd([])

    def test_matches_brute_force_on_many_inputs(self):
        import random

        rng = random.Random(7)
        for _ in range(200):
            values = [rng.randint(0, 9) for _ in range(rng.randint(1, 12))]
            assert population_sd(values) == pytest.approx(brute_force_sd(values), abs=1e-12)


class TestIngestLedger:
    HEADER = "run_id,mistake_id,category,description\n"

    def test_same_mistake_counted_once(self):
        text = (
            self.HEADER
            + "run-001,orm-capitalization,fatal,wrong field case\n"
            + "run-001,orm-capitalization,fatal,wrong field case again\n"
        )
        records = read_ledger(io.StringIO(text))
        assert len(records) == 1
        assert records[0].mistake_id == "orm-capitalization"

    def test_header_only_is_empty(self):
        assert read_ledger(io.StringIO(self.HEADER)) == []

    def test_unknown_category(self):
        text = self.HEADER + "run-001,m1,syntax,desc\n"
        with pytest.raises(UnknownCategory):
            read_ledger(io.StringIO(text))

    def test_category_parsing_variants(self):
        assert parse_category("FATAL") is ErrorCategory.FATAL
        assert parse_category("Runtime") is ErrorCategory.RUNTIME
        assert parse_category("missing/additional") is ErrorCategory.MISSING_ADDITIONAL
        assert parse_category("Missing Additional") is ErrorCategory.MISSING_ADDITIONAL

    def test_bad_header(self):
        with pytest.raises(ConfigError) as info:
            read_ledger(io.StringIO("run,mistake\nx,y\n"))
        assert str(info.value) == "ledger: bad header 'run,mistake', expected run_id,mistake_id,category,description"

    def test_row_errors_carry_row_number(self):
        text = self.HEADER + "run-001,m1,fatal,ok\nrun-002,,fatal,missing id\n"
        with pytest.raises(ConfigError) as info:
            read_ledger(io.StringIO(text))
        assert str(info.value) == "row 3: ledger: run_id and mistake_id must be non-empty"

    @pytest.mark.parametrize(
        "repeat, error", [("run-001,m1,bogus,y", UnknownCategory), ("run-001,m1,fatal,", ConfigError)]
    )
    def test_repeated_rows_are_checked_too(self, repeat, error):
        with pytest.raises(error) as info:
            read_ledger(io.StringIO(self.HEADER + "run-001,m1,fatal,x\n" + repeat + "\n"))
        assert str(info.value).startswith("row 3: ledger: ")

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "ledger.csv"
        path.write_text(self.HEADER + "run-001,m1,content,desc\n", encoding="utf-8")
        records = ingest_ledger(path)
        assert records == [
            ErrorRecord("run-001", "m1", ErrorCategory.CONTENT, "desc")
        ]


class TestIngestScores:
    def test_parse_and_duplicate_detection(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text(
            "run_id,requirement_index,value\nrun-001,1,1\nrun-001,2,0\n", encoding="utf-8"
        )
        records = ingest_scores(path)
        assert {(r.requirement_index, r.value) for r in records} == {(1, 1), (2, 0)}
        path.write_text(
            "run_id,requirement_index,value\nrun-001,1,1\nrun-001,1,0\n", encoding="utf-8"
        )
        with pytest.raises(ConfigError, match=r"^row 3: .*: repeats row 2's key \('run-001', 1\)$"):
            ingest_scores(path)

    def test_value_outside_binary(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("run_id,requirement_index,value\nrun-001,1,2\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r"^row 2: .*: value must be 0 or 1$"):
            ingest_scores(path)


class TestIngestReplacedFunctions:
    def test_parse(self, tmp_path):
        path = tmp_path / "rf.csv"
        path.write_text("run_id,replaced_functions\nrun-001,4\nrun-002,0\n", encoding="utf-8")
        assert ingest_replaced_functions(path) == {"run-001": 4, "run-002": 0}

    def test_duplicate_and_negative_rejected(self, tmp_path):
        path = tmp_path / "rf.csv"
        path.write_text("run_id,replaced_functions\nrun-001,4\nrun-001,2\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r"^row 3: .*: repeats row 2's key 'run-001'$"):
            ingest_replaced_functions(path)
        path.write_text("run_id,replaced_functions\nrun-001,-1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r"^row 2: .*: negative count -1$"):
            ingest_replaced_functions(path)


class TestAggregate:
    def test_table_row_view_a_zsl(self):
        outcomes = [completed(f"run-{i:03d}") for i in range(1, 11)]
        errors = []
        counts = [2, 2, 2, 2, 2, 2, 1, 1, 1, 1]
        for outcome, n in zip(outcomes, counts):
            errors.extend(error(outcome.run_id, f"m{i}") for i in range(n))
        metrics = aggregate(outcomes, errors, [], "View A ZSL")
        assert metrics.mean_errors == pytest.approx(1.6)
        assert metrics.sd_errors == pytest.approx(0.490, abs=1e-3)
        assert metrics.runs_total == 10 and metrics.runs_failed == 0

    def test_failed_run_excluded_from_error_mean(self):
        outcomes = [completed(f"run-{i:03d}") for i in range(1, 10)] + [failed("run-010")]
        per_run = [2, 2, 2, 1, 1, 1, 1, 1, 0]
        errors = []
        for outcome, n in zip(outcomes, per_run):
            errors.extend(error(outcome.run_id, f"m{i}") for i in range(n))
        assert sum(per_run) == 11
        metrics = aggregate(outcomes, errors, [], "View C system")
        assert metrics.mean_errors == pytest.approx(11 / 9, abs=1e-3)
        assert metrics.mean_errors == pytest.approx(1.222, abs=1e-3)
        assert metrics.runs_failed == 1 and metrics.runs_total == 10

    def test_requirement_means_over_all_runs(self):
        outcomes = [completed(f"run-{i:03d}") for i in range(1, 11)]
        scores = []
        passes = {1: 5, 2: 3, 3: 2}
        for index, n_pass in passes.items():
            for i, outcome in enumerate(outcomes):
                scores.append(
                    RequirementScoreRecord(outcome.run_id, index, 1 if i < n_pass else 0)
                )
        metrics = aggregate(outcomes, [], scores, "View D system")
        assert metrics.requirement_means == pytest.approx((0.5, 0.3, 0.2))
        # The invariant: the total is the sum of the per-requirement means.
        assert metrics.requirement_total == pytest.approx(sum(metrics.requirement_means))

    def test_unscored_requirement_between_scored_ones_means_zero(self):
        outcomes = [completed("run-001"), completed("run-002")]
        scores = [
            RequirementScoreRecord("run-001", 1, 1),
            RequirementScoreRecord("run-002", 1, 0),
            RequirementScoreRecord("run-001", 3, 1),
            RequirementScoreRecord("run-002", 3, 1),
        ]
        metrics = aggregate(outcomes, [], scores, "x")
        assert metrics.requirement_means == pytest.approx((0.5, 0.0, 1.0))
        assert metrics.requirement_total == pytest.approx(1.5)
        assert metrics.fully_correct_runs == 0

    def test_failed_runs_score_zero_without_rows(self):
        outcomes = [completed("run-001"), failed("run-002")]
        scores = [RequirementScoreRecord("run-001", 1, 1)]
        metrics = aggregate(outcomes, [], scores, "x")
        assert metrics.requirement_means == pytest.approx((0.5,))

    def test_score_rows_for_failed_runs_are_forced_to_zero(self):
        outcomes = [completed("run-001"), failed("run-002")]
        scores = [
            RequirementScoreRecord("run-001", 1, 1),
            RequirementScoreRecord("run-002", 1, 1),
        ]
        metrics = aggregate(outcomes, [], scores, "x")
        assert metrics.requirement_means == pytest.approx((0.5,))

    def test_fully_correct_needs_no_errors_and_full_scores(self):
        outcomes = [completed("run-001"), completed("run-002"), completed("run-003")]
        errors = [error("run-002", "m1")]
        scores = [
            RequirementScoreRecord("run-001", 1, 1),
            RequirementScoreRecord("run-002", 1, 1),
            RequirementScoreRecord("run-003", 1, 0),
        ]
        metrics = aggregate(outcomes, errors, scores, "x")
        assert metrics.fully_correct_runs == 1

    def test_over_threshold_run_counts_as_failed(self):
        outcomes = [completed("run-001"), completed("run-002")]
        errors = [error("run-001", f"m{i}") for i in range(8)]
        metrics = aggregate(outcomes, errors, [], "x", failed_error_threshold=7)
        assert metrics.runs_failed == 1
        assert metrics.mean_errors == 0.0
        relaxed = aggregate(outcomes, errors, [], "x", failed_error_threshold=8)
        assert relaxed.runs_failed == 0

    def test_category_counts_cover_all_records(self):
        outcomes = [completed("run-001")]
        errors = [
            error("run-001", "m1", ErrorCategory.FATAL),
            error("run-001", "m2", ErrorCategory.RUNTIME),
            error("run-001", "m3", ErrorCategory.RUNTIME),
        ]
        metrics = aggregate(outcomes, errors, [], "x")
        assert metrics.category_counts[ErrorCategory.RUNTIME] == 2
        assert sum(metrics.category_counts.values()) == 3

    def test_a_repeated_mistake_counts_once_in_the_categories(self):
        errors = [
            ErrorRecord("run-001", "m1", ErrorCategory.FATAL, "x"),
            ErrorRecord("run-001", "m1", ErrorCategory.RUNTIME, "x again"),
        ]
        metrics = aggregate([completed("run-001")], errors, [], "L")
        assert metrics.mean_errors == 1.0
        assert metrics.category_counts == {category: int(category is ErrorCategory.FATAL) for category in ErrorCategory}

    def test_replaced_functions_mean(self):
        outcomes = [completed("run-001"), completed("run-002"), failed("run-003")]
        metrics = aggregate(
            outcomes, [], [], "x", replaced_functions={"run-001": 4, "run-002": 3}
        )
        assert metrics.mean_replaced_functions == pytest.approx(3.5)
        bare = aggregate(outcomes, [], [], "x")
        assert bare.mean_replaced_functions is None

    def test_dangling_references(self):
        outcomes = [completed("run-001")]
        with pytest.raises(DanglingReference):
            aggregate(outcomes, [error("run-999", "m")], [], "x")
        with pytest.raises(DanglingReference):
            aggregate(outcomes, [], [RequirementScoreRecord("run-999", 1, 1)], "x")
        with pytest.raises(DanglingReference):
            aggregate(outcomes, [], [], "x", replaced_functions={"run-999": 1})

    def test_mean_errors_equals_independent_recount(self):
        import random

        rng = random.Random(11)
        outcomes = [completed(f"run-{i:03d}") for i in range(1, 8)]
        errors = []
        for outcome in outcomes:
            for m in range(rng.randint(0, 4)):
                errors.append(error(outcome.run_id, f"m{m}"))
        metrics = aggregate(outcomes, errors, [], "x")
        by_run = {}
        for e in errors:
            by_run.setdefault(e.run_id, set()).add(e.mistake_id)
        expected = sum(len(by_run.get(o.run_id, ())) for o in outcomes) / len(outcomes)
        assert metrics.mean_errors == pytest.approx(expected)


class TestRunBench:
    def test_deterministic_script_produces_identical_runs(self, fixtures_dir, tmp_path):
        case = fixtures_dir / "case_view"
        config = PipelineConfig(
            mode=PipelineMode.SYSTEM_MANAGER, backend=load_script(case / "script.json")
        )
        outcomes = run_bench(
            case,
            config,
            10,
            out_dir=tmp_path,
        )
        assert len(outcomes) == 10
        assert all(o.status is RunStatus.COMPLETED for o in outcomes)
        updated = sorted(tmp_path.glob("*.updated.php"))
        assert len(updated) == 10
        contents = {p.read_text(encoding="utf-8") for p in updated}
        assert len(contents) == 1
        assert len(sorted(tmp_path.glob("*.jsonl"))) == 10

    def test_one_failing_run_recorded_not_raised(self, fixtures_dir, tmp_path):
        case = fixtures_dir / "case_view_zsl"
        good = case / "script.json"

        from uplift.backend import ScriptedBackend

        def factory(i):
            if i == 4:
                return ScriptedBackend(["no code, sorry"])
            return load_script(good)

        config = PipelineConfig(mode=PipelineMode.BASELINE_ZSL, backend=load_script(good))
        outcomes = run_bench(case, config, 10, out_dir=tmp_path, backend_factory=factory)
        statuses = [o.status for o in outcomes]
        assert statuses.count(RunStatus.COMPLETED) == 9
        assert statuses.count(RunStatus.FAILED_GENERATION) == 1
        assert outcomes[3].status is RunStatus.FAILED_GENERATION
        assert outcomes[3].failure == "FailedGeneration: baseline reply for task 1 contained no code"
        assert [o.failure for i, o in enumerate(outcomes) if i != 3] == [None] * 9
        assert not (tmp_path / "run-004.updated.php").exists()

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_a_scripted_backend_replays_in_every_repetition(self, fixtures_dir, tmp_path, parallelism):
        case = fixtures_dir / "case_view"
        backend = load_script(case / "script.json")
        config = PipelineConfig(mode=PipelineMode.SYSTEM_MANAGER, backend=backend)
        outcomes = run_bench(case, config, 3, out_dir=tmp_path, parallelism=parallelism)
        assert [o.status for o in outcomes] == [RunStatus.COMPLETED] * 3
        for outcome in outcomes:
            *exchanges, _summary = read_transcript(tmp_path / f"{outcome.run_id}.jsonl")
            assert [e["response"] for e in exchanges] == list(backend.replies)

    def test_zero_repetitions_rejected(self, fixtures_dir, tmp_path):
        case = fixtures_dir / "case_view"
        config = PipelineConfig(
            mode=PipelineMode.SYSTEM_MANAGER, backend=load_script(case / "script.json")
        )
        with pytest.raises(ValueError):
            run_bench(case, config, 0, out_dir=tmp_path)

    def test_parallel_runs_stay_ordered(self, fixtures_dir, tmp_path):
        case = fixtures_dir / "case_view_zsl"
        config = PipelineConfig(
            mode=PipelineMode.BASELINE_ZSL, backend=load_script(case / "script.json")
        )
        outcomes = run_bench(
            case,
            config,
            6,
            out_dir=tmp_path,
            parallelism=3,
        )
        assert [o.run_id for o in outcomes] == [f"run-{i:03d}" for i in range(1, 7)]

    def test_missing_case_inputs(self, tmp_path):
        config = PipelineConfig(mode=PipelineMode.SYSTEM_MANAGER, backend=None)
        with pytest.raises(ConfigError):
            run_bench(tmp_path, config, 1, out_dir=tmp_path / "out")


class TestBenchIndex:
    def test_round_trip(self, tmp_path):
        rows = [completed("run-001", loc=24, duration=1.25), failed("run-002", duration=0.5)]
        path = tmp_path / "index.csv"
        write_bench_index(rows, path)
        back = read_bench_index(path)
        assert back[0].run_id == "run-001" and back[0].loc == 24
        assert back[1].status is RunStatus.FAILED_GENERATION and back[1].loc is None

    def test_bad_status_rejected(self, tmp_path):
        path = tmp_path / "index.csv"
        path.write_text(
            "run_id,status,duration_seconds,loc\nrun-001,exploded,1.0,5\n", encoding="utf-8"
        )
        with pytest.raises(ConfigError, match=r"^row 2: .*: 'exploded' is not a valid RunStatus$"):
            read_bench_index(path)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("run-001,completed,nan,3", "duration nan is not a finite non-negative number"),
            ("run-001,completed,inf,3", "duration inf is not a finite non-negative number"),
            ("run-001,completed,-inf,3", "duration -inf is not a finite non-negative number"),
            ("run-001,completed,-0.5,3", "duration -0.5 is not a finite non-negative number"),
            ("run-001,completed,1.0,-3", "negative loc -3"),
            ("run-001,completed,nan,-3", "duration nan is not a finite non-negative number"),
            (",completed,1.000,3", "run_id must be non-empty"),
            ("run-001,completed,1.0,", "a completed run needs a loc"),
            ("run-001,failed_generation,1.0,7", "a failed_generation run cannot have a loc"),
        ],
    )
    def test_negative_or_non_finite_values_rejected(self, tmp_path, row, message):
        path = tmp_path / "index.csv"
        header = "run_id,status,duration_seconds,loc\nrun-002,completed,0.0,0\n"
        path.write_text(f"{header}{row}\n", encoding="utf-8")
        with pytest.raises(ConfigError) as raised:
            read_bench_index(path)
        assert str(raised.value) == f"row 3: {path}: {message}"


class TestEmitReport:
    def make_metrics(self, label="ZSL", with_scores=False):
        outcomes = [completed(f"run-{i}") for i in range(1, 6)]
        errors = [error("run-1", "m1"), error("run-2", "m1", ErrorCategory.RUNTIME)]
        scores = []
        if with_scores:
            scores = [RequirementScoreRecord(o.run_id, 1, 1) for o in outcomes]
        return aggregate(outcomes, errors, scores, label)

    def test_row_count_and_header(self, tmp_path):
        path = tmp_path / "report.csv"
        emit_report([self.make_metrics("A"), self.make_metrics("B", with_scores=True)], path)
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("method_label,mean_errors,sd_errors,mean_loc")
        assert "requirement_mean_1" in lines[0]

    def test_blank_requirement_columns_without_scores(self, tmp_path):
        path = tmp_path / "report.csv"
        emit_report([self.make_metrics("A"), self.make_metrics("B", with_scores=True)], path)
        import csv as csv_mod

        with open(path, newline="") as fh:
            rows = list(csv_mod.DictReader(fh))
        assert rows[0]["requirement_mean_1"] == "" and rows[0]["requirement_total"] == ""
        assert rows[1]["requirement_mean_1"] == "1.000" and rows[1]["requirement_total"] == "1.000"

    def test_reemit_is_byte_identical(self, tmp_path):
        metrics = [self.make_metrics()]
        first = tmp_path / "r1.csv"
        second = tmp_path / "r2.csv"
        emit_report(metrics, first)
        emit_report(metrics, second)
        assert first.read_bytes() == second.read_bytes()
        assert (tmp_path / "r1.categories.json").read_bytes() == (
            tmp_path / "r2.categories.json"
        ).read_bytes()

    def test_categories_sidecar_content(self, tmp_path):
        path = tmp_path / "report.csv"
        emit_report([self.make_metrics("ZSL")], path)
        sidecar = json.loads((tmp_path / "report.categories.json").read_text())
        assert sidecar["ZSL"]["fatal"] == 1
        assert sidecar["ZSL"]["runtime"] == 1
        assert sidecar["ZSL"]["content"] == 0

    def test_readme_shows_the_two_requirement_header(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        documented = readme.split("\n**Report**", 1)[1].split("```csv\n", 1)[1].split("\n", 1)[0]
        scores = [RequirementScoreRecord("run-1", 2, 1)]
        emit_report([aggregate([completed("run-1")], [], scores, "A")], tmp_path / "report.csv")
        assert (tmp_path / "report.csv").read_text(encoding="utf-8").splitlines()[0] == documented

    def test_empty_metrics_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report([], tmp_path / "report.csv")
