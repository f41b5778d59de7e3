from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from uplift.backend import load_script
from uplift.errors import ConfigError, DanglingReference
from uplift.evaluation import (
    MAX_REQUIREMENT_INDEX,
    ErrorCategory,
    ErrorRecord,
    RequirementScoreRecord,
    aggregate,
    case_files,
    emit_report,
    ingest_ledger,
    ingest_replaced_functions,
    ingest_scores,
    parse_category,
    population_sd,
    read_bench_index,
    run_bench,
    write_bench_index,
)
from uplift.pipeline import PipelineConfig, PipelineMode, RunRecord, RunStatus

from conftest import run_records, seq


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

    @pytest.fixture
    def ledger(self, tmp_path):
        """A function that writes its text to ledger.csv and returns the path."""
        path = tmp_path / "ledger.csv"

        def write(text):
            path.write_text(text, encoding="utf-8")
            return path

        return write

    def test_same_mistake_counted_once(self, ledger):
        text = (
            self.HEADER
            + "run-001,orm-capitalization,fatal,wrong field case\n"
            + "run-001,orm-capitalization,fatal,wrong field case again\n"
        )
        records = ingest_ledger(ledger(text))
        assert len(records) == 1
        assert records[0].mistake_id == "orm-capitalization"

    def test_header_only_is_empty(self, ledger):
        assert ingest_ledger(ledger(self.HEADER)) == []

    def test_unknown_category(self, ledger):
        path = ledger(self.HEADER + "run-001,m1,syntax,desc\n")
        with pytest.raises(DanglingReference) as info:
            ingest_ledger(path)
        assert str(info.value).startswith(f"row 2: {path}: unknown error category 'syntax'; ")

    def test_category_parsing_variants(self):
        assert parse_category("FATAL") is ErrorCategory.FATAL
        assert parse_category("Runtime") is ErrorCategory.RUNTIME
        assert parse_category("missing/additional") is ErrorCategory.MISSING_ADDITIONAL
        assert parse_category("Missing Additional") is ErrorCategory.MISSING_ADDITIONAL

    def test_bad_header(self, ledger):
        path = ledger("run,mistake\nx,y\n")
        with pytest.raises(ConfigError) as info:
            ingest_ledger(path)
        assert str(info.value) == f"{path}: bad header 'run,mistake', expected run_id,mistake_id,category,description"

    def test_row_errors_carry_row_number(self, ledger):
        path = ledger(self.HEADER + "run-001,m1,fatal,ok\nrun-002,,fatal,missing id\n")
        with pytest.raises(ConfigError) as info:
            ingest_ledger(path)
        assert str(info.value) == f"row 3: {path}: run_id and mistake_id must be non-empty"

    def test_empty_file(self, ledger):
        path = ledger("")
        with pytest.raises(ConfigError) as info:
            ingest_ledger(path)
        assert str(info.value) == f"{path}: empty file, expected header run_id,mistake_id,category,description"

    def test_wrong_field_count_names_its_row(self, ledger):
        path = ledger(self.HEADER + "run-001,m1,fatal\n")
        with pytest.raises(ConfigError) as info:
            ingest_ledger(path)
        assert str(info.value) == f"row 2: {path}: expected 4 fields"

    @pytest.mark.parametrize(
        "repeat, error", [("run-001,m1,bogus,y", DanglingReference), ("run-001,m1,fatal,", ConfigError)]
    )
    def test_repeated_rows_are_checked_too(self, ledger, repeat, error):
        path = ledger(self.HEADER + "run-001,m1,fatal,x\n" + repeat + "\n")
        with pytest.raises(error) as info:
            ingest_ledger(path)
        assert str(info.value).startswith(f"row 3: {path}: ")

    def test_file_round_trip(self, ledger):
        records = ingest_ledger(ledger(self.HEADER + "run-001,m1,content,desc\n"))
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

    def test_requirement_index_is_capped(self, tmp_path):
        assert RequirementScoreRecord("run-001", MAX_REQUIREMENT_INDEX, 1).requirement_index == 1000
        with pytest.raises(ValueError, match="^requirement_index must be at most 1000$"):
            RequirementScoreRecord("run-001", MAX_REQUIREMENT_INDEX + 1, 1)
        path = tmp_path / "scores.csv"
        path.write_text("run_id,requirement_index,value\nrun-001,1001,1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r"^row 2: .*: requirement_index must be at most 1000$"):
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
        with pytest.raises(ConfigError, match=r"^row 2: .*: '-1' is not a whole number \(ASCII digits only\)$"):
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

    def test_duplicate_run_id_rejected(self):
        with pytest.raises(ValueError, match=r"^duplicate run_id among outcomes$"):
            aggregate([completed("run-001"), failed("run-001")], [], [], "x")

    # Keeping either row would make the means depend on record order.
    @pytest.mark.parametrize("values", [(0, 1), (1, 0), (1, 1)], ids=["0-then-1", "1-then-0", "1-then-1"])
    def test_duplicate_score_rejected(self, values):
        scores = [RequirementScoreRecord("run-1", 1, v) for v in values]
        with pytest.raises(ValueError, match=r"^duplicate \(run_id, requirement_index\) among scores$"):
            aggregate([completed("run-1")], [], scores, "x")

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
        metrics = aggregate(outcomes, errors, [], "x")
        assert metrics.runs_failed == 1
        assert metrics.mean_errors == 0.0
        at_threshold = aggregate(outcomes, errors[:7], [], "x")
        assert at_threshold.runs_failed == 0 and at_threshold.mean_errors == 3.5

    def test_a_repeated_mistake_counts_once_toward_the_threshold(self):
        outcomes = [completed("run-001")]
        errors = [error("run-001", f"m{i}") for i in range(7)] + [error("run-001", "m0", ErrorCategory.RUNTIME)]
        metrics = aggregate(outcomes, errors, [], "x")
        assert metrics.runs_failed == 0 and metrics.mean_errors == 7.0

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
        with pytest.raises(DanglingReference, match="^error record cites unknown run_id 'run-999'$"):
            aggregate(outcomes, [error("run-999", "m")], [], "x")
        with pytest.raises(DanglingReference, match="^score record cites unknown run_id 'run-999'$"):
            aggregate(outcomes, [], [RequirementScoreRecord("run-999", 1, 1)], "x")
        with pytest.raises(DanglingReference, match="^replaced-functions row cites unknown run_id 'run-999'$"):
            aggregate(outcomes, [], [], "x", replaced_functions={"run-999": 1})

    def test_the_first_dangling_reference_is_named_errors_then_scores_then_replaced_functions(self):
        outcomes = [completed("run-001")]
        errors = [error("run-001", "m"), error("run-008", "m")]
        scores = [RequirementScoreRecord("run-007", 1, 1)]
        replaced = {"run-006": 1}
        with pytest.raises(DanglingReference, match="^error record cites unknown run_id 'run-008'$"):
            aggregate(outcomes, errors, scores, "x", replaced_functions=replaced)
        with pytest.raises(DanglingReference, match="^score record cites unknown run_id 'run-007'$"):
            aggregate(outcomes, errors[:1], scores, "x", replaced_functions=replaced)

    # Each mean that can leave a float's range: a huge loc, two durations
    # summing past the largest float, and a huge replaced-function count.
    @pytest.mark.parametrize(
        "outcomes, replaced, figure",
        [
            ([completed("run-001", loc=10**400)], None, "mean_loc"),
            ([completed("run-001", duration=1e308), completed("run-002", duration=1e308)], None,
             "mean_duration_seconds"),
            ([completed("run-001")], {"run-001": 10**400}, "mean_replaced_functions"),
        ],
    )
    def test_an_overflowing_mean_raises_value_error_naming_it(self, outcomes, replaced, figure):
        with pytest.raises(ValueError, match=f"^{figure} overflows a float: "):
            aggregate(outcomes, [], [], "x", replaced_functions=replaced)

    def test_a_large_finite_mean_is_kept(self):
        metrics = aggregate([completed("run-001", duration=1e308), completed("run-002", duration=0.0)], [], [], "x")
        assert metrics.mean_duration_seconds == 5e307

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
            *case_files(case, config.mode),
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
        outcomes = run_bench(*case_files(case, config.mode), config, 10, out_dir=tmp_path, backend_factory=factory)
        statuses = [o.status for o in outcomes]
        assert statuses.count(RunStatus.COMPLETED) == 9
        assert statuses.count(RunStatus.FAILED_GENERATION) == 1
        assert outcomes[3].status is RunStatus.FAILED_GENERATION
        assert outcomes[3].failure == "FailedGeneration: baseline reply for task 1 contained no code"
        assert [o.failure for i, o in enumerate(outcomes) if i != 3] == [None] * 9
        assert not (tmp_path / "run-004.updated.php").exists()

    def test_lone_surrogate_in_a_backend_error_is_recorded_escaped(self, fixtures_dir, tmp_path):
        class Boom:
            def complete(self, request):
                raise RuntimeError("boom \ud800")

        config = PipelineConfig(PipelineMode.BASELINE_ZSL, Boom())
        outcomes = run_bench(*case_files(fixtures_dir / "case_view_zsl", config.mode), config, 2, out_dir=tmp_path)
        assert [o.status for o in outcomes] == [RunStatus.FAILED_GENERATION] * 2
        for run in ("run-001", "run-002"):
            *exchanges, summary = run_records(tmp_path / f"{run}.jsonl")
            assert (summary["record"], summary["failure"]) == ("summary", "RuntimeError: boom \\ud800")
            assert [e["error"] for e in exchanges] == ["RuntimeError: boom \\ud800"]

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_a_scripted_backend_replays_in_every_repetition(self, fixtures_dir, tmp_path, parallelism):
        case = fixtures_dir / "case_view"
        backend = load_script(case / "script.json")
        config = PipelineConfig(mode=PipelineMode.SYSTEM_MANAGER, backend=backend)
        outcomes = run_bench(*case_files(case, config.mode), config, 3, out_dir=tmp_path, parallelism=parallelism)
        assert [o.status for o in outcomes] == [RunStatus.COMPLETED] * 3
        for outcome in outcomes:
            *exchanges, _summary = run_records(tmp_path / f"{outcome.run_id}.jsonl")
            assert [e["response"] for e in exchanges] == list(backend.replies)

    def test_outcomes_hold_no_code_the_updated_files_hold_it(self, fixtures_dir, tmp_path):
        code = "<?php echo $this->Html->link('x'); ?>"
        config = PipelineConfig(mode=PipelineMode.BASELINE_ZSL, backend=seq(f"```php\n{code}\n```"))
        outcomes = run_bench(*case_files(fixtures_dir / "case_view_zsl", config.mode), config, 3, out_dir=tmp_path)
        assert [(o.status, o.loc, o.final_code) for o in outcomes] == [(RunStatus.COMPLETED, 1, None)] * 3
        for i in (1, 2, 3):
            assert (tmp_path / f"run-00{i}.updated.php").read_text(encoding="utf-8") == code + "\n"

    def test_any_file_pair_is_a_case(self, fixtures_dir, tmp_path):
        # A run's inputs need not be named original.<ext> and requirements.txt.
        case = fixtures_dir / "case_view"
        (tmp_path / "view.ctp").write_bytes((case / "original.php").read_bytes())
        (tmp_path / "spec.md").write_bytes((case / "requirements.txt").read_bytes())
        config = PipelineConfig(mode=PipelineMode.SYSTEM_MANAGER, backend=load_script(case / "script.json"))
        (outcome,) = run_bench(tmp_path / "view.ctp", tmp_path / "spec.md", config, 1, out_dir=tmp_path / "pair")
        assert outcome.status is RunStatus.COMPLETED
        assert sorted(p.name for p in (tmp_path / "pair").iterdir()) == ["run-001.jsonl", "run-001.updated.ctp"]
        run_bench(*case_files(case, config.mode), config, 1, out_dir=tmp_path / "case")
        updated = (tmp_path / "pair/run-001.updated.ctp").read_bytes()
        assert updated == (tmp_path / "case/run-001.updated.php").read_bytes()

    def test_zero_repetitions_rejected(self, fixtures_dir, tmp_path):
        case = fixtures_dir / "case_view"
        config = PipelineConfig(
            mode=PipelineMode.SYSTEM_MANAGER, backend=load_script(case / "script.json")
        )
        with pytest.raises(ValueError):
            run_bench(*case_files(case, config.mode), config, 0, out_dir=tmp_path)

    def test_zero_parallelism_rejected(self, fixtures_dir, tmp_path):
        case = fixtures_dir / "case_view"
        config = PipelineConfig(mode=PipelineMode.SYSTEM_MANAGER, backend=load_script(case / "script.json"))
        with pytest.raises(ValueError, match=r"^parallelism must be >= 1$"):
            run_bench(*case_files(case, config.mode), config, 2, out_dir=tmp_path, parallelism=0)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "setting, value", [("repetitions", 2.5), ("repetitions", True), ("parallelism", 1.5), ("parallelism", True)]
    )
    def test_a_count_of_the_wrong_type_is_rejected_before_any_file_is_touched(
        self, fixtures_dir, tmp_path, setting, value
    ):
        case = fixtures_dir / "case_view"
        config = PipelineConfig(mode=PipelineMode.SYSTEM_MANAGER, backend=load_script(case / "script.json"))
        run_bench(*case_files(case, config.mode), config, 3, out_dir=tmp_path)
        earlier = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert {"run-003.jsonl", "run-003.updated.php"} <= set(earlier)
        counts = {"repetitions": 2, "parallelism": 1, setting: value}
        with pytest.raises(ValueError, match=f"^{setting} must be of type int, got {value!r}$"):
            run_bench(
                *case_files(case, config.mode), config, counts["repetitions"], out_dir=tmp_path,
                parallelism=counts["parallelism"],
            )
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == earlier

    def test_parallel_runs_stay_ordered(self, fixtures_dir, tmp_path):
        case = fixtures_dir / "case_view_zsl"
        config = PipelineConfig(
            mode=PipelineMode.BASELINE_ZSL, backend=load_script(case / "script.json")
        )
        outcomes = run_bench(
            *case_files(case, config.mode),
            config,
            6,
            out_dir=tmp_path,
            parallelism=3,
        )
        assert [o.run_id for o in outcomes] == [f"run-{i:03d}" for i in range(1, 7)]

    def test_missing_case_inputs(self, tmp_path):
        config = PipelineConfig(mode=PipelineMode.SYSTEM_MANAGER, backend=None)
        with pytest.raises(ConfigError):
            run_bench(*case_files(tmp_path, config.mode), config, 1, out_dir=tmp_path / "out")

    def test_missing_case_directory_is_named_as_such(self, tmp_path):
        config = PipelineConfig(mode=PipelineMode.SYSTEM_MANAGER, backend=None)
        case = tmp_path / "no_case"
        with pytest.raises(ConfigError) as raised:
            run_bench(*case_files(case, config.mode), config, 1, out_dir=tmp_path / "out")
        assert str(raised.value) == f"case directory not found: {case}"
        assert not (tmp_path / "out").exists()


class TestBenchIndex:
    def test_round_trip(self, tmp_path):
        rows = [completed("run-001", loc=24, duration=1.25), failed("run-002", duration=0.5)]
        path = tmp_path / "index.csv"
        write_bench_index(rows, path)
        back = read_bench_index(path)
        assert back[0].run_id == "run-001" and back[0].loc == 24
        assert back[1].status is RunStatus.FAILED_GENERATION and back[1].loc is None

    def test_a_run_file_with_no_row_is_refused(self, tmp_path):
        path = tmp_path / "index.csv"
        write_bench_index([completed("run-001")], path)
        # Neither an updated file nor a name that RUN_FILE does not match is a run of the index.
        for name in ("run-001.jsonl", "run-002.updated.php", "run-٠٠٣.jsonl", "notes.jsonl"):
            (tmp_path / name).write_text("", encoding="utf-8")
        assert [r.run_id for r in read_bench_index(path)] == ["run-001"]
        for name in ("run-1000.jsonl", "run-004.jsonl"):
            (tmp_path / name).write_text("", encoding="utf-8")
        with pytest.raises(ConfigError) as raised:
            read_bench_index(path)
        assert str(raised.value) == f"{path}: no row for the run file run-004.jsonl"

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
            ("run-001,completed,1.0,-3", "'-3' is not a whole number (ASCII digits only)"),
            ("run-001,failed_generation,nan,7", "duration nan is not a finite non-negative number"),
            ("run-001,completed,1.0,٣", "'٣' is not a whole number (ASCII digits only)"),
            ("run-001,completed,1_0.5,3", "'1_0.5' is not a number (ASCII, no _)"),
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

    def test_a_negative_loc_is_refused_by_the_record(self):
        with pytest.raises(ValueError, match="^negative loc -3$"):
            RunRecord("run-001", RunStatus.COMPLETED, 1.0, -3)


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

    @pytest.mark.parametrize(
        "label, message",
        [
            ("bad \ud800", "method_label is not valid UTF-8"),
            ("", "method_label must hold a non-whitespace character"),
            (" \t", "method_label must hold a non-whitespace character"),
            (None, "method_label must be of type str, got None"),
        ],
    )
    def test_a_bad_label_is_refused_before_any_report_file_exists(self, tmp_path, label, message):
        with pytest.raises(ValueError) as raised:
            emit_report([aggregate([completed("run-1")], [], [], label)], tmp_path / "report.csv")
        assert str(raised.value) == message
        assert list(tmp_path.iterdir()) == []

    # The sidecar is keyed by label: a second "A" would overwrite the first's counts.
    def test_a_repeated_label_is_refused_before_any_report_file_exists(self, tmp_path):
        metrics = [self.make_metrics("A"), self.make_metrics("B"), aggregate([completed("run-1")], [], [], "A")]
        with pytest.raises(ValueError, match="^emit_report: method label 'A' repeats$"):
            emit_report(metrics, tmp_path / "report.csv")
        assert list(tmp_path.iterdir()) == []
