"""Evaluation harness: repeated-run bench driver, human error-ledger
ingestion with same-mistake dedup, requirement 0/1 scoring, and the
aggregate statistics behind the report tables.

Error classification itself stays human. The harness ingests a ledger keyed
by mistake_id (the explicit "same mistake" assertion) rather than judging
code.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Callable, Collection, Hashable, Iterable, Iterator, Mapping, Sequence, TextIO, TypeVar

from .backend import Backend, ScriptedBackend
from .errors import ConfigError, DanglingReference, UnknownCategory
from .model import CodeArtifact, RequirementSet, artifact_from_file, load_requirements
from .pipeline import (
    BASELINE_MODES,
    PipelineConfig,
    PipelineMode,
    RunOutcome,
    RunRecord,
    RunStatus,
    run_pipeline,
)
from .transcript import Transcript, write_transcript

LEDGER_HEADER = ["run_id", "mistake_id", "category", "description"]
SCORES_HEADER = ["run_id", "requirement_index", "value"]
RF_HEADER = ["run_id", "replaced_functions"]
INDEX_HEADER = ["run_id", "status", "duration_seconds", "loc"]
# The files run_bench writes per run: run-NNN.jsonl and run-NNN.updated.<ext>.
RUN_FILE = re.compile(r"run-(\d{3}|[1-9]\d{3,})\.(?:jsonl|updated\.[^.]+)")

T = TypeVar("T")

# A run with more distinct mistakes than this counts as failed.
FAILED_ERROR_THRESHOLD = 7


class ErrorCategory(str, Enum):
    """The four classifiable error kinds; a failed generation is a run
    status, not an error record."""

    FATAL = "fatal"
    RUNTIME = "runtime"
    CONTENT = "content"
    MISSING_ADDITIONAL = "missing_additional"


def parse_category(value: str) -> ErrorCategory:
    normalized = value.strip().lower().replace("/", "_").replace("-", "_").replace(" ", "_")
    try:
        return ErrorCategory(normalized)
    except ValueError:
        raise UnknownCategory(
            f"unknown error category {value!r}; expected one of "
            + ", ".join(c.value for c in ErrorCategory)
        ) from None


@dataclass(frozen=True)
class ErrorRecord:
    run_id: str
    mistake_id: str
    category: ErrorCategory
    description: str

    def __post_init__(self):
        if not self.run_id or not self.mistake_id:
            raise ValueError("run_id and mistake_id must be non-empty")
        if not self.description.strip():
            raise ValueError("description must be non-empty")


@dataclass(frozen=True)
class RequirementScoreRecord:
    run_id: str
    requirement_index: int
    value: int

    def __post_init__(self):
        if self.requirement_index < 1:
            raise ValueError("requirement_index must be positive")
        if self.value not in (0, 1):
            raise ValueError("value must be 0 or 1")


@dataclass(frozen=True)
class AggregateMetrics:
    method_label: str
    mean_errors: float
    sd_errors: float
    mean_loc: float
    mean_duration_seconds: float
    runs_total: int
    runs_failed: int
    fully_correct_runs: int
    category_counts: Mapping[ErrorCategory, int]
    requirement_means: tuple[float, ...] | None = None
    # Sum of requirement_means: the mean number of requirements passed per
    # run, over all runs, with a failed run counting 0.
    requirement_total: float | None = None
    mean_replaced_functions: float | None = None


def population_sd(values: Sequence[float]) -> float:
    """Standard deviation with divisor N, matching the published aggregates.

    Values are sorted before reduction so the result is exactly invariant
    under permutation of the input. An empty list raises
    statistics.StatisticsError, a ValueError.
    """
    import statistics  # here, so that only report loads it
    return statistics.pstdev(sorted(values))


def _mean(values: Sequence[float]) -> float:
    if not values:
        return 0.0
    return math.fsum(sorted(values)) / len(values)  # statistics.fmean's sum and divide


def _numbered_rows(stream: TextIO, source: str) -> Iterator[tuple[int, list[str]]]:
    """(N, cells) of each CSV row, from N = 1, for _read_csv."""
    row_number = 0
    try:
        for row_number, row in enumerate(csv.reader(stream), start=1):
            yield row_number, row
    except csv.Error as exc:
        raise ConfigError(f"row {row_number + 1}: {source}: {exc}") from None


def _read_csv(
    stream: TextIO,
    expected_header: list[str],
    source: str,
    parse: Callable[..., T],
    key: Callable[[T], Hashable] | None = None,
    runs: Collection[str] | None = None,
) -> list[T]:
    """parse(*stripped cells) of each non-blank row, in order. A bad header
    is a ConfigError naming the source. A row with the wrong number of
    fields, a ValueError from parse, or a key(record) that repeats an
    earlier row's is a ConfigError starting "row N: <source>: "; an
    UnknownCategory from parse gets the same start, and so does the
    DanglingReference of a row whose run_id, its first cell, is not in
    runs, when runs is given, and the ConfigError of a row csv cannot read,
    such as one over the field limit (process-wide, so left as it is)."""
    rows = _numbered_rows(stream, source)
    _, header = next(rows, (1, None))
    if header is None:
        raise ConfigError(f"{source}: empty file, expected header {','.join(expected_header)}")
    if header:  # spreadsheet "CSV UTF-8" exports start with a byte-order mark
        header[0] = header[0].removeprefix("\ufeff")
    if [h.strip() for h in header] != expected_header:
        raise ConfigError(
            f"{source}: bad header {','.join(header)!r}, expected {','.join(expected_header)}"
        )
    records: list[T] = []
    first_rows: dict[Hashable, int] = {}
    for row_number, row in rows:
        if not row or all(not cell.strip() for cell in row):
            continue
        where = f"row {row_number}: {source}"
        if len(row) != len(expected_header):
            raise ConfigError(f"{where}: expected {len(expected_header)} fields")
        try:
            record = parse(*(cell.strip() for cell in row))
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
        except UnknownCategory as exc:
            raise UnknownCategory(f"{where}: {exc}") from None
        if runs is not None and row[0].strip() not in runs:
            raise DanglingReference(f"{where}: cites unknown run_id {row[0].strip()!r}")
        first = first_rows.setdefault(key(record), row_number) if key else row_number
        if first != row_number:
            raise ConfigError(f"{where}: repeats row {first}'s key {key(record)!r}")
        records.append(record)
    return records


def _ledger_row(run_id: str, mistake_id: str, category: str, description: str) -> ErrorRecord:
    return ErrorRecord(run_id, mistake_id, parse_category(category), description)


def _first_per_mistake(records: Iterable[ErrorRecord]) -> list[ErrorRecord]:
    """The records, less each one that repeats an earlier (run_id, mistake_id)."""
    first: dict[tuple[str, str], ErrorRecord] = {}
    for record in records:
        first.setdefault((record.run_id, record.mistake_id), record)
    return list(first.values())


def read_ledger(
    stream: TextIO, source: str = "ledger", runs: Collection[str] | None = None
) -> list[ErrorRecord]:
    """Parse error records from CSV text. Every row is checked, against runs
    too when given, and rows that repeat a (run_id, mistake_id) collapse to
    the first."""
    return _first_per_mistake(_read_csv(stream, LEDGER_HEADER, source, _ledger_row, runs=runs))


# Each ingest_* checks every row's run_id against runs, when given: the
# run_ids of the bench index a report reads.
def ingest_ledger(path: str | Path, runs: Collection[str] | None = None) -> list[ErrorRecord]:
    with open(path, encoding="utf-8", newline="") as fh:
        return read_ledger(fh, source=str(path), runs=runs)


def _score_row(run_id: str, index: str, value: str) -> RequirementScoreRecord:
    return RequirementScoreRecord(run_id=run_id, requirement_index=int(index), value=int(value))


def ingest_scores(path: str | Path, runs: Collection[str] | None = None) -> list[RequirementScoreRecord]:
    with open(path, encoding="utf-8", newline="") as fh:
        return _read_csv(
            fh, SCORES_HEADER, str(path), _score_row, key=lambda r: (r.run_id, r.requirement_index), runs=runs
        )


def _replaced_functions_row(run_id: str, count: str) -> tuple[str, int]:
    if int(count) < 0:
        raise ValueError(f"negative count {count}")
    return run_id, int(count)


def ingest_replaced_functions(path: str | Path, runs: Collection[str] | None = None) -> dict[str, int]:
    with open(path, encoding="utf-8", newline="") as fh:
        return dict(_read_csv(fh, RF_HEADER, str(path), _replaced_functions_row, key=lambda r: r[0], runs=runs))


def aggregate(
    outcomes: Sequence[RunRecord],
    errors: Sequence[ErrorRecord],
    scores: Sequence[RequirementScoreRecord],
    label: str,
    *,
    replaced_functions: Mapping[str, int] | None = None,
    failed_error_threshold: int = FAILED_ERROR_THRESHOLD,
) -> AggregateMetrics:
    """Cross-run aggregation for one method label.

    A run counts as failed when its status says so or when it carries more
    than failed_error_threshold distinct mistakes. Failed runs are excluded
    from the error/LOC/duration means but score 0 on every requirement and
    still count toward runs_total.

    Each requirement's mean is its 0/1 score averaged over all runs, for
    every index from 1 to the highest scored one; a missing row scores 0.
    requirement_total is the sum of those means, which equals the mean
    number of requirements passed per run, failed runs counting 0.
    """
    records = list(outcomes)
    known = {r.run_id for r in records}
    if len(known) != len(records):
        raise ValueError("duplicate run_id among outcomes")
    for collection, kind in ((errors, "error"), (scores, "score")):
        for item in collection:
            if item.run_id not in known:
                raise DanglingReference(f"{kind} record cites unknown run_id {item.run_id!r}")
    for run_id in replaced_functions or {}:
        if run_id not in known:
            raise DanglingReference(f"replaced-functions row cites unknown run_id {run_id!r}")

    errors = _first_per_mistake(errors)  # one mistake counts once, as in read_ledger
    distinct: dict[str, set[str]] = {}
    for err in errors:
        distinct.setdefault(err.run_id, set()).add(err.mistake_id)

    def is_failed(rec: RunRecord) -> bool:
        return (
            rec.status is RunStatus.FAILED_GENERATION
            or len(distinct.get(rec.run_id, ())) > failed_error_threshold
        )

    completed = [r for r in records if not is_failed(r)]
    completed_ids = {r.run_id for r in completed}
    error_counts = [len(distinct.get(r.run_id, ())) for r in completed]

    score_map = {(s.run_id, s.requirement_index): s.value for s in scores}
    indices = range(1, max((s.requirement_index for s in scores), default=0) + 1)
    requirement_means: tuple[float, ...] | None = None
    requirement_total: float | None = None
    if scores:
        means = []
        for index in indices:
            values = [
                score_map.get((r.run_id, index), 0) if r.run_id in completed_ids else 0
                for r in records
            ]
            means.append(_mean(values))
        requirement_means = tuple(means)
        requirement_total = sum(requirement_means)

    def fully_correct(rec: RunRecord) -> bool:
        if distinct.get(rec.run_id):
            return False
        return all(score_map.get((rec.run_id, i), 0) == 1 for i in indices)

    category_counts = {category: 0 for category in ErrorCategory}
    for err in errors:
        category_counts[err.category] += 1

    mean_rf: float | None = None
    if replaced_functions is not None:
        mean_rf = _mean([replaced_functions.get(r.run_id, 0) for r in completed])

    return AggregateMetrics(
        method_label=label,
        mean_errors=_mean(error_counts),
        sd_errors=population_sd(error_counts) if error_counts else 0.0,
        mean_loc=_mean([r.loc for r in completed]),
        mean_duration_seconds=_mean([r.duration_seconds for r in completed]),
        runs_total=len(records),
        runs_failed=len(records) - len(completed),
        fully_correct_runs=sum(1 for r in completed if fully_correct(r)),
        category_counts=category_counts,
        requirement_means=requirement_means,
        requirement_total=requirement_total,
        mean_replaced_functions=mean_rf,
    )


def _find_original(case_dir: Path) -> Path:
    candidates = sorted(p for p in case_dir.glob("original.*") if p.is_file())
    if len(candidates) != 1:
        raise ConfigError(f"{case_dir}: expected exactly one original.<ext> file, found {len(candidates)}")
    return candidates[0]


def load_spec(path: str | Path, mode: PipelineMode) -> RequirementSet | str:
    """A run's spec: the prompt text in a baseline mode, else the requirements.
    A blank prompt file is rejected here, before any output exists."""
    if mode in BASELINE_MODES:
        text = Path(path).read_text(encoding="utf-8")
        if not text.strip():
            raise ConfigError(f"{path}: baseline prompt text must be non-empty")
        return text
    return load_requirements(path)


def run_once(
    code: CodeArtifact,
    spec: RequirementSet | str,
    config: PipelineConfig,
    run_id: str,
    out_dir: Path,
    suffix: str,
) -> RunOutcome:
    """Execute one run and write its artifacts to out_dir: <run_id>.jsonl,
    plus <run_id>.updated<suffix> when the run completed. A failed run
    deletes the .updated file an earlier run of the same id left there."""
    transcript = Transcript(run_id)
    outcome = run_pipeline(code, spec, config, transcript=transcript)
    write_transcript(outcome, transcript.entries, out_dir / f"{run_id}.jsonl")
    updated = out_dir / f"{run_id}.updated{suffix}"
    if outcome.final_code is None:
        updated.unlink(missing_ok=True)
    else:
        updated.write_text(outcome.final_code.content + "\n", encoding="utf-8")
    return outcome


def run_bench(
    case_dir: str | Path,
    config: PipelineConfig,
    repetitions: int,
    *,
    out_dir: str | Path,
    backend_factory: Callable[[int], Backend] | None = None,
    parallelism: int = 1,
) -> list[RunOutcome]:
    """Repeat a case `repetitions` times, persisting one transcript and (for
    completed runs) one updated file per run. The run files of an earlier
    bench into out_dir beyond `repetitions` are deleted.

    backend_factory(i) supplies the backend of 1-based repetition i. Without
    it, each repetition replays a ScriptedBackend's replies from the start,
    and any other backend is shared. Whatever fails inside a
    run ends it as a failed outcome, with the reason in its summary; only a
    failure to write a run's files (or an interrupt) aborts the batch.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    case_dir = Path(case_dir)
    original_path = _find_original(case_dir)
    code = artifact_from_file(original_path)
    spec_path = case_dir / ("prompt.txt" if config.mode in BASELINE_MODES else "requirements.txt")
    if not spec_path.is_file():
        raise ConfigError(f"{case_dir}: {config.mode.value} mode needs a {spec_path.name}")
    spec = load_spec(spec_path, config.mode)
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    for path in out_path.iterdir():
        match = RUN_FILE.fullmatch(path.name)
        if match and int(match.group(1)) > repetitions:
            path.unlink()

    def one_run(i: int) -> RunOutcome:
        backend = config.backend
        if backend_factory is not None:
            backend = backend_factory(i)
        elif isinstance(backend, ScriptedBackend):
            backend = ScriptedBackend(backend.replies)
        run_config = replace(config, backend=backend)
        return run_once(code, spec, run_config, f"run-{i:03d}", out_path, original_path.suffix)

    indexes = range(1, repetitions + 1)
    if parallelism > 1:
        from concurrent.futures import ThreadPoolExecutor  # here, so that a serial bench never loads it
        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            return list(pool.map(one_run, indexes))
    return [one_run(i) for i in indexes]


def write_bench_index(outcomes: Sequence[RunRecord], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(INDEX_HEADER)
        for rec in outcomes:
            writer.writerow(
                [
                    rec.run_id,
                    rec.status.value,
                    f"{rec.duration_seconds:.3f}",
                    "" if rec.loc is None else rec.loc,
                ]
            )


def _index_row(run_id: str, status: str, duration: str, loc: str) -> RunRecord:
    return RunRecord(run_id, RunStatus(status), float(duration), int(loc) if loc else None)


def read_bench_index(path: str | Path) -> list[RunRecord]:
    with open(path, encoding="utf-8", newline="") as fh:
        return _read_csv(fh, INDEX_HEADER, str(path), _index_row, key=lambda r: r.run_id)


def _fmt(value: float | int | None) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return f"{value:.3f}"


def report_rows(metrics: Sequence[AggregateMetrics]) -> list[dict[str, str]]:
    """Each aggregate's report row: column name to cell, in column order. Every
    row has the widest aggregate's requirement columns, blank where it has none."""
    width = max((len(m.requirement_means or ()) for m in metrics), default=0)
    rows = []
    for m in metrics:
        means = list(m.requirement_means or ())
        means += [None] * (width - len(means))
        rows.append(
            {
                "method_label": m.method_label,
                "mean_errors": _fmt(m.mean_errors),
                "sd_errors": _fmt(m.sd_errors),
                "mean_loc": _fmt(m.mean_loc),
                "mean_duration_seconds": _fmt(m.mean_duration_seconds),
                "runs_total": _fmt(m.runs_total),
                "runs_failed": _fmt(m.runs_failed),
                "fully_correct_runs": _fmt(m.fully_correct_runs),
                **{f"requirement_mean_{i}": _fmt(v) for i, v in enumerate(means, start=1)},
                "requirement_total": _fmt(m.requirement_total),
                "mean_replaced_functions": _fmt(m.mean_replaced_functions),
            }
        )
    return rows


def emit_report(metrics: Sequence[AggregateMetrics], path: str | Path) -> None:
    """Write report.csv, one report_rows row per aggregate, plus the
    category-count JSON sidecar.

    Deterministic: identical metrics re-emit byte-identical files.
    """
    if not metrics:
        raise ValueError("emit_report needs at least one aggregate")
    path = Path(path)
    rows = report_rows(metrics)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    sidecar = path.with_name(path.stem + ".categories.json")
    payload = {
        m.method_label: {category.value: m.category_counts.get(category, 0) for category in ErrorCategory}
        for m in metrics
    }
    sidecar.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
