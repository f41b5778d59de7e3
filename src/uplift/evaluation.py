"""Evaluation harness: repeated-run bench driver, human error-ledger
ingestion with same-mistake dedup, requirement 0/1 scoring, and the
aggregate statistics behind the report tables.

Error classification itself stays human. The harness ingests a ledger keyed
by mistake_id (the explicit "same mistake" assertion) rather than judging
code.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Callable, Collection, Hashable, Iterable, Mapping, Sequence, TextIO, TypeVar

from .backend import Backend, ScriptedBackend, utf8_encodable
from .errors import ConfigError, DanglingReference
from .model import artifact_from_file, load_requirements, number, read_text
from .pipeline import (
    BASELINE_MODES, PipelineConfig, PipelineMode, RunOutcome, RunRecord, RunStatus, at_least, check_type,
    run_pipeline,
)
from .transcript import Transcript, write_transcript

LEDGER_HEADER = ["run_id", "mistake_id", "category", "description"]
SCORES_HEADER = ["run_id", "requirement_index", "value"]
RF_HEADER = ["run_id", "replaced_functions"]
INDEX_HEADER = ["run_id", "status", "duration_seconds", "loc"]
# A case output directory's record, which a bench or run deletes before its first run: the index, the report
# and its sidecar (P's stem + SIDECAR_SUFFIX beside a report at P), and each run's run-NNN.jsonl and .updated<ext>.
INDEX_FILE, REPORT_FILE, SIDECAR_SUFFIX = "index.csv", "report.csv", ".categories.json"
RUN_FILE = re.compile(r"run-(?:[0-9]{3}|[1-9][0-9]{3,})\.(?:jsonl|updated(?:\.[^.]+)?)")

T = TypeVar("T")

# A run with more distinct mistakes than this counts as failed.
FAILED_ERROR_THRESHOLD = 7
# The highest requirement index a score may cite: a report has one column per
# index up to the highest, so one row must not ask for millions.
MAX_REQUIREMENT_INDEX = 1000
check_repetitions = at_least(1)
check_parallelism = at_least(1)


def check_label(name: str, value: str) -> None:
    """The rule of a report's method label: raise ValueError naming it unless
    it is UTF-8 text with a non-whitespace character."""
    check_type(name, value, str)
    if not utf8_encodable(value):
        raise ValueError(f"{name} is not valid UTF-8")
    if not value.strip():
        raise ValueError(f"{name} must hold a non-whitespace character")


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
        raise DanglingReference(
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
        if self.requirement_index > MAX_REQUIREMENT_INDEX:
            raise ValueError(f"requirement_index must be at most {MAX_REQUIREMENT_INDEX}")
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

    def __post_init__(self):
        check_label("method_label", self.method_label)


def population_sd(values: Sequence[float]) -> float:
    """Standard deviation with divisor N, matching the published aggregates.

    Values are sorted before reduction so the result is exactly invariant
    under permutation of the input. An empty list raises
    statistics.StatisticsError, a ValueError.
    """
    import statistics  # here, so that only report loads it
    return statistics.pstdev(sorted(values))


def _mean(values: Sequence[float], figure: str = "mean") -> float:
    """statistics.fmean's sum and divide, of the sorted values; 0.0 for none.
    A sum beyond a float raises ValueError naming the figure."""
    if not values:
        return 0.0
    try:
        return math.fsum(sorted(values)) / len(values)
    except OverflowError as exc:
        raise ValueError(f"{figure} overflows a float: {exc}") from None


def _read_csv(
    stream: TextIO,
    header: list[str],
    source: str,
    record: Callable[..., T],
    columns: Sequence[Callable[[str], object]],
    key: Callable[[T], Hashable] | None = None,
    runs: Collection[str] | None = None,
) -> list[T]:
    """record(*cells) of each non-blank row, in order, each cell read by its
    column's rule from its stripped text. A bad header is a ConfigError
    naming the source. A row with the wrong number of fields, a ValueError
    from a rule or from record, or a key(record) that repeats an earlier
    row's is a ConfigError starting "row N: <source>: ". So is a row csv
    cannot read, such as one over the field limit (process-wide, so left as
    it is). A DanglingReference from a rule, or of a row whose run_id, its
    first cell, is not in runs when runs is given, gets the same start."""
    reader = csv.reader(stream)
    row_number = 0  # of the last row read
    records: list[T] = []
    first_rows: dict[Hashable, int] = {}
    try:
        found = next(reader, None)
        if found is None:
            raise ConfigError(f"{source}: empty file, expected header {','.join(header)}")
        if [h.strip() for h in found] != header:
            raise ConfigError(f"{source}: bad header {','.join(found)!r}, expected {','.join(header)}")
        row_number = 1
        for row_number, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            where = f"row {row_number}: {source}"
            if len(row) != len(header):
                raise ConfigError(f"{where}: expected {len(header)} fields")
            try:
                made = record(*(rule(cell.strip()) for rule, cell in zip(columns, row)))
            except ValueError as exc:
                raise ConfigError(f"{where}: {exc}") from None
            except DanglingReference as exc:
                raise DanglingReference(f"{where}: {exc}") from None
            if runs is not None and row[0].strip() not in runs:
                raise DanglingReference(f"{where}: cites unknown run_id {row[0].strip()!r}")
            first = first_rows.setdefault(key(made), row_number) if key else row_number
            if first != row_number:
                raise ConfigError(f"{where}: repeats row {first}'s key {key(made)!r}")
            records.append(made)
    except csv.Error as exc:
        raise ConfigError(f"row {row_number + 1}: {source}: {exc}") from None
    return records


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
    records = _read_csv(stream, LEDGER_HEADER, source, ErrorRecord, (str, str, parse_category, str), runs=runs)
    return _first_per_mistake(records)


def _csv_stream(path: str | Path) -> TextIO:
    """The user's CSV file at path as model.read_text reads it, for csv.reader."""
    return io.StringIO(read_text(path))


# Each ingest_* checks every row's run_id against runs, when given: the
# run_ids of the bench index a report reads.
def ingest_ledger(path: str | Path, runs: Collection[str] | None = None) -> list[ErrorRecord]:
    return read_ledger(_csv_stream(path), str(path), runs)


def ingest_scores(path: str | Path, runs: Collection[str] | None = None) -> list[RequirementScoreRecord]:
    return _read_csv(
        _csv_stream(path), SCORES_HEADER, str(path), RequirementScoreRecord, (str, number, number),
        key=lambda r: (r.run_id, r.requirement_index), runs=runs,
    )


def ingest_replaced_functions(path: str | Path, runs: Collection[str] | None = None) -> dict[str, int]:
    rows = _read_csv(
        _csv_stream(path), RF_HEADER, str(path), lambda *cells: cells, (str, number), key=lambda r: r[0], runs=runs
    )
    return dict(rows)


def aggregate(
    outcomes: Sequence[RunRecord],
    errors: Sequence[ErrorRecord],
    scores: Sequence[RequirementScoreRecord],
    label: str,
    *,
    replaced_functions: Mapping[str, int] | None = None,
) -> AggregateMetrics:
    """Cross-run aggregation for one method label.

    A run counts as failed when its status says so or when it carries more
    than FAILED_ERROR_THRESHOLD distinct mistakes. Failed runs are excluded
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
    score_map = {(s.run_id, s.requirement_index): s.value for s in scores}
    if len(score_map) != len(scores):
        raise ValueError("duplicate (run_id, requirement_index) among scores")
    cited = [
        *(("error record", err.run_id) for err in errors),
        *(("score record", score.run_id) for score in scores),
        *(("replaced-functions row", run_id) for run_id in replaced_functions or {}),
    ]
    for kind, run_id in cited:
        if run_id not in known:
            raise DanglingReference(f"{kind} cites unknown run_id {run_id!r}")

    errors = _first_per_mistake(errors)  # one mistake counts once, as in read_ledger
    mistakes = Counter(err.run_id for err in errors)
    completed = [
        r for r in records
        if r.status is not RunStatus.FAILED_GENERATION and mistakes[r.run_id] <= FAILED_ERROR_THRESHOLD
    ]
    error_counts = [mistakes[r.run_id] for r in completed]

    # Each completed run's 0/1 score of every requirement index; a failed run scores 0 on each.
    indices = range(1, max((s.requirement_index for s in scores), default=0) + 1)
    passed = [[score_map.get((r.run_id, i), 0) for i in indices] for r in completed]
    failed = [[0] * len(indices)] * (len(records) - len(completed))
    requirement_means = tuple(map(_mean, zip(*passed, *failed))) if scores else None

    categories = Counter(err.category for err in errors)

    mean_rf: float | None = None
    if replaced_functions is not None:
        mean_rf = _mean([replaced_functions.get(r.run_id, 0) for r in completed], "mean_replaced_functions")

    return AggregateMetrics(
        method_label=label,
        mean_errors=_mean(error_counts),
        sd_errors=population_sd(error_counts) if error_counts else 0.0,
        mean_loc=_mean([r.loc for r in completed], "mean_loc"),
        mean_duration_seconds=_mean([r.duration_seconds for r in completed], "mean_duration_seconds"),
        runs_total=len(records),
        runs_failed=len(records) - len(completed),
        fully_correct_runs=sum(1 for r, row in zip(completed, passed) if not mistakes[r.run_id] and all(row)),
        category_counts={category: categories[category] for category in ErrorCategory},
        requirement_means=requirement_means,
        requirement_total=None if requirement_means is None else sum(requirement_means),
        mean_replaced_functions=mean_rf,
    )


def case_files(case_dir: str | Path, mode: PipelineMode) -> tuple[Path, Path]:
    """A case directory's original.<ext> and the spec file that mode reads:
    prompt.txt in a baseline mode, else requirements.txt."""
    case_dir = Path(case_dir)
    if not case_dir.is_dir():
        raise ConfigError(f"case directory not found: {case_dir}")
    candidates = sorted(p for p in case_dir.glob("original.*") if p.is_file())
    if len(candidates) != 1:
        raise ConfigError(f"{case_dir}: expected exactly one original.<ext> file, found {len(candidates)}")
    spec_path = case_dir / ("prompt.txt" if mode in BASELINE_MODES else "requirements.txt")
    if not spec_path.is_file():
        raise ConfigError(f"{case_dir}: {mode.value} mode needs a {spec_path.name}")
    return candidates[0], spec_path


def in_record(name: str) -> bool:
    """Whether a file of this name in a case output directory is part of its record."""
    sidecar = Path(REPORT_FILE).stem + SIDECAR_SUFFIX
    return name in (INDEX_FILE, REPORT_FILE, sidecar) or bool(RUN_FILE.fullmatch(name))


def run_bench(
    original: str | Path,
    spec_path: str | Path,
    config: PipelineConfig,
    repetitions: int,
    *,
    out_dir: str | Path,
    backend_factory: Callable[[int], Backend] | None = None,
    parallelism: int = 1,
) -> list[RunOutcome]:
    """Update the file `original` `repetitions` times, to the spec in
    spec_path: its prompt text in a baseline mode, else its requirements. A
    blank prompt is rejected before any output exists. First the record an
    earlier bench or run left in out_dir goes: every file in_record accepts.
    Then run i writes run-NNN.jsonl (NNN is i, three digits at least) to
    out_dir and, when it completed, run-NNN.updated<original's suffix>. The
    outcomes carry no final_code: the updated file holds it.

    backend_factory(i) supplies the backend of 1-based repetition i. Without
    it, each repetition replays a ScriptedBackend's replies from the start,
    and any other backend is shared. Whatever fails inside a
    run ends it as a failed outcome, with the reason in its summary; only a
    failure to write a run's files (or an interrupt) aborts the batch.
    """
    check_repetitions("repetitions", repetitions)
    check_parallelism("parallelism", parallelism)
    original = Path(original)
    code = artifact_from_file(original)
    if config.mode in BASELINE_MODES:
        spec = read_text(spec_path)
        if not spec.strip():
            raise ConfigError(f"{spec_path}: baseline prompt text must be non-empty")
    else:
        spec = load_requirements(spec_path)
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    for path in out_path.iterdir():
        if in_record(path.name):
            path.unlink()

    def one_run(i: int) -> RunOutcome:
        backend = config.backend
        if backend_factory is not None:
            backend = backend_factory(i)
        elif isinstance(backend, ScriptedBackend):
            backend = ScriptedBackend(backend.replies)
        run_id = f"run-{i:03d}"
        transcript = Transcript(run_id)
        outcome = run_pipeline(code, spec, replace(config, backend=backend), transcript=transcript)
        write_transcript(outcome, transcript.entries, out_path / f"{run_id}.jsonl")
        if outcome.final_code is not None:
            (out_path / f"{run_id}.updated{original.suffix}").write_text(
                outcome.final_code.content + "\n", encoding="utf-8"
            )
        return replace(outcome, final_code=None)

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
        writer.writerows([r.run_id, r.status.value, f"{r.duration_seconds:.3f}", _fmt(r.loc)] for r in outcomes)


def read_bench_index(path: str | Path) -> list[RunRecord]:
    columns = (str, RunStatus, lambda cell: number(cell, float), lambda cell: number(cell) if cell else None)
    return _read_csv(_csv_stream(path), INDEX_HEADER, str(path), RunRecord, columns, key=lambda r: r.run_id)


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


def emit_report(metrics: Sequence[AggregateMetrics], path: str | Path) -> list[dict[str, str]]:
    """Write the report CSV to path, one report_rows row per aggregate, plus
    the category-count JSON sidecar beside it, and return the rows.

    Deterministic: identical metrics re-emit byte-identical files.
    """
    if not metrics:
        raise ValueError("emit_report needs at least one aggregate")
    labels = [m.method_label for m in metrics]
    for i, label in enumerate(labels):
        if label in labels[:i]:  # the sidecar holds one entry per label
            raise ValueError(f"emit_report: method label {label!r} repeats")
    path = Path(path)
    rows = report_rows(metrics)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    sidecar = path.with_name(path.stem + SIDECAR_SUFFIX)
    payload = {
        m.method_label: {category.value: m.category_counts.get(category, 0) for category in ErrorCategory}
        for m in metrics
    }
    sidecar.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return rows
