"""Deterministic input generator.

Everything the program under test sees is built here from the workload
seed: the legacy PHP file, the requirements, the scripted replies, the
per-run fault plans, the error ledger and the requirement scores. The
generator also computes, on its own and without the package, the report row
that ``uplift report`` must produce from the ledger it wrote.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path


def rng_for(seed: int, *parts: object) -> random.Random:
    """An independent stream per (seed, parts); string seeds hash with SHA-512,
    so the stream does not depend on the interpreter's hash randomisation."""
    return random.Random(":".join(map(str, (seed, *parts))))


# --- the legacy source file ---------------------------------------------------

# Names of one kind share a length, so file and transcript sizes do not
# depend on the seed; only the content does.
_MODELS = ("Author", "Review", "Ticket", "Member", "Survey", "Report", "Budget", "Course")
_FIELDS = ("title", "price", "email", "state", "notes", "label", "phone", "total")
_ACTIONS = ("view", "edit", "list", "send", "copy", "move")


def _php_block(rng: random.Random) -> list[str]:
    model = rng.choice(_MODELS)
    var = model.lower()
    first, second = rng.sample(_FIELDS, 2)
    action = rng.choice(_ACTIONS)
    return [
        f"<?php echo $html->link('{action.title()} {var}', array('action' => '{action}', ${var}['{model}']['id'])); ?>",
        f"<h2><?php echo ${var}['{model}']['{first}']; ?></h2>",
        f'<table class="{var}s">',
        f"<?php foreach (${var}s as ${var}): ?>",
        "  <tr>",
        f"    <td><?php echo ${var}['{model}']['{first}']; ?></td>",
        f"    <td><?php echo $time->niceShort(${var}['{model}']['{second}']); ?></td>",
        f"    <td><?php echo $form->input('{model}.{second}'); ?></td>",
        "  </tr>",
        "<?php endforeach; ?>",
        "</table>",
        "<?php echo $paginator->numbers(); ?>",
        "<?php echo $session->flash(); ?>",
    ]


def php_file(seed: int, lines: int) -> str:
    """A CakePHP 1.2 style view of exactly `lines` lines, no trailing newline."""
    rng = rng_for(seed, "php")
    out: list[str] = []
    while len(out) < lines:
        out.extend(_php_block(rng))
    return "\n".join(out[:lines])


# Each task rewrites one legacy helper. The executor's reply rewrites only the
# first half of the occurrences, so the verifier asks for a revision, and the
# finalizer's reply rewrites the rest.
_TASKS = (
    ("Replace the $html helper with $this->Html", "$html->", "$this->Html->"),
    ("Replace $time->niceShort with $this->Time->nice", "$time->niceShort(", "$this->Time->nice("),
    ("Replace the $form helper with $this->Form", "$form->", "$this->Form->"),
    ("Replace the $paginator helper with $this->Paginator", "$paginator->", "$this->Paginator->"),
    ("Replace $session->flash() with $this->Flash->render()", "$session->flash()", "$this->Flash->render()"),
)
MAX_TASKS = len(_TASKS)


@dataclass(frozen=True)
class Case:
    """One update case: inputs, the replies a model gives, in call order, and
    the code the run must end with."""

    code: str
    requirements: str
    replies: tuple[str, ...]
    final_code: str
    tasks: int

    @property
    def calls(self) -> int:
        return len(self.replies)

    def write(self, directory: Path) -> None:
        """Lay the case out as an `uplift bench` case directory plus its script."""
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "original.php").write_text(self.code + "\n", encoding="utf-8")
        (directory / "requirements.txt").write_text(self.requirements, encoding="utf-8")
        script = [{"match": "sequence", "response": r} for r in self.replies]
        (directory.parent / f"{directory.name}.script.json").write_text(json.dumps(script), encoding="utf-8")


def _fenced(code: str, prose: str = "") -> str:
    return f"{prose}```php\n{code}\n```"


def build_case(seed: int, lines: int, tasks: int, *, parse_fallbacks: bool = False) -> Case:
    """A system_manager case with one REVISE -> finalize loop per task.

    With parse_fallbacks, the replies also walk the agents' recovery paths:
    an unparseable plan confirmation, a prompt-maker re-ask, and a verifier
    that never gives a verdict (accepted by fallback) instead of the last
    task's REVISE loop.
    """
    if not 1 <= tasks <= MAX_TASKS:
        raise ValueError(f"tasks must be within 1..{MAX_TASKS}")
    code = php_file(seed, lines)
    chosen = _TASKS[:tasks]
    plan = "\n".join(f"TASK {i}: {desc}" for i, (desc, _, _) in enumerate(chosen, start=1))
    requirements = "".join(f"Requirement{i}: {desc}.\n" for i, (desc, _, _) in enumerate(chosen, start=1))
    replies = [plan, "The plan looks complete and in order." if parse_fallbacks else plan]
    current = code
    for ordinal, (desc, old, new) in enumerate(chosen, start=1):
        sections = f"INSTRUCTION: {desc}.\nEXAMPLE BEFORE: echo {old}x;\nEXAMPLE AFTER: echo {new}x;"
        if parse_fallbacks and ordinal == 1:
            replies.append(f"INSTRUCTION: {desc}.")
        replies.append(sections)
        partial = current.replace(old, new, max(1, current.count(old) // 2))
        replies.append(_fenced(partial, "Here is the updated file.\n\n"))
        if parse_fallbacks and ordinal == tasks:
            replies += ["Looks fine to me.", "I agree with the change."]
            current = partial
            continue
        replies.append(f"VERDICT: REVISE\nFEEDBACK: {partial.count(old)} uses of {old} remain")
        current = current.replace(old, new)
        replies.append(_fenced(current))
        replies.append("VERDICT: ACCEPT")
    return Case(code, requirements, tuple(replies), current, tasks)


# --- live_faults fault plans ------------------------------------------------------

# Every block of BLOCK_RUNS consecutive run indices holds exactly NULL_RUNS
# `content: null` replies and MALFORMED_RUNS malformed bodies, at seeded
# positions. The failed-run share is then the same for every seed, while
# which runs and which calls fail varies with it.
BLOCK_RUNS = 100
NULL_RUNS = 9
MALFORMED_RUNS = 3
TRANSIENT_STATUS = ((0.06, (429,)), (0.10, (503,)), (0.12, (429, 503)))


@dataclass(frozen=True)
class RunPlan:
    run_index: int
    fault: str | None  # None, "null" or "malformed"
    fault_call: int | None
    transients: dict[int, tuple[int, ...]] = field(default_factory=dict)

    def predicted_attempts(self, calls: int) -> tuple[int, int]:
        """(calls made, attempts made) if the backend behaves as specified."""
        made = calls if self.fault_call is None else self.fault_call + 1
        return made, made + sum(len(self.transients.get(c, ())) for c in range(made))


def plan_block(seed: int, block: int, calls: int) -> list[RunPlan]:
    order = list(range(BLOCK_RUNS))
    rng_for(seed, "block", block).shuffle(order)
    faults = {slot: "null" for slot in order[:NULL_RUNS]}
    faults.update({slot: "malformed" for slot in order[NULL_RUNS : NULL_RUNS + MALFORMED_RUNS]})
    plans = []
    for slot in range(BLOCK_RUNS):
        run_index = block * BLOCK_RUNS + slot
        rng = rng_for(seed, "run", run_index)
        fault = faults.get(slot)
        fault_call = rng.randrange(calls) if fault else None
        transients = {}
        for call in range(calls):
            draw = rng.random()
            if call == fault_call:
                continue
            for threshold, statuses in TRANSIENT_STATUS:
                if draw < threshold:
                    transients[call] = statuses
                    break
        plans.append(RunPlan(run_index, fault, fault_call, transients))
    return plans


# --- ledger, scores and the expected report row ----------------------------------

LEDGER_HEADER = ("run_id", "mistake_id", "category", "description")
SCORES_HEADER = ("run_id", "requirement_index", "value")
_CATEGORY_SPELLINGS = ("fatal", "Runtime", "content", "Missing/Additional", "missing_additional")
_MISTAKE_WEIGHTS = (30, 20, 15, 10, 8, 6, 4, 3, 2, 2)  # 0..9 distinct mistakes per run
FAILED_ERROR_THRESHOLD = 7


def _category(spelling: str) -> str:
    return spelling.strip().lower().replace("/", "_").replace("-", "_").replace(" ", "_")


def write_ledger_and_scores(
    seed: int, run_ids: list[str], requirements: int, directory: Path
) -> tuple[Path, Path]:
    """Write ledger.csv (with duplicate mistake_id rows) and scores.csv for the
    given runs, and return both paths."""
    rows = []
    for run_id in run_ids:
        rng = rng_for(seed, "ledger", run_id)
        distinct = rng.choices(range(len(_MISTAKE_WEIGHTS)), weights=_MISTAKE_WEIGHTS)[0]
        for j in range(1, distinct + 1):
            rows.append((run_id, f"M{j}", rng.choice(_CATEGORY_SPELLINGS), f"mistake {j}, seen in {run_id}"))
            if rng.random() < 0.3:
                rows.append((run_id, f"M{j}", rng.choice(_CATEGORY_SPELLINGS), f"mistake {j} again"))
    rng_for(seed, "ledger-order").shuffle(rows)
    ledger = directory / "ledger.csv"
    with open(ledger, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LEDGER_HEADER)
        writer.writerows(rows)
    scores = directory / "scores.csv"
    with open(scores, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCORES_HEADER)
        for run_id in run_ids:
            rng = rng_for(seed, "scores", run_id)
            for index in range(1, requirements + 1):
                writer.writerow((run_id, index, int(rng.random() < 0.7)))
    return ledger, scores


def _read_rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))[1:]


def expected_report(index_csv: Path, ledger: Path, scores: Path, label: str) -> tuple[dict, dict]:
    """The report row and category counts `uplift report` must produce, computed
    from the index and the generated files with exact fractions: a
    (run_id, mistake_id) pair counts once, runs over the error threshold
    count as failed, the SD divides by N."""
    runs = [(run_id, status, Fraction(duration), loc) for run_id, status, duration, loc in _read_rows(index_csv)]
    first_category: dict[tuple[str, str], str] = {}
    for run_id, mistake_id, category, _ in _read_rows(ledger):
        first_category.setdefault((run_id, mistake_id), _category(category))
    distinct: dict[str, int] = {}
    for run_id, _ in first_category:
        distinct[run_id] = distinct.get(run_id, 0) + 1
    score = {(run_id, int(index)): int(value) for run_id, index, value in _read_rows(scores)}
    indices = sorted({index for _, index in score})

    completed = [
        r for r in runs if r[1] == "completed" and distinct.get(r[0], 0) <= FAILED_ERROR_THRESHOLD
    ]
    done = {r[0] for r in completed}
    errors = [Fraction(distinct.get(r[0], 0)) for r in completed]

    def mean(values: list[Fraction]) -> Fraction:
        return sum(values, Fraction(0)) / len(values) if values else Fraction(0)

    mean_errors = mean(errors)
    variance = mean([(e - mean_errors) ** 2 for e in errors])
    req_means = [mean([Fraction(score.get((r[0], i), 0) if r[0] in done else 0) for r in runs]) for i in indices]
    row = {
        "method_label": label,
        "mean_errors": float(mean_errors),
        "sd_errors": math.sqrt(variance),
        "mean_loc": float(mean([Fraction(int(r[3])) for r in completed if r[3]])),
        "mean_duration_seconds": float(mean([r[2] for r in completed])),
        "runs_total": len(runs),
        "runs_failed": len(runs) - len(completed),
        "fully_correct_runs": sum(
            1
            for r in completed
            if not distinct.get(r[0]) and all(score.get((r[0], i), 0) == 1 for i in indices)
        ),
        **{f"requirement_mean_{i}": float(m) for i, m in zip(indices, req_means)},
        "requirement_total": float(sum(req_means, Fraction(0))),
        "mean_replaced_functions": None,
    }
    categories = {c: 0 for c in ("fatal", "runtime", "content", "missing_additional")}
    for category in first_category.values():
        categories[category] += 1
    return row, {label: categories}
