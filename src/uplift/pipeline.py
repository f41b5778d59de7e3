"""Orchestrates full runs: plan, per-task execute/verify/finalize loop with a
cap, or the single call of a baseline mode. Every backend exchange lands in
the run's transcript."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any, Callable

from .agents import (
    AgentContext, PromptLibrary, baseline, execute, finalize, make_prompt, manager_confirm, manager_plan, verify,
)
from .backend import Backend, DEFAULT_MODEL
from .model import CodeArtifact, Decision, RequirementSet, TaskPlan
# Unused here, but perfbench/tracing.py patches pipeline.extract_code by name.
from .model import extract_code  # noqa: F401
from .transcript import Transcript, error_text
# Unused here, but perfbench reads uplift.pipeline.write_transcript and strip_timing.
from .transcript import strip_timing, write_transcript  # noqa: F401

def check_type(name: str, value: object, kind: Any) -> None:
    """Raise ValueError naming the setting unless value's type is kind, or a
    member of kind when it is a union such as str | None. The test is exact,
    so no bool passes as an int; an int passes as a float."""
    kinds = getattr(kind, "__args__", (kind,))
    if type(value) not in kinds and not (type(value) is int and float in kinds):
        base = kinds[0].__name__
        want = f"a {'string' if base == 'str' else base} or null" if type(None) in kinds else f"of type {base}"
        raise ValueError(f"{name} must be {want}, got {value!r}")


def at_least(minimum: int) -> Callable[[str, Any], None]:
    """The rule of a count setting: rule(name, value) raises ValueError naming
    the setting unless value is an int (not a bool) >= minimum. The library
    names its parameter, the CLI the config key."""
    def rule(name: str, value: Any) -> None:
        check_type(name, value, int)
        if value < minimum:
            raise ValueError(f"{name} must be >= {minimum}")
    return rule


# Finalizer passes allowed per task before the latest code advances anyway.
MAX_LOOP_ITERATIONS = 2
check_max_loop_iterations = at_least(0)


class PipelineMode(str, Enum):
    SYSTEM_MANAGER = "system_manager"
    SYSTEM_PER_REQUIREMENT = "system_per_requirement"
    SYSTEM_SINGLE_TASK = "system_single_task"
    BASELINE_ZSL = "baseline_zsl"
    BASELINE_OSL = "baseline_osl"


BASELINE_MODES = (PipelineMode.BASELINE_ZSL, PipelineMode.BASELINE_OSL)


class RunStatus(str, Enum):
    COMPLETED = "completed"
    FAILED_GENERATION = "failed_generation"


@dataclass(frozen=True)
class PipelineConfig:
    """A run's settings, the one place an agent call reads them from. Frozen,
    so every setting passes the checks: dataclasses.replace runs them again."""

    mode: PipelineMode
    backend: Backend
    max_loop_iterations: int = MAX_LOOP_ITERATIONS
    model: str = DEFAULT_MODEL
    # Loaded once; dataclasses.replace passes the same library on, so the
    # per-run copies run_bench makes reread nothing.
    prompts: PromptLibrary = field(default_factory=PromptLibrary, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "mode", PipelineMode(self.mode))
        check_max_loop_iterations("max_loop_iterations", self.max_loop_iterations)
        check_type("model", self.model, str)

    @property
    def prompt_dir(self) -> Path:
        return self.prompts.directory


@dataclass(frozen=True)
class RunRecord:
    """The four facts of a run that a bench index.csv row holds and that
    aggregation reads; loc is given exactly when the run completed."""

    run_id: str
    status: RunStatus
    duration_seconds: float
    loc: int | None

    def __post_init__(self):
        if not self.run_id:
            raise ValueError("run_id must be non-empty")
        if not (math.isfinite(self.duration_seconds) and self.duration_seconds >= 0):
            raise ValueError(f"duration {self.duration_seconds} is not a finite non-negative number")
        if (self.status is RunStatus.COMPLETED) is (self.loc is None):
            raise ValueError(f"a {self.status.value} run {'needs' if self.loc is None else 'cannot have'} a loc")
        if self.loc is not None and self.loc < 0:
            raise ValueError(f"negative loc {self.loc}")


@dataclass(frozen=True)
class RunOutcome(RunRecord):
    """A live run: its record, plus the code and counts its transcript summary holds.
    run_pipeline sets failure exactly when the run failed, and final_code only when it completed."""

    final_code: CodeArtifact | None
    task_count: int
    finalizer_invocations: int
    # "<Type>: <message>" of the exception that ended a failed run; None on a completed one.
    failure: str | None = None


def build_plan(ctx: AgentContext, requirements: RequirementSet, mode: PipelineMode) -> TaskPlan:
    """The run's tasks, in the way the system mode makes them."""
    if mode is PipelineMode.SYSTEM_MANAGER:
        plan = manager_plan(ctx, requirements)
        return manager_confirm(ctx, plan, requirements)
    if mode is PipelineMode.SYSTEM_PER_REQUIREMENT:
        return TaskPlan(requirements.requirements)
    return TaskPlan((" ".join(requirements.requirements),))


def run_pipeline(
    code: CodeArtifact,
    spec: RequirementSet | str,
    config: PipelineConfig,
    *,
    transcript: Transcript,
) -> RunOutcome:
    """Execute one full run, recording every exchange in the caller's
    transcript, whose run_id the outcome carries.

    In a baseline mode, spec is the user-authored prompt text and the run is
    one call carrying it, the file, and the return-only-code directive. In a
    system mode, spec is the requirements; per task: make a one-shot prompt,
    execute it, verify; on a revise verdict, loop finalize/verify until
    accept or until the finalizer has been invoked max_loop_iterations times
    for the task, after which the latest code advances to the next task
    unconditionally. A spec of the wrong kind, a blank prompt and a file with
    no non-blank line raise ValueError before any call. After that, any
    exception inside the run (a reply without code, an unparseable plan or
    prompt, a backend error, a fault in this package) ends it as
    failed_generation, with failure set to "<Type>: <message>".
    KeyboardInterrupt and SystemExit still propagate.
    """
    prompted = config.mode in BASELINE_MODES
    if isinstance(spec, str) is not prompted:
        raise ValueError(f"{config.mode.value} mode cannot run a {type(spec).__name__} spec")
    if prompted and not spec.strip():
        raise ValueError("baseline prompt text must be non-empty")
    if not code.loc:  # counted once: the artifact caches it across runs
        raise ValueError("the source file has no non-blank line")
    ctx = AgentContext(config, transcript)
    start = time.perf_counter()
    final: CodeArtifact | None = None
    failure: str | None = None
    task_count = 1 if prompted else 0
    finalizer_invocations = 0
    try:
        if prompted:
            final = baseline(ctx, spec, code)
        else:
            plan = build_plan(ctx, spec, config.mode)
            task_count = len(plan.descriptions)
            current = code
            for task in plan:
                prompt = make_prompt(ctx, task, current)
                candidate = execute(ctx, task, prompt, current)
                iteration = 0  # finalizer passes that returned code for this task
                try:
                    verdict = verify(ctx, task, current, candidate, code, iteration)
                    while verdict.decision is Decision.REVISE and iteration < config.max_loop_iterations:
                        candidate = finalize(ctx, task, candidate, verdict.feedback, iteration + 1)
                        iteration += 1
                        verdict = verify(ctx, task, current, candidate, code, iteration)
                finally:
                    finalizer_invocations += iteration
                current = candidate
            final = current
    except Exception as exc:
        failure = error_text(exc)
    # Arguments are evaluated in order: loc is counted after the duration is taken.
    return RunOutcome(
        run_id=transcript.run_id,
        status=RunStatus.COMPLETED if failure is None else RunStatus.FAILED_GENERATION,
        duration_seconds=time.perf_counter() - start,
        loc=final.loc if final is not None else None,
        final_code=final,
        task_count=task_count,
        finalizer_invocations=finalizer_invocations,
        failure=failure,
    )
