"""Orchestrates full runs: plan, per-task execute/verify/finalize loop with a
cap, or the single call of a baseline mode. Every backend exchange lands in
the run's transcript."""

from __future__ import annotations

import time
import uuid
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .agents import (
    AgentContext,
    PromptLibrary,
    DEFAULT_PROMPT_DIR,
    baseline,
    execute,
    finalize,
    make_prompt,
    manager_confirm,
    manager_plan,
    verify,
)
from .backend import Backend, DEFAULT_MODEL
from .errors import BackendError, FailedGeneration, PlanParseError, PromptSpecParseError
from .model import CodeArtifact, Decision, RequirementSet, Task, TaskPlan
# Unused here, but perfbench/tracing.py patches pipeline.extract_code by name.
from .model import extract_code  # noqa: F401
from .transcript import Transcript
# Unused here, but perfbench reads uplift.pipeline.write_transcript and strip_timing.
from .transcript import strip_timing, write_transcript  # noqa: F401

__all__ = [
    "PipelineMode",
    "PipelineConfig",
    "RunStatus",
    "RunOutcome",
    "run_pipeline",
]

# Finalizer passes allowed per task before the latest code advances anyway.
MAX_LOOP_ITERATIONS = 2


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


@dataclass
class PipelineConfig:
    mode: PipelineMode
    backend: Backend
    prompt_dir: Path = DEFAULT_PROMPT_DIR
    max_loop_iterations: int = MAX_LOOP_ITERATIONS
    model: str = DEFAULT_MODEL
    # Loaded from prompt_dir when the config is built. dataclasses.replace
    # passes it on, so the per-run copies run_bench makes reread nothing.
    prompts: PromptLibrary | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.mode = PipelineMode(self.mode)
        if self.max_loop_iterations < 0:
            raise ValueError("max_loop_iterations must be non-negative")
        if self.prompts is None or self.prompts.directory != Path(self.prompt_dir):
            self.prompts = PromptLibrary(self.prompt_dir)


@dataclass(frozen=True)
class RunOutcome:
    run_id: str
    final_code: CodeArtifact | None
    status: RunStatus
    duration_seconds: float
    task_count: int
    finalizer_invocations: int

    def __post_init__(self):
        if self.status is RunStatus.FAILED_GENERATION and self.final_code is not None:
            raise ValueError("a failed run cannot carry final code")
        if self.duration_seconds < 0:
            raise ValueError("duration cannot be negative")

    @property
    def loc(self) -> int | None:
        return self.final_code.loc if self.final_code is not None else None


def new_run_id() -> str:
    return uuid.uuid4().hex[:12]


def context(config: PipelineConfig, transcript: Transcript) -> AgentContext:
    """The agent context every call of a run shares."""
    return AgentContext(
        backend=config.backend,
        prompts=config.prompts,
        transcript=transcript,
        model=config.model,
    )


def _build_plan(ctx: AgentContext, requirements: RequirementSet, mode: PipelineMode) -> TaskPlan:
    if mode is PipelineMode.SYSTEM_MANAGER:
        plan = manager_plan(ctx, requirements)
        return manager_confirm(ctx, plan, requirements)
    if mode is PipelineMode.SYSTEM_PER_REQUIREMENT:
        return TaskPlan(tuple(Task(r.index, r.text) for r in requirements.requirements))
    merged = " ".join(r.text for r in requirements.requirements)
    return TaskPlan((Task(1, merged),))


def run_pipeline(
    code: CodeArtifact,
    spec: RequirementSet | str,
    config: PipelineConfig,
    *,
    transcript: Transcript | None = None,
) -> RunOutcome:
    """Execute one full run.

    In a baseline mode, spec is the user-authored prompt text and the run is
    one call carrying it, the file, and the return-only-code directive. In a
    system mode, spec is the requirements; per task: make a one-shot prompt,
    execute it, verify; on a revise verdict, loop finalize/verify until
    accept or until the finalizer has been invoked max_loop_iterations times
    for the task, after which the latest code advances to the next task
    unconditionally. A reply without extractable code anywhere aborts the
    run as failed_generation; backend and plan/section parse failures
    (already flagged in the transcript) end the run the same way.
    """
    prompted = config.mode in BASELINE_MODES
    if isinstance(spec, str) is not prompted:
        raise ValueError(f"{config.mode.value} mode cannot run a {type(spec).__name__} spec")
    if prompted and not spec.strip():
        raise ValueError("baseline prompt text must be non-empty")
    transcript = transcript if transcript is not None else Transcript(new_run_id())
    ctx = context(config, transcript)
    start = time.perf_counter()
    status = RunStatus.COMPLETED
    final: CodeArtifact | None = None
    task_count = 1 if prompted else 0
    finalizer_invocations = 0
    try:
        if prompted:
            final = baseline(ctx, spec, code)
        else:
            plan = _build_plan(ctx, spec, config.mode)
            task_count = len(plan.tasks)
            original = code
            current = code
            for task in plan.tasks:
                prompt = make_prompt(ctx, task, current)
                candidate = execute(ctx, prompt, current)
                verdict = verify(ctx, task, current, candidate, original=original)
                loops = 0
                while verdict.decision is Decision.REVISE and loops < config.max_loop_iterations:
                    candidate = finalize(ctx, task, candidate, verdict.feedback)
                    loops += 1
                    finalizer_invocations += 1
                    verdict = verify(ctx, task, current, candidate, original=original)
                current = candidate
            final = current
    except (FailedGeneration, BackendError, PlanParseError, PromptSpecParseError):
        status = RunStatus.FAILED_GENERATION
        final = None
    return RunOutcome(
        run_id=transcript.run_id,
        final_code=final,
        status=status,
        duration_seconds=time.perf_counter() - start,
        task_count=task_count,
        finalizer_invocations=finalizer_invocations,
    )
