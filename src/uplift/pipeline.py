"""Orchestrates full runs: plan, per-task execute/verify/finalize loop with a
cap, and the single-call baseline modes. Every backend exchange lands in the
run's transcript."""

from __future__ import annotations

import time
import uuid
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .agents import (
    AgentContext,
    PromptLibrary,
    DEFAULT_PROMPT_DIR,
    RETURN_ONLY_CODE,
    execute,
    finalize,
    make_prompt,
    manager_confirm,
    manager_plan,
    verify,
)
from .backend import Backend, ChatMessage, DEFAULT_MODEL, Role
from .errors import BackendError, FailedGeneration, NoCodeFound, PlanParseError, PromptSpecParseError
from .model import (
    CodeArtifact,
    Decision,
    Producer,
    RequirementSet,
    Task,
    TaskOrigin,
    TaskPlan,
    extract_code,
)
from .transcript import Transcript, TranscriptEntry, read_transcript, strip_timing, write_transcript

__all__ = [
    "PipelineMode",
    "PipelineConfig",
    "RunStatus",
    "RunOutcome",
    "run_pipeline",
    "run_baseline",
    "Transcript",
    "TranscriptEntry",
    "write_transcript",
    "read_transcript",
    "strip_timing",
]

# Baselines run without the pipeline's prompt assets on purpose: they are the
# control condition, so their framing stays fixed in code.
BASELINE_SYSTEM = "You are a careful software engineer. Follow the instructions in the message exactly."

# Finalizer passes allowed per task before the latest code advances anyway.
MAX_LOOP_ITERATIONS = 2


class PipelineMode(str, Enum):
    SYSTEM_MANAGER = "system_manager"
    SYSTEM_PER_REQUIREMENT = "system_per_requirement"
    SYSTEM_SINGLE_TASK = "system_single_task"
    BASELINE_ZSL = "baseline_zsl"
    BASELINE_OSL = "baseline_osl"


SYSTEM_MODES = (
    PipelineMode.SYSTEM_MANAGER,
    PipelineMode.SYSTEM_PER_REQUIREMENT,
    PipelineMode.SYSTEM_SINGLE_TASK,
)
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

    def __post_init__(self):
        self.mode = PipelineMode(self.mode)
        if self.max_loop_iterations < 0:
            raise ValueError("max_loop_iterations must be non-negative")


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
        prompts=PromptLibrary(config.prompt_dir),
        transcript=transcript,
        model=config.model,
    )


def _build_plan(ctx: AgentContext, requirements: RequirementSet, mode: PipelineMode) -> TaskPlan:
    if mode is PipelineMode.SYSTEM_MANAGER:
        plan = manager_plan(ctx, requirements)
        return manager_confirm(ctx, plan, requirements)
    if mode is PipelineMode.SYSTEM_PER_REQUIREMENT:
        tasks = tuple(
            Task(ordinal=r.index, description=r.text, origin=TaskOrigin.PER_REQUIREMENT)
            for r in requirements.requirements
        )
        return TaskPlan(tasks=tasks, confirmed=True)
    if mode is PipelineMode.SYSTEM_SINGLE_TASK:
        merged = " ".join(r.text for r in requirements.requirements)
        task = Task(ordinal=1, description=merged, origin=TaskOrigin.SINGLE_TASK)
        return TaskPlan(tasks=(task,), confirmed=True)
    raise ValueError(f"not a system mode: {mode.value}")


def run_pipeline(
    code: CodeArtifact,
    requirements: RequirementSet,
    config: PipelineConfig,
    *,
    transcript: Transcript | None = None,
    run_id: str | None = None,
) -> RunOutcome:
    """Execute one full system-mode run.

    Per task: make a one-shot prompt, execute it, verify; on a revise
    verdict, loop finalize/verify until accept or until the finalizer has
    been invoked max_loop_iterations times for the task, after which the
    latest code advances to the next task unconditionally. A reply without
    extractable code anywhere aborts the run as failed_generation; backend
    and plan/section parse failures (already flagged in the transcript) end
    the run the same way.
    """
    if config.mode not in SYSTEM_MODES:
        raise ValueError(f"run_pipeline requires a system mode, got {config.mode.value}")
    transcript = transcript if transcript is not None else Transcript(run_id or new_run_id())
    ctx = context(config, transcript)
    start = time.perf_counter()
    status = RunStatus.COMPLETED
    final: CodeArtifact | None = None
    task_count = 0
    finalizer_invocations = 0
    try:
        plan = _build_plan(ctx, requirements, config.mode)
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


def run_baseline(
    code: CodeArtifact,
    prompt_text: str,
    config: PipelineConfig,
    *,
    transcript: Transcript | None = None,
    run_id: str | None = None,
) -> RunOutcome:
    """Execute one bare ZSL/OSL run: a single call carrying the user-authored
    prompt, the file, and the return-only-code directive."""
    if config.mode not in BASELINE_MODES:
        raise ValueError(f"run_baseline requires a baseline mode, got {config.mode.value}")
    if not prompt_text.strip():
        raise ValueError("baseline prompt text must be non-empty")
    transcript = transcript if transcript is not None else Transcript(run_id or new_run_id())
    ctx = context(config, transcript)
    start = time.perf_counter()
    user = f"{prompt_text}\n\n{code.content}\n\n{RETURN_ONLY_CODE}"
    messages = [ChatMessage(Role.SYSTEM, BASELINE_SYSTEM), ChatMessage(Role.USER, user)]
    status = RunStatus.COMPLETED
    final: CodeArtifact | None = None
    try:
        response = ctx.call("baseline", messages, task_ordinal=1, iteration=0)
        final = CodeArtifact(
            content=extract_code(response.content),
            producer=Producer.EXECUTOR,
            task_ordinal=1,
            iteration=0,
        )
    except NoCodeFound:
        ctx.transcript.annotate_last("no_code")
        status = RunStatus.FAILED_GENERATION
    except BackendError:
        status = RunStatus.FAILED_GENERATION
    return RunOutcome(
        run_id=transcript.run_id,
        final_code=final,
        status=status,
        duration_seconds=time.perf_counter() - start,
        task_count=1,
        finalizer_invocations=0,
    )
