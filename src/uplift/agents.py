"""The five agent roles: prompt templates plus strict response parsers,
and the single-call baseline op.

Each operation renders its role template and hands it to ``_ask``: one call,
a marker-based parse that ignores surrounding prose, at most one re-ask, and
a flag on the last exchange when no reply parsed. The three roles that return
a file ask through ``_ask_code``.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

from .backend import Backend, ChatMessage, ChatRequest, ChatResponse, Role
from .errors import ConfigError, FailedGeneration, PlanParseError, PromptSpecParseError
from .model import (
    CodeArtifact,
    Decision,
    RequirementSet,
    Task,
    TaskPlan,
    Verdict,
    extract_code,
    render_requirements,
)
from .transcript import Transcript, error_text

# Each template asset and the placeholders its role renders it with. A
# template may leave a placeholder out; naming any other one is an error at
# load, before a run sends anything.
TEMPLATE_PLACEHOLDERS = {
    "manager": frozenset(),
    "manager_confirm": frozenset({"tasks"}),
    "prompt_maker": frozenset({"task"}),
    "executor": frozenset({"instruction", "example_before", "example_after"}),
    "verifier": frozenset({"task"}),
    "finalizer": frozenset({"task", "feedback"}),
}

DEFAULT_PROMPT_DIR = Path(__file__).parent / "prompts"

# Fixed framing shared by the system executor/finalizer calls and the bare
# baseline modes, so baselines and pipeline run under the same output rule.
RETURN_ONLY_CODE = "Return only the complete updated code."

# Baselines run without the pipeline's prompt assets on purpose: they are the
# control condition, so their framing stays fixed in code.
BASELINE_SYSTEM = "You are a careful software engineer. Follow the instructions in the message exactly."

_REASK_TASKS = (
    "Your previous reply contained no task lines. Reply again with one line "
    "per task, exactly in the form: TASK 1: <description>"
)
_REASK_SECTIONS = (
    "Your previous reply was missing one or more required sections. Reply "
    "again with all three sections labeled INSTRUCTION:, EXAMPLE BEFORE:, "
    "EXAMPLE AFTER:"
)
_REASK_VERDICT = (
    "Your previous reply did not contain a valid verdict. Reply again with "
    "VERDICT: ACCEPT, or VERDICT: REVISE followed by FEEDBACK: <reason>."
)

T = TypeVar("T")

_PLACEHOLDER_RE = re.compile(r"\{\{(\w+)\}\}")
_TASK_LINE_RE = re.compile(r"^[^A-Za-z]*TASK\s+([0-9]+)\s*:\s*(\S.*)$", re.IGNORECASE)
_VERDICT_RE = re.compile(r"^[^A-Za-z]*VERDICT\s*:\s*(ACCEPT|REVISE)\b", re.IGNORECASE)
_FEEDBACK_RE = re.compile(r"^[^A-Za-z]*FEEDBACK\s*:\s*(.*)$", re.IGNORECASE)
_SECTION_LABELS = ("INSTRUCTION", "EXAMPLE BEFORE", "EXAMPLE AFTER")
_SECTION_RE = re.compile(r"^[^A-Za-z]*(" + "|".join(_SECTION_LABELS) + r")\s*:\s*(.*)$", re.IGNORECASE)


@dataclass(frozen=True)
class PromptSpec:
    """A one-shot prompt produced by the prompt-maker for one task."""

    instruction: str
    example_before: str
    example_after: str
    task_ordinal: int

    def __post_init__(self):
        for name in ("instruction", "example_before", "example_after"):
            if not getattr(self, name).strip():
                raise ValueError(f"{name} must be non-empty")


class PromptLibrary:
    """Loads the six fixed-name template assets from a directory and checks
    that each names only placeholders its role fills."""

    def __init__(self, directory: str | Path = DEFAULT_PROMPT_DIR):
        self.directory = Path(directory)
        self._templates: dict[str, str] = {}
        for name, placeholders in TEMPLATE_PLACEHOLDERS.items():
            path = self.directory / f"{name}.txt"
            if not path.is_file():
                raise ConfigError(f"missing prompt template {path}")
            text = path.read_text(encoding="utf-8")
            if not text.strip():
                raise ConfigError(f"prompt template {path} is empty")
            unknown = sorted(set(_PLACEHOLDER_RE.findall(text)) - placeholders)
            if unknown:
                names = ", ".join(f"{{{{{u}}}}}" for u in unknown)
                raise ConfigError(f"prompt template {path} names unknown placeholder(s) {names}")
            self._templates[name] = text

    def render(self, name: str, **values: str) -> str:
        def substitute(match: re.Match) -> str:
            if match.group(1) not in values:
                raise ConfigError(f"no value for placeholder {match.group(0)}")
            return values[match.group(1)]

        return _PLACEHOLDER_RE.sub(substitute, self._templates[name])


@dataclass
class AgentContext:
    """Everything an agent call needs: backend, templates, transcript, and
    the request parameters recorded for reproducibility."""

    backend: Backend
    prompts: PromptLibrary
    transcript: Transcript
    model: str

    def call(
        self,
        agent: str,
        messages: Sequence[ChatMessage],
        *,
        task_ordinal: int | None = None,
        iteration: int | None = None,
        flags: Iterable[str] = (),
    ) -> ChatResponse:
        """Send one request and record exactly one transcript exchange,
        whether the backend succeeds or fails. A failed exchange keeps its
        wall-clock latency and its error; the same exception is re-raised.
        A reply that is not a ChatResponse fails as a TypeError."""
        request = ChatRequest(messages=tuple(messages), model=self.model)
        where = {"task_ordinal": task_ordinal, "iteration": iteration, "flags": set(flags)}
        start = time.perf_counter()
        try:
            response = self.backend.complete(request)
            if not isinstance(response, ChatResponse):
                raise TypeError(f"complete() returned a {type(response).__name__}, not a ChatResponse")
        except Exception as exc:
            latency = time.perf_counter() - start
            self.transcript.record(
                agent, request, response=None, latency_seconds=latency, error=error_text(exc), **where
            )
            raise
        self.transcript.record(
            agent, request, response=response.content, latency_seconds=response.latency_seconds, **where
        )
        return response


def _ask(
    ctx: AgentContext,
    agent: str,
    system: str,
    user: str,
    parse: Callable[[str], T | None],
    flag: str,
    correction: str | None = None,
    **where: int | None,
) -> T | None:
    """Send [system, user] and parse the reply; given a correction, re-ask once
    with the reply and the correction appended. When no reply parses, flag the
    last exchange and return None, for the caller to raise or fall back on."""
    messages = [ChatMessage(Role.SYSTEM, system), ChatMessage(Role.USER, user)]
    reply = ctx.call(agent, messages, **where).content
    parsed = parse(reply)
    if parsed is None and correction is not None:
        reask = [*messages, ChatMessage(Role.ASSISTANT, reply), ChatMessage(Role.USER, correction)]
        parsed = parse(ctx.call(agent, reask, **where, flags=("re_ask",)).content)
    if parsed is None:
        ctx.transcript.annotate_last(flag)
    return parsed


def _ask_code(
    ctx: AgentContext, agent: str, system: str, body: str, task_ordinal: int, iteration: int
) -> CodeArtifact:
    """Ask for a whole file: body, then the return-only-code directive. A reply
    without code is flagged no_code and fails the generation; no re-ask."""
    user = f"{body}\n\n{RETURN_ONLY_CODE}"
    # extract_code is looked up here at call time, so a tracer may wrap it.
    content = _ask(
        ctx, agent, system, user, extract_code, "no_code", task_ordinal=task_ordinal, iteration=iteration
    )
    if content is None:
        raise FailedGeneration(f"{agent} reply for task {task_ordinal} contained no code")
    return CodeArtifact(content=content, iteration=iteration)


def parse_task_lines(text: str) -> list[str]:
    """Descriptions from ``TASK n:`` lines, in order of appearance."""
    return [m.group(2).strip() for line in text.splitlines() if (m := _TASK_LINE_RE.match(line))]


def _parse_plan(text: str) -> TaskPlan | None:
    descriptions = parse_task_lines(text)
    return TaskPlan(tuple(Task(i, d) for i, d in enumerate(descriptions, start=1))) if descriptions else None


def render_tasks(plan: TaskPlan) -> str:
    return "\n".join(f"TASK {t.ordinal}: {t.description}" for t in plan.tasks)


def manager_plan(ctx: AgentContext, requirements: RequirementSet) -> TaskPlan:
    """Ask the manager to decompose the requirements into ordered tasks."""
    system = ctx.prompts.render("manager")
    user = render_requirements(requirements)
    plan = _ask(ctx, "manager", system, user, _parse_plan, "plan_unparsed", _REASK_TASKS)
    if plan is None:
        raise PlanParseError("manager reply contained no TASK lines after a re-ask")
    return plan


def manager_confirm(ctx: AgentContext, plan: TaskPlan, requirements: RequirementSet) -> TaskPlan:
    """One confirmation pass over the plan.

    An unparseable confirmation keeps the original plan rather than stalling
    the run; the exchange is flagged in the transcript.
    """
    system = ctx.prompts.render("manager_confirm", tasks=render_tasks(plan))
    user = render_requirements(requirements)
    return _ask(ctx, "manager", system, user, _parse_plan, "confirm_fallback") or plan


def _parse_sections(text: str) -> dict[str, str] | None:
    """Split a reply on INSTRUCTION / EXAMPLE BEFORE / EXAMPLE AFTER labels,
    order-insensitively. Returns None unless all three are present and
    non-empty."""
    sections: dict[str, list[str]] = {}
    current: list[str] | None = None
    for line in text.splitlines():
        match = _SECTION_RE.match(line)
        if match:
            label = match.group(1).upper()
            current = sections.setdefault(label, [])
            current.append(match.group(2))
        elif current is not None:
            current.append(line)
    parsed = {label: "\n".join(lines).strip() for label, lines in sections.items()}
    if all(parsed.get(label) for label in _SECTION_LABELS):
        return parsed
    return None


def make_prompt(ctx: AgentContext, task: Task, code: CodeArtifact) -> PromptSpec:
    """Have the prompt-maker turn one task into a one-shot prompt."""
    system = ctx.prompts.render("prompt_maker", task=task.description)
    sections = _ask(
        ctx, "prompt_maker", system, code.content, _parse_sections, "sections_unparsed", _REASK_SECTIONS,
        task_ordinal=task.ordinal,
    )
    if sections is None:
        raise PromptSpecParseError(
            f"prompt-maker reply for task {task.ordinal} was missing sections after a re-ask"
        )
    return PromptSpec(
        instruction=sections["INSTRUCTION"],
        example_before=sections["EXAMPLE BEFORE"],
        example_after=sections["EXAMPLE AFTER"],
        task_ordinal=task.ordinal,
    )


def execute(ctx: AgentContext, prompt: PromptSpec, code: CodeArtifact) -> CodeArtifact:
    """Run the one-shot prompt against the current file."""
    if not code.content:
        raise ValueError("cannot execute against an empty file")
    system = ctx.prompts.render(
        "executor",
        instruction=prompt.instruction,
        example_before=prompt.example_before,
        example_after=prompt.example_after,
    )
    return _ask_code(ctx, "executor", system, code.content, prompt.task_ordinal, 0)


def verify(
    ctx: AgentContext,
    task: Task,
    before: CodeArtifact,
    after: CodeArtifact,
    original: CodeArtifact,
) -> Verdict:
    """Ask the verifier whether the task is complete in the after version.

    The original user input is shown alongside the pre-task version so
    cumulative drift across tasks stays visible. When the two are the same
    text (every first task), the file is shown once under a label naming
    both roles. After a failed re-ask the verdict defaults to accept
    (flagged), biasing toward progress over a hallucinating verifier.
    """
    system = ctx.prompts.render("verifier", task=task.description)
    if original.content == before.content:
        shown = f"BEFORE THIS TASK (unchanged ORIGINAL FILE):\n{before.content}\n\n"
    else:
        shown = f"ORIGINAL FILE:\n{original.content}\n\nBEFORE THIS TASK:\n{before.content}\n\n"
    user = f"{shown}AFTER THIS TASK:\n{after.content}"
    verdict = _ask(
        ctx, "verifier", system, user, _parse_verdict, "verdict_fallback", _REASK_VERDICT,
        task_ordinal=task.ordinal, iteration=after.iteration,
    )
    return verdict or Verdict(decision=Decision.ACCEPT)


def _parse_verdict(text: str) -> Verdict | None:
    """First VERDICT line wins; feedback is the first FEEDBACK line after it.

    Feedback is deliberately single-line so that surrounding prose can never
    leak into it: wrapping a well-formed reply in arbitrary marker-free text
    leaves the parse unchanged.
    """
    decision: Decision | None = None
    feedback = ""
    for line in text.splitlines():
        if decision is None:
            match = _VERDICT_RE.match(line)
            if match:
                decision = Decision(match.group(1).lower())
        else:
            match = _FEEDBACK_RE.match(line)
            if match:
                feedback = match.group(1).strip()
                break
    if decision is None:
        return None
    if decision is Decision.REVISE and not feedback:
        return None
    return Verdict(decision=decision, feedback=feedback)


def finalize(ctx: AgentContext, task: Task, code: CodeArtifact, feedback: str) -> CodeArtifact:
    """Revise rejected code according to the verifier's feedback."""
    if not feedback.strip():
        raise ValueError("finalize requires non-empty feedback")
    system = ctx.prompts.render("finalizer", task=task.description, feedback=feedback)
    return _ask_code(ctx, "finalizer", system, code.content, task.ordinal, code.iteration + 1)


def baseline(ctx: AgentContext, prompt_text: str, code: CodeArtifact) -> CodeArtifact:
    """The bare ZSL/OSL call: the user-authored prompt, then the file and the
    return-only-code directive, recorded as task 1, iteration 0."""
    return _ask_code(ctx, "baseline", BASELINE_SYSTEM, f"{prompt_text}\n\n{code.content}", 1, 0)
