"""The five agent roles: prompt templates plus strict response parsers,
and the single-call baseline op.

Each operation is a thin function over the backend: render the role
template, send at most two calls (initial plus one re-ask), parse the reply
with a marker-based parser that ignores surrounding prose.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

from .backend import Backend, ChatMessage, ChatRequest, ChatResponse, DEFAULT_MODEL, Role
from .errors import (
    BackendError,
    PlanParseError,
    PromptSpecParseError,
    FailedGeneration,
    NoCodeFound,
    TemplateError,
)
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
from .transcript import Transcript

TEMPLATE_NAMES = (
    "manager",
    "manager_confirm",
    "prompt_maker",
    "executor",
    "verifier",
    "finalizer",
)

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


def render_template(template: str, values: Mapping[str, str]) -> str:
    def substitute(match: re.Match) -> str:
        name = match.group(1)
        if name not in values:
            raise TemplateError(f"no value for placeholder {{{{{name}}}}}")
        return values[name]

    return _PLACEHOLDER_RE.sub(substitute, template)


class PromptLibrary:
    """Loads the six fixed-name template assets from a directory."""

    def __init__(self, directory: str | Path = DEFAULT_PROMPT_DIR):
        self.directory = Path(directory)
        self._templates: dict[str, str] = {}
        for name in TEMPLATE_NAMES:
            path = self.directory / f"{name}.txt"
            if not path.is_file():
                raise TemplateError(f"missing prompt template {path}")
            text = path.read_text(encoding="utf-8")
            if not text.strip():
                raise TemplateError(f"prompt template {path} is empty")
            self._templates[name] = text

    def render(self, name: str, **values: str) -> str:
        return render_template(self._templates[name], values)


@dataclass
class AgentContext:
    """Everything an agent call needs: backend, templates, transcript, and
    the request parameters recorded for reproducibility."""

    backend: Backend
    prompts: PromptLibrary
    transcript: Transcript
    model: str = DEFAULT_MODEL

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
        whether the backend succeeds or fails."""
        request = ChatRequest(messages=tuple(messages), model=self.model)
        start = time.perf_counter()
        try:
            response = self.backend.complete(request)
        except BackendError as exc:
            self.transcript.record(
                agent=agent,
                request=request.to_payload(),
                response=None,
                latency_seconds=time.perf_counter() - start,
                task_ordinal=task_ordinal,
                iteration=iteration,
                error=f"{type(exc).__name__}: {exc}",
                flags=flags,
            )
            raise
        self.transcript.record(
            agent=agent,
            request=request.to_payload(),
            response=response.content,
            latency_seconds=response.latency_seconds,
            task_ordinal=task_ordinal,
            iteration=iteration,
            flags=flags,
        )
        return response


def _ask(
    ctx: AgentContext,
    agent: str,
    messages: Sequence[ChatMessage],
    parse: Callable[[str], T | None],
    correction: str,
    **where: int | None,
) -> T | None:
    """Call, parse, and on a parse failure re-ask once with the reply and the
    correction appended. Returns None when the re-asked reply fails to parse
    too; the caller flags the last exchange and raises or falls back."""
    reply = ctx.call(agent, messages, **where).content
    parsed = parse(reply)
    if parsed is None:
        reask = [*messages, ChatMessage(Role.ASSISTANT, reply), ChatMessage(Role.USER, correction)]
        parsed = parse(ctx.call(agent, reask, **where, flags=("re_ask",)).content)
    return parsed


def _generate(
    ctx: AgentContext,
    agent: str,
    messages: Sequence[ChatMessage],
    task_ordinal: int,
    iteration: int,
) -> CodeArtifact:
    """One code-producing call; a reply without code fails the generation."""
    response = ctx.call(agent, messages, task_ordinal=task_ordinal, iteration=iteration)
    try:
        content = extract_code(response.content)
    except NoCodeFound as exc:
        ctx.transcript.annotate_last("no_code")
        raise FailedGeneration(f"{agent} reply for task {task_ordinal} contained no code") from exc
    return CodeArtifact(content=content, iteration=iteration)


def parse_task_lines(text: str) -> list[str]:
    """Descriptions from ``TASK n:`` lines, in order of appearance."""
    return [m.group(2).strip() for line in text.splitlines() if (m := _TASK_LINE_RE.match(line))]


def _plan_from(descriptions: list[str]) -> TaskPlan:
    return TaskPlan(tuple(Task(i, d) for i, d in enumerate(descriptions, start=1)))


def render_tasks(plan: TaskPlan) -> str:
    return "\n".join(f"TASK {t.ordinal}: {t.description}" for t in plan.tasks)


def manager_plan(ctx: AgentContext, requirements: RequirementSet) -> TaskPlan:
    """Ask the manager to decompose the requirements into ordered tasks."""
    system = ctx.prompts.render("manager")
    messages = [ChatMessage(Role.SYSTEM, system), ChatMessage(Role.USER, render_requirements(requirements))]
    descriptions = _ask(ctx, "manager", messages, lambda text: parse_task_lines(text) or None, _REASK_TASKS)
    if descriptions is None:
        ctx.transcript.annotate_last("plan_unparsed")
        raise PlanParseError("manager reply contained no TASK lines after a re-ask")
    return _plan_from(descriptions)


def manager_confirm(ctx: AgentContext, plan: TaskPlan, requirements: RequirementSet) -> TaskPlan:
    """One confirmation pass over the plan.

    An unparseable confirmation keeps the original plan rather than stalling
    the run; the exchange is flagged in the transcript.
    """
    system = ctx.prompts.render("manager_confirm", tasks=render_tasks(plan))
    messages = [ChatMessage(Role.SYSTEM, system), ChatMessage(Role.USER, render_requirements(requirements))]
    response = ctx.call("manager", messages)
    descriptions = parse_task_lines(response.content)
    if not descriptions:
        ctx.transcript.annotate_last("confirm_fallback")
        return plan
    return _plan_from(descriptions)


def _parse_sections(text: str) -> dict[str, str] | None:
    """Split a reply on INSTRUCTION / EXAMPLE BEFORE / EXAMPLE AFTER labels,
    order-insensitively. Returns None unless all three are present and
    non-empty."""
    label_re = re.compile(
        r"^[^A-Za-z]*(" + "|".join(_SECTION_LABELS) + r")\s*:\s*(.*)$", re.IGNORECASE
    )
    sections: dict[str, list[str]] = {}
    current: list[str] | None = None
    for line in text.splitlines():
        match = label_re.match(line)
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
    messages = [ChatMessage(Role.SYSTEM, system), ChatMessage(Role.USER, code.content)]
    sections = _ask(
        ctx, "prompt_maker", messages, _parse_sections, _REASK_SECTIONS, task_ordinal=task.ordinal
    )
    if sections is None:
        ctx.transcript.annotate_last("sections_unparsed")
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
    user = f"{code.content}\n\n{RETURN_ONLY_CODE}"
    messages = [ChatMessage(Role.SYSTEM, system), ChatMessage(Role.USER, user)]
    return _generate(ctx, "executor", messages, prompt.task_ordinal, 0)


def verify(
    ctx: AgentContext,
    task: Task,
    before: CodeArtifact,
    after: CodeArtifact,
    original: CodeArtifact | None = None,
) -> Verdict:
    """Ask the verifier whether the task is complete in the after version.

    The original user input is shown alongside the pre-task version so
    cumulative drift across tasks stays visible. After a failed re-ask the
    verdict defaults to accept (flagged), biasing toward progress over a
    hallucinating verifier.
    """
    system = ctx.prompts.render("verifier", task=task.description)
    original = original if original is not None else before
    user = (
        f"ORIGINAL FILE:\n{original.content}\n\n"
        f"BEFORE THIS TASK:\n{before.content}\n\n"
        f"AFTER THIS TASK:\n{after.content}"
    )
    messages = [ChatMessage(Role.SYSTEM, system), ChatMessage(Role.USER, user)]
    verdict = _ask(
        ctx,
        "verifier",
        messages,
        _parse_verdict,
        _REASK_VERDICT,
        task_ordinal=task.ordinal,
        iteration=after.iteration,
    )
    if verdict is None:
        ctx.transcript.annotate_last("verdict_fallback")
        return Verdict(decision=Decision.ACCEPT)
    return verdict


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
    user = f"{code.content}\n\n{RETURN_ONLY_CODE}"
    iteration = code.iteration + 1
    messages = [ChatMessage(Role.SYSTEM, system), ChatMessage(Role.USER, user)]
    return _generate(ctx, "finalizer", messages, task.ordinal, iteration)


def baseline(ctx: AgentContext, prompt_text: str, code: CodeArtifact) -> CodeArtifact:
    """The bare ZSL/OSL call: the user-authored prompt, then the file and the
    return-only-code directive, recorded as task 1, iteration 0."""
    user = f"{prompt_text}\n\n{code.content}\n\n{RETURN_ONLY_CODE}"
    messages = [ChatMessage(Role.SYSTEM, BASELINE_SYSTEM), ChatMessage(Role.USER, user)]
    return _generate(ctx, "baseline", messages, 1, 0)
