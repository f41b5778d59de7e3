"""The five agent roles: prompt templates plus strict response parsers,
and the single-call baseline op.

Each operation renders its role template and hands it to ``_ask``: one call,
a marker-based parse that ignores surrounding prose, at most one re-ask, and
a flag on the last exchange when no reply parsed. The three roles that return
a file ask through ``_ask_code``. A user message is built from parts, so the
file texts it carries are the run's CodeArtifact contents, not copies.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Sequence, TypeVar

from .backend import ChatMessage, ChatRequest, ChatResponse, Role
from .errors import ConfigError, FailedGeneration, PlanParseError, PromptSpecParseError
from .model import (
    CodeArtifact, Decision, RequirementSet, Task, TaskPlan, Verdict, extract_code, marked_lines, read_text,
)
from .transcript import Transcript, error_text

if TYPE_CHECKING:
    from .pipeline import PipelineConfig

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
_RETURN_ONLY_CODE_TAIL = f"\n\n{RETURN_ONLY_CODE}"

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
# (?a:...): IGNORECASE alone matches İ, ı, ſ to I, I, S, and such a word names nothing.
_VERDICT_RE = re.compile(r"^[^A-Za-z]*VERDICT\s*:\s*((?a:ACCEPT|REVISE))\b", re.IGNORECASE)
_FEEDBACK_RE = re.compile(r"^[^A-Za-z]*FEEDBACK\s*:\s*(.*)$", re.IGNORECASE)
# Each section label of a prompt-maker reply, with the executor placeholder it fills.
_SECTIONS = {"INSTRUCTION": "instruction", "EXAMPLE BEFORE": "example_before", "EXAMPLE AFTER": "example_after"}
_SECTION_RE = re.compile(r"^[^A-Za-z]*((?a:" + "|".join(_SECTIONS) + r"))\s*:\s*(.*)$", re.IGNORECASE)


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
            text = read_text(path)
            if not text.strip():
                raise ConfigError(f"prompt template {path} is empty")
            unknown = sorted(set(_PLACEHOLDER_RE.findall(text)) - placeholders)
            if unknown:
                names = ", ".join(f"{{{{{u}}}}}" for u in unknown)
                raise ConfigError(f"prompt template {path} names unknown placeholder(s) {names}")
            self._templates[name] = text

    def render(self, name: str, **values: str) -> str:
        """The template, filled: its caller passes every placeholder of the role."""
        return _PLACEHOLDER_RE.sub(lambda match: values[match.group(1)], self._templates[name])


@dataclass
class AgentContext:
    """What every agent call of a run shares: the run's settings (backend,
    templates, model) and the transcript its exchanges land in."""

    config: PipelineConfig
    transcript: Transcript

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
        whether the backend succeeds or fails. The exchange's latency is the
        wall-clock time of the backend call, retries and backoff included: the
        one clock every exchange is timed by. A failed exchange keeps its error;
        the same exception is re-raised. A reply that is not a ChatResponse
        fails as a TypeError."""
        request = ChatRequest(messages=tuple(messages), model=self.config.model)
        where = {"task_ordinal": task_ordinal, "iteration": iteration, "flags": set(flags)}
        start = time.perf_counter()
        try:
            response = self.config.backend.complete(request)
            if not isinstance(response, ChatResponse):
                raise TypeError(f"complete() returned a {type(response).__name__}, not a ChatResponse")
        except Exception as exc:
            latency = time.perf_counter() - start
            self.transcript.record(
                agent, request, response=None, latency_seconds=latency, error=error_text(exc), **where
            )
            raise
        latency = time.perf_counter() - start
        self.transcript.record(agent, request, response=response.content, latency_seconds=latency, **where)
        return response


def _ask(
    ctx: AgentContext,
    agent: str,
    system: str,
    user: tuple[str, ...],
    parse: Callable[[str], T | None],
    flag: str,
    correction: str | None = None,
    **where: int | None,
) -> T | None:
    """Send [system, user], the user text as its parts, and parse the reply;
    given a correction, re-ask once with the reply and the correction
    appended. When no reply parses, flag the last exchange and return None,
    for the caller to raise or fall back on."""
    messages = [ChatMessage(Role.SYSTEM, (system,)), ChatMessage(Role.USER, user)]
    reply = ctx.call(agent, messages, **where).content
    parsed = parse(reply)
    if parsed is None and correction is not None:
        reask = [*messages, ChatMessage(Role.ASSISTANT, (reply,)), ChatMessage(Role.USER, (correction,))]
        parsed = parse(ctx.call(agent, reask, **where, flags=("re_ask",)).content)
    if parsed is None:
        ctx.transcript.annotate_last(flag)
    return parsed


def _ask_code(
    ctx: AgentContext, agent: str, system: str, body: tuple[str, ...], task_ordinal: int, iteration: int
) -> CodeArtifact:
    """Ask for a whole file: the body's parts, then the return-only-code
    directive. A reply without code is flagged no_code and fails the
    generation; no re-ask."""
    # extract_code is looked up here at call time, so a tracer may wrap it.
    content = _ask(
        ctx, agent, system, (*body, _RETURN_ONLY_CODE_TAIL), extract_code, "no_code",
        task_ordinal=task_ordinal, iteration=iteration,
    )
    if content is None:
        raise FailedGeneration(f"{agent} reply for task {task_ordinal} contained no code")
    return CodeArtifact(content)


def _parse_plan(text: str) -> TaskPlan | None:
    """The plan of the ``TASK n:`` lines' descriptions, in order of appearance;
    None when there is no such line."""
    descriptions = tuple(match.group(2).strip() for match, _ in marked_lines(text, _TASK_LINE_RE))
    return TaskPlan(descriptions) if descriptions else None


def render_tasks(plan: TaskPlan) -> str:
    return "\n".join(f"TASK {t.ordinal}: {t.description}" for t in plan)


def manager_plan(ctx: AgentContext, requirements: RequirementSet) -> TaskPlan:
    """Ask the manager to decompose the requirements into ordered tasks."""
    system = ctx.config.prompts.render("manager")
    plan = _ask(ctx, "manager", system, (requirements.rendered,), _parse_plan, "plan_unparsed", _REASK_TASKS)
    if plan is None:
        raise PlanParseError("manager reply contained no TASK lines after a re-ask")
    return plan


def manager_confirm(ctx: AgentContext, plan: TaskPlan, requirements: RequirementSet) -> TaskPlan:
    """One confirmation pass over the plan.

    An unparseable confirmation keeps the original plan rather than stalling
    the run; the exchange is flagged in the transcript.
    """
    system = ctx.config.prompts.render("manager_confirm", tasks=render_tasks(plan))
    return _ask(ctx, "manager", system, (requirements.rendered,), _parse_plan, "confirm_fallback") or plan


def _parse_sections(text: str) -> dict[str, str] | None:
    """Split a reply on INSTRUCTION / EXAMPLE BEFORE / EXAMPLE AFTER labels,
    order-insensitively, into the executor placeholders they fill. Returns
    None unless all three are present and non-empty."""
    sections: dict[str, list[str]] = {}
    for match, lines in marked_lines(text, _SECTION_RE):
        # A repeated label extends the section its first use opened.
        sections.setdefault(match.group(1).upper(), []).extend([match.group(2), *lines])
    parsed = {_SECTIONS[label]: "\n".join(lines).strip() for label, lines in sections.items()}
    return parsed if all(parsed.get(name) for name in _SECTIONS.values()) else None


def make_prompt(ctx: AgentContext, task: Task, code: CodeArtifact) -> str:
    """Have the prompt-maker turn one task into a one-shot prompt: the
    executor template filled with the three sections of its reply."""
    system = ctx.config.prompts.render("prompt_maker", task=task.description)
    sections = _ask(
        ctx, "prompt_maker", system, (code.content,), _parse_sections, "sections_unparsed", _REASK_SECTIONS,
        task_ordinal=task.ordinal,
    )
    if sections is None:
        raise PromptSpecParseError(
            f"prompt-maker reply for task {task.ordinal} was missing sections after a re-ask"
        )
    return ctx.config.prompts.render("executor", **sections)


def execute(ctx: AgentContext, task: Task, prompt: str, code: CodeArtifact) -> CodeArtifact:
    """Run the one-shot prompt, as the system message, against the current file."""
    return _ask_code(ctx, "executor", prompt, (code.content,), task.ordinal, 0)


def verify(
    ctx: AgentContext,
    task: Task,
    before: CodeArtifact,
    after: CodeArtifact,
    original: CodeArtifact,
    iteration: int,
) -> Verdict:
    """Ask the verifier whether the task is complete in the after version,
    the code of finalizer pass ``iteration`` (0 for the executor's).

    The original user input is shown alongside the pre-task version so
    cumulative drift across tasks stays visible. When the two are the same
    text (every first task), the file is shown once under a label naming
    both roles. After a failed re-ask the verdict defaults to accept
    (flagged), biasing toward progress over a hallucinating verifier.
    """
    system = ctx.config.prompts.render("verifier", task=task.description)
    if original.content == before.content:
        shown = ("BEFORE THIS TASK (unchanged ORIGINAL FILE):\n", before.content)
    else:
        shown = ("ORIGINAL FILE:\n", original.content, "\n\nBEFORE THIS TASK:\n", before.content)
    user = (*shown, "\n\nAFTER THIS TASK:\n", after.content)
    verdict = _ask(
        ctx, "verifier", system, user, _parse_verdict, "verdict_fallback", _REASK_VERDICT,
        task_ordinal=task.ordinal, iteration=iteration,
    )
    return verdict or Verdict(decision=Decision.ACCEPT)


def _parse_verdict(text: str) -> Verdict | None:
    """First VERDICT line wins; feedback is the first FEEDBACK line after it.

    Feedback is deliberately single-line so that surrounding prose can never
    leak into it: wrapping a well-formed reply in arbitrary marker-free text
    leaves the parse unchanged.
    """
    groups = marked_lines(text, _VERDICT_RE)
    if not groups:
        return None
    decision = Decision(groups[0][0].group(1).lower())
    # Feedback may follow any VERDICT line after the first. The walk leaves
    # those later VERDICT lines out, and none of them can match _FEEDBACK_RE.
    feedback = next(
        (m.group(1).strip() for _, lines in groups for line in lines if (m := _FEEDBACK_RE.match(line))), ""
    )
    if decision is Decision.REVISE and not feedback:
        return None
    return Verdict(decision=decision, feedback=feedback)


def finalize(ctx: AgentContext, task: Task, code: CodeArtifact, feedback: str, iteration: int) -> CodeArtifact:
    """Revise rejected code according to a REVISE verdict's feedback, as pass ``iteration`` of the task."""
    system = ctx.config.prompts.render("finalizer", task=task.description, feedback=feedback)
    return _ask_code(ctx, "finalizer", system, (code.content,), task.ordinal, iteration)


def baseline(ctx: AgentContext, prompt_text: str, code: CodeArtifact) -> CodeArtifact:
    """The bare ZSL/OSL call: the user-authored prompt, then the file and the
    return-only-code directive, recorded as task 1, iteration 0."""
    return _ask_code(ctx, "baseline", BASELINE_SYSTEM, (prompt_text, "\n\n", code.content), 1, 0)
