"""A reference model of a run's control flow, checked against run_pipeline.

reference() walks the rule the paper's method states: the manager plans and
confirms (or the mode plans without a call), then per task the prompt-maker,
the executor and the verifier, then finalizer/verifier passes under the cap;
a baseline is one call. What each reply means to each parser is labelled by
hand in POOL, so no parser of uplift's is checked against itself. For every
exchange the model predicts the agent, task ordinal, iteration, flags and
error type; for the outcome, the failure type, the task count, the finalizer
passes and the final code.
"""

from __future__ import annotations

from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from uplift.model import CodeArtifact, parse_requirements
from uplift.pipeline import PipelineConfig, PipelineMode, run_pipeline
from uplift.transcript import Transcript

from test_pipeline import FaultAt


@dataclass(frozen=True)
class Reply:
    """A reply and what it parses to, by hand: the plan's task lines, whether
    it holds all three prompt sections, its code, and its verdict ("accept",
    "revise" with feedback, or None). text None stands for a backend fault."""

    text: str | None
    tasks: tuple[str, ...] | None = None
    sections: bool = False
    code: str | None = None
    verdict: str | None = None


PLAN_ONE = Reply("Plan:\nTASK 1: Do it all", tasks=("Do it all",))
PLAN_TWO = Reply("TASK 1: Update syntax\nTASK 2: Fix ORM access", tasks=("Update syntax", "Fix ORM access"))
PLAN_THREE = Reply("TASK 1: a\nTASK 2: b\nTASK 3: c", tasks=("a", "b", "c"))
SECTIONS = Reply(
    "INSTRUCTION: Update helper calls.\nEXAMPLE BEFORE: $html->link('x');\nEXAMPLE AFTER: $this->Html->link('x');",
    sections=True,
)
CODE_A = Reply("```php\n<?php echo 1; ?>\n```", code="<?php echo 1; ?>")
CODE_B = Reply("Revised:\n```php\n<?php echo 2; ?>\n```\nDone.", code="<?php echo 2; ?>")
ACCEPT = Reply("VERDICT: ACCEPT", verdict="accept")
REVISE = Reply("VERDICT: REVISE\nFEEDBACK: use first()", verdict="revise")
REVISE_BARE = Reply("VERDICT: REVISE")  # no feedback: no verdict
PROSE = Reply("I cannot help with that.")
FAULT = Reply(None)

POOL = (PLAN_ONE, PLAN_TWO, PLAN_THREE, SECTIONS, CODE_A, CODE_B, ACCEPT, REVISE, REVISE_BARE, PROSE, FAULT)
# The replies that fit each agent's role; the verifier's revise twice in three.
FITS = {
    "manager": (PLAN_ONE, PLAN_TWO, PLAN_THREE),
    "prompt_maker": (SECTIONS,),
    "executor": (CODE_A, CODE_B),
    "finalizer": (CODE_A, CODE_B),
    "baseline": (CODE_A, CODE_B),
    "verifier": (ACCEPT, REVISE, REVISE),
}
ORIGINAL = CodeArtifact("<?php echo 0; ?>")
BASELINES = (PipelineMode.BASELINE_ZSL, PipelineMode.BASELINE_OSL)


class Stop(Exception):
    """Ends the walk, as the named exception type ends the run."""


def reference(mode: PipelineMode, requirements: list[str], replies: list[Reply], cap: int):
    """(exchanges, outcome) that running `replies` in `mode` must give: each
    exchange is (agent, task_ordinal, iteration, flags, error type), the
    outcome (failure type, task_count, finalizer_invocations, final code)."""
    exchanges: list[list] = []
    pending = iter(replies)

    def ask(agent, label, flag, reask, ordinal=None, iteration=None):
        for flags in ((), ("re_ask",))[: 2 if reask else 1]:
            reply = next(pending, None)
            error = "ScriptExhausted" if reply is None else "RuntimeError" if reply.text is None else None
            exchanges.append([agent, ordinal, iteration, set(flags), error])
            if error:
                raise Stop(error)
            if getattr(reply, label):
                return getattr(reply, label)
        exchanges[-1][3].add(flag)
        return None

    def code(agent, ordinal, iteration):
        found = ask(agent, "code", "no_code", False, ordinal, iteration)
        if found is None:
            raise Stop("FailedGeneration")
        return found

    task_count, passes, final = 0, 0, None
    try:
        if mode in BASELINES:
            task_count = 1
            final = code("baseline", 1, 0)
        else:
            if mode is PipelineMode.SYSTEM_MANAGER:
                plan = ask("manager", "tasks", "plan_unparsed", True)
                if plan is None:
                    raise Stop("PlanParseError")
                plan = ask("manager", "tasks", "confirm_fallback", False) or plan
            elif mode is PipelineMode.SYSTEM_PER_REQUIREMENT:
                plan = requirements
            else:
                plan = [" ".join(requirements)]
            task_count = len(plan)
            for ordinal in range(1, task_count + 1):
                if not ask("prompt_maker", "sections", "sections_unparsed", True, ordinal):
                    raise Stop("PromptSpecParseError")
                current = code("executor", ordinal, 0)
                iteration = 0
                verdict = ask("verifier", "verdict", "verdict_fallback", True, ordinal, 0)
                while verdict == "revise" and iteration < cap:
                    current = code("finalizer", ordinal, iteration + 1)
                    iteration += 1
                    passes += 1
                    verdict = ask("verifier", "verdict", "verdict_fallback", True, ordinal, iteration)
            final = current
    except Stop as stop:
        return exchanges, (str(stop), task_count, passes, None)
    return exchanges, (None, task_count, passes, final)


@st.composite
def runs(draw):
    """A mode, its requirements, a cap, and replies drawn one call at a time:
    8 in 10 fit the role the reference expects next, the rest come from the
    whole pool, and about 1 call in 40 finds the script at its end."""
    mode = draw(st.sampled_from(PipelineMode))
    requirements = [f"requirement {i}" for i in range(1, draw(st.integers(1, 3)) + 1)]
    cap = draw(st.integers(0, 3))
    replies: list[Reply] = []
    while True:
        exchanges, outcome = reference(mode, requirements, replies, cap)
        if outcome[0] != "ScriptExhausted" or draw(st.integers(0, 39)) == 0:
            return mode, requirements, replies, cap
        role = exchanges[-1][0]
        replies.append(draw(st.sampled_from(FITS[role] if draw(st.integers(0, 9)) < 8 else POOL)))


@settings(max_examples=500, deadline=None)
@given(runs())
def test_run_pipeline_follows_the_reference(run):
    mode, requirements, replies, cap = run
    if mode in BASELINES:
        spec = "Update the file."
    else:
        spec = parse_requirements("".join(f"Requirement{i}: {text}\n" for i, text in enumerate(requirements, 1)))
    # The run ends at a fault, so the script never serves the fault's own place.
    texts = [reply.text for reply in replies]
    backend = FaultAt(texts, texts.index(None) + 1 if None in texts else 0, lambda: RuntimeError("injected fault"))
    transcript = Transcript("ref")
    config = PipelineConfig(mode=mode, backend=backend, max_loop_iterations=cap)
    outcome = run_pipeline(ORIGINAL, spec, config, transcript=transcript)
    exchanges = [
        [e.agent, e.task_ordinal, e.iteration, e.flags, e.error and e.error.split(":", 1)[0]]
        for e in transcript.entries
    ]
    failure = outcome.failure and outcome.failure.split(":", 1)[0]
    final = outcome.final_code and outcome.final_code.content
    assert (exchanges, (failure, outcome.task_count, outcome.finalizer_invocations, final)) == reference(
        mode, requirements, replies, cap
    )
