from __future__ import annotations

import re
import shutil
import time
from collections import defaultdict
from pathlib import Path

import pytest

from uplift.agents import (
    AgentContext,
    DEFAULT_PROMPT_DIR,
    PromptLibrary,
    RETURN_ONLY_CODE,
    TEMPLATE_PLACEHOLDERS,
    _parse_plan,
    _parse_sections,
    _parse_verdict,
    baseline,
    execute,
    finalize,
    make_prompt,
    manager_confirm,
    manager_plan,
    verify,
)
from uplift.backend import ChatMessage, ChatResponse, Role
from uplift.errors import BackendExhausted, ConfigError, PlanParseError, PromptSpecParseError, FailedGeneration
from uplift.model import CodeArtifact, Decision, Task, TaskPlan, Verdict, parse_requirements
from uplift.pipeline import PipelineConfig, PipelineMode, RunStatus, run_pipeline
from uplift.transcript import Transcript

from conftest import ACCEPT_REPLY, CODE_REPLY, PLAN_REPLY, REVISE_REPLY, SECTIONS_REPLY, seq


def ctx_with(backend) -> AgentContext:
    return AgentContext(PipelineConfig(PipelineMode.SYSTEM_MANAGER, backend), Transcript("t"))


def a_task(description="Fix ORM access", ordinal=1) -> Task:
    return Task(ordinal=ordinal, description=description)


def executor_artifact(content="<?php echo 1;") -> CodeArtifact:
    return CodeArtifact(content=content)


class TestCall:
    """AgentContext.call records one exchange per backend call, on success
    and on a backend failure alike."""

    MESSAGES = (ChatMessage(Role.SYSTEM, ("be brief",)), ChatMessage(Role.USER, ("hello",)))

    def test_success_records_the_backend_latency(self):
        class Slow:
            def complete(self, request):
                time.sleep(0.05)
                return ChatResponse(content="hi")

        ctx = ctx_with(Slow())
        response = ctx.call("manager", self.MESSAGES, task_ordinal=2, iteration=1, flags=("re_ask",))
        [entry] = ctx.transcript.entries
        assert entry.response == response.content == "hi"
        assert entry.latency_seconds >= 0.05
        assert (entry.step, entry.agent, entry.task_ordinal, entry.iteration) == (1, "manager", 2, 1)
        assert entry.error is None and entry.flags == {"re_ask"}

    def test_backend_error_is_recorded_then_reraised(self):
        raised = BackendExhausted("all 3 attempts failed")

        class Slow:
            def complete(self, request):
                time.sleep(0.05)
                raise raised

        ctx = ctx_with(Slow())
        with pytest.raises(BackendExhausted) as info:
            ctx.call("verifier", self.MESSAGES, task_ordinal=1)
        assert info.value is raised
        [entry] = ctx.transcript.entries
        assert entry.response is None
        assert entry.error == "BackendExhausted: all 3 attempts failed"
        assert entry.latency_seconds >= 0.05
        assert entry.request.messages[1] == ChatMessage(Role.USER, ("hello",))


class TestTemplates:
    def test_blank_template_is_an_error(self, tmp_path):
        prompts = tmp_path / "prompts"
        shutil.copytree(DEFAULT_PROMPT_DIR, prompts)
        PromptLibrary(prompts)
        (prompts / "verifier.txt").write_text(" \n\t\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r"^prompt template .*verifier\.txt is empty$"):
            PromptLibrary(prompts)

    @pytest.mark.parametrize("name", TEMPLATE_PLACEHOLDERS)
    def test_unknown_placeholder_fails_at_load(self, tmp_path, name):
        shutil.copytree(DEFAULT_PROMPT_DIR, tmp_path / "prompts")
        path = tmp_path / "prompts" / f"{name}.txt"
        path.write_text(path.read_text(encoding="utf-8") + "\n{{taks}}\n", encoding="utf-8")
        with pytest.raises(ConfigError) as raised:
            PromptLibrary(tmp_path / "prompts")
        assert str(raised.value) == f"prompt template {path} names unknown placeholder(s) {{{{taks}}}}"

    def test_a_template_may_leave_a_placeholder_out(self, tmp_path):
        shutil.copytree(DEFAULT_PROMPT_DIR, tmp_path / "prompts")
        (tmp_path / "prompts" / "finalizer.txt").write_text("Fix: {{task}}", encoding="utf-8")
        library = PromptLibrary(tmp_path / "prompts")
        assert library.render("finalizer", task="t", feedback="f") == "Fix: t"

    def test_every_caller_fills_every_placeholder_of_its_role(self, tmp_path, original_code):
        # render trusts its callers: over a run through every role, templates
        # that name every placeholder of their role render with none left.
        prompts = tmp_path / "prompts"
        prompts.mkdir()
        for name, placeholders in TEMPLATE_PLACEHOLDERS.items():
            text = name + "".join(f" {{{{{p}}}}}" for p in sorted(placeholders))
            (prompts / f"{name}.txt").write_text(text, encoding="utf-8")
        one_task = "TASK 1: Fix ORM access"
        backend = seq(one_task, one_task, SECTIONS_REPLY, CODE_REPLY, REVISE_REPLY, CODE_REPLY, ACCEPT_REPLY)
        transcript = Transcript("t")
        config = PipelineConfig(PipelineMode.SYSTEM_MANAGER, backend, prompts=PromptLibrary(prompts))
        outcome = run_pipeline(original_code, parse_requirements("Requirement1: x"), config, transcript=transcript)
        assert outcome.status is RunStatus.COMPLETED and outcome.finalizer_invocations == 1
        systems = [entry.request.messages[0].content for entry in transcript.entries]
        assert [s.split(" ", 1)[0] for s in systems] == [
            "manager", "manager_confirm", "prompt_maker", "executor", "verifier", "finalizer", "verifier"
        ]
        assert not any("{{" in s for s in systems)
        assert systems[5] == "finalizer first() not used on the ORM object Fix ORM access"

    def test_missing_template_dir(self, tmp_path):
        with pytest.raises(ConfigError, match=r"^missing prompt template .*manager\.txt$"):
            PromptLibrary(tmp_path)


class TestManagerPlan:
    def test_parses_task_lines_in_order(self, two_requirements):
        ctx = ctx_with(seq("TASK 1: Update syntax to 4.5\nTASK 2: Fix ORM access"))
        plan = manager_plan(ctx, two_requirements)
        assert list(plan) == [Task(1, "Update syntax to 4.5"), Task(2, "Fix ORM access")]

    def test_prose_around_tasks_is_ignored(self, two_requirements):
        ctx = ctx_with(seq("Sure! Here is the plan.\nTASK 1: x\nHope this helps."))
        plan = manager_plan(ctx, two_requirements)
        assert plan.descriptions == ("x",)

    def test_reask_then_error(self, two_requirements):
        ctx = ctx_with(seq("no tasks", "still no tasks"))
        with pytest.raises(PlanParseError):
            manager_plan(ctx, two_requirements)
        assert [e.agent for e in ctx.transcript.entries].count("manager") == 2

    def test_reask_recovers(self, two_requirements):
        ctx = ctx_with(seq("no tasks", PLAN_REPLY))
        plan = manager_plan(ctx, two_requirements)
        assert len(plan.descriptions) == 2
        assert "re_ask" in ctx.transcript.entries[-1].flags

    def test_requirements_rendered_into_user_message(self, two_requirements):
        ctx = ctx_with(seq(PLAN_REPLY))
        manager_plan(ctx, two_requirements)
        user = ctx.transcript.entries[0].request.messages[1]
        assert user.role is Role.USER
        assert "Requirement1: Update whole CakePHP view file" in user.content

    def test_llm_numbering_is_renumbered(self, two_requirements):
        ctx = ctx_with(seq("TASK 3: late\nTASK 1: early"))
        plan = manager_plan(ctx, two_requirements)
        assert list(plan) == [Task(1, "late"), Task(2, "early")]


class TestManagerConfirm:
    def plan(self) -> TaskPlan:
        return TaskPlan(("Update syntax to 4.5", "Fix ORM access"))

    def test_identical_confirmation_is_fixed_point(self, two_requirements):
        ctx = ctx_with(seq(PLAN_REPLY))
        confirmed = manager_confirm(ctx, self.plan(), two_requirements)
        assert confirmed == self.plan()
        assert [e.agent for e in ctx.transcript.entries].count("manager") == 1

    def test_reordered_confirmation_replaces_plan(self, two_requirements):
        ctx = ctx_with(seq("TASK 1: Fix ORM access\nTASK 2: Update syntax to 4.5"))
        confirmed = manager_confirm(ctx, self.plan(), two_requirements)
        assert confirmed.descriptions == ("Fix ORM access", "Update syntax to 4.5")

    def test_prose_confirmation_keeps_original_and_flags(self, two_requirements):
        ctx = ctx_with(seq("looks good to me!"))
        confirmed = manager_confirm(ctx, self.plan(), two_requirements)
        assert confirmed == self.plan()
        assert "confirm_fallback" in ctx.transcript.entries[-1].flags


def executor_prompt(instruction, example_before, example_after) -> str:
    return PromptLibrary().render(
        "executor", instruction=instruction, example_before=example_before, example_after=example_after
    )


class TestMakePrompt:
    def test_returns_the_executor_template_filled_with_the_three_sections(self, original_code):
        ctx = ctx_with(seq(SECTIONS_REPLY))
        prompt = make_prompt(ctx, a_task(), original_code)
        assert prompt == executor_prompt(
            "Update helper calls to the 4.5 style.", "echo $html->link('x');", "echo $this->Html->link('x');"
        )
        assert ctx.transcript.entries[-1].task_ordinal == 1

    def test_sections_order_insensitive(self, original_code):
        reply = (
            "EXAMPLE AFTER: new()\nEXAMPLE BEFORE: old()\nINSTRUCTION: swap them"
        )
        prompt = make_prompt(ctx_with(seq(reply)), a_task(), original_code)
        assert prompt == executor_prompt("swap them", "old()", "new()")

    def test_multiline_sections(self, original_code):
        reply = (
            "INSTRUCTION: do it\n"
            "EXAMPLE BEFORE:\nline one\nline two\n"
            "EXAMPLE AFTER:\nswapped two\nswapped one"
        )
        prompt = make_prompt(ctx_with(seq(reply)), a_task(), original_code)
        assert prompt == executor_prompt("do it", "line one\nline two", "swapped two\nswapped one")

    def test_missing_section_twice_is_an_error(self, original_code):
        ctx = ctx_with(seq("INSTRUCTION: x\nEXAMPLE BEFORE: y", "INSTRUCTION: x\nEXAMPLE BEFORE: y"))
        with pytest.raises(PromptSpecParseError):
            make_prompt(ctx, a_task(), original_code)
        assert [e.agent for e in ctx.transcript.entries].count("prompt_maker") == 2


class TestExecute:
    def spec(self):
        ctx = ctx_with(seq(SECTIONS_REPLY))
        return make_prompt(ctx, a_task(), CodeArtifact("<?php"))

    def test_happy_path(self, original_code):
        ctx = ctx_with(seq(CODE_REPLY))
        artifact = execute(ctx, a_task(ordinal=2), self.spec(), original_code)
        entry = ctx.transcript.entries[-1]
        assert (entry.task_ordinal, entry.iteration) == (2, 0)
        assert entry.request.messages[0].content == self.spec()
        assert artifact.content == "<?php echo $this->Html->link('x'); ?>"
        assert artifact.loc == 1

    def test_reply_without_code_fails_generation(self, original_code):
        ctx = ctx_with(seq("Sorry."))
        with pytest.raises(FailedGeneration):
            execute(ctx, a_task(), self.spec(), original_code)
        assert "no_code" in ctx.transcript.entries[-1].flags

    def test_longest_block_is_kept(self, original_code):
        reply = "```php\n$a = 1;\n```\n```php\n<?php\n$a = 1;\n$b = 2;\n```"
        artifact = execute(ctx_with(seq(reply)), a_task(), self.spec(), original_code)
        assert artifact.content == "<?php\n$a = 1;\n$b = 2;"

    def test_user_message_carries_code_and_directive(self, original_code):
        ctx = ctx_with(seq(CODE_REPLY))
        execute(ctx, a_task(), self.spec(), original_code)
        user = ctx.transcript.entries[-1].request.messages[1].content
        assert original_code.content in user
        assert user.rstrip().endswith(RETURN_ONLY_CODE)


class TestVerify:
    def test_accept(self, original_code):
        ctx = ctx_with(seq(ACCEPT_REPLY))
        verdict = verify(ctx, a_task(), original_code, executor_artifact(), original_code, 0)
        assert verdict.decision is Decision.ACCEPT
        assert verdict.feedback == ""
        assert "verdict_fallback" not in ctx.transcript.entries[-1].flags

    def test_revise_with_feedback(self, original_code):
        ctx = ctx_with(seq(REVISE_REPLY))
        verdict = verify(ctx, a_task(), original_code, executor_artifact(), original_code, 0)
        assert verdict.decision is Decision.REVISE
        assert verdict.feedback == "first() not used on the ORM object"

    def test_garbage_twice_falls_back_to_accept(self, original_code):
        ctx = ctx_with(seq("hmm", "not sure"))
        verdict = verify(ctx, a_task(), original_code, executor_artifact(), original_code, 0)
        assert verdict.decision is Decision.ACCEPT
        assert [e.agent for e in ctx.transcript.entries].count("verifier") == 2
        assert "verdict_fallback" in ctx.transcript.entries[-1].flags

    def test_revise_without_feedback_is_unparseable(self, original_code):
        ctx = ctx_with(seq("VERDICT: REVISE", ACCEPT_REPLY))
        verdict = verify(ctx, a_task(), original_code, executor_artifact(), original_code, 0)
        assert verdict.decision is Decision.ACCEPT
        assert "verdict_fallback" not in ctx.transcript.entries[-1].flags

    def test_feedback_is_first_feedback_line_only(self, original_code):
        # single-line capture keeps the parser deaf to trailing prose
        reply = "VERDICT: REVISE\nFEEDBACK: first problem\ntrailing commentary"
        verdict = verify(
            ctx_with(seq(reply)), a_task(), original_code, executor_artifact(), original_code, 0
        )
        assert verdict.feedback == "first problem"

    @pytest.mark.parametrize("iteration", [0, 1, 3])
    def test_records_the_iteration_it_is_given(self, original_code, iteration):
        ctx = ctx_with(seq(ACCEPT_REPLY))
        verify(ctx, a_task(ordinal=2), original_code, executor_artifact(), original_code, iteration)
        entry = ctx.transcript.entries[-1]
        assert (entry.agent, entry.task_ordinal, entry.iteration) == ("verifier", 2, iteration)

    def test_prompt_shows_original_before_and_after(self, original_code):
        ctx = ctx_with(seq(ACCEPT_REPLY))
        after = executor_artifact("<?php new version ?>")
        older = CodeArtifact("<?php ancient ?>")
        verify(ctx, a_task(), original_code, after, older, 0)
        user = ctx.transcript.entries[0].request.messages[1].content
        assert user.index("<?php ancient ?>") < user.index(original_code.content)
        assert user.index(original_code.content) < user.index("<?php new version ?>")


    @pytest.mark.parametrize("copy", [True, False], ids=["equal", "same"])
    def test_unchanged_file_is_shown_once(self, original_code, copy):
        ctx = ctx_with(seq(ACCEPT_REPLY))
        original = CodeArtifact(original_code.content) if copy else original_code
        verify(ctx, a_task(), original_code, executor_artifact("<?php new version ?>"), original, 0)
        user = ctx.transcript.entries[0].request.messages[1].content
        assert user.count(original_code.content) == 1
        label = user.splitlines()[0]
        assert "ORIGINAL FILE" in label and "BEFORE THIS TASK" in label
        assert "\n\nAFTER THIS TASK:\n<?php new version ?>" in user


class TestFinalize:
    @pytest.mark.parametrize("iteration", [1, 2, 5])
    def test_records_the_iteration_it_is_given(self, iteration):
        ctx = ctx_with(seq(CODE_REPLY))
        artifact = finalize(ctx, a_task(ordinal=3), executor_artifact(), "use first()", iteration)
        assert artifact == CodeArtifact("<?php echo $this->Html->link('x'); ?>")
        entry = ctx.transcript.entries[-1]
        assert (entry.agent, entry.task_ordinal, entry.iteration) == ("finalizer", 3, iteration)

    def test_reply_without_code_fails_generation(self):
        with pytest.raises(FailedGeneration):
            finalize(ctx_with(seq("cannot do")), a_task(), executor_artifact(), "fb", 1)


class TestParserProperties:
    def test_parse_plan_tolerates_decoration(self):
        text = "- TASK 1: first\n* task 2: second\n3. TASK 3: third"
        assert _parse_plan(text) == TaskPlan(("first", "second", "third"))

    @pytest.mark.parametrize("ascii_letter, letter", [("I", "\u0130"), ("I", "\u0131"), ("S", "\u017f")])
    def test_a_marker_word_with_a_non_ascii_letter_is_prose(self, ascii_letter, letter):
        # re.IGNORECASE alone matches İ, ı and ſ to I, I and S, and such a
        # word names no Decision or section.
        revise = "REVISE".replace(ascii_letter, letter, 1)
        assert _parse_verdict(REVISE_REPLY) is not None
        assert _parse_verdict(REVISE_REPLY.replace("REVISE", revise)) is None
        instruction = "INSTRUCTION".replace(ascii_letter, letter, 1)
        assert _parse_sections(SECTIONS_REPLY) is not None
        assert _parse_sections(SECTIONS_REPLY.replace("INSTRUCTION", instruction)) is None

    def test_every_op_issues_at_most_two_calls(self, two_requirements, original_code):
        # worst case: first reply unparseable, second fine
        ctx = ctx_with(seq("??", PLAN_REPLY))
        manager_plan(ctx, two_requirements)
        assert len(ctx.transcript.entries) == 2

        ctx = ctx_with(seq("??", SECTIONS_REPLY))
        make_prompt(ctx, a_task(), original_code)
        assert len(ctx.transcript.entries) == 2

        ctx = ctx_with(seq("??", "??"))
        verify(ctx, a_task(), original_code, executor_artifact(), original_code, 0)
        assert len(ctx.transcript.entries) == 2


PLANNED = TaskPlan(("Update syntax to 4.5", "Fix ORM access"))
PROMPT = executor_prompt("Update helpers.", "echo $html->link('x');", "echo $this->Html->link('x');")

# Each role fed nothing but unparseable replies: the op, the agent it records,
# how many exchanges it makes (a second one is the re-ask), the flag on its
# last exchange, and the error it raises (type and message) or the value it
# falls back to. The README's flag table is kept in step with this list.
UNPARSEABLE = [
    pytest.param(
        lambda ctx, reqs, code: manager_plan(ctx, reqs), "manager", 2, "plan_unparsed",
        PlanParseError("manager reply contained no TASK lines after a re-ask"),
        id="manager_plan",
    ),
    pytest.param(
        lambda ctx, reqs, code: manager_confirm(ctx, PLANNED, reqs), "manager", 1, "confirm_fallback", PLANNED,
        id="manager_confirm",
    ),
    pytest.param(
        lambda ctx, reqs, code: make_prompt(ctx, a_task(), code), "prompt_maker", 2, "sections_unparsed",
        PromptSpecParseError("prompt-maker reply for task 1 was missing sections after a re-ask"),
        id="make_prompt",
    ),
    pytest.param(
        lambda ctx, reqs, code: verify(ctx, a_task(), code, executor_artifact(), code, 0), "verifier", 2,
        "verdict_fallback", Verdict(Decision.ACCEPT), id="verify",
    ),
    pytest.param(
        lambda ctx, reqs, code: execute(ctx, a_task(), PROMPT, code), "executor", 1, "no_code",
        FailedGeneration("executor reply for task 1 contained no code"), id="execute",
    ),
    pytest.param(
        lambda ctx, reqs, code: finalize(ctx, a_task(ordinal=2), code, "use first()", 1), "finalizer", 1,
        "no_code", FailedGeneration("finalizer reply for task 2 contained no code"), id="finalize",
    ),
    pytest.param(
        lambda ctx, reqs, code: baseline(ctx, "Update this view.", code), "baseline", 1, "no_code",
        FailedGeneration("baseline reply for task 1 contained no code"), id="baseline",
    ),
]


@pytest.mark.parametrize("op, agent, exchanges, flag, outcome", UNPARSEABLE)
def test_unparseable_replies_flag_the_last_exchange(
    op, agent, exchanges, flag, outcome, two_requirements, original_code
):
    # More replies than any role asks for, so a surplus call shows in the count.
    ctx = ctx_with(seq("Sorry.", "Still no markers.", "Nothing."))
    if isinstance(outcome, Exception):
        with pytest.raises(type(outcome)) as raised:
            op(ctx, two_requirements, original_code)
        assert str(raised.value) == str(outcome)
    else:
        assert op(ctx, two_requirements, original_code) == outcome
    expected = [{"re_ask"} if i else set() for i in range(exchanges)]
    expected[-1].add(flag)
    assert [e.agent for e in ctx.transcript.entries] == [agent] * exchanges
    assert [e.flags for e in ctx.transcript.entries] == expected


@pytest.mark.parametrize(
    "op, prefix",
    [
        pytest.param(lambda ctx, code: execute(ctx, a_task(), PROMPT, code), "", id="execute"),
        pytest.param(lambda ctx, code: finalize(ctx, a_task(), code, "use first()", 1), "", id="finalize"),
        pytest.param(
            lambda ctx, code: baseline(ctx, "Update this view.", code), "Update this view.\n\n", id="baseline"
        ),
    ],
)
def test_code_roles_end_the_user_message_in_one_directive(op, prefix, original_code):
    ctx = ctx_with(seq(CODE_REPLY))
    op(ctx, original_code)
    [entry] = ctx.transcript.entries
    user = entry.request.messages[-1].content
    assert user == f"{prefix}{original_code.content}\n\n{RETURN_ONLY_CODE}"
    assert user.count(RETURN_ONLY_CODE) == 1


def test_readme_flag_table_names_each_flag_and_its_agents():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = next(block for block in readme.split("\n\n") if block.startswith("| transcript flag |"))
    documented = {
        flag: set(re.findall(r"`(\w+)`", agents))
        for flag, agents in re.findall(r"^\| `(\w+)` \| ([^|]*) \|", table, re.MULTILINE)
    }
    pinned = defaultdict(set)
    for param in UNPARSEABLE:
        _, agent, exchanges, flag, _ = param.values
        pinned[flag].add(agent)
        if exchanges == 2:
            pinned["re_ask"].add(agent)
    assert documented == pinned


def test_readme_template_table_names_each_template_and_its_placeholders():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = next(block for block in readme.split("\n\n") if block.startswith("| template | placeholders |"))
    documented = {
        name: frozenset(re.findall(r"`\{\{(\w+)\}\}`", cell))
        for name, cell in re.findall(r"^\| `(\w+)\.txt` \| ([^|]*) \|", table, re.MULTILINE)
    }
    assert documented == TEMPLATE_PLACEHOLDERS
