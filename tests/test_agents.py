from __future__ import annotations

import shutil
import time

import pytest

from uplift.agents import (
    AgentContext,
    DEFAULT_PROMPT_DIR,
    PromptLibrary,
    RETURN_ONLY_CODE,
    TEMPLATE_NAMES,
    execute,
    finalize,
    make_prompt,
    manager_confirm,
    manager_plan,
    parse_task_lines,
    render_template,
    verify,
)
from uplift.backend import ChatMessage, ChatResponse, Role
from uplift.errors import BackendExhausted, PlanParseError, PromptSpecParseError, FailedGeneration, TemplateError
from uplift.model import CodeArtifact, Decision, Task, TaskPlan
from uplift.transcript import Transcript

from conftest import ACCEPT_REPLY, CODE_REPLY, PLAN_REPLY, REVISE_REPLY, SECTIONS_REPLY, seq


def ctx_with(backend) -> AgentContext:
    return AgentContext(backend=backend, prompts=PromptLibrary(), transcript=Transcript("t"))


def a_task(description="Fix ORM access", ordinal=1) -> Task:
    return Task(ordinal=ordinal, description=description)


def executor_artifact(content="<?php echo 1;") -> CodeArtifact:
    return CodeArtifact(content=content)


class TestCall:
    """AgentContext.call records one exchange per backend call, on success
    and on a BackendError alike."""

    MESSAGES = (ChatMessage(Role.SYSTEM, "be brief"), ChatMessage(Role.USER, "hello"))

    def test_success_records_the_backend_latency(self):
        class Instant:
            def complete(self, request):
                return ChatResponse(content="hi", latency_seconds=5.0)

        ctx = ctx_with(Instant())
        response = ctx.call("manager", self.MESSAGES, task_ordinal=2, iteration=1, flags=("re_ask",))
        [entry] = ctx.transcript.entries
        assert entry.response == response.content == "hi"
        assert entry.latency_seconds == 5.0
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
        assert entry.request["messages"][1] == {"role": "user", "content": "hello"}


class TestTemplates:
    def test_blank_template_is_an_error(self, tmp_path):
        prompts = tmp_path / "prompts"
        shutil.copytree(DEFAULT_PROMPT_DIR, prompts)
        PromptLibrary(prompts)
        (prompts / "verifier.txt").write_text(" \n\t\n", encoding="utf-8")
        with pytest.raises(TemplateError, match="verifier.txt"):
            PromptLibrary(prompts)

    @pytest.mark.parametrize("name", TEMPLATE_NAMES)
    def test_unknown_placeholder_fails_at_load(self, tmp_path, name):
        shutil.copytree(DEFAULT_PROMPT_DIR, tmp_path / "prompts")
        path = tmp_path / "prompts" / f"{name}.txt"
        path.write_text(path.read_text(encoding="utf-8") + "\n{{taks}}\n", encoding="utf-8")
        with pytest.raises(TemplateError) as raised:
            PromptLibrary(tmp_path / "prompts")
        assert f"{name}.txt" in str(raised.value) and "{{taks}}" in str(raised.value)

    def test_a_template_may_leave_a_placeholder_out(self, tmp_path):
        shutil.copytree(DEFAULT_PROMPT_DIR, tmp_path / "prompts")
        (tmp_path / "prompts" / "finalizer.txt").write_text("Fix: {{task}}", encoding="utf-8")
        library = PromptLibrary(tmp_path / "prompts")
        assert library.render("finalizer", task="t", feedback="f") == "Fix: t"

    def test_unfilled_placeholder_is_an_error(self):
        with pytest.raises(TemplateError):
            render_template("hello {{name}}", {})
        assert render_template("hello {{name}}", {"name": "world"}) == "hello world"

    def test_missing_template_dir(self, tmp_path):
        with pytest.raises(TemplateError):
            PromptLibrary(tmp_path)


class TestManagerPlan:
    def test_parses_task_lines_in_order(self, two_requirements):
        ctx = ctx_with(seq("TASK 1: Update syntax to 4.5\nTASK 2: Fix ORM access"))
        plan = manager_plan(ctx, two_requirements)
        assert [t.description for t in plan.tasks] == ["Update syntax to 4.5", "Fix ORM access"]
        assert [t.ordinal for t in plan.tasks] == [1, 2]

    def test_prose_around_tasks_is_ignored(self, two_requirements):
        ctx = ctx_with(seq("Sure! Here is the plan.\nTASK 1: x\nHope this helps."))
        plan = manager_plan(ctx, two_requirements)
        assert [t.description for t in plan.tasks] == ["x"]

    def test_reask_then_error(self, two_requirements):
        ctx = ctx_with(seq("no tasks", "still no tasks"))
        with pytest.raises(PlanParseError):
            manager_plan(ctx, two_requirements)
        assert [e.agent for e in ctx.transcript.entries].count("manager") == 2

    def test_reask_recovers(self, two_requirements):
        ctx = ctx_with(seq("no tasks", PLAN_REPLY))
        plan = manager_plan(ctx, two_requirements)
        assert len(plan.tasks) == 2
        assert "re_ask" in ctx.transcript.entries[-1].flags

    def test_requirements_rendered_into_user_message(self, two_requirements):
        ctx = ctx_with(seq(PLAN_REPLY))
        manager_plan(ctx, two_requirements)
        user = ctx.transcript.entries[0].request["messages"][1]
        assert user["role"] == "user"
        assert "Requirement1: Update whole CakePHP view file" in user["content"]

    def test_llm_numbering_is_renumbered(self, two_requirements):
        ctx = ctx_with(seq("TASK 3: late\nTASK 1: early"))
        plan = manager_plan(ctx, two_requirements)
        assert [(t.ordinal, t.description) for t in plan.tasks] == [(1, "late"), (2, "early")]


class TestManagerConfirm:
    def plan(self) -> TaskPlan:
        return TaskPlan(
            tasks=(
                Task(1, "Update syntax to 4.5"),
                Task(2, "Fix ORM access"),
            )
        )

    def test_identical_confirmation_is_fixed_point(self, two_requirements):
        ctx = ctx_with(seq(PLAN_REPLY))
        confirmed = manager_confirm(ctx, self.plan(), two_requirements)
        assert [t.description for t in confirmed.tasks] == [t.description for t in self.plan().tasks]
        assert [e.agent for e in ctx.transcript.entries].count("manager") == 1

    def test_reordered_confirmation_replaces_plan(self, two_requirements):
        ctx = ctx_with(seq("TASK 1: Fix ORM access\nTASK 2: Update syntax to 4.5"))
        confirmed = manager_confirm(ctx, self.plan(), two_requirements)
        assert [t.description for t in confirmed.tasks] == ["Fix ORM access", "Update syntax to 4.5"]

    def test_prose_confirmation_keeps_original_and_flags(self, two_requirements):
        ctx = ctx_with(seq("looks good to me!"))
        confirmed = manager_confirm(ctx, self.plan(), two_requirements)
        assert [t.description for t in confirmed.tasks] == [t.description for t in self.plan().tasks]
        assert "confirm_fallback" in ctx.transcript.entries[-1].flags


class TestMakePrompt:
    def test_parses_three_sections(self, original_code):
        ctx = ctx_with(seq(SECTIONS_REPLY))
        spec = make_prompt(ctx, a_task(), original_code)
        assert spec.instruction == "Update helper calls to the 4.5 style."
        assert spec.example_before == "echo $html->link('x');"
        assert spec.example_after == "echo $this->Html->link('x');"
        assert spec.task_ordinal == 1

    def test_sections_order_insensitive(self, original_code):
        reply = (
            "EXAMPLE AFTER: new()\nEXAMPLE BEFORE: old()\nINSTRUCTION: swap them"
        )
        spec = make_prompt(ctx_with(seq(reply)), a_task(), original_code)
        assert (spec.instruction, spec.example_before, spec.example_after) == (
            "swap them",
            "old()",
            "new()",
        )

    def test_multiline_sections(self, original_code):
        reply = (
            "INSTRUCTION: do it\n"
            "EXAMPLE BEFORE:\nline one\nline two\n"
            "EXAMPLE AFTER:\nswapped two\nswapped one"
        )
        spec = make_prompt(ctx_with(seq(reply)), a_task(), original_code)
        assert spec.example_before == "line one\nline two"
        assert spec.example_after == "swapped two\nswapped one"

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
        artifact = execute(ctx, self.spec(), original_code)
        assert artifact.iteration == 0
        assert ctx.transcript.entries[-1].task_ordinal == 1
        assert artifact.content == "<?php echo $this->Html->link('x'); ?>"
        assert artifact.loc == 1

    def test_reply_without_code_fails_generation(self, original_code):
        ctx = ctx_with(seq("Sorry."))
        with pytest.raises(FailedGeneration):
            execute(ctx, self.spec(), original_code)
        assert "no_code" in ctx.transcript.entries[-1].flags

    def test_longest_block_is_kept(self, original_code):
        reply = "```php\n$a = 1;\n```\n```php\n<?php\n$a = 1;\n$b = 2;\n```"
        artifact = execute(ctx_with(seq(reply)), self.spec(), original_code)
        assert artifact.content == "<?php\n$a = 1;\n$b = 2;"

    def test_user_message_carries_code_and_directive(self, original_code):
        ctx = ctx_with(seq(CODE_REPLY))
        execute(ctx, self.spec(), original_code)
        user = ctx.transcript.entries[-1].request["messages"][1]["content"]
        assert original_code.content in user
        assert user.rstrip().endswith(RETURN_ONLY_CODE)

    def test_empty_input_rejected_before_backend(self, original_code):
        ctx = ctx_with(seq(CODE_REPLY))
        empty = CodeArtifact("")
        with pytest.raises(ValueError):
            execute(ctx, self.spec(), empty)
        assert ctx.transcript.entries == []


class TestVerify:
    def test_accept(self, original_code):
        ctx = ctx_with(seq(ACCEPT_REPLY))
        verdict = verify(ctx, a_task(), original_code, executor_artifact())
        assert verdict.decision is Decision.ACCEPT
        assert verdict.feedback == ""
        assert "verdict_fallback" not in ctx.transcript.entries[-1].flags

    def test_revise_with_feedback(self, original_code):
        ctx = ctx_with(seq(REVISE_REPLY))
        verdict = verify(ctx, a_task(), original_code, executor_artifact())
        assert verdict.decision is Decision.REVISE
        assert verdict.feedback == "first() not used on the ORM object"

    def test_garbage_twice_falls_back_to_accept(self, original_code):
        ctx = ctx_with(seq("hmm", "not sure"))
        verdict = verify(ctx, a_task(), original_code, executor_artifact())
        assert verdict.decision is Decision.ACCEPT
        assert [e.agent for e in ctx.transcript.entries].count("verifier") == 2
        assert "verdict_fallback" in ctx.transcript.entries[-1].flags

    def test_revise_without_feedback_is_unparseable(self, original_code):
        ctx = ctx_with(seq("VERDICT: REVISE", ACCEPT_REPLY))
        verdict = verify(ctx, a_task(), original_code, executor_artifact())
        assert verdict.decision is Decision.ACCEPT
        assert "verdict_fallback" not in ctx.transcript.entries[-1].flags

    def test_feedback_is_first_feedback_line_only(self, original_code):
        # single-line capture keeps the parser deaf to trailing prose
        reply = "VERDICT: REVISE\nFEEDBACK: first problem\ntrailing commentary"
        verdict = verify(ctx_with(seq(reply)), a_task(), original_code, executor_artifact())
        assert verdict.feedback == "first problem"

    def test_prompt_shows_original_before_and_after(self, original_code):
        ctx = ctx_with(seq(ACCEPT_REPLY))
        after = executor_artifact("<?php new version ?>")
        older = CodeArtifact("<?php ancient ?>")
        verify(ctx, a_task(), original_code, after, original=older)
        user = ctx.transcript.entries[0].request["messages"][1]["content"]
        assert user.index("<?php ancient ?>") < user.index(original_code.content)
        assert user.index(original_code.content) < user.index("<?php new version ?>")


    @pytest.mark.parametrize("same", [None, "equal copy"], ids=["omitted", "equal"])
    def test_unchanged_file_is_shown_once(self, original_code, same):
        ctx = ctx_with(seq(ACCEPT_REPLY))
        original = None if same is None else CodeArtifact(original_code.content)
        verify(ctx, a_task(), original_code, executor_artifact("<?php new version ?>"), original=original)
        user = ctx.transcript.entries[0].request["messages"][1]["content"]
        assert user.count(original_code.content) == 1
        label = user.splitlines()[0]
        assert "ORIGINAL FILE" in label and "BEFORE THIS TASK" in label
        assert "\n\nAFTER THIS TASK:\n<?php new version ?>" in user


class TestFinalize:
    def test_iteration_increments(self):
        ctx = ctx_with(seq(CODE_REPLY))
        artifact = finalize(ctx, a_task(), executor_artifact(), "use first()")
        assert artifact.iteration == 1
        again = finalize(ctx_with(seq(CODE_REPLY)), a_task(), artifact, "again")
        assert again.iteration == 2

    def test_reply_without_code_fails_generation(self):
        with pytest.raises(FailedGeneration):
            finalize(ctx_with(seq("cannot do")), a_task(), executor_artifact(), "fb")

    def test_empty_feedback_rejected_before_backend(self):
        ctx = ctx_with(seq(CODE_REPLY))
        with pytest.raises(ValueError):
            finalize(ctx, a_task(), executor_artifact(), "   ")
        assert ctx.transcript.entries == []


class TestParserProperties:
    def test_parse_task_lines_tolerates_decoration(self):
        text = "- TASK 1: first\n* task 2: second\n3. TASK 3: third"
        assert parse_task_lines(text) == ["first", "second", "third"]

    def test_every_op_issues_at_most_two_calls(self, two_requirements, original_code):
        # worst case: first reply unparseable, second fine
        ctx = ctx_with(seq("??", PLAN_REPLY))
        manager_plan(ctx, two_requirements)
        assert len(ctx.transcript.entries) == 2

        ctx = ctx_with(seq("??", SECTIONS_REPLY))
        make_prompt(ctx, a_task(), original_code)
        assert len(ctx.transcript.entries) == 2

        ctx = ctx_with(seq("??", "??"))
        verify(ctx, a_task(), original_code, executor_artifact())
        assert len(ctx.transcript.entries) == 2
