from __future__ import annotations

import dataclasses
import importlib
import json
import re
import shutil
from hashlib import sha256
from pathlib import Path

import pytest

from uplift.agents import DEFAULT_PROMPT_DIR, AgentContext, PromptLibrary
from uplift.backend import Role
from uplift.evaluation import case_files, run_bench
from uplift.model import CodeArtifact, Task, extract_code, parse_requirements
from uplift.pipeline import (
    BASELINE_MODES, PipelineConfig, PipelineMode, RunStatus, build_plan, run_pipeline,
)
from uplift.transcript import (
    Transcript,
    TranscriptEntry,
    dump_record,
    write_transcript,
)

from conftest import ACCEPT_REPLY, CODE_REPLY, PLAN_REPLY, REVISE_REPLY, SECTIONS_REPLY, run_records, seq, untimed
from test_golden import SCENARIOS, produce


def config(backend, mode=PipelineMode.SYSTEM_SINGLE_TASK, **kwargs) -> PipelineConfig:
    return PipelineConfig(mode=mode, backend=backend, **kwargs)


def happy_single_task_backend():
    return seq(SECTIONS_REPLY, CODE_REPLY, ACCEPT_REPLY)


class TestConfig:
    def test_replace_keeps_the_templates_it_is_not_given(self, tmp_path):
        base = config(seq())
        assert dataclasses.replace(base, backend=seq()).prompts is base.prompts
        assert base.prompt_dir == base.prompts.directory == DEFAULT_PROMPT_DIR
        shutil.copytree(DEFAULT_PROMPT_DIR, tmp_path / "prompts")
        (tmp_path / "prompts" / "manager.txt").write_text("MOVED MANAGER", encoding="utf-8")
        moved = dataclasses.replace(base, prompts=PromptLibrary(tmp_path / "prompts"))
        assert moved.prompts.render("manager") == "MOVED MANAGER"
        assert moved.prompt_dir == moved.prompts.directory == tmp_path / "prompts"

    def test_prompt_dir_is_not_a_setting(self, tmp_path):
        with pytest.raises(TypeError):
            config(seq(), prompt_dir=tmp_path)

    @pytest.mark.parametrize(
        "setting, value, message",
        [
            *[
                ("max_loop_iterations", value, f"max_loop_iterations must be of type int, got {value!r}")
                for value in (1.5, True, "2", None)
            ],
            ("max_loop_iterations", -1, "max_loop_iterations must be >= 0"),
            ("model", 3, "model must be of type str, got 3"),
        ],
    )
    def test_a_setting_that_breaks_its_rule_is_rejected(self, setting, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            config(seq(), **{setting: value})

    def test_settings_cannot_change_after_the_checks(self):
        base = config(seq(), mode="system_manager")
        assert base.mode is PipelineMode.SYSTEM_MANAGER
        with pytest.raises(dataclasses.FrozenInstanceError):
            base.max_loop_iterations = 1.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            base.mode = "bogus"
        assert dataclasses.replace(base, mode="baseline_osl").mode is PipelineMode.BASELINE_OSL
        with pytest.raises(ValueError, match=r"^max_loop_iterations must be of type int, got 1\.5$"):
            dataclasses.replace(base, max_loop_iterations=1.5)
        with pytest.raises(ValueError, match="'bogus' is not a valid PipelineMode"):
            dataclasses.replace(base, mode="bogus")


class TestSystemModes:
    def test_manager_mode_plans_confirms_then_runs(self, original_code, two_requirements):
        backend = seq(
            PLAN_REPLY,
            PLAN_REPLY,
            SECTIONS_REPLY, CODE_REPLY, ACCEPT_REPLY,
            SECTIONS_REPLY, CODE_REPLY, ACCEPT_REPLY,
        )
        transcript = Transcript("r1")
        outcome = run_pipeline(
            original_code,
            two_requirements,
            config(backend, PipelineMode.SYSTEM_MANAGER),
            transcript=transcript,
        )
        assert outcome.status is RunStatus.COMPLETED
        assert outcome.task_count == 2
        assert outcome.finalizer_invocations == 0
        assert [e.agent for e in transcript.entries].count("manager") == 2
        assert [e.agent for e in transcript.entries].count("executor") == 2

    def test_per_requirement_mode_uses_verbatim_texts(self, original_code, two_requirements):
        backend = seq(
            SECTIONS_REPLY, CODE_REPLY, ACCEPT_REPLY,
            SECTIONS_REPLY, CODE_REPLY, ACCEPT_REPLY,
        )
        transcript = Transcript("r1")
        outcome = run_pipeline(
            original_code,
            two_requirements,
            config(backend, PipelineMode.SYSTEM_PER_REQUIREMENT),
            transcript=transcript,
        )
        assert outcome.task_count == 2
        first_system = transcript.entries[0].request.messages[0].content
        assert two_requirements.requirements[0] in first_system

    def test_single_task_mode_concatenates(self, original_code, two_requirements):
        transcript = Transcript("r1")
        outcome = run_pipeline(
            original_code,
            two_requirements,
            config(happy_single_task_backend()),
            transcript=transcript,
        )
        assert outcome.task_count == 1
        merged = " ".join(two_requirements.requirements)
        assert merged in transcript.entries[0].request.messages[0].content

    @pytest.mark.parametrize(
        "mode, tasks",
        [
            (PipelineMode.SYSTEM_PER_REQUIREMENT, [Task(1, "late"), Task(2, "early"), Task(3, "two\nlines")]),
            (PipelineMode.SYSTEM_SINGLE_TASK, [Task(1, "late early two\nlines")]),
        ],
    )
    def test_plans_number_tasks_by_requirement_position(self, mode, tasks):
        requirements = parse_requirements("Requirement7: late\nRequirement2: early\nRequirement2: two\nlines")
        ctx = AgentContext(config(seq(), mode), Transcript("r1"))
        assert list(build_plan(ctx, requirements, mode)) == tasks
        assert ctx.transcript.entries == []

    def test_baseline_mode_rejected(self, original_code, two_requirements):
        with pytest.raises(ValueError):
            run_pipeline(
                original_code, two_requirements, config(seq(), PipelineMode.BASELINE_ZSL),
                transcript=Transcript("r1"),
            )


class TestRevisionLoop:
    def test_accepting_verifier_means_no_finalizer(self, original_code, two_requirements):
        outcome = run_pipeline(
            original_code, two_requirements, config(happy_single_task_backend()),
            transcript=Transcript("r1"),
        )
        assert outcome.finalizer_invocations == 0

    def test_always_revise_hits_cap_then_completes(self, original_code, two_requirements):
        backend = seq(
            SECTIONS_REPLY, CODE_REPLY,
            REVISE_REPLY, CODE_REPLY, REVISE_REPLY, CODE_REPLY, REVISE_REPLY,
        )
        transcript = Transcript("r1")
        outcome = run_pipeline(
            original_code, two_requirements, config(backend), transcript=transcript
        )
        assert outcome.status is RunStatus.COMPLETED
        assert outcome.finalizer_invocations == 2
        iterations = {agent: [e.iteration for e in transcript.entries if e.agent == agent]
                      for agent in ("verifier", "finalizer")}
        assert iterations == {"verifier": [0, 1, 2], "finalizer": [1, 2]}
        assert outcome.final_code == CodeArtifact(extract_code(CODE_REPLY))

    def test_revise_then_accept_stops_early(self, original_code, two_requirements):
        backend = seq(SECTIONS_REPLY, CODE_REPLY, REVISE_REPLY, CODE_REPLY, ACCEPT_REPLY)
        outcome = run_pipeline(
            original_code, two_requirements, config(backend), transcript=Transcript("r1")
        )
        assert outcome.finalizer_invocations == 1
        assert outcome.status is RunStatus.COMPLETED

    @pytest.mark.parametrize("cap", [0, 1, 2, 3])
    def test_always_revise_runs_each_task_to_the_cap(self, original_code, two_requirements, cap):
        per_task = [SECTIONS_REPLY, CODE_REPLY, REVISE_REPLY] + [CODE_REPLY, REVISE_REPLY] * cap
        backend = seq(*per_task, *per_task)
        transcript = Transcript("r1")
        outcome = run_pipeline(
            original_code, two_requirements,
            config(backend, PipelineMode.SYSTEM_PER_REQUIREMENT, max_loop_iterations=cap),
            transcript=transcript,
        )
        assert outcome.status is RunStatus.COMPLETED
        for ordinal in (1, 2):
            entries = [e for e in transcript.entries if e.task_ordinal == ordinal]
            assert [e.iteration for e in entries if e.agent == "finalizer"] == list(range(1, cap + 1))
            assert [e.iteration for e in entries if e.agent == "verifier"] == list(range(cap + 1))
        assert outcome.finalizer_invocations == cap + cap

    # The count is of finalizer passes that returned code, also when a later call ends the run.
    @pytest.mark.parametrize(
        "tail, counted",
        [([], 1), ([REVISE_REPLY, "no code here"], 1), ([REVISE_REPLY, CODE_REPLY], 2)],
        ids=["verify_fails", "finalize_fails", "second_verify_fails"],
    )
    def test_failed_run_counts_the_passes_that_returned(self, original_code, two_requirements, tail, counted):
        backend = seq(SECTIONS_REPLY, CODE_REPLY, REVISE_REPLY, CODE_REPLY, *tail)
        outcome = run_pipeline(
            original_code, two_requirements, config(backend, max_loop_iterations=3), transcript=Transcript("r1")
        )
        assert outcome.status is RunStatus.FAILED_GENERATION
        assert outcome.finalizer_invocations == counted

    def test_non_ascii_marker_words_are_re_asked(self, original_code, two_requirements):
        backend = seq(
            SECTIONS_REPLY.replace("INSTRUCTION", "\u0130NSTRUCTION"), SECTIONS_REPLY, CODE_REPLY,
            REVISE_REPLY.replace("REVISE", "REV\u0130SE"), ACCEPT_REPLY,
        )
        transcript = Transcript("r1")
        outcome = run_pipeline(original_code, two_requirements, config(backend), transcript=transcript)
        assert outcome.status is RunStatus.COMPLETED
        assert outcome.finalizer_invocations == 0
        assert [(e.agent, e.flags) for e in transcript.entries] == [
            ("prompt_maker", set()), ("prompt_maker", {"re_ask"}), ("executor", set()),
            ("verifier", set()), ("verifier", {"re_ask"}),
        ]

    def test_zero_cap_advances_rejected_code(self, original_code, two_requirements):
        backend = seq(SECTIONS_REPLY, CODE_REPLY, REVISE_REPLY)
        outcome = run_pipeline(
            original_code, two_requirements, config(backend, max_loop_iterations=0),
            transcript=Transcript("r1"),
        )
        assert outcome.finalizer_invocations == 0
        assert outcome.status is RunStatus.COMPLETED


class TestFailures:
    def test_executor_prose_fails_run(self, original_code, two_requirements):
        backend = seq(SECTIONS_REPLY, "I cannot update this file.")
        outcome = run_pipeline(
            original_code, two_requirements, config(backend), transcript=Transcript("r1")
        )
        assert outcome.status is RunStatus.FAILED_GENERATION
        assert outcome.failure == "FailedGeneration: executor reply for task 1 contained no code"
        assert outcome.final_code is None

    def test_script_exhaustion_fails_run_with_transcript_error(
        self, original_code, two_requirements
    ):
        transcript = Transcript("r1")
        outcome = run_pipeline(
            original_code, two_requirements, config(seq(SECTIONS_REPLY)), transcript=transcript
        )
        assert outcome.status is RunStatus.FAILED_GENERATION
        assert outcome.failure == "ScriptExhausted: no unconsumed script entry matches the request (1 loaded)"
        assert transcript.entries[-1].error == outcome.failure

    def test_failed_run_keeps_finalizer_count(self, original_code, two_requirements):
        # Task 1 loops once; task 2's executor reply has no code.
        backend = seq(
            SECTIONS_REPLY, CODE_REPLY, REVISE_REPLY, CODE_REPLY, ACCEPT_REPLY,
            SECTIONS_REPLY, "I cannot update this file.",
        )
        outcome = run_pipeline(
            original_code, two_requirements, config(backend, PipelineMode.SYSTEM_PER_REQUIREMENT),
            transcript=Transcript("r1"),
        )
        assert outcome.status is RunStatus.FAILED_GENERATION
        assert outcome.failure == "FailedGeneration: executor reply for task 2 contained no code"
        assert (outcome.task_count, outcome.finalizer_invocations) == (2, 1)

    def test_unplannable_manager_fails_run(self, original_code, two_requirements):
        backend = seq("nope", "still nope")
        outcome = run_pipeline(
            original_code, two_requirements, config(backend, PipelineMode.SYSTEM_MANAGER),
            transcript=Transcript("r1"),
        )
        assert outcome.status is RunStatus.FAILED_GENERATION
        assert outcome.failure == "PlanParseError: manager reply contained no TASK lines after a re-ask"
        assert outcome.task_count == 0


class TestInputCheck:
    @pytest.mark.parametrize("mode", list(PipelineMode))
    @pytest.mark.parametrize("content", ["", " \n\t\u2028"], ids=repr)
    def test_a_file_with_no_non_blank_line_is_rejected_before_any_call(self, two_requirements, mode, content):
        backend = seq(CODE_REPLY)
        spec = "Update the file." if mode in BASELINE_MODES else two_requirements
        transcript = Transcript("r1")
        with pytest.raises(ValueError, match="^the source file has no non-blank line$"):
            run_pipeline(CodeArtifact(content), spec, config(backend, mode), transcript=transcript)
        assert transcript.entries == [] and backend._next == 0


class TestBaseline:
    def test_single_call_with_prompt_then_code(self, original_code):
        transcript = Transcript("r1")
        prompt_text = "Update CakePHP view file from version 1.2 to version 4.5."
        outcome = run_pipeline(
            original_code,
            prompt_text,
            config(seq(CODE_REPLY), PipelineMode.BASELINE_ZSL),
            transcript=transcript,
        )
        assert outcome.status is RunStatus.COMPLETED
        assert outcome.task_count == 1 and outcome.finalizer_invocations == 0
        assert len(transcript.entries) == 1
        user = transcript.entries[0].request.messages[1].content
        assert user.index(prompt_text) < user.index(original_code.content)

    def test_codeless_reply_fails(self, original_code):
        outcome = run_pipeline(
            original_code, "do it", config(seq("no code here"), PipelineMode.BASELINE_OSL),
            transcript=Transcript("r1"),
        )
        assert outcome.status is RunStatus.FAILED_GENERATION
        assert outcome.failure == "FailedGeneration: baseline reply for task 1 contained no code"
        assert outcome.final_code is None
        assert outcome.task_count == 1

    def test_empty_prompt_rejected(self, original_code):
        with pytest.raises(ValueError):
            run_pipeline(
                original_code, "  ", config(seq(), PipelineMode.BASELINE_ZSL), transcript=Transcript("r1")
            )

    def test_a_run_needs_the_callers_transcript(self, original_code):
        with pytest.raises(TypeError, match="transcript"):
            run_pipeline(original_code, "x", config(seq(), PipelineMode.BASELINE_ZSL))

    def test_system_mode_rejected(self, original_code):
        with pytest.raises(ValueError):
            run_pipeline(
                original_code, "x", config(seq(), PipelineMode.SYSTEM_MANAGER), transcript=Transcript("r1")
            )


class TestTranscriptInvariants:
    def run_with_transcript(self, original_code, two_requirements, backend):
        transcript = Transcript("r1")
        outcome = run_pipeline(
            original_code, two_requirements, config(backend), transcript=transcript
        )
        return outcome, transcript

    def test_steps_strictly_increase_and_ordinals_non_decreasing(
        self, original_code, two_requirements
    ):
        backend = seq(
            SECTIONS_REPLY, CODE_REPLY, REVISE_REPLY, CODE_REPLY, ACCEPT_REPLY
        )
        _, transcript = self.run_with_transcript(original_code, two_requirements, backend)
        steps = [e.step for e in transcript.entries]
        assert steps == sorted(set(steps))
        ordinals = [e.task_ordinal for e in transcript.entries if e.task_ordinal is not None]
        assert ordinals == sorted(ordinals)

    def test_per_task_call_budget(self, original_code, two_requirements):
        backend = seq(
            SECTIONS_REPLY, CODE_REPLY,
            REVISE_REPLY, CODE_REPLY, REVISE_REPLY, CODE_REPLY, REVISE_REPLY,
        )
        _, transcript = self.run_with_transcript(original_code, two_requirements, backend)
        max_loop = 2
        assert 3 <= len(transcript.entries) <= 3 + 2 * max_loop

    def test_write_read_round_trip(self, tmp_path, original_code, two_requirements):
        outcome, transcript = self.run_with_transcript(
            original_code, two_requirements, happy_single_task_backend()
        )
        path = tmp_path / "t.jsonl"
        write_transcript(outcome, transcript.entries, path)
        original_bytes = path.read_text(encoding="utf-8")
        records = run_records(path)
        assert len(records) == len(transcript.entries) + 1
        assert records[-1]["record"] == "summary"
        assert records[-1]["status"] == "completed"
        rewritten = "\n".join(dump_record(r) for r in records) + "\n"
        assert rewritten == original_bytes

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85"], ids=["LS", "PS", "NEL"])
    def test_line_separators_in_a_reply_round_trip(
        self, tmp_path, original_code, two_requirements, separator
    ):
        # Lines are written with ensure_ascii=False, so these stay raw inside
        # the record; only "\n" ends a record.
        reply = f"VERDICT: ACCEPT{separator}looks fine"
        backend = seq(SECTIONS_REPLY, CODE_REPLY, reply)
        outcome, transcript = self.run_with_transcript(original_code, two_requirements, backend)
        path = tmp_path / "t.jsonl"
        write_transcript(outcome, transcript.entries, path)
        assert separator in path.read_text(encoding="utf-8")
        records = run_records(path)
        assert len(records) == len(transcript.entries) + 1
        assert records[-2]["response"] == reply

    def test_lines_are_canonical_and_digests_hash_the_bodies(self, tmp_path, two_requirements):
        # The bodies hold a literal '{"request": null}', characters JSON
        # escapes, and non-ASCII; the verifier call finds the script empty and fails.
        code = CodeArtifact('<?php $j = \'{"request": null}\'; echo "naïve \\"q\\""; ?>')
        backend = seq(SECTIONS_REPLY, f"```php\n{code.content}\n```")
        transcript = Transcript("r1")
        outcome = run_pipeline(code, two_requirements, config(backend), transcript=transcript)
        path = tmp_path / "t.jsonl"
        write_transcript(outcome, transcript.entries, path)
        lines = path.read_text(encoding="utf-8").splitlines()[:-1]
        records = [json.loads(line) for line in lines]
        assert [r["agent"] for r in records] == ["prompt_maker", "executor", "verifier"]
        assert records[-1]["response"] is None
        for line, record in zip(lines, records):
            assert line == dump_record(record)
            request = dump_record(record["request"])
            assert record["request_digest"] == sha256(request.encode("utf-8")).hexdigest()
            response = record["response"]
            digest = "" if response is None else sha256(response.encode("utf-8")).hexdigest()
            assert record["response_digest"] == digest

    def test_every_line_carries_the_outcome_run_id(self, tmp_path, original_code, two_requirements):
        # Entries hold no run id: write_transcript stamps the outcome's.
        outcome, transcript = self.run_with_transcript(
            original_code, two_requirements, happy_single_task_backend()
        )
        for run in (outcome, dataclasses.replace(outcome, run_id="run-007")):
            path = tmp_path / f"{run.run_id}.jsonl"
            write_transcript(run, transcript.entries, path)
            records = run_records(path)
            assert len(records) == len(transcript.entries) + 1
            assert {r["run_id"] for r in records} == {run.run_id}

    def test_empty_run_id_is_rejected(self):
        # Caught when the transcript is built, before a run could record it.
        with pytest.raises(ValueError, match="^run_id must be non-empty$"):
            Transcript("")

    def test_unwritable_path_surfaces_io_error(self, original_code, two_requirements):
        outcome, transcript = self.run_with_transcript(
            original_code, two_requirements, happy_single_task_backend()
        )
        with pytest.raises(OSError):
            write_transcript(outcome, transcript.entries, "/nonexistent-dir/t.jsonl")

    def test_writing_holds_less_than_the_transcript(self, tmp_path):
        # A 2,000-line file through three tasks, each revised once: 17
        # exchanges, most carrying the whole file. Writing must not hold
        # them all at once.
        import tracemalloc

        lines = [
            f"<?php echo $html->link('Item {i}', array('action' => 'view', $item['Item']['id'])); ?>"
            for i in range(2000)
        ]
        code = CodeArtifact("\n".join(lines))
        tasks = [("$html->", "$this->Html->"), ("'view'", "'show'"), ("['Item']", "['Items']")]
        texts = [f"Replace {old} with {new}" for old, new in tasks]
        plan = "\n".join(f"TASK {i}: {text}" for i, text in enumerate(texts, 1))
        replies = [plan, plan]
        current = code.content
        for old, new in tasks:
            current = current.replace(old, new)
            fenced = f"```php\n{current}\n```"
            replies += [SECTIONS_REPLY, fenced, REVISE_REPLY, fenced, ACCEPT_REPLY]
        requirements = "".join(f"Requirement{i}: {text}.\n" for i, text in enumerate(texts, 1))
        transcript = Transcript("r1")
        outcome = run_pipeline(
            code,
            parse_requirements(requirements),
            config(seq(*replies), PipelineMode.SYSTEM_MANAGER),
            transcript=transcript,
        )
        assert outcome.status is RunStatus.COMPLETED and len(transcript.entries) == 17
        path = tmp_path / "t.jsonl"
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            write_transcript(outcome, transcript.entries, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 2_000_000
        assert peak - before < path.stat().st_size

    def test_a_failed_write_keeps_the_lines_before_it_and_no_summary(
        self, tmp_path, monkeypatch, original_code, two_requirements
    ):
        outcome, transcript = self.run_with_transcript(
            original_code, two_requirements, happy_single_task_backend()
        )
        to_line = TranscriptEntry.to_line

        def third_fails(entry, run_id, escaped):
            if entry.step == 3:
                raise RuntimeError("encoding failed")
            return to_line(entry, run_id, escaped)

        monkeypatch.setattr(TranscriptEntry, "to_line", third_fails)
        path = tmp_path / "t.jsonl"
        with pytest.raises(RuntimeError, match="^encoding failed$"):
            write_transcript(outcome, transcript.entries, path)
        records = run_records(path)
        assert [r["record"] for r in records] == ["exchange", "exchange"]
        assert [r["step"] for r in records] == [1, 2]

    def test_replay_is_deterministic_modulo_timing(self, fixtures_dir, tmp_path):
        from uplift.backend import load_script
        from uplift.model import artifact_from_file, load_requirements

        case = fixtures_dir / "case_view"
        code = artifact_from_file(case / "original.php")
        requirements = load_requirements(case / "requirements.txt")

        def one(path):
            transcript = Transcript("replay")
            outcome = run_pipeline(
                code,
                requirements,
                config(load_script(case / "script.json"), PipelineMode.SYSTEM_MANAGER),
                transcript=transcript,
            )
            write_transcript(outcome, transcript.entries, path)
            return untimed(path)

        assert one(tmp_path / "a.jsonl") == one(tmp_path / "b.jsonl")


class TestRandomizedLoopCap:
    def test_finalizer_per_task_never_exceeds_cap(self, original_code, two_requirements):
        import random

        rng = random.Random(42)
        for _ in range(50):
            cap = rng.randint(0, 3)
            responses = []
            for _task in range(2):
                responses += [SECTIONS_REPLY, CODE_REPLY]
                finalizes = 0
                while True:
                    revise = rng.random() < 0.5
                    if revise and finalizes < cap:
                        responses += [REVISE_REPLY, CODE_REPLY]
                        finalizes += 1
                        continue
                    responses.append(REVISE_REPLY if revise else ACCEPT_REPLY)
                    break
            transcript = Transcript("rand")
            run_pipeline(
                original_code,
                two_requirements,
                config(
                    seq(*responses),
                    PipelineMode.SYSTEM_PER_REQUIREMENT,
                    max_loop_iterations=cap,
                ),
                transcript=transcript,
            )
            per_task = {}
            for entry in transcript.entries:
                if entry.agent == "finalizer":
                    per_task[entry.task_ordinal] = per_task.get(entry.task_ordinal, 0) + 1
            assert all(count <= cap for count in per_task.values())


class TestVerifierMessage:
    def test_first_task_shows_the_file_once_later_tasks_three_sections(
        self, original_code, two_requirements
    ):
        backend = seq(
            PLAN_REPLY,
            PLAN_REPLY,
            SECTIONS_REPLY, CODE_REPLY, REVISE_REPLY, CODE_REPLY, ACCEPT_REPLY,
            SECTIONS_REPLY, CODE_REPLY, ACCEPT_REPLY,
        )
        transcript = Transcript("r1")
        outcome = run_pipeline(
            original_code,
            two_requirements,
            config(backend, PipelineMode.SYSTEM_MANAGER),
            transcript=transcript,
        )
        assert outcome.status is RunStatus.COMPLETED
        users = {1: [], 2: []}
        for entry in transcript.entries:
            if entry.agent == "verifier":
                users[entry.task_ordinal].append(entry.request.messages[1].content)
        assert len(users[1]) == 2 and len(users[2]) == 1
        for user in users[1]:
            assert user.startswith("BEFORE THIS TASK (unchanged ORIGINAL FILE):\n")
            assert user.count(original_code.content) == 1
            assert "\n\nAFTER THIS TASK:\n" in user
        task_one_output = CodeArtifact(extract_code(CODE_REPLY))
        (user,) = users[2]
        assert user == (
            f"ORIGINAL FILE:\n{original_code.content}\n\n"
            f"BEFORE THIS TASK:\n{task_one_output.content}\n\n"
            f"AFTER THIS TASK:\n{task_one_output.content}"
        )


class TestRequestsHoldTheFileOnce:
    """A user message holds the run's file texts themselves, not copies: among
    the long parts of every user message of a run, each distinct text is one
    object, and the input's and the outcome's code are among them."""

    @staticmethod
    def check(code, requirements, backend):
        transcript = Transcript("r1")
        config_ = config(backend, PipelineMode.SYSTEM_MANAGER)
        outcome = run_pipeline(code, requirements, config_, transcript=transcript)
        assert outcome.status is RunStatus.COMPLETED
        parts = [
            part
            for entry in transcript.entries
            for message in entry.request.messages
            if message.role is Role.USER
            for part in message.parts
            if len(part) >= 200
        ]
        # Every part is alive in the transcript, so no two of them share an id.
        objects = {id(part): part for part in parts}
        assert len(objects) == len(set(parts))
        assert id(code.content) in objects and id(outcome.final_code.content) in objects
        return len(parts), len(objects)

    def test_the_case_view_fixture(self, fixtures_dir):
        from uplift.backend import load_script
        from uplift.model import artifact_from_file, load_requirements

        case = fixtures_dir / "case_view"
        parts, objects = self.check(
            artifact_from_file(case / "original.php"),
            load_requirements(case / "requirements.txt"),
            load_script(case / "script.json"),
        )
        # The requirements, the input and each of the two tasks' code.
        assert (parts, objects) == (11, 4)

    def test_a_2000_line_benchmark_case(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        case = importlib.import_module("inputs").build_case(1, 2000, 3)
        # The input and, per task, the executor's and the finalizer's code.
        parts = self.check(CodeArtifact(case.code), parse_requirements(case.requirements), seq(*case.replies))
        assert parts == (25, 7)


class FaultAt:
    """Replays a script, but the k-th call (1-based) raises a new fault() instead."""

    def __init__(self, replies, k, fault):
        self.script, self.k, self.fault, self.calls = seq(*replies), k, fault, 0

    def complete(self, request):
        self.calls += 1
        if self.calls == self.k:
            raise self.fault()
        return self.script.complete(request)


# Each mode's replies for a completed run over case_view (two requirements) or
# case_view_zsl; the per-requirement and single-task runs take a finalizer pass.
FAULT_SCRIPTS = {
    PipelineMode.SYSTEM_MANAGER: (PLAN_REPLY, PLAN_REPLY) + (SECTIONS_REPLY, CODE_REPLY, ACCEPT_REPLY) * 2,
    PipelineMode.SYSTEM_PER_REQUIREMENT: (
        SECTIONS_REPLY, CODE_REPLY, REVISE_REPLY, CODE_REPLY, ACCEPT_REPLY,
        SECTIONS_REPLY, CODE_REPLY, ACCEPT_REPLY,
    ),
    PipelineMode.SYSTEM_SINGLE_TASK: (SECTIONS_REPLY, CODE_REPLY, REVISE_REPLY, CODE_REPLY, ACCEPT_REPLY),
    PipelineMode.BASELINE_ZSL: (CODE_REPLY,),
}
# Faults no agent raises on purpose: each stands for a bug or an unforeseen input.
FAULTS = (
    lambda: RuntimeError("boom"),
    lambda: TypeError("unsupported operand type(s) for +: 'int' and 'str'"),
    lambda: KeyError("choices"),
    lambda: RecursionError("maximum recursion depth exceeded"),
    lambda: UnicodeEncodeError("utf-8", "\ud800", 0, 1, "surrogates not allowed"),
)


class TestFaultInjection:
    @pytest.mark.parametrize("mode", list(FAULT_SCRIPTS), ids=lambda m: m.value)
    def test_a_fault_at_any_exchange_ends_the_run_recorded(self, fixtures_dir, tmp_path, mode):
        script = FAULT_SCRIPTS[mode]
        case = fixtures_dir / ("case_view_zsl" if mode is PipelineMode.BASELINE_ZSL else "case_view")
        clean = run_bench(*case_files(case, mode), config(seq(*script), mode), 1, out_dir=tmp_path / "clean")
        assert clean[0].status is RunStatus.COMPLETED and clean[0].failure is None
        *exchanges, summary = run_records(tmp_path / "clean/run-001.jsonl")
        assert len(exchanges) == len(script)
        # Each exchange is timed inside its run, so their latencies fit in its duration.
        assert sum(e["latency_seconds"] for e in exchanges) <= summary["duration_seconds"]
        for k in range(1, len(script) + 1):
            out = tmp_path / f"k{k}"
            outcomes = run_bench(
                *case_files(case, mode),
                config(seq(), mode),
                len(FAULTS),
                out_dir=out,
                backend_factory=lambda i: FaultAt(script, k, FAULTS[i - 1]),
                parallelism=2,
            )
            assert [o.run_id for o in outcomes] == [f"run-00{i}" for i in range(1, len(FAULTS) + 1)]
            for outcome, fault in zip(outcomes, FAULTS):
                assert outcome.status is RunStatus.FAILED_GENERATION
                assert outcome.failure == f"{type(fault()).__name__}: {fault()}"
                *exchanges, summary = run_records(out / f"{outcome.run_id}.jsonl")
                assert len(exchanges) == k
                assert exchanges[-1]["error"] == summary["failure"] == outcome.failure
                assert summary["status"] == "failed_generation" and summary["final_loc"] is None
                assert sum(e["latency_seconds"] for e in exchanges) <= summary["duration_seconds"]
                assert not (out / f"{outcome.run_id}.updated.php").exists()

    def test_a_fault_whose_str_raises_is_recorded_by_its_type(self, fixtures_dir, tmp_path):
        class Unprintable(Exception):
            def __str__(self):
                raise RuntimeError("no str")

        (outcome,) = run_bench(
            *case_files(fixtures_dir / "case_view_zsl", PipelineMode.BASELINE_ZSL),
            config(seq(), PipelineMode.BASELINE_ZSL),
            1,
            out_dir=tmp_path,
            backend_factory=lambda i: FaultAt([], 1, Unprintable),
        )
        *exchanges, summary = run_records(tmp_path / "run-001.jsonl")
        assert [e["error"] for e in exchanges] == [summary["failure"]] == [outcome.failure]
        assert outcome.failure.startswith("Unprintable: ")

    @pytest.mark.parametrize("stop", [KeyboardInterrupt, SystemExit])
    @pytest.mark.parametrize("mode", list(FAULT_SCRIPTS), ids=lambda m: m.value)
    def test_interrupts_still_stop_the_run_and_the_bench(self, fixtures_dir, tmp_path, mode, stop):
        script = FAULT_SCRIPTS[mode]
        case = fixtures_dir / ("case_view_zsl" if mode is PipelineMode.BASELINE_ZSL else "case_view")
        with pytest.raises(stop):
            run_bench(
                *case_files(case, mode),
                config(seq(), mode),
                2,
                out_dir=tmp_path,
                backend_factory=lambda i: FaultAt(script, len(script), stop),
                parallelism=2,
            )


class Recorded:
    """A backend that keeps every request it is sent, then passes it on."""

    def __init__(self, backend):
        self.backend, self.requests = backend, []

    def complete(self, request):
        self.requests.append(request)
        return self.backend.complete(request)


class TestWhatRunsSend:
    """ChatRequest, ChatMessage and RunOutcome check nothing themselves: what
    builds them keeps their rules. Every request of every golden scenario and
    of every mode's fault runs is checked here, re-asks and fallbacks included."""

    @pytest.fixture
    def runs(self, monkeypatch):
        runs = []

        def recording(code, spec, config, *, transcript):
            backend = Recorded(config.backend)
            outcome = run_pipeline(code, spec, dataclasses.replace(config, backend=backend), transcript=transcript)
            runs.append((config, backend.requests, outcome))
            return outcome

        monkeypatch.setattr("uplift.evaluation.run_pipeline", recording)
        return runs

    @staticmethod
    def check(runs):
        for config, requests, outcome in runs:
            for request in requests:
                assert request.messages[0].role is Role.SYSTEM
                assert all(isinstance(m.role, Role) and type(m.content) is str for m in request.messages)
                # A bare str would pass as parts, one per character.
                assert all(type(m.parts) is tuple and all(type(p) is str for p in m.parts) for m in request.messages)
                assert all(m.content for m in request.messages if m.role is not Role.ASSISTANT)
                assert request.model == config.model
            assert (outcome.failure is not None) is (outcome.status is RunStatus.FAILED_GENERATION)
            assert outcome.failure is None or outcome.final_code is None

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_golden_scenario(self, runs, tmp_path, name):
        produce(name, tmp_path)
        assert runs
        self.check(runs)

    def test_golden_scenarios_re_ask_and_reach_every_status(self, runs, tmp_path):
        for name in SCENARIOS:
            (tmp_path / name).mkdir()
            produce(name, tmp_path / name)
        self.check(runs)
        requests = [request for _, sent, _ in runs for request in sent]
        assert {len(request.messages) for request in requests} == {2, 4}  # re-asks among them
        assert {outcome.status for *_, outcome in runs} == set(RunStatus)

    @pytest.mark.parametrize("mode", list(PipelineMode), ids=lambda m: m.value)
    def test_fault_runs(self, runs, fixtures_dir, tmp_path, mode):
        script = FAULT_SCRIPTS[PipelineMode.BASELINE_ZSL if mode in BASELINE_MODES else mode]
        case = fixtures_dir / ("case_view_zsl" if mode in BASELINE_MODES else "case_view")
        for k in range(len(script) + 1):  # k = 0: no fault
            run_bench(
                *case_files(case, mode), config(seq(), mode, model="m-1"), 1, out_dir=tmp_path / f"k{k}",
                backend_factory=lambda i: FaultAt(script, k, FAULTS[0]),
            )
        self.check(runs)
        statuses = [outcome.status for *_, outcome in runs]
        assert statuses == [RunStatus.COMPLETED] + [RunStatus.FAILED_GENERATION] * len(script)


def test_readme_lists_the_summary_keys_write_transcript_writes(tmp_path, original_code, two_requirements):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\nThe summary record is the last line.", 1)[1].split("\n\n", 2)[1]
    documented = [line.split("`")[1] for line in section.splitlines() if line.startswith("- `")]
    for backend in (happy_single_task_backend(), seq()):
        transcript = Transcript("r1")
        outcome = run_pipeline(original_code, two_requirements, config(backend), transcript=transcript)
        write_transcript(outcome, transcript.entries, tmp_path / "t.jsonl")
        summary = run_records(tmp_path / "t.jsonl")[-1]
        assert sorted(summary) == sorted(documented)
        assert (summary["failure"] is None) is (outcome.status is RunStatus.COMPLETED)


def test_readme_lists_the_exchange_keys_in_written_order(tmp_path, original_code, two_requirements):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\nAn exchange record has these 13 keys", 1)[1].split("\n\n", 2)[1]
    documented = [line.split("`")[1] for line in section.splitlines() if line.startswith("- `")]
    transcript = Transcript("r1")
    outcome = run_pipeline(original_code, two_requirements, config(seq()), transcript=transcript)
    write_transcript(outcome, transcript.entries, tmp_path / "t.jsonl")
    exchange = (tmp_path / "t.jsonl").read_text(encoding="utf-8").split("\n", 1)[0]
    assert list(json.loads(exchange)) == documented
