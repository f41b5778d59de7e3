from __future__ import annotations

import dataclasses
import json
import shutil
from hashlib import sha256

import pytest

from uplift.agents import DEFAULT_PROMPT_DIR
from uplift.model import CodeArtifact, extract_code
from uplift.pipeline import PipelineConfig, PipelineMode, RunStatus, run_pipeline
from uplift.transcript import Transcript, dump_record, read_transcript, strip_timing, write_transcript

from conftest import ACCEPT_REPLY, CODE_REPLY, PLAN_REPLY, REVISE_REPLY, SECTIONS_REPLY, seq


def config(backend, mode=PipelineMode.SYSTEM_SINGLE_TASK, **kwargs) -> PipelineConfig:
    return PipelineConfig(mode=mode, backend=backend, **kwargs)


def happy_single_task_backend():
    return seq(SECTIONS_REPLY, CODE_REPLY, ACCEPT_REPLY)


class TestConfig:
    def test_replace_keeps_templates_unless_the_directory_changes(self, tmp_path):
        base = config(seq())
        assert dataclasses.replace(base, backend=seq()).prompts is base.prompts
        shutil.copytree(DEFAULT_PROMPT_DIR, tmp_path / "prompts")
        moved = dataclasses.replace(base, prompt_dir=tmp_path / "prompts")
        assert moved.prompts.directory == tmp_path / "prompts"


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
        first_system = transcript.entries[0].request["messages"][0]["content"]
        assert two_requirements.requirements[0].text in first_system

    def test_single_task_mode_concatenates(self, original_code, two_requirements):
        transcript = Transcript("r1")
        outcome = run_pipeline(
            original_code,
            two_requirements,
            config(happy_single_task_backend()),
            transcript=transcript,
        )
        assert outcome.task_count == 1
        merged = " ".join(r.text for r in two_requirements.requirements)
        assert merged in transcript.entries[0].request["messages"][0]["content"]

    def test_baseline_mode_rejected(self, original_code, two_requirements):
        with pytest.raises(ValueError):
            run_pipeline(
                original_code, two_requirements, config(seq(), PipelineMode.BASELINE_ZSL)
            )


class TestRevisionLoop:
    def test_accepting_verifier_means_no_finalizer(self, original_code, two_requirements):
        outcome = run_pipeline(
            original_code, two_requirements, config(happy_single_task_backend())
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
        assert [e.agent for e in transcript.entries].count("finalizer") == 2
        assert [e.agent for e in transcript.entries].count("verifier") == 3
        assert outcome.final_code is not None
        assert outcome.final_code.iteration == 2

    def test_revise_then_accept_stops_early(self, original_code, two_requirements):
        backend = seq(SECTIONS_REPLY, CODE_REPLY, REVISE_REPLY, CODE_REPLY, ACCEPT_REPLY)
        outcome = run_pipeline(original_code, two_requirements, config(backend))
        assert outcome.finalizer_invocations == 1
        assert outcome.status is RunStatus.COMPLETED

    def test_zero_cap_advances_rejected_code(self, original_code, two_requirements):
        backend = seq(SECTIONS_REPLY, CODE_REPLY, REVISE_REPLY)
        outcome = run_pipeline(
            original_code, two_requirements, config(backend, max_loop_iterations=0)
        )
        assert outcome.finalizer_invocations == 0
        assert outcome.status is RunStatus.COMPLETED


class TestFailures:
    def test_executor_prose_fails_run(self, original_code, two_requirements):
        backend = seq(SECTIONS_REPLY, "I cannot update this file.")
        outcome = run_pipeline(original_code, two_requirements, config(backend))
        assert outcome.status is RunStatus.FAILED_GENERATION
        assert outcome.final_code is None

    def test_script_exhaustion_fails_run_with_transcript_error(
        self, original_code, two_requirements
    ):
        transcript = Transcript("r1")
        outcome = run_pipeline(
            original_code, two_requirements, config(seq(SECTIONS_REPLY)), transcript=transcript
        )
        assert outcome.status is RunStatus.FAILED_GENERATION
        assert transcript.entries[-1].error is not None

    def test_failed_run_keeps_finalizer_count(self, original_code, two_requirements):
        # Task 1 loops once; task 2's executor reply has no code.
        backend = seq(
            SECTIONS_REPLY, CODE_REPLY, REVISE_REPLY, CODE_REPLY, ACCEPT_REPLY,
            SECTIONS_REPLY, "I cannot update this file.",
        )
        outcome = run_pipeline(
            original_code, two_requirements, config(backend, PipelineMode.SYSTEM_PER_REQUIREMENT)
        )
        assert outcome.status is RunStatus.FAILED_GENERATION
        assert (outcome.task_count, outcome.finalizer_invocations) == (2, 1)

    def test_unplannable_manager_fails_run(self, original_code, two_requirements):
        backend = seq("nope", "still nope")
        outcome = run_pipeline(
            original_code, two_requirements, config(backend, PipelineMode.SYSTEM_MANAGER)
        )
        assert outcome.status is RunStatus.FAILED_GENERATION
        assert outcome.task_count == 0


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
        user = transcript.entries[0].request["messages"][1]["content"]
        assert user.index(prompt_text) < user.index(original_code.content)

    def test_codeless_reply_fails(self, original_code):
        outcome = run_pipeline(
            original_code, "do it", config(seq("no code here"), PipelineMode.BASELINE_OSL)
        )
        assert outcome.status is RunStatus.FAILED_GENERATION
        assert outcome.final_code is None
        assert outcome.task_count == 1

    def test_empty_prompt_rejected(self, original_code):
        with pytest.raises(ValueError):
            run_pipeline(original_code, "  ", config(seq(), PipelineMode.BASELINE_ZSL))

    def test_system_mode_rejected(self, original_code):
        with pytest.raises(ValueError):
            run_pipeline(original_code, "x", config(seq(), PipelineMode.SYSTEM_MANAGER))


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
        records = read_transcript(path)
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
        records = read_transcript(path)
        assert len(records) == len(transcript.entries) + 1
        assert records[-2]["response"] == reply

    def test_lines_are_canonical_and_digests_hash_the_bodies(self, tmp_path, two_requirements):
        # The bodies quote the key the request is spliced at, escape, and
        # leave ASCII; the verifier call finds the script empty and fails.
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
            records = read_transcript(path)
            assert len(records) == len(transcript.entries) + 1
            assert {r["run_id"] for r in records} == {run.run_id}

    def test_unwritable_path_surfaces_io_error(self, original_code, two_requirements):
        outcome, transcript = self.run_with_transcript(
            original_code, two_requirements, happy_single_task_backend()
        )
        with pytest.raises(OSError):
            write_transcript(outcome, transcript.entries, "/nonexistent-dir/t.jsonl")

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
            return read_transcript(path)

        first = one(tmp_path / "a.jsonl")
        second = one(tmp_path / "b.jsonl")
        assert first != second or True  # timing fields usually differ
        assert strip_timing(first) == strip_timing(second)


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
                users[entry.task_ordinal].append(entry.request["messages"][1]["content"])
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
