from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from uplift import cli, evaluation
from uplift.agents import DEFAULT_PROMPT_DIR as PROMPTS_DIR
from uplift.backend import ScriptedBackend
from uplift.cli import build_parser, main
from uplift.errors import DanglingReference, PlanParseError, UpliftError
from uplift.model import load_requirements, parse_requirements

from conftest import run_records, untimed

PLAN_SCRIPT = [
    {"match": "sequence", "response": "TASK 1: Update syntax to 4.5\nTASK 2: Fix ORM access"},
    {"match": "sequence", "response": "TASK 1: Update syntax to 4.5\nTASK 2: Fix ORM access"},
]

SINGLE_TASK_RUN_SCRIPT = [
    {
        "match": "sequence",
        "response": "INSTRUCTION: update\nEXAMPLE BEFORE: old()\nEXAMPLE AFTER: new()",
    },
    {"match": "sequence", "response": "```php\n<?php echo 'updated'; ?>\n```"},
    {"match": "sequence", "response": "VERDICT: ACCEPT"},
]


@pytest.fixture
def workdir(tmp_path, fixtures_dir, monkeypatch):
    monkeypatch.chdir(tmp_path)
    shutil.copytree(fixtures_dir / "case_view", tmp_path / "case_view")
    shutil.copytree(fixtures_dir / "case_view_zsl", tmp_path / "case_view_zsl")
    return tmp_path


def write_script(path, entries):
    path.write_text(json.dumps(entries), encoding="utf-8")
    return str(path)


class TestPlan:
    def test_happy_path(self, workdir, capsys):
        script = write_script(workdir / "s.json", PLAN_SCRIPT)
        code = main(["plan", "case_view/requirements.txt", "--script", script])
        out = capsys.readouterr().out
        assert code == 0
        assert "TASK 1: Update syntax to 4.5" in out
        assert "TASK 2: Fix ORM access" in out

    def test_byte_order_mark_keeps_the_first_requirement(self, workdir):
        path = workdir / "case_view" / "requirements.txt"
        raw = path.read_text(encoding="utf-8")
        path.write_text("\ufeff" + raw, encoding="utf-8")
        loaded = load_requirements(path)
        assert loaded == parse_requirements(raw) and len(loaded.requirements) == 2
        script = write_script(workdir / "s.json", PLAN_SCRIPT)
        assert main(["plan", "case_view/requirements.txt", "--script", script]) == 0

    def test_missing_requirements_file(self, workdir, capsys):
        script = write_script(workdir / "s.json", PLAN_SCRIPT)
        code = main(["plan", "nowhere.txt", "--script", script])
        assert code == 2
        assert "nowhere.txt" in capsys.readouterr().err

    def test_unparseable_plan_exits_3(self, workdir, capsys):
        script = write_script(
            workdir / "s.json",
            [
                {"match": "sequence", "response": "no tasks"},
                {"match": "sequence", "response": "still none"},
            ],
        )
        code = main(["plan", "case_view/requirements.txt", "--script", script])
        assert code == 3


    @pytest.mark.parametrize("flag", ["--script", "--config"])
    def test_deeply_nested_json_exits_2_naming_the_file(self, workdir, capsys, flag):
        (workdir / "deep.json").write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
        assert main(["plan", "case_view/requirements.txt", flag, "deep.json"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: deep.json: JSON nested too deeply\n"

    @pytest.mark.parametrize("flag", ["--script", "--config"])
    def test_malformed_json_exits_2_naming_the_file_line_and_column(self, workdir, capsys, flag):
        (workdir / "bad.json").write_text("{\n  'kind': 1}", encoding="utf-8")
        assert main(["plan", "case_view/requirements.txt", flag, "bad.json"]) == 2
        message = "line 2 column 3: Expecting property name enclosed in double quotes"
        assert capsys.readouterr() == ("", f"error: bad.json: {message}\n")


class TestRun:
    def test_system_run_writes_artifacts(self, workdir, capsys):
        script = write_script(workdir / "s.json", SINGLE_TASK_RUN_SCRIPT)
        code = main(
            [
                "run",
                "case_view/original.php",
                "case_view/requirements.txt",
                "--script",
                script,
                "--mode",
                "system_single_task",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "status=completed" in out
        assert (workdir / "out/original/run-001.updated.php").is_file()
        assert (workdir / "out/original/run-001.jsonl").is_file()

    def test_baseline_run(self, workdir, capsys):
        code = main(
            [
                "run",
                "case_view_zsl/original.php",
                "case_view_zsl/prompt.txt",
                "--script",
                "case_view_zsl/script.json",
                "--mode",
                "baseline_zsl",
            ]
        )
        assert code == 0
        assert "status=completed" in capsys.readouterr().out

    def test_byte_order_mark_stays_out_of_the_baseline_prompt(self, workdir):
        path = workdir / "case_view_zsl" / "prompt.txt"
        raw = path.read_text(encoding="utf-8")
        path.write_text("\ufeff" + raw, encoding="utf-8")
        argv = ["run", "case_view_zsl/original.php", "case_view_zsl/prompt.txt", "--mode", "baseline_zsl"]
        assert main(argv + ["--script", "case_view_zsl/script.json"]) == 0
        exchange = json.loads((workdir / "out/original/run-001.jsonl").read_text(encoding="utf-8").splitlines()[0])
        user = exchange["request"]["messages"][1]
        assert user["role"] == "user" and user["content"].startswith(raw)

    # A file with no suffix is updated to run-001.updated.
    @pytest.mark.parametrize("name", ["original.php", "original"])
    def test_codeless_reply_exits_4_without_output_file(self, workdir, capsys, name):
        (workdir / "case_view" / name).write_bytes((workdir / "case_view/original.php").read_bytes())
        updated = workdir / "out/original" / f"run-001.updated{Path(name).suffix}"
        argv = ["run", f"case_view/{name}", "case_view/requirements.txt", "--mode", "system_single_task"]
        # A completed run first writes run-001.updated<suffix> into the same directory.
        assert main(argv + ["--script", write_script(workdir / "ok.json", SINGLE_TASK_RUN_SCRIPT)]) == 0
        assert updated.is_file()
        capsys.readouterr()
        script = write_script(
            workdir / "s.json",
            [
                {
                    "match": "sequence",
                    "response": "INSTRUCTION: u\nEXAMPLE BEFORE: a\nEXAMPLE AFTER: b",
                },
                {"match": "sequence", "response": "I cannot update this file."},
            ],
        )
        code = main(argv + ["--script", script])
        assert code == 4
        assert "status=failed_generation" in capsys.readouterr().out
        assert not updated.exists()
        assert (workdir / "out/original/run-001.jsonl").is_file()

    def test_run_removes_the_surplus_run_files_of_an_earlier_bench(self, workdir):
        # A run is a one-repetition bench: a bench of a case directory named
        # "original" writes where a run of original.php does.
        shutil.copytree(workdir / "case_view", workdir / "original")
        assert main(["bench", "original", "--script", "case_view/script.json", "--reps", "2"]) == 0
        out = workdir / "out/original"
        assert (out / "run-002.jsonl").is_file() and (out / "run-002.updated.php").is_file()
        (workdir / "ledger.csv").write_text(
            "run_id,mistake_id,category,description\nrun-002,m1,content,a missed call\n", encoding="utf-8"
        )
        assert main(["report", "out/original", "ledger.csv", "--label", "x"]) == 0
        assert (out / "report.csv").is_file() and (out / "report.categories.json").is_file()
        argv = ["run", "case_view/original.php", "case_view/requirements.txt", "--script", "case_view/script.json"]
        assert main(argv) == 0
        assert sorted(p.name for p in out.glob("run-*")) == ["run-001.jsonl", "run-001.updated.php"]
        # The bench's index.csv and report go with its runs: nothing scores the deleted run-002.
        assert sorted(p.name for p in out.iterdir()) == ["run-001.jsonl", "run-001.updated.php"]
        assert main(["report", "out/original", "ledger.csv", "--label", "x"]) == 2
        assert not (out / "report.csv").exists()

    def test_config_file_drives_mode_and_script(self, workdir, capsys):
        write_script(workdir / "s.json", SINGLE_TASK_RUN_SCRIPT)
        (workdir / "uplift.json").write_text(
            json.dumps(
                {
                    "backend": {"kind": "script", "script_path": "s.json"},
                    "pipeline": {"mode": "system_single_task"},
                }
            )
        )
        code = main(["run", "case_view/original.php", "case_view/requirements.txt"])
        assert code == 0

    def test_flags_override_the_config_file(self, workdir, capsys):
        revise = {"match": "sequence", "response": "VERDICT: REVISE\nFEEDBACK: again"}
        code = {"match": "sequence", "response": "```php\n<?php echo 'revised'; ?>\n```"}
        # Enough replies for three finalizer passes; --max-loop 1 consumes the first five.
        write_script(workdir / "revise.json", SINGLE_TASK_RUN_SCRIPT[:2] + [revise, code, revise] * 3)
        write_script(workdir / "accept.json", SINGLE_TASK_RUN_SCRIPT)
        (workdir / "uplift.json").write_text(
            json.dumps(
                {
                    "backend": {"kind": "script", "script_path": "accept.json"},
                    "pipeline": {"mode": "system_manager", "max_loop_iterations": 3},
                    "bench": {"repetitions": 5},
                }
            )
        )
        flags = ["--script", "revise.json", "--mode", "system_single_task", "--reps", "2", "--max-loop", "1"]
        assert main(["bench", "case_view", *flags]) == 0
        assert capsys.readouterr().out.startswith("2 runs (0 failed)")
        index = (workdir / "out/case_view/index.csv").read_text().strip().splitlines()
        assert len(index) == 1 + 2
        for run_id in ("run-001", "run-002"):
            records = run_records(workdir / f"out/case_view/{run_id}.jsonl")
            calls, summary = records[:-1], records[-1]
            assert [r["agent"] for r in calls] == ["prompt_maker", "executor", "verifier", "finalizer", "verifier"]
            assert (summary["status"], summary["task_count"], summary["finalizer_invocations"]) == ("completed", 1, 1)
        updated = (workdir / "out/case_view/run-001.updated.php").read_text()
        assert updated == "<?php echo 'revised'; ?>\n"

    def test_unknown_config_key_rejected(self, workdir, capsys):
        (workdir / "bad.json").write_text(json.dumps({"backend": {"kindd": "script"}}))
        code = main(
            [
                "run",
                "case_view/original.php",
                "case_view/requirements.txt",
                "--config",
                "bad.json",
            ]
        )
        assert code == 2

    def test_every_config_key_is_accepted(self, workdir):
        write_script(workdir / "s.json", SINGLE_TASK_RUN_SCRIPT)
        (workdir / "full.json").write_text(
            json.dumps(
                {
                    "backend": {
                        "kind": "script",
                        "endpoint": "https://example.test/v1/chat/completions",
                        "model": "some-model",
                        "script_path": "s.json",
                    },
                    "pipeline": {
                        "mode": "system_single_task",
                        "max_loop_iterations": 1,
                    },
                    "prompts": {"dir": str(PROMPTS_DIR)},
                    "bench": {"repetitions": 2, "parallelism": 2},
                }
            )
        )
        code = main(
            ["run", "case_view/original.php", "case_view/requirements.txt", "--config", "full.json"]
        )
        assert code == 0

    def test_custom_prompts_dir(self, workdir, capsys):
        custom = workdir / "my_prompts"
        shutil.copytree(PROMPTS_DIR, custom)
        marker = "Reply with one operation per line"
        manager = custom / "manager.txt"
        manager.write_text(
            manager.read_text(encoding="utf-8").replace(marker, marker + " and keep them short"),
            encoding="utf-8",
        )
        write_script(workdir / "s.json", PLAN_SCRIPT)
        (workdir / "uplift.json").write_text(
            json.dumps(
                {
                    "backend": {"kind": "script", "script_path": "s.json"},
                    "prompts": {"dir": str(custom)},
                }
            )
        )
        assert main(["plan", "case_view/requirements.txt"]) == 0
        assert "TASK 1:" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "case_view/original.php", "case_view/requirements.txt"],
            ["run", "case_view_zsl/original.php", "case_view_zsl/prompt.txt", "--mode", "baseline_zsl"],
            ["bench", "case_view", "--reps", "1"],
        ],
        ids=["run", "run-baseline", "bench"],
    )
    def test_bad_prompts_dir_exits_2_before_output(self, workdir, capsys, argv):
        (workdir / "bad.json").write_text(json.dumps({"prompts": {"dir": str(workdir / "nowhere")}}))
        assert main(argv + ["--script", "case_view/script.json", "--config", "bad.json"]) == 2
        assert "missing prompt template" in capsys.readouterr().err
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "case_view/original.php", "case_view/requirements.txt"],
            ["bench", "case_view", "--reps", "1"],
        ],
        ids=["run", "bench"],
    )
    def test_unknown_placeholder_exits_2_before_any_call(self, workdir, capsys, monkeypatch, argv):
        custom = workdir / "typo_prompts"
        shutil.copytree(PROMPTS_DIR, custom)
        verifier = custom / "verifier.txt"
        verifier.write_text(
            verifier.read_text(encoding="utf-8").replace("{{task}}", "{{taks}}"), encoding="utf-8"
        )
        (workdir / "typo.json").write_text(json.dumps({"prompts": {"dir": str(custom)}}))
        calls = []
        complete = ScriptedBackend.complete

        def counting_complete(self, request):
            calls.append(request)
            return complete(self, request)

        monkeypatch.setattr(ScriptedBackend, "complete", counting_complete)
        assert main(argv + ["--script", "case_view/script.json", "--config", "typo.json"]) == 2
        err = capsys.readouterr().err
        assert "verifier.txt" in err and "{{taks}}" in err
        assert calls == []
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize(
        "blank, argv",
        [
            ("case_view/original.php", ["run", "case_view/original.php", "case_view/requirements.txt"]),
            ("case_view/original.php", ["bench", "case_view", "--reps", "1"]),
            (
                "case_view_zsl/prompt.txt",
                ["run", "case_view_zsl/original.php", "case_view_zsl/prompt.txt", "--mode", "baseline_zsl"],
            ),
            ("case_view_zsl/prompt.txt", ["bench", "case_view_zsl", "--mode", "baseline_zsl", "--reps", "1"]),
        ],
        ids=["empty-source-run", "empty-source-bench", "blank-prompt-run", "blank-prompt-bench"],
    )
    def test_blank_input_exits_2_before_output(self, workdir, capsys, blank, argv):
        (workdir / blank).write_text(" \n\t\n", encoding="utf-8")
        script = str(Path(blank).parent / "script.json")
        assert main(argv + ["--script", script]) == 2
        err = capsys.readouterr().err
        assert blank in err and "Traceback" not in err
        assert not (workdir / "out").exists()

    def test_script_kind_requires_script_path(self, workdir):
        (workdir / "bad.json").write_text(json.dumps({"backend": {"kind": "script"}}))
        code = main(
            [
                "run",
                "case_view/original.php",
                "case_view/requirements.txt",
                "--config",
                "bad.json",
            ]
        )
        assert code == 2


def error_classes(cls: type) -> list[type]:
    """cls and every class below it."""
    return [cls] + [c for sub in cls.__subclasses__() for c in error_classes(sub)]


class TestExitCodes:
    def test_usage_errors_exit_2(self, workdir, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2
        with pytest.raises(SystemExit) as info:
            main(["run", "a.php", "b.txt", "--mode", "bogus"])
        assert info.value.code == 2
        with pytest.raises(SystemExit) as info:
            main(["report", "out/x", "ledger.csv", "--label", "x", "--reps", "3"])
        assert info.value.code == 2
        with pytest.raises(SystemExit) as info:
            main(["plan", "requirements.txt", "--out", "x"])
        assert info.value.code == 2
        capsys.readouterr()
        for argv in (["plan", "r"], ["run", "a.php", "b"], ["bench", "case"], ["report", "o", "l", "--label", "x"]):
            with pytest.raises(SystemExit) as info:
                main(argv + ["--backend", "http"])
            assert info.value.code == 2
            assert "unrecognized arguments: --backend http" in capsys.readouterr().err

    @pytest.mark.parametrize("error", error_classes(UpliftError), ids=lambda cls: cls.__name__)
    def test_every_error_class_has_its_exit_code(self, workdir, capsys, monkeypatch, error):
        def load_requirements(path):
            raise error("boom")

        monkeypatch.setattr(cli, "load_requirements", load_requirements)
        expected = {PlanParseError: 3, DanglingReference: 5}.get(error, 2)
        assert main(["plan", "case_view/requirements.txt"]) == expected
        assert capsys.readouterr().err == "error: boom\n"

    def test_empty_requirements_file_maps_to_2(self, workdir):
        (workdir / "empty.txt").write_text("", encoding="utf-8")
        code = main(
            [
                "run",
                "case_view/original.php",
                "empty.txt",
                "--script",
                "case_view/script.json",
                "--mode",
                "system_manager",
            ]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["plan", "case_view/requirements.txt", "--script", "case_view/script.json"],
            ["run", "case_view/original.php", "case_view/requirements.txt", "--script", "case_view/script.json"],
            ["bench", "case_view", "--script", "case_view/script.json", "--reps", "1"],
        ],
        ids=["plan", "run", "bench"],
    )
    def test_max_loop_below_zero_exits_2(self, workdir, capsys, argv):
        (workdir / "bad.json").write_text(json.dumps({"pipeline": {"max_loop_iterations": -1}}))
        assert main(argv + ["--config", "bad.json"]) == 2
        assert "pipeline.max_loop_iterations" in capsys.readouterr().err
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["plan", "case_view/requirements.txt", "--script", "case_view/script.json"],
            ["run", "case_view/original.php", "case_view/requirements.txt", "--script", "case_view/script.json"],
        ],
        ids=["plan", "run"],
    )
    def test_the_removed_threshold_key_exits_2(self, workdir, capsys, argv):
        (workdir / "old.json").write_text(json.dumps({"pipeline": {"failed_error_threshold": 7}}))
        assert main(argv + ["--config", "old.json"]) == 2
        assert capsys.readouterr().err == "error: old.json: unknown key pipeline.failed_error_threshold\n"
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"backend": {"kind": "grpc"}}, "backend.kind must be http or script, got 'grpc'"),
            (
                {"backend": {"kind": "http", "script_path": "case_view/script.json"}},
                "backend.script_path is only valid with backend.kind=script",
            ),
            ({"bench": {"parallelism": 0}}, "bench.parallelism must be >= 1"),
            ([], "bad.json: expected a JSON object"),
            ({"bogus": {}}, "bad.json: unknown section 'bogus'"),
            ({"bench": 3}, "bad.json: section 'bench' must be an object"),
            ({"pipeline": {"failed_error_threshold": 7}}, "bad.json: unknown key pipeline.failed_error_threshold"),
        ],
        ids=[
            "unknown-kind",
            "script-path-with-http",
            "parallelism-0",
            "not-an-object",
            "unknown-section",
            "section-not-an-object",
            "removed-threshold-key",
        ],
    )
    def test_invalid_config_exits_2_with_its_message(self, workdir, capsys, config, message):
        (workdir / "bad.json").write_text(json.dumps(config))
        assert main(["bench", "case_view", "--reps", "1", "--config", "bad.json"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (workdir / "out").exists()

    def test_missing_config_file_exits_2(self, workdir, capsys):
        assert main(["plan", "case_view/requirements.txt", "--config", "nope.json"]) == 2
        assert capsys.readouterr().err == "error: config file not found: nope.json\n"

    @pytest.mark.parametrize(
        "endpoint", ["localhost:8080/v1/chat/completions", "ftp://host/v1", "http:///v1", "http://[::1/v1"]
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ["plan", "case_view/requirements.txt"],
            ["run", "case_view/original.php", "case_view/requirements.txt"],
            ["bench", "case_view", "--reps", "1"],
        ],
        ids=["plan", "run", "bench"],
    )
    def test_malformed_endpoint_exits_2_before_output(self, workdir, capsys, argv, endpoint):
        (workdir / "bad.json").write_text(json.dumps({"backend": {"endpoint": endpoint}}))
        assert main(argv + ["--config", "bad.json"]) == 2
        assert "backend.endpoint" in capsys.readouterr().err
        assert not (workdir / "out").exists()

    def test_malformed_endpoint_is_ignored_by_a_scripted_run(self, workdir):
        (workdir / "bad.json").write_text(json.dumps({"backend": {"endpoint": "localhost:8080/v1"}}))
        argv = ["run", "case_view/original.php", "case_view/requirements.txt", "--config", "bad.json"]
        assert main(argv + ["--script", "case_view/script.json"]) == 0

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("bench", "repetitions", True),
            ("bench", "repetitions", 2.5),
            ("bench", "parallelism", 1.5),
            ("pipeline", "max_loop_iterations", 1.5),
            ("backend", "model", 5),
        ],
    )
    def test_wrong_typed_config_value_exits_2_before_output(self, workdir, capsys, section, key, value):
        (workdir / "bad.json").write_text(json.dumps({section: {key: value}}))
        argv = ["bench", "case_view", "--script", "case_view/script.json", "--config", "bad.json"]
        assert main(argv) == 2
        assert f"{section}.{key}" in capsys.readouterr().err
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize(
        "key, value, want",
        [
            ("backend.kind", None, "of type str"),
            ("backend.endpoint", None, "of type str"),
            ("backend.model", None, "of type str"),
            ("backend.script_path", 5, "a string or null"),
            ("backend.script_path", True, "a string or null"),
            ("pipeline.mode", None, "of type str"),
            ("prompts.dir", None, "of type str"),
            *[
                (key, value, "of type int")
                for key in [
                    "pipeline.max_loop_iterations",
                    "bench.repetitions",
                    "bench.parallelism",
                ]
                for value in [True, 2.5]
            ],
        ],
    )
    def test_each_key_of_the_wrong_type_exits_2_with_its_message(self, workdir, capsys, key, value, want):
        section, name = key.split(".")
        (workdir / "bad.json").write_text(json.dumps({section: {name: value}}))
        argv = ["bench", "case_view", "--script", "case_view/script.json", "--config", "bad.json"]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: bad.json: {key} must be {want}, got {value!r}\n"
        assert not (workdir / "out").exists()


class TestFlags:
    @staticmethod
    def bench_config(workdir, monkeypatch, config, *flags):
        """The settings cmd_bench gets from config, written to uplift.json, and flags."""
        seen = []
        monkeypatch.setattr(cli, "cmd_bench", lambda args, settings: seen.append(settings) or 0)
        (workdir / "uplift.json").write_text(json.dumps(config), encoding="utf-8")
        assert main(["bench", "case_view", *flags]) == 0
        return seen[0]

    @pytest.mark.parametrize(
        "flag, value, key, in_file, given",
        [
            ("--script", "b.json", "backend.script_path", "a.json", "b.json"),
            ("--mode", "system_single_task", "pipeline.mode", "baseline_zsl", "system_single_task"),
            ("--max-loop", "1", "pipeline.max_loop_iterations", 3, 1),
            ("--reps", "2", "bench.repetitions", 5, 2),
        ],
    )
    def test_each_flag_overrides_its_key_from_the_config_file(
        self, workdir, monkeypatch, flag, value, key, in_file, given
    ):
        section, name = key.split(".")
        config = {"backend": {"kind": "script", "script_path": "a.json"}}
        config.setdefault(section, {})[name] = in_file
        assert self.bench_config(workdir, monkeypatch, config)[key] == in_file
        assert self.bench_config(workdir, monkeypatch, config, flag, value)[key] == given

    @pytest.mark.parametrize("flag, value", [("--reps", "1_0"), ("--reps", "٢"), ("--max-loop", "٢")])
    def test_an_int_flag_takes_ascii_digits_only(self, workdir, monkeypatch, capsys, flag, value):
        monkeypatch.setattr(cli, "cmd_bench", lambda args, settings: pytest.fail("bench ran"))
        with pytest.raises(SystemExit) as info:
            main(["bench", "case_view", "--script", "case_view/script.json", flag, value, "--out", "fresh"])
        assert info.value.code == 2
        assert f"argument {flag}: invalid number value: {value!r}" in capsys.readouterr().err
        assert not (workdir / "fresh").exists()

    def test_script_switches_the_backend_kind_to_script(self, workdir, monkeypatch):
        config = {"backend": {"kind": "http", "endpoint": "http://127.0.0.1:9/v1"}}
        assert self.bench_config(workdir, monkeypatch, config)["backend.kind"] == "http"
        settings = self.bench_config(workdir, monkeypatch, config, "--script", "s.json")
        assert (settings["backend.kind"], settings["backend.script_path"]) == ("script", "s.json")


class TestDeterminism:
    def test_rerun_reproduces_transcript_modulo_timing(self, workdir):
        write_script(workdir / "s.json", SINGLE_TASK_RUN_SCRIPT)
        args = [
            "run",
            "case_view/original.php",
            "case_view/requirements.txt",
            "--script",
            "s.json",
            "--mode",
            "system_single_task",
        ]
        assert main(args + ["--out", "out1"]) == 0
        assert main(args + ["--out", "out2"]) == 0
        run_file = "original/run-001.jsonl"
        assert untimed(workdir / "out1" / run_file) == untimed(workdir / "out2" / run_file)
        updated_1 = (workdir / "out1/original/run-001.updated.php").read_bytes()
        updated_2 = (workdir / "out2/original/run-001.updated.php").read_bytes()
        assert updated_1 == updated_2

    @pytest.mark.parametrize(
        "case, spec, mode",
        [
            ("case_view", "requirements.txt", "system_manager"),
            ("case_view_zsl", "prompt.txt", "baseline_zsl"),
        ],
    )
    def test_run_writes_what_a_one_rep_bench_writes(self, workdir, case, spec, mode):
        shared = ["--script", f"{case}/script.json", "--mode", mode]
        assert main(["run", f"{case}/original.php", f"{case}/{spec}", *shared, "--out", "ran"]) == 0
        assert main(["bench", case, *shared, "--reps", "1", "--out", "benched"]) == 0
        ran, benched = workdir / "ran/original", workdir / f"benched/{case}"
        assert untimed(ran / "run-001.jsonl") == untimed(benched / "run-001.jsonl")
        updated = (ran / "run-001.updated.php").read_bytes()
        assert updated == (benched / "run-001.updated.php").read_bytes()


class TestBench:
    def test_index_has_ten_rows(self, workdir, capsys):
        code = main(
            [
                "bench",
                "case_view",
                "--script",
                "case_view/script.json",
                "--mode",
                "system_manager",
                "--reps",
                "10",
            ]
        )
        assert code == 0
        index = (workdir / "out/case_view/index.csv").read_text().strip().splitlines()
        assert len(index) == 11  # header + 10 rows
        assert index[1].startswith("run-001,completed,")

    @pytest.mark.parametrize("cwd, case_dir", [("case_view", "."), ("case_view/sub", ".."), (".", "latest")])
    def test_a_case_dir_writes_under_its_resolved_name(self, workdir, monkeypatch, capsys, cwd, case_dir):
        (workdir / "case_view/sub").mkdir()
        (workdir / "latest").symlink_to("case_view")
        monkeypatch.chdir(workdir / cwd)
        # Run files of another bench where out/ and ./ stand: none is another case's to delete.
        for keep in (Path("run-002.jsonl"), Path("out/run-002.jsonl")):
            keep.parent.mkdir(exist_ok=True)
            keep.write_text("{}\n", encoding="utf-8")
        argv = ["bench", case_dir, "--script", str(workdir / "case_view/script.json"), "--reps", "1"]
        assert main(argv) == 0
        assert capsys.readouterr().out == f"1 runs (0 failed) -> {Path('out/case_view/index.csv')}\n"
        assert sorted(p.name for p in Path("out/case_view").iterdir()) == [
            "index.csv", "run-001.jsonl", "run-001.updated.php"
        ]
        assert Path("run-002.jsonl").is_file() and Path("out/run-002.jsonl").is_file()
        assert sorted(p.name for p in Path("out").iterdir()) == ["case_view", "run-002.jsonl"]

    def test_bad_case_dir_exits_2(self, workdir, capsys):
        assert main(["bench", "missing_case", "--script", "case_view/script.json"]) == 2
        assert capsys.readouterr().err == "error: case directory not found: missing_case\n"
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize("missing", ["original.php", "requirements.txt"])
    def test_incomplete_case_exits_2_before_output(self, workdir, capsys, missing):
        (workdir / "case_view" / missing).unlink()
        assert main(["bench", "case_view", "--script", "case_view/script.json", "--reps", "1"]) == 2
        assert "case_view" in capsys.readouterr().err
        assert not (workdir / "out").exists()

    def test_script_with_non_string_response_exits_2_before_output(self, workdir, capsys):
        write_script(workdir / "s.json", [{"match": "sequence", "response": 5}])
        assert main(["bench", "case_view", "--script", "s.json", "--reps", "1"]) == 2
        err = capsys.readouterr().err
        assert "entry 0: response content must be a str" in err and "Traceback" not in err
        assert not (workdir / "out").exists()

    def test_substring_script_exits_2_before_output(self, workdir, capsys):
        script = [{"match": "sequence", "response": "x"}, {"match": "substring", "response": "y"}]
        write_script(workdir / "s.json", script)
        assert main(["bench", "case_view", "--script", "s.json", "--reps", "1"]) == 2
        err = capsys.readouterr().err
        assert "entry 1: match must be" in err and "Traceback" not in err
        assert not (workdir / "out/case_view").exists()

    def test_lone_surrogate_script_reply_exits_2_before_output(self, workdir, capsys):
        write_script(workdir / "s.json", [{"response": "```php\n<?php echo 1; // \ud800\n```"}])
        assert main(["bench", "case_view_zsl", "--mode", "baseline_zsl", "--script", "s.json"]) == 2
        err = capsys.readouterr().err
        assert "entry 0: response content must be a str with no lone surrogate" in err and "Traceback" not in err
        assert not (workdir / "out").exists()

    def test_lone_surrogate_config_value_exits_2_before_output(self, workdir, capsys):
        (workdir / "bad.json").write_text(json.dumps({"backend": {"model": "gpt-\ud800"}}))
        argv = ["bench", "case_view", "--script", "case_view/script.json", "--config", "bad.json"]
        assert main(argv) == 2
        assert "backend.model holds a lone surrogate escape" in capsys.readouterr().err
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize("key", ["sk-abc\u2026", "sk-abc\n"], ids=repr)
    def test_malformed_api_key_fails_every_run_recorded(self, workdir, monkeypatch, key):
        import requests

        posts = []
        monkeypatch.setattr(requests.Session, "post", lambda session, url, **kwargs: posts.append(url))
        monkeypatch.setenv("LLM_API_KEY", key)
        config = workdir / "local.json"
        config.write_text(json.dumps({"backend": {"endpoint": "http://127.0.0.1:9/v1/chat/completions"}}))
        argv = ["bench", "case_view_zsl", "--mode", "baseline_zsl", "--reps", "2", "--config", str(config)]
        assert main(argv) == 0
        assert posts == []
        out_dir = workdir / "out/case_view_zsl"
        rows = (out_dir / "index.csv").read_text().splitlines()[1:]
        assert [row.split(",")[:2] for row in rows] == [[f"run-00{i}", "failed_generation"] for i in (1, 2)]
        failure = "CredentialMissing: environment variable LLM_API_KEY holds a character other than visible ASCII"
        for i in (1, 2):
            lines = (out_dir / f"run-00{i}.jsonl").read_text(encoding="utf-8").splitlines()
            exchange, summary = [json.loads(line) for line in lines]
            assert exchange["agent"] == "baseline"
            assert exchange["error"] == summary["failure"] == failure

    def test_smaller_bench_removes_surplus_run_files(self, workdir):
        argv = ["bench", "case_view", "--script", "case_view/script.json", "--reps"]
        out = workdir / "out/case_view"
        assert main(argv + ["3"]) == 0
        kept = ["run-3.jsonl", "run-003.updated.php.bak", "run-0003.jsonl", "notes.txt", "report.csv.bak"]
        # Arabic-Indic, Gujarati and fullwidth digits: a run is numbered in ASCII digits only.
        kept += ["run-\u0660\u0660\u0665.jsonl", "run-\u0ae6\u0ae6\u0aeb.jsonl", "run-\uff10\uff10\uff15.jsonl"]
        for name in kept:
            (out / name).write_text("kept", encoding="utf-8")
        # A hand ledger kept beside the runs, and reports of the three runs: one there, one elsewhere.
        kept.append("ledger.csv")
        (out / "ledger.csv").write_text(
            "run_id,mistake_id,category,description\nrun-003,m1,content,a missed call\n", encoding="utf-8"
        )
        report = ["report", "out/case_view", "out/case_view/ledger.csv", "--label", "a"]
        assert main(report) == 0 and main(report + ["--out", "elsewhere"]) == 0
        elsewhere = {p.name: p.read_bytes() for p in (workdir / "elsewhere").iterdir()}
        assert sorted(elsewhere) == ["report.categories.json", "report.csv"]
        assert main(argv + ["2"]) == 0
        run_files = {f"run-{i:03d}{ext}" for i in (1, 2) for ext in (".jsonl", ".updated.php")}
        # The report there went with the runs it scored; the one written elsewhere stays as it was.
        assert {p.name for p in out.iterdir()} == run_files | {"index.csv", *kept}
        assert {p.name: p.read_bytes() for p in (workdir / "elsewhere").iterdir()} == elsewhere

    def test_every_file_a_bench_and_report_write_is_in_the_record(self, workdir):
        # run_bench deletes what in_record accepts: a file that a command writes into a case output
        # directory, but that in_record does not name, would outlive the bench it belongs to.
        assert main(["bench", "case_view", "--script", "case_view/script.json", "--reps", "2"]) == 0
        ledger = workdir / "ledger.csv"
        ledger.write_text("run_id,mistake_id,category,description\nrun-001,m1,content,a missed call\n")
        assert main(["report", "out/case_view", str(ledger), "--label", "a"]) == 0
        names = sorted(p.name for p in (workdir / "out/case_view").iterdir())
        assert {"index.csv", "report.csv", "report.categories.json", "run-002.updated.php"} <= set(names)
        assert all(evaluation.in_record(name) for name in names), names
        for name in ("ledger.csv", "run-0001.jsonl", "run-\u0660\u0660\u0665.jsonl", "report.csv.bak", "notes.txt"):
            assert not evaluation.in_record(name), name

    def test_a_rebench_after_a_suffix_change_leaves_one_updated_file_per_run(self, workdir):
        argv = ["bench", "case_view", "--script", "case_view/script.json", "--reps", "2"]
        assert main(argv) == 0
        (workdir / "case_view/original.php").rename(workdir / "case_view/original.ctp")
        assert main(argv) == 0
        run_files = {f"run-00{i}{ext}" for i in (1, 2) for ext in (".jsonl", ".updated.ctp")}
        assert {p.name for p in (workdir / "out/case_view").iterdir()} == run_files | {"index.csv"}

    def test_an_aborted_bench_leaves_no_earlier_bench_files(self, workdir, monkeypatch, capsys):
        import uplift.evaluation

        argv = ["bench", "case_view", "--script", "case_view/script.json", "--reps", "3"]
        assert main(argv) == 0
        write_transcript = uplift.evaluation.write_transcript

        def full_on_run_2(outcome, entries, path):
            if outcome.run_id == "run-002":
                raise OSError("No space left on device")
            write_transcript(outcome, entries, path)

        monkeypatch.setattr(uplift.evaluation, "write_transcript", full_on_run_2)
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: No space left on device\n"
        out = workdir / "out/case_view"
        assert sorted(p.name for p in out.iterdir()) == ["run-001.jsonl", "run-001.updated.php"]

    def test_script_and_templates_are_read_once(self, workdir, monkeypatch):
        import uplift.agents
        import uplift.cli
        from uplift.transcript import strip_timing

        calls = {"load_script": 0, "PromptLibrary": 0}
        load_script, init = uplift.cli.load_script, uplift.agents.PromptLibrary.__init__

        def counting_load_script(path):
            calls["load_script"] += 1
            return load_script(path)

        def counting_init(self, *args, **kwargs):
            calls["PromptLibrary"] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(uplift.cli, "load_script", counting_load_script)
        monkeypatch.setattr(uplift.agents.PromptLibrary, "__init__", counting_init)
        (workdir / "two.json").write_text(json.dumps({"bench": {"parallelism": 2}}))
        argv = ["bench", "case_view", "--script", "case_view/script.json", "--reps", "5"]
        assert main(argv + ["--config", "two.json"]) == 0
        assert calls == {"load_script": 1, "PromptLibrary": 1}
        out = workdir / "out/case_view"
        runs = [strip_timing(run_records(out / f"run-{i:03d}.jsonl")) for i in range(1, 6)]
        assert runs[0][-1]["status"] == "completed"
        without_ids = [[{**r, "run_id": ""} for r in run] for run in runs]
        assert all(run == without_ids[0] for run in without_ids)

    def test_deeply_nested_reply_fails_its_runs_not_the_bench(self, workdir, monkeypatch):
        import requests

        def post(session, url, **kwargs):
            response = requests.Response()
            response.status_code = 200
            response._content = b"[" * 2000 + b"]" * 2000
            return response

        monkeypatch.setattr(requests.Session, "post", post)
        monkeypatch.setenv("LLM_API_KEY", "k")
        config = workdir / "local.json"
        config.write_text(json.dumps({"backend": {"endpoint": "http://127.0.0.1:9/v1/chat/completions"}}))
        argv = ["bench", "case_view_zsl", "--mode", "baseline_zsl", "--reps", "2", "--config", str(config)]
        assert main(argv) == 0
        out_dir = workdir / "out/case_view_zsl"
        rows = (out_dir / "index.csv").read_text().splitlines()[1:]
        assert [row.split(",")[:2] for row in rows] == [["run-001", "failed_generation"], ["run-002", "failed_generation"]]
        last = json.loads((out_dir / "run-002.jsonl").read_text().splitlines()[-2])
        assert last["error"].startswith("BackendExhausted: malformed completion body")

    def test_zero_reps_rejected(self, workdir):
        code = main(
            ["bench", "case_view", "--script", "case_view/script.json", "--reps", "0"]
        )
        assert code == 2


class TestReport:
    @staticmethod
    def bench(workdir, reps=10):
        assert (
            main(
                [
                    "bench",
                    "case_view_zsl",
                    "--script",
                    "case_view_zsl/script.json",
                    "--mode",
                    "baseline_zsl",
                    "--reps",
                    str(reps),
                ]
            )
            == 0
        )
        return workdir / "out/case_view_zsl"

    def write_table2_ledger(self, workdir):
        # distinct-error counts [2,2,2,2,2,2,1,1,1,1]
        rows = ["run_id,mistake_id,category,description"]
        for i in range(1, 11):
            rows.append(f"run-{i:03d},m1,fatal,first mistake")
            if i <= 6:
                rows.append(f"run-{i:03d},m2,runtime,second mistake")
        path = workdir / "ledger.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        return path

    def test_prints_table2_row(self, workdir, capsys):
        out_dir = self.bench(workdir)
        ledger = self.write_table2_ledger(workdir)
        code = main(["report", str(out_dir), str(ledger), "--label", "View A ZSL"])
        assert code == 0
        out = capsys.readouterr().out
        assert "mean_errors=1.600" in out
        assert "sd_errors=0.490" in out
        assert (out_dir / "report.csv").is_file()
        assert (out_dir / "report.categories.json").is_file()

    def test_scores_print_means(self, workdir, capsys):
        out_dir = self.bench(workdir)
        ledger = workdir / "ledger.csv"
        ledger.write_text("run_id,mistake_id,category,description\n", encoding="utf-8")
        scores = ["run_id,requirement_index,value"]
        passes = {1: 5, 2: 3, 3: 2}
        for index, n in passes.items():
            for i in range(1, 11):
                scores.append(f"run-{i:03d},{index},{1 if i <= n else 0}")
        scores_path = workdir / "scores.csv"
        scores_path.write_text("\n".join(scores) + "\n", encoding="utf-8")
        code = main(
            [
                "report",
                str(out_dir),
                str(ledger),
                "--scores",
                str(scores_path),
                "--label",
                "View D system",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "requirement_mean_1=0.500 requirement_mean_2=0.300 requirement_mean_3=0.200" in out

    # A name, then a JSON string or a cell with no space or quote in it.
    PAIR_RE = re.compile(r'(\w+)=("(?:[^"\\]|\\.)*"|[^\s"]\S*)')

    @pytest.mark.parametrize(
        "label",
        ["ZSL", "Système", "Syst. (2 tasks)", "a=b", 'say "hi"', "back\\slash", "two\nlines", "para\u2028sep", "Système B"],
    )
    def test_printed_line_splits_back_into_its_pairs(self, workdir, capsys, label):
        out_dir = self.bench(workdir, reps=2)
        ledger = workdir / "ledger.csv"
        ledger.write_text("run_id,mistake_id,category,description\nrun-001,m1,fatal,x\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["report", str(out_dir), str(ledger), "--label", label]) == 0
        line, rest = capsys.readouterr().out.split("\n", 1)
        assert rest == ""
        pairs = self.PAIR_RE.findall(line)
        assert " ".join(f"{name}={cell}" for name, cell in pairs) == line
        cells = {name: json.loads(cell) if cell.startswith('"') else cell for name, cell in pairs}
        assert (cells["method_label"], cells["runs_total"], cells["mean_errors"]) == (label, "2", "0.500")
        assert all(cell.isascii() for _, cell in pairs if cell.startswith('"'))
        # A label with none of the quoted characters prints as it is.
        assert line.startswith(f"method_label={label} ") is (label in ("ZSL", "Système"))

    def test_label_not_valid_utf8_exits_2_and_touches_no_output(self, workdir, capsys):
        out_dir = self.bench(workdir, reps=2)
        ledger = workdir / "ledger.csv"
        ledger.write_text("run_id,mistake_id,category,description\nrun-001,m1,fatal,x\n", encoding="utf-8")
        assert main(["report", str(out_dir), str(ledger), "--label", "m"]) == 0
        earlier = (out_dir / "report.csv").read_bytes()
        # The argv bytes b"m\xff" as Python decodes them.
        label = b"m\xff".decode("utf-8", "surrogateescape")
        capsys.readouterr()
        assert main(["report", str(out_dir), str(ledger), "--label", label]) == 2
        assert capsys.readouterr().err == "error: --label is not valid UTF-8\n"
        assert (out_dir / "report.csv").read_bytes() == earlier
        fresh = workdir / "fresh"
        assert main(["report", str(out_dir), str(ledger), "--label", label, "--out", str(fresh)]) == 2
        assert not fresh.exists()

    @pytest.mark.parametrize("label", ["", "  "])
    def test_blank_label_exits_2_before_reading_input(self, workdir, capsys, label):
        assert main(["report", "nowhere", "nowhere.csv", "--label", label, "--out", "fresh"]) == 2
        assert capsys.readouterr().err == "error: --label must hold a non-whitespace character\n"
        assert not (workdir / "fresh").exists()

    def test_an_index_cut_short_of_its_runs_exits_2_and_writes_no_report(self, workdir, capsys):
        out_dir = self.bench(workdir, reps=3)
        index = out_dir / "index.csv"
        index.write_text("".join(index.read_text(encoding="utf-8").splitlines(keepends=True)[:2]), encoding="utf-8")
        ledger = workdir / "ledger.csv"
        ledger.write_text("run_id,mistake_id,category,description\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["report", str(out_dir), str(ledger), "--label", "x"]) == 2
        assert capsys.readouterr().err == f"error: {index}: no row for the run file run-002.jsonl\n"
        assert not (out_dir / "report.csv").exists()

    def test_non_finite_index_duration_exits_2(self, workdir, capsys):
        out_dir = workdir / "out"
        out_dir.mkdir()
        (out_dir / "index.csv").write_text(
            "run_id,status,duration_seconds,loc\nrun-001,completed,nan,3\n", encoding="utf-8"
        )
        ledger = workdir / "ledger.csv"
        ledger.write_text("run_id,mistake_id,category,description\n", encoding="utf-8")
        assert main(["report", str(out_dir), str(ledger), "--label", "x"]) == 2
        assert "row 2: " in capsys.readouterr().err
        assert not (out_dir / "report.csv").exists()

    @pytest.mark.parametrize(
        "first, row, message",
        [
            ("run-001,completed,1.000,", 2, "a completed run needs a loc"),
            ("run-001,completed,1.000,4", 4, "a failed_generation run cannot have a loc"),
        ],
    )
    def test_loc_contradicting_status_exits_2_naming_its_row(self, workdir, capsys, first, row, message):
        out_dir = workdir / "out"
        out_dir.mkdir()
        rows = [first, "run-002,completed,3.000,10", "run-003,failed_generation,2.000,7"]
        index = out_dir / "index.csv"
        index.write_text("run_id,status,duration_seconds,loc\n" + "\n".join(rows) + "\n", encoding="utf-8")
        ledger = workdir / "ledger.csv"
        ledger.write_text("run_id,mistake_id,category,description\n", encoding="utf-8")
        assert main(["report", str(out_dir), str(ledger), "--label", "x"]) == 2
        assert capsys.readouterr().err == f"error: row {row}: {index}: {message}\n"
        assert not (out_dir / "report.csv").exists()

    @pytest.mark.parametrize("name, row", [("ledger", 2), ("index", 3)])
    def test_cell_over_the_csv_field_limit_exits_2_naming_its_row(self, workdir, capsys, name, row):
        out_dir = workdir / "out"
        out_dir.mkdir()
        paths = {"index": out_dir / "index.csv", "ledger": workdir / "ledger.csv"}
        paths["index"].write_text("run_id,status,duration_seconds,loc\nrun-001,completed,1.0,3\n", encoding="utf-8")
        paths["ledger"].write_text("run_id,mistake_id,category,description\n", encoding="utf-8")
        oversized = {"index": "run-002,failed_generation,1.0,", "ledger": "run-001,m1,fatal,"}[name]
        with open(paths[name], "a", encoding="utf-8") as fh:
            fh.write(oversized + "x" * 200_000 + "\n")
        assert main(["report", str(out_dir), str(paths["ledger"]), "--label", "x"]) == 2
        assert capsys.readouterr().err.startswith(f"error: row {row}: {paths[name]}: field larger than field limit")
        assert not (out_dir / "report.csv").exists()

    def test_unknown_run_id_exits_5(self, workdir, capsys):
        out_dir = self.bench(workdir, reps=3)
        ledger = workdir / "ledger.csv"
        ledger.write_text(
            "run_id,mistake_id,category,description\nrun-999,m1,fatal,bad\n", encoding="utf-8"
        )
        assert main(["report", str(out_dir), str(ledger), "--label", "x"]) == 5

    def test_unknown_category_exits_5(self, workdir):
        out_dir = self.bench(workdir, reps=3)
        ledger = workdir / "ledger.csv"
        ledger.write_text(
            "run_id,mistake_id,category,description\nrun-001,m1,syntax,bad\n", encoding="utf-8"
        )
        assert main(["report", str(out_dir), str(ledger), "--label", "x"]) == 5

    def test_unknown_category_names_its_row(self, workdir, capsys):
        out_dir = self.bench(workdir, reps=3)
        ledger = workdir / "ledger.csv"
        rows = "run_id,mistake_id,category,description\nrun-001,m1,fatal,ok\nrun-002,m1,bogus,bad\n"
        ledger.write_text(rows, encoding="utf-8")
        capsys.readouterr()
        assert main(["report", str(out_dir), str(ledger), "--label", "x"]) == 5
        expected = "unknown error category 'bogus'; expected one of fatal, runtime, content, missing_additional"
        assert capsys.readouterr().err == f"error: row 3: {ledger}: {expected}\n"
        assert not (out_dir / "report.csv").exists()

    def test_max_loop_below_zero_exits_2(self, workdir, capsys):
        out_dir = self.bench(workdir, reps=2)
        ledger = workdir / "ledger.csv"
        ledger.write_text("run_id,mistake_id,category,description\n", encoding="utf-8")
        config = workdir / "bad.json"
        config.write_text(json.dumps({"pipeline": {"max_loop_iterations": -1}}))
        argv = ["report", str(out_dir), str(ledger), "--label", "x", "--config", str(config)]
        assert main(argv) == 2
        assert "pipeline.max_loop_iterations" in capsys.readouterr().err
        assert not (out_dir / "report.csv").exists()

    def test_the_removed_threshold_key_exits_2(self, workdir, capsys):
        out_dir = self.bench(workdir, reps=2)
        ledger = workdir / "ledger.csv"
        ledger.write_text("run_id,mistake_id,category,description\n", encoding="utf-8")
        config = workdir / "old.json"
        config.write_text(json.dumps({"pipeline": {"failed_error_threshold": 20}}))
        argv = ["report", str(out_dir), str(ledger), "--label", "x", "--config", str(config)]
        assert main(argv) == 2
        assert "unknown key pipeline.failed_error_threshold" in capsys.readouterr().err
        assert not (out_dir / "report.csv").exists()

    # More than 7 distinct mistakes fail a run: 8 on run-001 fail it, 7 do not.
    @pytest.mark.parametrize("mistakes, failed", [(7, "0"), (8, "1")])
    def test_a_run_with_more_than_seven_distinct_mistakes_is_failed(self, workdir, capsys, mistakes, failed):
        out_dir = self.bench(workdir, reps=2)
        ledger = workdir / "ledger.csv"
        rows = [f"run-001,m{i},fatal,mistake {i}" for i in range(mistakes)]
        ledger.write_text("run_id,mistake_id,category,description\n" + "\n".join(rows) + "\n", encoding="utf-8")
        assert main(["report", str(out_dir), str(ledger), "--label", "x"]) == 0
        assert f"runs_failed={failed}" in capsys.readouterr().out.split()

    @staticmethod
    def write_inputs(workdir, out_dir):
        """A ledger, scores and --rf file for a 2-run bench, and the report argv."""
        ledger, scores, rf = workdir / "ledger.csv", workdir / "scores.csv", workdir / "rf.csv"
        ledger.write_text("run_id,mistake_id,category,description\nrun-001,m1,fatal,bad\n", encoding="utf-8")
        scores.write_text("run_id,requirement_index,value\nrun-001,1,1\nrun-002,1,0\n", encoding="utf-8")
        rf.write_text("run_id,replaced_functions\nrun-001,2\nrun-002,1\n", encoding="utf-8")
        paths = {"ledger": ledger, "scores": scores, "rf": rf, "index": out_dir / "index.csv"}
        argv = ["report", str(out_dir), str(ledger), "--scores", str(scores), "--rf", str(rf), "--label", "x"]
        return paths, argv

    @pytest.mark.parametrize("name", ["ledger", "scores", "rf", "index"])
    def test_byte_order_mark_accepted(self, workdir, name):
        out_dir = self.bench(workdir, reps=2)
        paths, argv = self.write_inputs(workdir, out_dir)
        assert main(argv) == 0
        plain = (out_dir / "report.csv").read_bytes()
        paths[name].write_bytes("\ufeff".encode() + paths[name].read_bytes())
        assert main(argv) == 0
        assert (out_dir / "report.csv").read_bytes() == plain

    @pytest.mark.parametrize(
        "name, row, message",
        [
            ("scores", "run-002,1,1", "repeats row 3's key ('run-002', 1)"),
            ("rf", "run-001,5", "repeats row 2's key 'run-001'"),
            ("index", "run-001,completed,1.000,3", "repeats row 2's key 'run-001'"),
            ("scores", "run-001,0,1", "requirement_index must be positive"),
            ("scores", "run-001,1001,1", "requirement_index must be at most 1000"),
            ("scores", "run-001,1_0,1", "'1_0' is not a whole number (ASCII digits only)"),
            ("scores", "run-001,1,١", "'١' is not a whole number (ASCII digits only)"),
            ("scores", "run-001,+1,1", "'+1' is not a whole number (ASCII digits only)"),
            ("rf", "run-001,٤", "'٤' is not a whole number (ASCII digits only)"),
            ("rf", "run-001,+3", "'+3' is not a whole number (ASCII digits only)"),
        ],
    )
    def test_bad_row_exits_2_naming_its_row(self, workdir, capsys, name, row, message):
        out_dir = self.bench(workdir, reps=2)
        paths, argv = self.write_inputs(workdir, out_dir)
        with open(paths[name], "a", encoding="utf-8") as fh:
            fh.write(row + "\n")
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: row 4: {paths[name]}: {message}\n"
        assert not (out_dir / "report.csv").exists()

    def test_a_score_at_the_highest_index_is_reported(self, workdir, capsys):
        out_dir = self.bench(workdir, reps=2)
        paths, argv = self.write_inputs(workdir, out_dir)
        with open(paths["scores"], "a", encoding="utf-8") as fh:
            fh.write("run-001,1000,1\n")
        assert main(argv) == 0
        header = (out_dir / "report.csv").read_text(encoding="utf-8").splitlines()[0].split(",")
        assert header.count("requirement_mean_1000") == 1 and "requirement_mean_1001" not in header
        assert "requirement_mean_1000=0.500" in capsys.readouterr().out.split()

    # Each input whose mean leaves a float's range: one huge loc, two
    # durations whose sum passes the largest float, one huge --rf count.
    @pytest.mark.parametrize(
        "name, rows, figure",
        [
            ("index", ["run-001,completed,1.000,1" + "0" * 400, "run-002,completed,1.000,3"], "mean_loc"),
            ("index", ["run-001,completed,1e308,3", "run-002,completed,1e308,3"], "mean_duration_seconds"),
            ("rf", ["run-001,1" + "0" * 400, "run-002,1"], "mean_replaced_functions"),
        ],
    )
    def test_an_overflowing_mean_exits_2_naming_it(self, workdir, capsys, name, rows, figure):
        out_dir = self.bench(workdir, reps=2)
        paths, argv = self.write_inputs(workdir, out_dir)
        header = paths[name].read_text(encoding="utf-8").splitlines()[0]
        paths[name].write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {figure} overflows a float: ") and err.count("\n") == 1
        assert not (out_dir / "report.csv").exists()
        assert not (out_dir / "report.categories.json").exists()

    @pytest.mark.parametrize("name", ["ledger", "scores", "rf", "index"])
    def test_blank_rows_are_skipped(self, workdir, capsys, name):
        out_dir = self.bench(workdir, reps=2)
        paths, argv = self.write_inputs(workdir, out_dir)
        capsys.readouterr()
        assert main(argv) == 0
        plain = (out_dir / "report.csv").read_bytes(), capsys.readouterr().out
        header, rows = paths[name].read_bytes().split(b"\n", 1)
        blank_cells = b" ," * header.count(b",") + b" "
        paths[name].write_bytes(header + b"\n\n" + blank_cells + b"\n" + rows)
        assert main(argv) == 0
        assert ((out_dir / "report.csv").read_bytes(), capsys.readouterr().out) == plain

    @pytest.mark.parametrize(
        "name, row, dangling",
        [("ledger", 3, "run-009,m2,fatal,bad"), ("scores", 4, "run-009,1,1"), ("rf", 4, "run-009,3")],
    )
    def test_unknown_run_id_exits_5_naming_its_row(self, workdir, capsys, name, row, dangling):
        out_dir = self.bench(workdir, reps=2)
        paths, argv = self.write_inputs(workdir, out_dir)
        with open(paths[name], "a", encoding="utf-8") as fh:
            fh.write(dangling + "\n")
        capsys.readouterr()
        assert main(argv) == 5
        assert capsys.readouterr().err == f"error: row {row}: {paths[name]}: cites unknown run_id 'run-009'\n"
        assert not (out_dir / "report.csv").exists()

    def test_rf_sidecar(self, workdir, capsys):
        out_dir = self.bench(workdir, reps=2)
        ledger = workdir / "ledger.csv"
        ledger.write_text("run_id,mistake_id,category,description\n", encoding="utf-8")
        rf = workdir / "rf.csv"
        rf.write_text("run_id,replaced_functions\nrun-001,4\nrun-002,3\n", encoding="utf-8")
        code = main(
            ["report", str(out_dir), str(ledger), "--rf", str(rf), "--label", "View E"]
        )
        assert code == 0
        assert "mean_replaced_functions=3.500" in capsys.readouterr().out


RUN = ["run", "case_view/original.php", "case_view/requirements.txt", "--config", "cfg.json"]
BASELINE = ["run", "case_view_zsl/original.php", "case_view_zsl/prompt.txt", "--mode", "baseline_zsl"]
REPORT = ["report", "out/case_view_zsl", "ledger.csv", "--scores", "scores.csv", "--rf", "rf.csv", "--label", "x"]
# Each kind of file a user hands uplift, and a command that reads it.
USER_FILES = {
    "requirements": ("case_view/requirements.txt", RUN),
    "prompt": ("case_view_zsl/prompt.txt", BASELINE + ["--script", "case_view_zsl/script.json"]),
    "source": ("case_view/original.php", RUN),
    "template": ("prompts/manager.txt", RUN),
    "config": ("cfg.json", RUN),
    "script": ("case_view/script.json", RUN),
    "ledger": ("ledger.csv", REPORT),
    "scores": ("scores.csv", REPORT),
    "rf": ("rf.csv", REPORT),
    "index": ("out/case_view_zsl/index.csv", REPORT),
}


class TestUserFiles:
    @pytest.fixture
    def inputs(self, workdir):
        """Every file of USER_FILES in the workdir: TestReport's inputs for a 2-run bench, the prompts and a config."""
        TestReport.write_inputs(workdir, TestReport.bench(workdir, reps=2))
        shutil.copytree(PROMPTS_DIR, workdir / "prompts")
        backend = {"kind": "script", "script_path": "case_view/script.json"}
        config = {"backend": backend, "prompts": {"dir": "prompts"}}
        (workdir / "cfg.json").write_text(json.dumps(config), encoding="utf-8")
        return workdir

    @staticmethod
    def outputs(workdir, argv):
        """The exit code of argv, then what it wrote: each run file with its timing masked, and the reports."""
        code = main(argv)
        transcripts = [untimed(p) for p in sorted(workdir.glob("out/*/*.jsonl"))]
        reports = [p.read_bytes() for p in sorted(workdir.glob("out/*/report.*"))]
        return code, transcripts, reports

    @pytest.mark.parametrize("name", USER_FILES)
    def test_byte_order_mark_is_dropped(self, inputs, name):
        path, argv = USER_FILES[name]
        plain = self.outputs(inputs, argv)
        assert plain[0] == 0
        (inputs / path).write_bytes(b"\xef\xbb\xbf" + (inputs / path).read_bytes())
        marked = self.outputs(inputs, argv)
        assert marked == plain
        assert not any("\ufeff".encode() in transcript for transcript in marked[1])

    @pytest.mark.parametrize("name", USER_FILES)
    def test_bytes_not_utf8_exit_2_naming_the_file(self, inputs, capsys, name):
        path, argv = USER_FILES[name]
        raw = (inputs / path).read_bytes()
        (inputs / path).write_bytes(raw + b"\xff")
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: not UTF-8: byte {len(raw)}: ")


COMMANDS = {
    "plan": ["plan", "case_view/requirements.txt"],
    "run": ["run", "case_view/original.php", "case_view/requirements.txt"],
    "bench": ["bench", "case_view"],
}
# A value of each type that every rule in cli.SETTINGS rejects.
BREAKS = {str: "no-such-value", int: -1}


class TestSettings:
    """Generated from cli.SETTINGS, so that a new row is covered with no new test code."""

    @staticmethod
    def files(root):
        return {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}

    @pytest.mark.parametrize(
        "setting, command, case",
        [
            (setting, command, case)
            for setting in cli.SETTINGS
            for case in ["type", "rule"] if case == "type" or setting.rule or setting.choices
            for command in COMMANDS
        ],
        ids=lambda param: getattr(param, "key", param),
    )
    def test_a_value_that_breaks_its_row_exits_2_naming_the_key_and_writes_nothing(
        self, workdir, capsys, monkeypatch, setting, command, case
    ):
        # Should a check be missing, the run must fail for want of a key, not reach a network.
        monkeypatch.delenv("LLM_API_KEY", raising=False)
        value = [] if case == "type" else BREAKS[setting.type]
        section, name = setting.key.split(".")
        (workdir / "bad.json").write_text(json.dumps({section: {name: value}}), encoding="utf-8")
        before = self.files(workdir)
        assert main([*COMMANDS[command], "--config", "bad.json"]) == 2
        out, err = capsys.readouterr()
        assert (out, err.startswith("error: "), setting.key in err) == ("", True, True)
        assert self.files(workdir) == before

    def test_a_new_optional_number_is_one_row(self, workdir, capsys, monkeypatch):
        temperature = cli.Setting("pipeline.temperature", float | None, None)
        monkeypatch.setattr(cli, "SETTINGS", (*cli.SETTINGS, temperature))
        config = workdir / "t.json"
        assert cli.load_config(None)["pipeline.temperature"] is None
        config.write_text(json.dumps({"pipeline": {"temperature": 0.2}}), encoding="utf-8")
        assert cli.load_config(str(config))["pipeline.temperature"] == 0.2
        argv = ["plan", "case_view/requirements.txt", "--config", "t.json"]
        assert main(argv + ["--script", "case_view/script.json"]) == 0
        for value in ["0.2", True]:
            config.write_text(json.dumps({"pipeline": {"temperature": value}}), encoding="utf-8")
            capsys.readouterr()
            assert main(argv) == 2
            message = f"t.json: pipeline.temperature must be a float or null, got {value!r}"
            assert capsys.readouterr() == ("", f"error: {message}\n")


def test_readme_flag_table_names_each_setting_flag_and_its_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    table = next(block for block in section.split("\n\n") if block.startswith("| flag | key |"))
    documented = re.findall(r"^\| `(--[a-z-]+) [A-Z]+` \| `([a-z_.]+)`(.*) \|$", table, re.MULTILINE)
    assert documented == [
        (s.flag, s.key, "".join(f", and sets `{key}` to `{value}`" for key, value in s.implies))
        for s in cli.SETTINGS if s.flag
    ]
    checks = next(block for block in section.split("\n\n") if block.startswith("Every subcommand"))
    assert [s.key for s in cli.SETTINGS if (s.rule or s.choices) and f"`{s.key}`" not in checks] == []


def test_readme_config_block_lists_every_key_with_its_default():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1]
    block = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
    documented = {f"{name}.{key}": value for name, keys in block.items() for key, value in keys.items()}
    assert documented == {**{s.key: s.default for s in cli.SETTINGS}, "prompts.dir": "<packaged prompts>"}


def test_readme_errors_list_names_each_class_in_uplift_errors():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Errors\n", 1)[1].split("\n## ", 1)[0]
    bullets = section.split("\n\n- ", 1)[1].split("\n\n", 1)[0].split("\n- ")
    documented = [name for bullet in bullets for name in re.findall(r"`(\w+)`", bullet.split(":", 1)[0])]
    classes = [cls.__name__ for cls in error_classes(UpliftError) if cls.__module__ == "uplift.errors"]
    assert sorted(documented) == sorted(classes)
    count = "zero one two three four five six seven eight nine ten eleven twelve".split()[len(classes)]
    assert f"That leaves {count} classes" in section


def test_readme_cli_table_lists_each_subcommand_flag():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = next(block for block in readme.split("\n\n") if block.startswith("| subcommand | flags |"))
    documented = {}
    for name, cell in re.findall(r"^\| `(\w+)` \| (.*) \|$", table, re.MULTILINE):
        inherited = re.match(r"those of `(\w+)`", cell)
        flags = set(re.findall(r"--[a-z-]+", cell))
        documented[name] = flags | documented[inherited.group(1)] if inherited else flags
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parsed = {
        name: {s for action in sub._actions for s in action.option_strings} - {"-h", "--help"}
        for name, sub in subparsers.choices.items()
    }
    assert documented == parsed


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "case_view", "--reps", "3"],
        ["run", "case_view/original.php", "case_view/requirements.txt"],
    ],
    ids=["bench", "run"],
)
def test_scripted_commands_run_clean_in_dev_mode_with_warnings_as_errors(workdir, argv):
    # -X dev shows ResourceWarning and other warnings hidden by default;
    # -W error turns each into an exception, so an unclosed file or a
    # deprecated call shows as a nonzero exit or a line on stderr.
    (workdir / "uplift.json").write_text(json.dumps({"bench": {"parallelism": 2}}), encoding="utf-8")
    source = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c"]
        + ["import sys; from uplift.cli import main; sys.exit(main(sys.argv[1:]))"]
        + argv + ["--script", "case_view/script.json"],
        cwd=workdir,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
