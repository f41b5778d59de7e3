from __future__ import annotations

import argparse
import dataclasses
import json
import re
import shutil
from pathlib import Path

import pytest

from uplift.agents import DEFAULT_PROMPT_DIR as PROMPTS_DIR
from uplift.backend import ScriptedBackend
from uplift.cli import CliConfig, build_parser, main

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

    def test_codeless_reply_exits_4_without_output_file(self, workdir, capsys):
        argv = ["run", "case_view/original.php", "case_view/requirements.txt", "--mode", "system_single_task"]
        # A completed run first writes run-001.updated.php into the same directory.
        assert main(argv + ["--script", write_script(workdir / "ok.json", SINGLE_TASK_RUN_SCRIPT)]) == 0
        assert (workdir / "out/original/run-001.updated.php").is_file()
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
        assert not (workdir / "out/original/run-001.updated.php").exists()
        assert (workdir / "out/original/run-001.jsonl").is_file()

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
        from uplift.transcript import read_transcript

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
            records = read_transcript(workdir / f"out/case_view/{run_id}.jsonl")
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
                        "failed_error_threshold": 5,
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
        "argv, key, value",
        [
            (argv, key, value)
            for key, value in [("failed_error_threshold", 0), ("max_loop_iterations", -1)]
            for argv in [
                ["plan", "case_view/requirements.txt", "--script", "case_view/script.json"],
                ["run", "case_view/original.php", "case_view/requirements.txt", "--script", "case_view/script.json"],
                ["bench", "case_view", "--script", "case_view/script.json", "--reps", "1"],
            ]
        ],
        ids=["plan", "run", "bench", "plan-max_loop", "run-max_loop", "bench-max_loop"],
    )
    def test_threshold_below_one_exits_2(self, workdir, capsys, argv, key, value):
        (workdir / "bad.json").write_text(json.dumps({"pipeline": {key: value}}))
        assert main(argv + ["--config", "bad.json"]) == 2
        assert f"pipeline.{key}" in capsys.readouterr().err
        assert not (workdir / "out").exists()

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
            ("pipeline", "failed_error_threshold", 2.5),
            ("backend", "model", 5),
        ],
    )
    def test_wrong_typed_config_value_exits_2_before_output(self, workdir, capsys, section, key, value):
        (workdir / "bad.json").write_text(json.dumps({section: {key: value}}))
        argv = ["bench", "case_view", "--script", "case_view/script.json", "--config", "bad.json"]
        assert main(argv) == 2
        assert f"{section}.{key}" in capsys.readouterr().err
        assert not (workdir / "out").exists()


class TestDeterminism:
    def test_rerun_reproduces_transcript_modulo_timing(self, workdir):
        from uplift.transcript import read_transcript, strip_timing

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
        first = strip_timing(read_transcript(workdir / "out1/original/run-001.jsonl"))
        second = strip_timing(read_transcript(workdir / "out2/original/run-001.jsonl"))
        assert first == second
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
        from uplift.transcript import read_transcript, strip_timing

        shared = ["--script", f"{case}/script.json", "--mode", mode]
        assert main(["run", f"{case}/original.php", f"{case}/{spec}", *shared, "--out", "ran"]) == 0
        assert main(["bench", case, *shared, "--reps", "1", "--out", "benched"]) == 0
        ran, benched = workdir / "ran/original", workdir / f"benched/{case}"
        assert strip_timing(read_transcript(ran / "run-001.jsonl")) == strip_timing(
            read_transcript(benched / "run-001.jsonl")
        )
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

    def test_bad_case_dir_exits_2(self, workdir):
        assert main(["bench", "missing_case", "--script", "case_view/script.json"]) == 2

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
        assert "response must be a string" in err and "Traceback" not in err
        assert not (workdir / "out").exists()

    def test_substring_script_exits_2_before_output(self, workdir, capsys):
        script = [{"match": "sequence", "response": "x"}, {"match": "substring", "response": "y"}]
        write_script(workdir / "s.json", script)
        assert main(["bench", "case_view", "--script", "s.json", "--reps", "1"]) == 2
        err = capsys.readouterr().err
        assert "entry 1: match must be" in err and "Traceback" not in err
        assert not (workdir / "out/case_view").exists()

    def test_smaller_bench_removes_surplus_run_files(self, workdir):
        argv = ["bench", "case_view", "--script", "case_view/script.json", "--reps"]
        out = workdir / "out/case_view"
        assert main(argv + ["3"]) == 0
        kept = ["run-3.jsonl", "run-003.updated.php.bak", "run-0003.jsonl", "notes.txt"]
        for name in kept:
            (out / name).write_text("kept", encoding="utf-8")
        assert main(argv + ["2"]) == 0
        run_files = {f"run-{i:03d}{ext}" for i in (1, 2) for ext in (".jsonl", ".updated.php")}
        assert {p.name for p in out.iterdir()} == run_files | {"index.csv", *kept}

    def test_script_and_templates_are_read_once(self, workdir, monkeypatch):
        import uplift.agents
        import uplift.cli
        from uplift.transcript import read_transcript, strip_timing

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
        runs = [strip_timing(read_transcript(out / f"run-{i:03d}.jsonl")) for i in range(1, 6)]
        assert runs[0][-1]["status"] == "completed"
        without_ids = [[{**r, "run_id": ""} for r in run] for run in runs]
        assert all(run == without_ids[0] for run in without_ids)

    def test_zero_reps_rejected(self, workdir):
        code = main(
            ["bench", "case_view", "--script", "case_view/script.json", "--reps", "0"]
        )
        assert code == 2


class TestReport:
    def bench(self, workdir, reps=10):
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
        assert "requirement_means=[0.500,0.300,0.200]" in out

    def test_non_finite_index_duration_exits_2(self, workdir, capsys):
        out_dir = workdir / "out"
        out_dir.mkdir()
        (out_dir / "index.csv").write_text(
            "run_id,status,duration_seconds,loc\nrun-001,completed,nan,-3\n", encoding="utf-8"
        )
        ledger = workdir / "ledger.csv"
        ledger.write_text("run_id,mistake_id,category,description\n", encoding="utf-8")
        assert main(["report", str(out_dir), str(ledger), "--label", "x"]) == 2
        assert "row 2: " in capsys.readouterr().err
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

    @pytest.mark.parametrize(
        "key, value",
        [("failed_error_threshold", 0), ("failed_error_threshold", -3), ("max_loop_iterations", -1)],
        ids=["0", "-3", "max_loop"],
    )
    def test_threshold_below_one_exits_2(self, workdir, capsys, key, value):
        out_dir = self.bench(workdir, reps=2)
        ledger = workdir / "ledger.csv"
        ledger.write_text("run_id,mistake_id,category,description\n", encoding="utf-8")
        config = workdir / "bad.json"
        config.write_text(json.dumps({"pipeline": {key: value}}))
        argv = ["report", str(out_dir), str(ledger), "--label", "x", "--config", str(config)]
        assert main(argv) == 2
        assert f"pipeline.{key}" in capsys.readouterr().err
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


def test_readme_config_block_lists_every_key_with_its_default():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1]
    block = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
    documented = {f"{name}_{key}": value for name, keys in block.items() for key, value in keys.items()}
    assert documented == {**dataclasses.asdict(CliConfig()), "prompts_dir": "<packaged prompts>"}


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

