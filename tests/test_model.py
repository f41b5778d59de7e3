from __future__ import annotations

import subprocess
import sys

import pytest

from uplift.errors import EmptyRequirements, MalformedMarker, NoCodeFound
from uplift.model import (
    CodeArtifact,
    Decision,
    Requirement,
    RequirementSet,
    Task,
    TaskPlan,
    Verdict,
    count_loc,
    extract_code,
    parse_requirements,
    render_requirements,
)

# Pinned by tests/fixtures/loc_oracle.py over tests/fixtures/view_small.txt.
VIEW_SMALL_LOC = 13


class TestParseRequirements:
    def test_two_requirements_verbatim(self):
        raw = (
            "Requirement1: Update whole CakePHP view file from version 1.2 to version 4.5.\n"
            "Requirement2: ORM Arrays must be accessed with array style syntax"
            " ['Fieldname']['fieldname'] with the first fieldname starting with a capitalized"
            " letter and the second only with lowercase letters."
        )
        reqs = parse_requirements(raw)
        assert len(reqs.requirements) == 2
        assert reqs.requirements[0].index == 1
        assert reqs.requirements[0].text.startswith("Update whole CakePHP view file")
        assert reqs.requirements[1].text.startswith("ORM Arrays must be accessed")

    def test_minimal(self):
        reqs = parse_requirements("Requirement1: a")
        assert len(reqs.requirements) == 1
        assert reqs.requirements[0].text == "a"

    def test_no_marker_is_an_error(self):
        with pytest.raises(EmptyRequirements):
            parse_requirements("no markers here")

    def test_marker_without_text_is_malformed(self):
        with pytest.raises(MalformedMarker):
            parse_requirements("Requirement1:\nRequirement2: b")

    def test_continuation_lines_join_current_requirement(self):
        reqs = parse_requirements("Requirement1: first line\nsecond line\nRequirement2: b")
        assert reqs.requirements[0].text == "first line\nsecond line"
        assert reqs.requirements[1].text == "b"

    def test_indices_renumbered_in_file_order(self):
        reqs = parse_requirements("Requirement7: late\nRequirement2: early")
        assert [r.index for r in reqs.requirements] == [1, 2]
        assert [r.text for r in reqs.requirements] == ["late", "early"]

    def test_case_insensitive_marker_and_whitespace(self):
        reqs = parse_requirements("  requirement 3 :  spaced out  ")
        assert reqs.requirements[0].text == "spaced out"

    def test_zero_is_not_a_marker(self):
        with pytest.raises(EmptyRequirements):
            parse_requirements("Requirement0: not a positive index")

    def test_preamble_before_first_marker_is_ignored(self):
        reqs = parse_requirements("intro prose\nRequirement1: real")
        assert len(reqs.requirements) == 1

    def test_render_parse_round_trip(self):
        reqs = parse_requirements("Requirement1: alpha\nRequirement2: beta\ngamma")
        assert parse_requirements(render_requirements(reqs)) == reqs


class TestCountLoc:
    def test_empty(self):
        assert count_loc("") == 0

    def test_blank_lines_excluded(self):
        assert count_loc("a\n\nb\n") == 2

    def test_whitespace_only_is_zero(self):
        assert count_loc("  \n\t\n   \n") == 0

    def test_fixture_against_committed_oracle(self, fixtures_dir):
        content = (fixtures_dir / "view_small.txt").read_text(encoding="utf-8")
        assert count_loc(content) == VIEW_SMALL_LOC
        script = fixtures_dir / "loc_oracle.py"
        out = subprocess.run(
            [sys.executable, str(script), str(fixtures_dir / "view_small.txt")],
            capture_output=True,
            text=True,
            check=True,
        )
        assert int(out.stdout.strip()) == VIEW_SMALL_LOC


class TestExtractCode:
    def test_single_fenced_block(self):
        assert extract_code("Here you go:\n```php\n<?php echo 1;\n```") == "<?php echo 1;"

    def test_sentinel_fallback(self):
        assert extract_code("<?php echo 1;") == "<?php echo 1;"

    def test_no_code_raises(self):
        with pytest.raises(NoCodeFound):
            extract_code("I cannot update this file.")

    def test_longest_block_wins(self):
        reply = (
            "A fragment first:\n```php\n$x = 1;\n```\n"
            "Then the whole file:\n```php\n<?php\n$x = 1;\n$y = 2;\necho $x + $y;\n```"
        )
        assert extract_code(reply) == "<?php\n$x = 1;\n$y = 2;\necho $x + $y;"

    def test_empty_fence_is_ignored(self):
        with pytest.raises(NoCodeFound):
            extract_code("```\n```\nno actual code")

    def test_unterminated_fence_runs_to_end(self):
        assert extract_code("```php\n<?php echo 2;") == "<?php echo 2;"

    def test_result_never_blank(self):
        result = extract_code("```\nx\n```")
        assert count_loc(result) >= 1


class TestDomainTypes:
    def test_artifact_loc_is_derived(self):
        artifact = CodeArtifact(content="a\n\nb")
        assert artifact.loc == 2

    def test_requirement_set_contiguity(self):
        with pytest.raises(ValueError):
            RequirementSet(requirements=(Requirement(2, "x"),))
        with pytest.raises(ValueError):
            RequirementSet(requirements=())

    def test_task_plan_ordinals(self):
        with pytest.raises(ValueError):
            TaskPlan(tasks=(Task(2, "x"),))

    def test_revise_verdict_needs_feedback(self):
        with pytest.raises(ValueError):
            Verdict(decision=Decision.REVISE, feedback="")
        assert Verdict(decision=Decision.ACCEPT).feedback == ""
