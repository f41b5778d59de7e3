from __future__ import annotations

import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uplift import agents, model
from uplift.errors import ConfigError
from uplift.model import (
    CodeArtifact,
    Decision,
    RequirementSet,
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
        assert reqs.requirements[0].startswith("Update whole CakePHP view file")
        assert reqs.requirements[1].startswith("ORM Arrays must be accessed")

    def test_minimal(self):
        reqs = parse_requirements("Requirement1: a")
        assert reqs.requirements == ("a",)

    def test_no_marker_is_an_error(self):
        with pytest.raises(ConfigError, match=r"^no Requirement<N>: marker line found in input$"):
            parse_requirements("no markers here")

    def test_marker_without_text_is_malformed(self):
        with pytest.raises(ConfigError, match=r"^requirement 1 has a marker but no text$"):
            parse_requirements("Requirement1:\nRequirement2: b")

    def test_continuation_lines_join_current_requirement(self):
        reqs = parse_requirements("Requirement1: first line\nsecond line\nRequirement2: b")
        assert reqs.requirements == ("first line\nsecond line", "b")

    def test_indices_renumbered_in_file_order(self):
        reqs = parse_requirements("Requirement7: late\nRequirement2: early")
        assert reqs.requirements == ("late", "early")
        assert render_requirements(reqs) == "Requirement1: late\nRequirement2: early"

    def test_case_insensitive_marker_and_whitespace(self):
        reqs = parse_requirements("  requirement 3 :  spaced out  ")
        assert reqs.requirements == ("spaced out",)

    def test_zero_is_not_a_marker(self):
        with pytest.raises(ConfigError, match=r"^no Requirement<N>: marker line found in input$"):
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

    # The sentinels match in any case, and the code stays as sent.
    @pytest.mark.parametrize(
        "reply", ["<?php echo 1;", "<!doctype html>\n<p>x</p>", "<?PHP echo 1; ?>", "<HTML><body></body></HTML>"]
    )
    def test_sentinel_fallback(self, reply):
        assert extract_code(reply) == reply

    def test_no_code_is_none(self):
        assert extract_code("I cannot update this file.") is None

    def test_longest_block_wins(self):
        reply = (
            "A fragment first:\n```php\n$x = 1;\n```\n"
            "Then the whole file:\n```php\n<?php\n$x = 1;\n$y = 2;\necho $x + $y;\n```"
        )
        assert extract_code(reply) == "<?php\n$x = 1;\n$y = 2;\necho $x + $y;"

    def test_empty_fence_is_ignored(self):
        assert extract_code("```\n```\nno actual code") is None

    def test_unterminated_fence_runs_to_end(self):
        assert extract_code("```php\n<?php echo 2;") == "<?php echo 2;"

    def test_result_never_blank(self):
        result = extract_code("```\nx\n```")
        assert count_loc(result) >= 1

    def test_form_feed_inside_a_fence_is_kept(self):
        assert extract_code("```c\nint a;\x0cint b;\n```") == "int a;\x0cint b;"

    def test_crlf_inside_a_fence_is_kept(self):
        reply = "Here:\r\n```php\r\n<?php\r\necho 1;\r\n```\r\nDone."
        assert extract_code(reply) == "<?php\r\necho 1;"

    def test_line_separator_inside_a_fence_is_kept(self):
        assert extract_code("```js\nvar s = '\u2028';\nf();\n```") == "var s = '\u2028';\nf();"


class TestDomainTypes:
    def test_artifact_loc_is_derived(self):
        artifact = CodeArtifact(content="a\n\nb")
        assert artifact.loc == 2

    def test_artifact_loc_is_counted_once(self, monkeypatch):
        import uplift.model

        calls = []
        monkeypatch.setattr(uplift.model, "count_loc", lambda content: calls.append(content) or 7)
        artifact = CodeArtifact(content="a\n\nb")
        assert [artifact.loc, artifact.loc, artifact.loc] == [7, 7, 7]
        assert calls == ["a\n\nb"]
        assert artifact == CodeArtifact(content="a\n\nb")

    def test_requirement_set_needs_a_requirement(self):
        with pytest.raises(ValueError, match="^a RequirementSet must contain at least one requirement$"):
            RequirementSet(requirements=())

    @pytest.mark.parametrize("texts", [("",), (" x",), ("x\n",), ("a", "")], ids=repr)
    def test_requirement_set_rejects_an_empty_or_unstripped_text(self, texts):
        with pytest.raises(ValueError, match="^requirement text must be non-empty and stripped$"):
            RequirementSet(texts)

    def test_task_plan_needs_a_task(self):
        with pytest.raises(ValueError, match="^a TaskPlan must contain at least one task$"):
            TaskPlan(())

    @pytest.mark.parametrize("descriptions", [("",), ("  ",), (" x",), ("x\n",), ("a", "")], ids=repr)
    def test_task_plan_rejects_an_empty_or_unstripped_description(self, descriptions):
        with pytest.raises(ValueError, match="^task text must be non-empty and stripped$"):
            TaskPlan(descriptions)

    @given(st.lists(st.sampled_from(["TASK 1:", "x", " ", "\t", "\n", "\x1c", "\x85", "\u2028", "\xa0"])).map("".join))
    def test_task_lines_always_make_a_plan(self, text):
        # The manager's reply parser yields only what TaskPlan accepts.
        descriptions = tuple(agents.parse_task_lines(text))
        assert not descriptions or TaskPlan(descriptions).descriptions == descriptions

    def test_revise_verdict_needs_feedback(self):
        with pytest.raises(ValueError):
            Verdict(decision=Decision.REVISE, feedback="")
        assert Verdict(decision=Decision.ACCEPT).feedback == ""


# Reference oracles: each marked-reply parser as it stood when every one of
# them walked its lines with its own state machine. The differential property
# below holds the shared walker, model.marked_lines, to their results.
ORACLE_MARKER_RE = re.compile(r"^\s*requirement\s*([0-9]+)\s*:(.*)$", re.IGNORECASE)


def oracle_fenced_blocks(response):
    blocks = []
    current = None
    for line in response.splitlines(keepends=True):
        if model._FENCE_RE.match(line):
            if current is None:
                current = []
                blocks.append(current)
            else:
                current = None
        elif current is not None:
            current.append(line)
    return ["".join(b[:-1]) + b[-1].splitlines()[0] for b in blocks if b]


def oracle_parse_requirements(raw):
    segments = []
    current = None
    for line in raw.splitlines():
        match = ORACLE_MARKER_RE.match(line)
        if match and int(match.group(1)) > 0:
            current = [match.group(2)]
            segments.append(current)
        elif current is not None:
            current.append(line)
    if not segments:
        raise ConfigError("no Requirement<N>: marker line found in input")
    texts = []
    for pos, seg in enumerate(segments, start=1):
        text = "\n".join(seg).strip()
        if not text:
            raise ConfigError(f"requirement {pos} has a marker but no text")
        texts.append(text)
    return RequirementSet(requirements=tuple(texts))


def oracle_parse_sections(text):
    sections = {}
    current = None
    for line in text.splitlines():
        match = agents._SECTION_RE.match(line)
        if match:
            current = sections.setdefault(match.group(1).upper(), [])
            current.append(match.group(2))
        elif current is not None:
            current.append(line)
    parsed = {agents._SECTIONS[label]: "\n".join(lines).strip() for label, lines in sections.items()}
    return parsed if all(parsed.get(name) for name in agents._SECTIONS.values()) else None


def oracle_parse_verdict(text):
    decision = None
    feedback = ""
    for line in text.splitlines():
        if decision is None:
            match = agents._VERDICT_RE.match(line)
            if match:
                decision = Decision(match.group(1).lower())
        else:
            match = agents._FEEDBACK_RE.match(line)
            if match:
                feedback = match.group(1).strip()
                break
    if decision is None or (decision is Decision.REVISE and not feedback):
        return None
    return Verdict(decision=decision, feedback=feedback)


def oracle_parse_task_lines(text):
    return [m.group(2).strip() for line in text.splitlines() if (m := agents._TASK_LINE_RE.match(line))]


FENCES = ["```", "```php", "  ```js  ", "````", "``` x", "a```", "```c++"]
# Each parser with its oracle and the marker lines, near misses included,
# that its replies are drawn from; fences turn up in every role's replies.
PARSERS = {
    "fenced_blocks": (model._fenced_blocks, oracle_fenced_blocks, FENCES),
    "parse_requirements": (
        model.parse_requirements,
        oracle_parse_requirements,
        ["Requirement1:", "requirement 2 : x", "Requirement0: zero", "REQUIREMENT007:", "Requirement 00:"],
    ),
    "parse_sections": (
        agents._parse_sections,
        oracle_parse_sections,
        ["INSTRUCTION: do", "example before:", "EXAMPLE BEFORE: old()", "Example After:", "1. EXAMPLE AFTER: new()"],
    ),
    "parse_verdict": (
        agents._parse_verdict,
        oracle_parse_verdict,
        [
            "VERDICT: ACCEPT",
            "verdict: revise",
            "** VERDICT: REVISE",
            "VERDICT: ACCEPTED",
            "VERDICT: REV\u0130SE",
            "FEEDBACK: fix it",
            "feedback:",
            "> FEEDBACK:  spaced ",
        ],
    ),
    "parse_task_lines": (agents.parse_task_lines, oracle_parse_task_lines, ["TASK 1: a", "- task 2 : b", "TASK 3:"]),
}

# Every line break str.splitlines() knows.
LINE_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
# Prose, with the break-adjacent \x1f and \xa0, and \u0130 and \u0131: an
# IGNORECASE pattern reads both as an i, but neither changes case to one.
prose = st.text(alphabet="ab :-`\t\x1f\xa0\u0130\u0131", max_size=5)


@st.composite
def replies(draw, markers):
    """Lines of prose and markers, each ended by a drawn break, or by none,
    which runs it into the next line."""
    line = st.tuples(st.one_of(st.just(""), prose), st.sampled_from(["", *markers, *FENCES]), prose).map("".join)
    return "".join(text + draw(st.sampled_from(["", *LINE_BREAKS])) for text in draw(st.lists(line, max_size=12)))


def parse_outcome(parse, text):
    """The parser's result, or its exception's type and message."""
    try:
        return parse(text)
    except Exception as exc:
        return type(exc), str(exc)


class TestMarkedReplyParsersMatchTheirOracles:
    @pytest.mark.parametrize("name", PARSERS)
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_same_result_or_error(self, name, data):
        parse, oracle, markers = PARSERS[name]
        text = data.draw(replies(markers), label="reply")
        assert parse_outcome(parse, text) == parse_outcome(oracle, text)
