"""Property suites over the pure operations."""

from __future__ import annotations

import json
import math
import random
import re
import statistics
from fractions import Fraction
from hashlib import sha256

import pytest
from hypothesis import given
from hypothesis import strategies as st

from uplift.backend import ChatMessage, ChatRequest, ChatResponse, Role, load_script, utf8_encodable
from uplift.errors import ConfigError
from uplift.evaluation import (
    FAILED_ERROR_THRESHOLD,
    ErrorCategory,
    ErrorRecord,
    RequirementScoreRecord,
    _mean,
    aggregate,
    ingest_ledger,
    population_sd,
)
from uplift.model import RequirementSet, TaskPlan, count_loc, extract_code, number, parse_requirements
from uplift.pipeline import RunRecord, RunStatus
from uplift.transcript import TranscriptEntry, dump_record

# Requirement texts that cannot collide with marker lines: no colons.
req_text = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"), whitelist_characters=" "),
    min_size=1,
    max_size=40,
).filter(lambda s: s.strip())

# Text weighted toward ASCII and lone surrogates, with any other character too.
surrogate_text = st.text(
    st.one_of(
        st.characters(max_codepoint=127),
        st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF),
        st.characters(),
    )
)


class TestUtf8EncodableProperties:
    @given(surrogate_text)
    def test_matches_the_lone_surrogate_search(self, text):
        assert utf8_encodable(text) is (re.search("[\ud800-\udfff]", text) is None)


class TestNumberProperties:
    @given(st.integers(min_value=0))
    def test_a_whole_number_reads_back(self, n):
        assert number(str(n)) == n

    # "_", a sign, or a digit of another script: Python's int() takes each of them.
    refused = st.sampled_from("_+-") | st.characters(whitelist_categories=("Nd",), min_codepoint=128)

    @given(st.text(), refused, st.text())
    def test_a_separator_sign_or_other_digit_is_no_whole_number(self, before, mark, after):
        with pytest.raises(ValueError):
            number(before + mark + after)


class TestLoadScriptProperties:
    @given(response=surrogate_text)
    def test_a_response_loads_exactly_when_it_is_a_non_empty_reply(self, tmp_path_factory, response):
        try:
            ChatResponse(response)
            reply = bool(response)
        except ValueError:
            reply = False
        path = tmp_path_factory.getbasetemp() / "script.json"
        path.write_text(json.dumps([{"response": response}]), encoding="utf-8")  # "\ud800" escapes
        try:
            loaded = load_script(path).replies == (response,)
        except ConfigError:
            loaded = False
        assert loaded is reply


class TestCountLocProperties:
    @given(st.text(max_size=300), st.text(max_size=300))
    def test_concatenation_is_subadditive(self, a, b):
        joined = count_loc(a + "\n" + b)
        assert joined <= count_loc(a) + count_loc(b) + 1

    @given(st.text(alphabet=" \t\r\n", max_size=100))
    def test_whitespace_only_counts_zero(self, blank):
        assert count_loc(blank) == 0

    @given(
        st.one_of(
            st.text(max_size=200),
            # Every separator splitlines() breaks on, other whitespace, and a
            # little text.
            st.text(alphabet=" \t\r\n\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028\u2029\u3000x", max_size=60),
        )
    )
    def test_positive_exactly_when_strip_is_nonempty(self, text):
        # extract_code keeps a fenced block on b.strip() in place of this count.
        assert (count_loc(text) > 0) == bool(text.strip())

    @given(st.lists(req_text, min_size=1, max_size=8))
    def test_clean_concatenation_is_additive(self, lines):
        a = "\n".join(lines)
        b = "\n".join(reversed(lines))
        assert count_loc(a + "\n" + b) == count_loc(a) + count_loc(b)


class TestParseRequirementsProperties:
    @given(st.lists(req_text.map(str.strip), min_size=1, max_size=6))
    def test_render_parse_idempotent(self, texts):
        reqs = RequirementSet(tuple(texts))
        assert parse_requirements(reqs.rendered) == reqs


class TestExtractCodeProperties:
    prose_line = st.text(
        alphabet=st.characters(whitelist_categories=("Lu", "Ll"), whitelist_characters=" .,!"),
        min_size=0,
        max_size=60,
    )

    @given(
        st.lists(prose_line, max_size=4),
        st.lists(req_text, min_size=1, max_size=5),
        st.lists(prose_line, max_size=4),
    )
    def test_prose_around_fence_is_ignored(self, before, code_lines, after):
        code = "\n".join(code_lines)
        reply = "\n".join([*before, "```php", code, "```", *after])
        assert extract_code(reply) == code
        assert count_loc(extract_code(reply)) >= 1

    # Every break str.splitlines() knows; a code line holds none of them and
    # no fence.
    BREAKS = ("\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
    code_line = st.text(
        alphabet=st.characters(blacklist_characters="".join(BREAKS)), max_size=30
    ).filter(lambda line: "```" not in line)

    @given(st.lists(st.tuples(code_line, st.sampled_from(BREAKS)), max_size=6), code_line.filter(str.strip))
    def test_fenced_code_comes_back_exactly(self, head, last):
        # The last line is non-blank, so the code cannot end in a "\r" that
        # would read as one CRLF break with the closing fence's "\n".
        code = "".join(line + brk for line, brk in head) + last
        reply = f"Updated:\n```php\n{code}\n```\nDone."
        assert extract_code(reply) == code


class TestSdProperties:
    values = st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=30
    )

    @given(values)
    def test_permutation_invariant_exactly(self, xs):
        shuffled = list(xs)
        random.Random(0).shuffle(shuffled)
        assert population_sd(xs) == population_sd(shuffled)

    @given(values, st.floats(min_value=-100, max_value=100, allow_nan=False))
    def test_scaling(self, xs, c):
        scaled = [c * x for x in xs]
        assert population_sd(scaled) == pytest.approx(
            abs(c) * population_sd(xs), rel=1e-9, abs=1e-9
        )

    @given(values)
    def test_zero_iff_constant(self, xs):
        sd = population_sd(xs)
        if len(set(xs)) == 1:
            assert sd == 0
        elif sd == 0:
            # float spacing can make distinct values numerically equal in SD
            assert max(xs) - min(xs) == pytest.approx(0, abs=1e-6)


class TestMeanProperties:
    # Bounded so that no sum overflows.
    numbers = st.floats(min_value=-1e300, max_value=1e300) | st.integers(min_value=-(2**80), max_value=2**80)

    @given(st.lists(numbers, min_size=1, max_size=40))
    def test_equals_fmean_of_the_sorted_values_bit_for_bit(self, xs):
        assert _mean(xs).hex() == statistics.fmean(sorted(xs)).hex()

    def test_empty_is_zero(self):
        assert _mean([]) == 0.0


class TestAgentParserDeafness:
    """Wrapping well-formed replies in marker-free prose changes nothing."""

    prose = st.lists(
        st.text(
            alphabet=st.characters(whitelist_categories=("Lu", "Ll"), whitelist_characters=" .,"),
            min_size=0,
            max_size=50,
        ),
        max_size=5,
    )

    @given(prose, prose)
    def test_task_lines(self, before, after):
        from uplift.agents import _parse_plan

        reply = "TASK 1: first step\nTASK 2: second step"
        wrapped = "\n".join([*before, reply, *after])
        assert _parse_plan(wrapped) == _parse_plan(reply) == TaskPlan(("first step", "second step"))

    @given(prose, prose, st.sampled_from(["VERDICT: ACCEPT", "VERDICT: REVISE\nFEEDBACK: bad"]))
    def test_verdicts(self, before, after, reply):
        from uplift.agents import _parse_verdict

        wrapped = "\n".join([*before, reply, *after])
        assert _parse_verdict(wrapped) == _parse_verdict(reply)
        assert _parse_verdict(wrapped) is not None

    @given(prose)
    def test_sections_ignore_leading_prose(self, before):
        from uplift.agents import _parse_sections

        reply = "INSTRUCTION: do\nEXAMPLE BEFORE: a\nEXAMPLE AFTER: b"
        wrapped = "\n".join([*before, reply])
        assert _parse_sections(wrapped) == _parse_sections(reply)


ledger_rows = st.lists(
    st.tuples(
        st.sampled_from(["run-001", "run-002", "run-003"]),
        st.sampled_from(["m1", "m2", "m3", "m4"]),
        st.sampled_from([c.value for c in ErrorCategory]),
    ),
    max_size=12,
)


@pytest.fixture(scope="module")
def ingest(tmp_path_factory):
    """A function that writes ledger rows to one file and reads it back with
    ingest_ledger, as report does. Module-scoped: Hypothesis reruns a test
    body within one call of a function-scoped fixture."""
    path = tmp_path_factory.mktemp("ledger") / "ledger.csv"

    def write_and_read(rows):
        lines = ["run_id,mistake_id,category,description"]
        lines += [f"{r},{m},{c},some description" for r, m, c in rows]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return ingest_ledger(path)

    return write_and_read


class TestLedgerProperties:
    @given(rows=ledger_rows)
    def test_dedup_idempotent_under_duplication(self, ingest, rows):
        assert ingest(rows) == ingest(rows + rows)

    @given(rows=ledger_rows)
    def test_category_counts_conserve_records(self, ingest, rows):
        records = ingest(rows)
        outcomes = [
            RunRecord(r, RunStatus.COMPLETED, 1.0, 10)
            for r in ["run-001", "run-002", "run-003"]
        ]
        metrics = aggregate(outcomes, records, [], "x")
        assert sum(metrics.category_counts.values()) == len(records)


@st.composite
def aggregate_inputs(draw):
    """Completed and failed runs; a shuffled ledger with 0 to 10 distinct
    mistakes per run, so some cross the threshold of 7, and some
    (run_id, mistake_id) pairs repeated, maybe under another category;
    scores over indices 1-6 with gaps; and maybe a replaced-functions map.
    Durations are quarters, so every sum is exact."""
    statuses = draw(st.lists(st.sampled_from(RunStatus), min_size=1, max_size=6))
    outcomes = [
        RunRecord(
            f"run-{i:03d}", status, draw(st.integers(0, 4000)) / 4,
            draw(st.integers(0, 10**6)) if status is RunStatus.COMPLETED else None,
        )
        for i, status in enumerate(statuses, start=1)
    ]
    errors = []
    for r in outcomes:
        mistakes = [f"m{i}" for i in range(draw(st.integers(0, 10)))]
        repeats = draw(st.lists(st.sampled_from(mistakes), max_size=5)) if mistakes else []
        errors += [ErrorRecord(r.run_id, m, draw(st.sampled_from(ErrorCategory)), "d") for m in mistakes + repeats]
    errors = draw(st.permutations(errors))
    run_ids = st.sampled_from([r.run_id for r in outcomes])
    scored = draw(st.dictionaries(st.tuples(run_ids, st.integers(1, 6)), st.integers(0, 1), max_size=20))
    scores = [RequirementScoreRecord(run_id, index, value) for (run_id, index), value in scored.items()]
    replaced = draw(st.none() | st.dictionaries(run_ids, st.integers(0, 50)))
    return outcomes, errors, scores, replaced


class TestAggregateProperties:
    @given(rows=ledger_rows, rng=st.randoms(use_true_random=False))
    def test_permutation_invariance(self, ingest, rows, rng):
        records = ingest(rows)
        outcomes = [
            RunRecord("run-001", RunStatus.COMPLETED, 1.5, 10),
            RunRecord("run-002", RunStatus.COMPLETED, 2.5, 30),
            RunRecord("run-003", RunStatus.FAILED_GENERATION, 0.5, None),
        ]
        scores = [
            RequirementScoreRecord("run-001", 1, 1),
            RequirementScoreRecord("run-001", 2, 0),
            RequirementScoreRecord("run-002", 1, 0),
            RequirementScoreRecord("run-002", 2, 1),
        ]
        base = aggregate(outcomes, records, scores, "x")
        for pool in (outcomes, records, scores):
            rng.shuffle(pool)
        shuffled = aggregate(outcomes, records, scores, "x")
        assert base == shuffled

    @given(aggregate_inputs())
    def test_every_figure_equals_a_per_run_recount(self, inputs):
        outcomes, errors, scores, replaced = inputs
        metrics = aggregate(outcomes, errors, scores, "x", replaced_functions=replaced)

        mistakes = {r.run_id: set() for r in outcomes}
        first_category = {}
        for e in errors:
            mistakes[e.run_id].add(e.mistake_id)
            first_category.setdefault((e.run_id, e.mistake_id), e.category)
        done = [
            r for r in outcomes
            if r.status is RunStatus.COMPLETED and len(mistakes[r.run_id]) <= FAILED_ERROR_THRESHOLD
        ]
        counts = [len(mistakes[r.run_id]) for r in done]
        score = {(s.run_id, s.requirement_index): s.value for s in scores}
        indices = range(1, max((s.requirement_index for s in scores), default=0) + 1)

        def exact_mean(values):  # every value here sums exactly, so one rounding
            return float(Fraction(sum(values), len(values))) if values else 0.0

        assert metrics.runs_total == len(outcomes)
        assert metrics.runs_failed == len(outcomes) - len(done)
        mean = exact_mean(counts)
        assert metrics.mean_errors == mean
        assert metrics.sd_errors == pytest.approx(
            math.sqrt(sum((c - mean) ** 2 for c in counts) / len(counts)) if counts else 0.0, rel=1e-12, abs=1e-12
        )
        assert metrics.mean_loc == exact_mean([r.loc for r in done])
        assert metrics.mean_duration_seconds == exact_mean([Fraction(r.duration_seconds) for r in done])
        assert metrics.fully_correct_runs == sum(
            1 for r in done if not mistakes[r.run_id] and all(score.get((r.run_id, i)) == 1 for i in indices)
        )
        assert metrics.category_counts == {
            c: sum(1 for category in first_category.values() if category is c) for c in ErrorCategory
        }
        if scores:
            means = tuple(
                float(Fraction(sum(score.get((r.run_id, i), 0) for r in done), len(outcomes))) for i in indices
            )
            assert (metrics.requirement_means, metrics.requirement_total) == (means, sum(means))
        else:
            assert (metrics.requirement_means, metrics.requirement_total) == (None, None)
        if replaced is None:
            assert metrics.mean_replaced_functions is None
        else:
            assert metrics.mean_replaced_functions == exact_mean([replaced.get(r.run_id, 0) for r in done])


# Every code point but surrogates, with the ones JSON escapes or that break
# lines elsewhere drawn often.
line_text = st.text(
    st.one_of(
        st.sampled_from('"\\\x00\x1f\x7f\x85\u2028\u2029\U0001f600'),
        st.characters(blacklist_categories=("Cs",)),
    ),
    max_size=30,
)
maybe_count = st.none() | st.integers(min_value=0)
EXCHANGE_KEYS = {
    "agent", "error", "flags", "iteration", "latency_seconds", "record", "request",
    "request_digest", "response", "response_digest", "run_id", "step", "task_ordinal",
}


@st.composite
def split(draw, text: str) -> tuple[str, ...]:
    """text cut at random points into parts, empty ones included."""
    cuts = sorted(draw(st.lists(st.integers(min_value=0, max_value=len(text)), max_size=4)))
    bounds = [0, *cuts, len(text)]
    return tuple(text[start:end] for start, end in zip(bounds, bounds[1:]))


def messages_as(role: Role):
    # A system or user message needs content; an assistant's may be empty.
    content = line_text if role is Role.ASSISTANT else line_text.filter(bool)
    return st.builds(ChatMessage, st.just(role), content.flatmap(split))


chat_requests = st.builds(
    lambda first, rest, model: ChatRequest((first, *rest), model),
    messages_as(Role.SYSTEM),
    st.lists(st.sampled_from(Role).flatmap(messages_as), max_size=3),
    line_text,
)


@st.composite
def transcript_entries(draw):
    return TranscriptEntry(
        step=draw(st.integers(min_value=0)),
        agent=draw(line_text),
        request=draw(chat_requests),
        response=draw(st.none() | line_text),
        latency_seconds=draw(st.floats(min_value=-0.0, allow_nan=False, allow_infinity=False)),
        task_ordinal=draw(maybe_count),
        iteration=draw(maybe_count),
        error=draw(st.none() | line_text),
        flags=draw(st.sets(line_text, max_size=4)),
    )


class TestRequestJsonProperties:
    """A content escaped part by part is the content escaped whole, however
    it is split and whatever an escape table shared across requests holds."""

    @given(chat_requests)
    def test_json_is_dump_record_of_the_payload(self, chat_request):
        assert chat_request.to_json() == dump_record(chat_request.to_payload())

    @given(st.lists(chat_requests, min_size=1, max_size=4))
    def test_one_table_shared_across_requests(self, requests):
        escaped: dict[str, str] = {}
        # The second pass finds every part in the table.
        for request in [*requests, *requests]:
            assert request.to_json(escaped) == dump_record(request.to_payload())
        assert set(escaped) == {part for request in requests for m in request.messages for part in m.parts}


class TestTranscriptLineProperties:
    @given(transcript_entries(), line_text.filter(bool))
    def test_line_is_dump_record_of_its_record(self, entry, run_id):
        line = entry.to_line(run_id)
        record = json.loads(line)
        assert line == dump_record(record)
        assert set(record) == EXCHANGE_KEYS
        request = dump_record(entry.request.to_payload())
        assert f'"request": {request}, "request_digest": ' in line
        assert record["request_digest"] == sha256(request.encode("utf-8")).hexdigest()
        response = entry.response
        expected = "" if response is None else sha256(response.encode("utf-8")).hexdigest()
        assert record["response_digest"] == expected
        assert record == {
            **vars(entry),
            "request": entry.request.to_payload(),
            "flags": sorted(entry.flags),
            "record": "exchange",
            "run_id": run_id,
            "request_digest": record["request_digest"],
            "response_digest": record["response_digest"],
        }
