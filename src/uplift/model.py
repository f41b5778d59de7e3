"""Language-agnostic domain types, pure parsing/counting utilities, and the
one reader of the files a user hands uplift. Nothing in this module talks to
a model backend."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Iterator
from .errors import ConfigError

# Replies that skip the code fence but plainly start with source code are
# still accepted. The match ignores case, as PHP and HTML do for the open
# tag, the doctype and tag names.
_CODE_SENTINEL_RE = re.compile(r"<\?php|<!doctype|<html", re.IGNORECASE)

# Requirement0: is no marker, so it continues the requirement before it.
_MARKER_RE = re.compile(r"^\s*requirement\s*(0*[1-9][0-9]*)\s*:(.*)$", re.IGNORECASE)
_FENCE_RE = re.compile(r"^\s*```+([A-Za-z0-9_+.-]*)\s*$")


def _check_texts(owner: str, item: str, texts: tuple[str, ...]) -> None:
    """The rule of a RequirementSet's texts and a TaskPlan's descriptions: at
    least one, each non-empty and stripped."""
    if not texts:
        raise ValueError(f"a {owner} must contain at least one {item}")
    if not all(text and text == text.strip() for text in texts):
        raise ValueError(f"{item} text must be non-empty and stripped")


@dataclass(frozen=True)
class RequirementSet:
    """Requirement texts parsed from a requirements file, in file order:
    requirement k is the k-th text."""

    requirements: tuple[str, ...]

    def __post_init__(self):
        _check_texts("RequirementSet", "requirement", self.requirements)

    @cached_property
    def rendered(self) -> str:
        """render_requirements(self), made on first read: the manager's two
        requests, and a bench's runs, hold this one text."""
        return render_requirements(self)


@dataclass(frozen=True)
class Task:
    """One executable operation in a plan: its ordinal is its position."""

    ordinal: int
    description: str


@dataclass(frozen=True)
class TaskPlan:
    """Task descriptions in order: task k is the k-th, with ordinal k."""

    descriptions: tuple[str, ...]

    def __post_init__(self):
        _check_texts("TaskPlan", "task", self.descriptions)

    def __iter__(self) -> Iterator[Task]:
        for ordinal, description in enumerate(self.descriptions, start=1):
            yield Task(ordinal, description)


@dataclass(frozen=True)
class CodeArtifact:
    """A source file snapshot."""

    content: str

    @cached_property
    def loc(self) -> int:
        """Counted on first read; the content never changes."""
        return count_loc(self.content)


class Decision(str, Enum):
    ACCEPT = "accept"
    REVISE = "revise"


@dataclass(frozen=True)
class Verdict:
    """Outcome of one verification pass."""

    decision: Decision
    feedback: str = ""

    def __post_init__(self):
        if self.decision is Decision.REVISE and not self.feedback.strip():
            raise ValueError("a revise verdict requires non-empty feedback")


def marked_lines(text: str, marker: re.Pattern[str]) -> list[tuple[re.Match[str], list[str]]]:
    """(match, following lines) for each line of text that marker matches,
    the following lines running up to the next match. Lines before the first
    match are dropped. Lines split at every break str.splitlines() knows."""
    groups: list[tuple[re.Match[str], list[str]]] = []
    for line in text.splitlines():
        match = marker.match(line)
        if match:
            groups.append((match, []))
        elif groups:
            groups[-1][1].append(line)
    return groups


def parse_requirements(raw: str, source_path: str = "") -> RequirementSet:
    """Parse ``Requirement<N>:`` marker lines into a RequirementSet.

    Continuation lines up to the next marker belong to the current
    requirement. Requirements are numbered 1..K by their place in the file,
    regardless of the literal numbers in it.

    Raises ConfigError when no marker line exists or when a marker
    introduces no text at all.
    """
    segments = [[match.group(2), *lines] for match, lines in marked_lines(raw, _MARKER_RE)]
    if not segments:
        raise ConfigError(f"no Requirement<N>: marker line found in {source_path or 'input'}")

    texts = tuple("\n".join(seg).strip() for seg in segments)
    if "" in texts:
        raise ConfigError(f"requirement {texts.index('') + 1} has a marker but no text")
    return RequirementSet(texts)


def render_requirements(reqs: RequirementSet) -> str:
    """Inverse of parse_requirements: one ``RequirementN: text`` segment per entry."""
    return "\n".join(f"Requirement{k}: {text}" for k, text in enumerate(reqs.requirements, start=1))


def read_text(path: str | Path) -> str:
    """The text of a file a user hands uplift: UTF-8 less a leading byte-order
    mark, which would hide a first marker or reach a model. Other bytes are a
    ConfigError naming the file and their offset from its first byte."""
    try:
        return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8: byte {exc.start}: {exc.reason}") from None


def number(text: str, kind: type[int] | type[float] = int) -> int | float:
    """The number a user writes as text, a CSV cell or a flag's value. A whole
    number (int) is ASCII digits only: no sign, no `_`, no other script's
    digits. A float is what float() reads from ASCII text with no `_`. Other
    text is a ValueError naming it."""
    if not text.isascii() or "_" in text or (kind is int and not text.isdigit()):
        rule = "whole number (ASCII digits only)" if kind is int else "number (ASCII, no _)"
        raise ValueError(f"{text!r} is not a {rule}")
    return kind(text)


def load_json(path: str | Path) -> object:
    """read_text(path) parsed as JSON; a parse error is a ConfigError naming the file."""
    text = read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise ConfigError(f"{path}: JSON nested too deeply") from None


def load_requirements(path: str | Path) -> RequirementSet:
    return parse_requirements(read_text(path), source_path=str(path))


def count_loc(content: str) -> int:
    """Physical lines containing at least one non-whitespace character."""
    return sum(1 for line in content.splitlines() if line.strip())


def extract_code(response: str) -> str | None:
    """Pull source code out of a raw model reply.

    Prefers the longest fenced block (replies often show fragments before the
    full file). Without a fence, a reply that starts with a known code
    sentinel is accepted whole. Any other reply holds no code: None.
    """
    # A block has a non-blank line exactly when it has a non-whitespace
    # character: every line break splitlines() knows is whitespace.
    blocks = [b for b in _fenced_blocks(response) if b.strip()]
    if blocks:
        return max(blocks, key=len)
    trimmed = response.strip()
    return trimmed if _CODE_SENTINEL_RE.match(trimmed) else None


def _fenced_blocks(response: str) -> list[str]:
    """Each non-empty fenced block as sent: its raw lines, less the break that
    ends its last line. Fence lines pair up in order; an odd count leaves the
    last fence unterminated, and its block runs to the end of the reply. A
    fence line is found at every break splitlines() knows, since _FENCE_RE's
    trailing \\s* absorbs the break."""
    lines = response.splitlines(keepends=True)
    fences = [i for i, line in enumerate(lines) if "```" in line and _FENCE_RE.match(line)]
    if len(fences) % 2:
        fences.append(len(lines))
    blocks = [lines[start + 1 : end] for start, end in zip(fences[::2], fences[1::2])]
    return ["".join(b[:-1]) + b[-1].splitlines()[0] for b in blocks if b]


def artifact_from_file(path: str | Path) -> CodeArtifact:
    """Read a source file as the user-supplied input artifact. A file with no
    non-blank line is rejected: there is nothing to update."""
    code = CodeArtifact(read_text(path))
    if not code.loc:
        raise ConfigError(f"{path}: source file has no non-blank line")
    return code
