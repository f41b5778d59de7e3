"""Language-agnostic domain types plus pure parsing/counting utilities.

Nothing in this module talks to a model backend; everything is a pure
function over immutable values.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from .errors import ConfigError, EmptyRequirements, MalformedMarker, NoCodeFound

# Replies that skip the code fence but plainly start with source code are
# still accepted.
_CODE_SENTINELS = ("<?php", "<!DOCTYPE", "<html")

_MARKER_RE = re.compile(r"^\s*requirement\s*([0-9]+)\s*:(.*)$", re.IGNORECASE)
_FENCE_RE = re.compile(r"^\s*```+([A-Za-z0-9_+.-]*)\s*$")


@dataclass(frozen=True)
class Requirement:
    """One user requirement, 1-indexed within its set."""

    index: int
    text: str

    def __post_init__(self):
        if self.index < 1:
            raise ValueError(f"requirement index must be positive, got {self.index}")
        if not self.text or self.text != self.text.strip():
            raise ValueError("requirement text must be non-empty and stripped")


@dataclass(frozen=True)
class RequirementSet:
    """Ordered requirements parsed from a requirements file."""

    requirements: tuple[Requirement, ...]

    def __post_init__(self):
        if not self.requirements:
            raise ValueError("a RequirementSet must contain at least one requirement")
        for pos, req in enumerate(self.requirements, start=1):
            if req.index != pos:
                raise ValueError(
                    f"requirement indices must be contiguous from 1, got {req.index} at position {pos}"
                )


@dataclass(frozen=True)
class Task:
    """One executable operation in a plan."""

    ordinal: int
    description: str

    def __post_init__(self):
        if self.ordinal < 1:
            raise ValueError(f"task ordinal must be positive, got {self.ordinal}")
        if not self.description.strip():
            raise ValueError("task description must be non-empty")


@dataclass(frozen=True)
class TaskPlan:
    """Ordered tasks, numbered contiguously from 1."""

    tasks: tuple[Task, ...]

    def __post_init__(self):
        for pos, task in enumerate(self.tasks, start=1):
            if task.ordinal != pos:
                raise ValueError(
                    f"task ordinals must be contiguous from 1, got {task.ordinal} at position {pos}"
                )


@dataclass(frozen=True)
class CodeArtifact:
    """A source file snapshot; ``iteration`` counts the finalizer passes
    behind it within its task (0 for user input and executor output)."""

    content: str
    iteration: int = 0

    def __post_init__(self):
        if self.iteration < 0:
            raise ValueError("iteration must be non-negative")

    @property
    def loc(self) -> int:
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


def parse_requirements(raw: str, source_path: str = "") -> RequirementSet:
    """Parse ``Requirement<N>:`` marker lines into a RequirementSet.

    Continuation lines up to the next marker belong to the current
    requirement. Indices are renumbered 1..K in file order regardless of the
    literal numbers in the file.

    Raises EmptyRequirements when no marker line exists and MalformedMarker
    when a marker introduces no text at all.
    """
    segments: list[list[str]] = []
    current: list[str] | None = None
    for line in raw.splitlines():
        match = _MARKER_RE.match(line)
        if match and int(match.group(1)) > 0:
            current = [match.group(2)]
            segments.append(current)
        elif current is not None:
            current.append(line)
    if not segments:
        raise EmptyRequirements(f"no Requirement<N>: marker line found in {source_path or 'input'}")

    requirements = []
    for pos, seg in enumerate(segments, start=1):
        text = "\n".join(seg).strip()
        if not text:
            raise MalformedMarker(f"requirement {pos} has a marker but no text")
        requirements.append(Requirement(index=pos, text=text))
    return RequirementSet(requirements=tuple(requirements))


def render_requirements(reqs: RequirementSet) -> str:
    """Inverse of parse_requirements: one ``RequirementN: text`` segment per entry."""
    return "\n".join(f"Requirement{r.index}: {r.text}" for r in reqs.requirements)


def load_requirements(path: str | Path) -> RequirementSet:
    p = Path(path)
    return parse_requirements(p.read_text(encoding="utf-8"), source_path=str(p))


def count_loc(content: str) -> int:
    """Physical lines containing at least one non-whitespace character."""
    return sum(1 for line in content.splitlines() if line.strip())


def extract_code(response: str) -> str:
    """Pull source code out of a raw model reply.

    Prefers the longest fenced block (replies often show fragments before the
    full file). Without a fence, a reply that starts with a known code
    sentinel is accepted whole. Anything else raises NoCodeFound, which
    callers treat as a failed generation.
    """
    blocks = _fenced_blocks(response)
    blocks = [b for b in blocks if count_loc(b) > 0]
    if blocks:
        return max(blocks, key=len)
    trimmed = response.strip()
    if trimmed.startswith(_CODE_SENTINELS):
        return trimmed
    raise NoCodeFound("reply contains no fenced code block and no code sentinel")


def _fenced_blocks(response: str) -> list[str]:
    blocks: list[str] = []
    current: list[str] | None = None
    for line in response.splitlines():
        if _FENCE_RE.match(line):
            if current is None:
                current = []
            else:
                blocks.append("\n".join(current))
                current = None
        elif current is not None:
            current.append(line)
    if current:
        # Unterminated fence: treat the rest of the reply as the block.
        blocks.append("\n".join(current))
    return blocks


def artifact_from_file(path: str | Path) -> CodeArtifact:
    """Read a source file as the user-supplied input artifact. A file with no
    non-blank line is rejected: there is nothing to update."""
    content = Path(path).read_text(encoding="utf-8")
    if not count_loc(content):
        raise ConfigError(f"{path}: source file has no non-blank line")
    return CodeArtifact(content=content)
