from __future__ import annotations

from pathlib import Path

import pytest

from uplift.backend import ScriptedBackend
from uplift.model import CodeArtifact, parse_requirements

FIXTURES = Path(__file__).parent / "fixtures"

PLAN_REPLY = "TASK 1: Update syntax to 4.5\nTASK 2: Fix ORM access"
SECTIONS_REPLY = (
    "INSTRUCTION: Update helper calls to the 4.5 style.\n"
    "EXAMPLE BEFORE: echo $html->link('x');\n"
    "EXAMPLE AFTER: echo $this->Html->link('x');"
)
CODE_REPLY = "```php\n<?php echo $this->Html->link('x'); ?>\n```"
ACCEPT_REPLY = "VERDICT: ACCEPT"
REVISE_REPLY = "VERDICT: REVISE\nFEEDBACK: first() not used on the ORM object"


def seq(*responses: str) -> ScriptedBackend:
    """Backend replaying the given responses in order."""
    return ScriptedBackend(responses)


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def original_code() -> CodeArtifact:
    return CodeArtifact(content="<?php echo $quote['quote']['text']; ?>\n<p>legacy</p>")


@pytest.fixture
def two_requirements():
    return parse_requirements(
        "Requirement1: Update whole CakePHP view file from version 1.2 to version 4.5.\n"
        "Requirement2: ORM Arrays must be accessed with array style syntax"
        " ['Fieldname']['fieldname'] with the first fieldname starting with a capitalized"
        " letter and the second only with lowercase letters."
    )


def pytest_runtest_logreport(report):
    """One visible pass/fail line per acceptance criterion."""
    if "test_acceptance.py" not in report.nodeid:
        return
    skipped_at_setup = report.when == "setup" and report.skipped
    if report.when != "call" and not skipped_at_setup:
        return
    status = "PASS" if report.passed else ("SKIP" if report.skipped else "FAIL")
    name = report.nodeid.split("::")[-1]
    print(f"\n[acceptance] {status} {name}", flush=True)
