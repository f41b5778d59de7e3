"""Exception types shared across the package.

Everything raised on purpose derives from UpliftError so the CLI can map
failures onto its closed set of exit codes.
"""

from __future__ import annotations


class UpliftError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(UpliftError):
    """Invalid or inconsistent configuration."""


# --- requirement parsing ---------------------------------------------------

class EmptyRequirements(UpliftError):
    """No requirement marker line found in the input."""


class MalformedMarker(UpliftError):
    """A requirement marker with no text and no continuation lines."""


# --- backend ---------------------------------------------------------------

class BackendError(UpliftError):
    """Base class for chat-backend failures."""


class CredentialMissing(BackendError):
    """API-key environment variable is not set."""


class BackendExhausted(BackendError):
    """All retry attempts against the HTTP backend failed."""


class ScriptExhausted(BackendError):
    """The scripted backend has served every reply it loaded."""


class ScriptParseError(UpliftError):
    """A script file could not be parsed."""


class TemplateError(UpliftError):
    """A prompt template is missing or has an unfilled placeholder."""


# --- agent response parsing -------------------------------------------------

class PlanParseError(UpliftError):
    """The manager reply contained no task lines, even after a re-ask."""


class PromptSpecParseError(UpliftError):
    """The prompt-maker reply was missing sections, even after a re-ask."""


class FailedGeneration(UpliftError):
    """An executor, finalizer or baseline reply contained no extractable code."""


# --- evaluation harness ------------------------------------------------------

class LedgerParseError(UpliftError):
    """An error ledger or score file row could not be parsed."""

    def __init__(self, message: str, row: int | None = None):
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)
        self.row = row


class UnknownCategory(UpliftError):
    """A ledger row named a category outside the closed set."""


class EmptyInput(UpliftError):
    """A statistic was requested over an empty collection."""


class DanglingReference(UpliftError):
    """A ledger or score record cites a run_id not present in the outcomes."""
