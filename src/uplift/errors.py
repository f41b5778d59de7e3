"""Exception types shared across the package.

Everything raised on purpose derives from UpliftError so the CLI can map
failures onto its closed set of exit codes. A class exists only if a caller
tells it apart: cli.main gives it an exit code other than 2, or its name can
reach a transcript as a run's failure or an exchange's error. Every other
bad input raises ConfigError.
"""

from __future__ import annotations


class UpliftError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(UpliftError):
    """Bad input found before a run: a config value, a script, a prompt
    template, a requirements or source file, or a report CSV row."""


# --- backend ---------------------------------------------------------------

class CredentialMissing(UpliftError):
    """API-key environment variable is not set."""


class BackendExhausted(UpliftError):
    """The HTTP backend got no usable reply: every retry attempt failed, the
    status was one not retried, or a 200 body was malformed."""


class ScriptExhausted(UpliftError):
    """The scripted backend has served every reply it loaded."""


# --- agent response parsing -------------------------------------------------

class PlanParseError(UpliftError):
    """The manager reply contained no task lines, even after a re-ask."""


class PromptSpecParseError(UpliftError):
    """The prompt-maker reply was missing sections, even after a re-ask."""


class FailedGeneration(UpliftError):
    """An executor, finalizer or baseline reply contained no extractable code."""


# --- evaluation harness ------------------------------------------------------

class DanglingReference(UpliftError):
    """A ledger or score row names what the outcomes do not hold: a run_id
    with no run, or a category outside the closed set."""
