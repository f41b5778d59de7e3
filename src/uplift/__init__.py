"""Multi-agent pipeline for updating legacy source files, with bare-prompt
baseline modes and an evaluation harness for comparing them."""

from .backend import (
    ChatMessage,
    ChatRequest,
    ChatResponse,
    HttpBackend,
    ScriptedBackend,
    load_script,
)
from .evaluation import (
    AggregateMetrics,
    ErrorCategory,
    ErrorRecord,
    RequirementScoreRecord,
    RunRecord,
    aggregate,
    emit_report,
    ingest_ledger,
    ingest_scores,
    population_sd,
    run_bench,
)
from .model import (
    CodeArtifact,
    Requirement,
    RequirementSet,
    Task,
    TaskPlan,
    Verdict,
    count_loc,
    extract_code,
    parse_requirements,
)
from .pipeline import (
    PipelineConfig,
    PipelineMode,
    RunOutcome,
    RunStatus,
    run_pipeline,
)
from .transcript import Transcript, write_transcript

__version__ = "0.1.0"
