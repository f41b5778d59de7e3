"""Multi-agent pipeline for updating legacy source files, with bare-prompt
baseline modes and an evaluation harness, uplift.evaluation, for comparing them."""

from .backend import (
    ChatMessage,
    ChatRequest,
    ChatResponse,
    HttpBackend,
    ScriptedBackend,
    load_script,
)
from .model import (
    CodeArtifact,
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
    RunRecord,
    RunStatus,
    run_pipeline,
)
from .transcript import Transcript, write_transcript

__version__ = "0.1.0"
