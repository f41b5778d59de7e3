"""Multi-agent pipeline for updating legacy source files, with bare-prompt
baseline modes and an evaluation harness, uplift.evaluation, for comparing them."""

from .backend import ScriptedBackend
from .model import parse_requirements
from .pipeline import PipelineConfig, PipelineMode, run_pipeline
from .transcript import Transcript

__version__ = "0.1.0"
