"""The uplift command line: plan, run, bench, and report subcommands.

Configuration comes from a JSON file (--config, default uplift.json when
present) with flags overriding individual keys. Exit codes form a closed
set: 0 success, 2 config/IO, 3 unparseable plan, 4 failed generation,
5 dangling reference or unknown category.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Sequence
from urllib.parse import urlsplit

from .agents import DEFAULT_PROMPT_DIR, render_tasks
from .backend import DEFAULT_MODEL, HttpBackend, load_script, utf8_encodable
from .errors import (
    DanglingReference,
    ConfigError,
    PlanParseError,
    UnknownCategory,
    UpliftError,
)
from .evaluation import (
    FAILED_ERROR_THRESHOLD,
    aggregate,
    emit_report,
    ingest_ledger,
    ingest_replaced_functions,
    ingest_scores,
    load_spec,
    read_bench_index,
    report_rows,
    run_bench,
    run_once,
    write_bench_index,
)
from .model import artifact_from_file, load_requirements
from .pipeline import MAX_LOOP_ITERATIONS, PipelineConfig, PipelineMode, RunStatus, build_plan, context
from .transcript import Transcript

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PLAN = 3
EXIT_FAILED_GENERATION = 4
EXIT_REFERENCE = 5

DEFAULT_CONFIG_NAME = "uplift.json"
DEFAULT_ENDPOINT = "https://api.openai.com/v1/chat/completions"


@dataclasses.dataclass
class CliConfig:
    backend_kind: str = "http"
    backend_endpoint: str = DEFAULT_ENDPOINT
    backend_model: str = DEFAULT_MODEL
    backend_script_path: str | None = None
    pipeline_mode: str = PipelineMode.SYSTEM_MANAGER.value
    pipeline_max_loop_iterations: int = MAX_LOOP_ITERATIONS
    pipeline_failed_error_threshold: int = FAILED_ERROR_THRESHOLD
    prompts_dir: str = str(DEFAULT_PROMPT_DIR)
    bench_repetitions: int = 10
    bench_parallelism: int = 1

    def validate(self) -> None:
        if self.backend_kind not in ("http", "script"):
            raise ConfigError(f"backend.kind must be http or script, got {self.backend_kind!r}")
        if self.backend_kind == "script" and not self.backend_script_path:
            raise ConfigError("backend.kind=script requires backend.script_path")
        if self.backend_kind == "http" and self.backend_script_path:
            raise ConfigError("backend.script_path is only valid with backend.kind=script")
        if self.backend_kind == "http" and not _is_http_url(self.backend_endpoint):
            raise ConfigError(
                f"backend.endpoint must be an http or https URL with a host, got {self.backend_endpoint!r}"
            )
        if self.bench_repetitions < 1:
            raise ConfigError("bench.repetitions must be >= 1")
        if self.bench_parallelism < 1:
            raise ConfigError("bench.parallelism must be >= 1")
        if self.pipeline_max_loop_iterations < 0:
            raise ConfigError("pipeline.max_loop_iterations must be >= 0")
        if self.pipeline_failed_error_threshold < 1:
            raise ConfigError("pipeline.failed_error_threshold must be >= 1")
        try:
            PipelineMode(self.pipeline_mode)
        except ValueError:
            raise ConfigError(f"unknown pipeline.mode {self.pipeline_mode!r}") from None


def _is_http_url(url: str) -> bool:
    try:
        parts = urlsplit(url)
        return parts.scheme in ("http", "https") and bool(parts.hostname)
    except ValueError:  # e.g. an unclosed IPv6 bracket
        return False


# Config key <section>.<key> is the CliConfig field <section>_<key>; the
# field's default fixes the type of the key's value.
_DEFAULTS = {f.name: f.default for f in dataclasses.fields(CliConfig)}
_SECTIONS = {name.split("_", 1)[0] for name in _DEFAULTS}


def load_config(path: str | None) -> CliConfig:
    config = CliConfig()
    chosen = Path(path) if path else Path(DEFAULT_CONFIG_NAME)
    if path is None and not chosen.is_file():
        return config
    if not chosen.is_file():
        raise ConfigError(f"config file not found: {chosen}")
    try:
        data = json.loads(chosen.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{chosen}: invalid JSON: {exc}") from None
    except RecursionError:
        raise ConfigError(f"{chosen}: invalid JSON: nested too deeply") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{chosen}: expected a JSON object")
    for section, keys in data.items():
        if section not in _SECTIONS:
            raise ConfigError(f"{chosen}: unknown section {section!r}")
        if not isinstance(keys, dict):
            raise ConfigError(f"{chosen}: section {section!r} must be an object")
        for key, value in keys.items():
            name = f"{section}_{key}"
            if name not in _DEFAULTS:
                raise ConfigError(f"{chosen}: unknown key {section}.{key}")
            default = _DEFAULTS[name]
            # Only backend.script_path defaults to null; it takes a string too.
            if type(value) is not type(default) and not (default is None and isinstance(value, str)):
                want = "a string or null" if default is None else f"of type {type(default).__name__}"
                raise ConfigError(f"{chosen}: {section}.{key} must be {want}, got {value!r}")
            if isinstance(value, str) and not utf8_encodable(value):
                raise ConfigError(f"{chosen}: {section}.{key} holds a lone surrogate escape")
            setattr(config, name, value)
    return config


def pipeline_config(config: CliConfig) -> PipelineConfig:
    if config.backend_kind == "script":
        backend = load_script(config.backend_script_path)
    else:
        backend = HttpBackend(config.backend_endpoint)
    return PipelineConfig(
        mode=PipelineMode(config.pipeline_mode),
        backend=backend,
        prompt_dir=Path(config.prompts_dir),
        max_loop_iterations=config.pipeline_max_loop_iterations,
        model=config.backend_model,
    )


def cmd_plan(args: argparse.Namespace, config: CliConfig) -> int:
    requirements = load_requirements(args.requirements)
    ctx = context(pipeline_config(config), Transcript("plan"))
    plan = build_plan(ctx, requirements, PipelineMode.SYSTEM_MANAGER)
    print(render_tasks(plan))
    return EXIT_OK


def cmd_run(args: argparse.Namespace, config: CliConfig) -> int:
    pconfig = pipeline_config(config)
    input_path = Path(args.input)
    code = artifact_from_file(input_path)
    spec = load_spec(args.spec, pconfig.mode)
    out_dir = Path(args.out or "out") / input_path.stem
    out_dir.mkdir(parents=True, exist_ok=True)
    outcome = run_once(code, spec, pconfig, "run-001", out_dir, input_path.suffix)
    loc = "-" if outcome.loc is None else outcome.loc
    print(
        f"{outcome.run_id} status={outcome.status.value} "
        f"duration={outcome.duration_seconds:.3f}s loc={loc} tasks={outcome.task_count}"
    )
    return EXIT_OK if outcome.failure is None else EXIT_FAILED_GENERATION


def cmd_bench(args: argparse.Namespace, config: CliConfig) -> int:
    case_dir = Path(args.case_dir)
    if not case_dir.is_dir():
        raise ConfigError(f"case directory not found: {case_dir}")
    pconfig = pipeline_config(config)
    out_dir = Path(args.out or "out") / case_dir.name
    outcomes = run_bench(
        case_dir,
        pconfig,
        config.bench_repetitions,
        out_dir=out_dir,
        parallelism=config.bench_parallelism,
    )
    write_bench_index(outcomes, out_dir / "index.csv")
    failed = sum(1 for o in outcomes if o.status is RunStatus.FAILED_GENERATION)
    print(f"{len(outcomes)} runs ({failed} failed) -> {out_dir / 'index.csv'}")
    return EXIT_OK


def cmd_report(args: argparse.Namespace, config: CliConfig) -> int:
    # Checked before any input is read, so a bad label leaves no output touched.
    if not utf8_encodable(args.label):
        raise ConfigError("--label is not valid UTF-8")
    if not args.label.strip():
        raise ConfigError("--label must hold a non-whitespace character")
    case_out = Path(args.case_out_dir)
    records = read_bench_index(case_out / "index.csv")
    runs = {r.run_id for r in records}
    errors = ingest_ledger(args.ledger, runs)
    scores = ingest_scores(args.scores, runs) if args.scores else []
    replaced = ingest_replaced_functions(args.rf, runs) if args.rf else None
    metrics = aggregate(
        records,
        errors,
        scores,
        args.label,
        replaced_functions=replaced,
        failed_error_threshold=config.pipeline_failed_error_threshold,
    )
    out_dir = Path(args.out) if args.out else case_out
    out_dir.mkdir(parents=True, exist_ok=True)
    emit_report([metrics], out_dir / "report.csv")
    (row,) = report_rows([metrics])
    print(" ".join(f"{name}={_line_cell(cell)}" for name, cell in row.items() if cell))
    return EXIT_OK


def _line_cell(cell: str) -> str:
    """The cell, or an ASCII JSON string if it holds a space, =, ", \\ or a non-printing character."""
    return cell if cell.isprintable() and not any(c in cell for c in ' ="\\') else json.dumps(cell)


_FLAGS = {
    "--config": {"help": "JSON config file (default uplift.json)"},
    "--script": {"dest": "backend_script_path", "help": "scripted-backend JSON file"},
    "--mode": {"dest": "pipeline_mode", "choices": [m.value for m in PipelineMode]},
    "--reps": {"dest": "bench_repetitions", "type": int, "help": "bench repetitions"},
    "--max-loop": {"dest": "pipeline_max_loop_iterations", "type": int},
    "--out": {"help": "output directory (default: out/, or the case output directory for report)"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="uplift", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def flags(p: argparse.ArgumentParser, *names: str) -> None:
        for name in names:
            p.add_argument(name, **_FLAGS[name])

    plan = sub.add_parser("plan", help="print the manager's confirmed task plan")
    plan.add_argument("requirements")
    flags(plan, "--config", "--script")
    plan.set_defaults(func=cmd_plan)

    run = sub.add_parser("run", help="execute one run and write its artifacts")
    run.add_argument("input", help="source file to update")
    run.add_argument("spec", help="requirements file (system modes) or prompt file (baselines)")
    flags(run, "--config", "--script", "--mode", "--max-loop", "--out")
    run.set_defaults(func=cmd_run)

    bench = sub.add_parser("bench", help="repeat a case and write an index.csv")
    bench.add_argument("case_dir", help="directory with original.<ext> and requirements.txt/prompt.txt")
    flags(bench, *_FLAGS)
    bench.set_defaults(func=cmd_bench)

    report = sub.add_parser("report", help="aggregate bench artifacts against a human error ledger")
    report.add_argument("case_out_dir", help="bench output directory containing index.csv")
    report.add_argument("ledger", help="error ledger CSV")
    report.add_argument("--scores", default=None, help="requirement score CSV")
    report.add_argument("--rf", default=None, help="replaced-functions sidecar CSV")
    report.add_argument("--label", required=True, help="method label for the report row")
    flags(report, "--config", "--out")
    report.set_defaults(func=cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        for name, value in vars(args).items():
            if name in _DEFAULTS and value is not None:
                setattr(config, name, value)
                if name == "backend_script_path":
                    config.backend_kind = "script"
        config.validate()
        return args.func(args, config)
    except (DanglingReference, UnknownCategory) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REFERENCE
    except PlanParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PLAN
    except (UpliftError, OSError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
