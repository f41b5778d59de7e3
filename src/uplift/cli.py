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
from typing import Any, Callable, Sequence
from urllib.parse import urlsplit

from .agents import DEFAULT_PROMPT_DIR, AgentContext, PromptLibrary, render_tasks
from .backend import DEFAULT_MODEL, HttpBackend, load_script, utf8_encodable
from .errors import ConfigError, DanglingReference, PlanParseError, UpliftError
from .evaluation import (
    INDEX_FILE, REPORT_FILE, aggregate, case_files, check_label, check_parallelism, check_repetitions, emit_report,
    ingest_ledger, ingest_replaced_functions, ingest_scores, read_bench_index, run_bench, write_bench_index,
)
from .model import load_json, load_requirements, number
from .pipeline import (
    MAX_LOOP_ITERATIONS, PipelineConfig, PipelineMode, RunStatus, build_plan, check_max_loop_iterations,
    check_type,
)
from .transcript import Transcript

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PLAN = 3
EXIT_FAILED_GENERATION = 4
EXIT_REFERENCE = 5

DEFAULT_CONFIG_NAME = "uplift.json"
DEFAULT_ENDPOINT = "https://api.openai.com/v1/chat/completions"


@dataclasses.dataclass(frozen=True)
class Setting:
    """A config key `section.name`, written once: the type of its value (a
    union with None where it may be null), its default, its rule, and the
    flag that overrides it. Every subcommand checks every rule."""

    key: str
    type: Any
    default: object
    rule: Callable[[str, Any], None] | None = None  # rule(key, value) raises ValueError naming the key
    choices: tuple[str, ...] = ()  # a rule too: the values the key takes
    flag: str | None = None
    help: str | None = None
    implies: tuple[tuple[str, object], ...] = ()  # the (key, value) pairs the flag sets too

    @property
    def argument(self) -> dict[str, Any]:
        """add_argument's options for the flag. An int flag's value is read by
        model.number, the rule of every whole number a user writes."""
        kind = getattr(self.type, "__args__", (self.type,))[0]  # str for str | None
        kind = number if kind is int else kind
        return {"dest": self.key, "type": kind, "choices": self.choices or None, "help": self.help}


SETTINGS = (
    Setting("backend.kind", str, "http", choices=("http", "script")),
    Setting("backend.endpoint", str, DEFAULT_ENDPOINT),
    Setting("backend.model", str, DEFAULT_MODEL),
    Setting(
        "backend.script_path", str | None, None,
        flag="--script", help="scripted-backend JSON file", implies=(("backend.kind", "script"),),
    ),
    Setting(
        "pipeline.mode", str, PipelineMode.SYSTEM_MANAGER.value,
        choices=tuple(m.value for m in PipelineMode), flag="--mode",
    ),
    Setting("pipeline.max_loop_iterations", int, MAX_LOOP_ITERATIONS, check_max_loop_iterations, flag="--max-loop"),
    Setting("prompts.dir", str, str(DEFAULT_PROMPT_DIR)),
    Setting("bench.repetitions", int, 10, check_repetitions, flag="--reps", help="bench repetitions"),
    Setting("bench.parallelism", int, 1, check_parallelism),
)


def validate(config: dict[str, Any]) -> None:
    """Check each setting's rule, then the backend keys against each other."""
    for setting in SETTINGS:
        value = config[setting.key]
        if setting.choices and value not in setting.choices:
            raise ConfigError(f"{setting.key} must be {' or '.join(setting.choices)}, got {value!r}")
        if setting.rule:
            setting.rule(setting.key, value)
    if config["backend.kind"] == "script" and not config["backend.script_path"]:
        raise ConfigError("backend.kind=script requires backend.script_path")
    if config["backend.kind"] == "http" and config["backend.script_path"]:
        raise ConfigError("backend.script_path is only valid with backend.kind=script")
    if config["backend.kind"] == "http" and not _is_http_url(config["backend.endpoint"]):
        raise ConfigError(
            f"backend.endpoint must be an http or https URL with a host, got {config['backend.endpoint']!r}"
        )


def _is_http_url(url: str) -> bool:
    try:
        parts = urlsplit(url)
        return parts.scheme in ("http", "https") and bool(parts.hostname)
    except ValueError:  # e.g. an unclosed IPv6 bracket
        return False


def load_config(path: str | None) -> dict[str, Any]:
    """Each setting's key and default, or its value in the config file (uplift.json when path is None)."""
    config = {s.key: s.default for s in SETTINGS}
    chosen = Path(path) if path else Path(DEFAULT_CONFIG_NAME)
    if path is None and not chosen.is_file():
        return config
    if not chosen.is_file():
        raise ConfigError(f"config file not found: {chosen}")
    data = load_json(chosen)
    if not isinstance(data, dict):
        raise ConfigError(f"{chosen}: expected a JSON object")
    settings = {s.key: s for s in SETTINGS}
    for section, keys in data.items():
        if section not in {key.split(".")[0] for key in settings}:
            raise ConfigError(f"{chosen}: unknown section {section!r}")
        if not isinstance(keys, dict):
            raise ConfigError(f"{chosen}: section {section!r} must be an object")
        for name, value in keys.items():
            setting = settings.get(f"{section}.{name}")
            if setting is None:
                raise ConfigError(f"{chosen}: unknown key {section}.{name}")
            check_type(f"{chosen}: {setting.key}", value, setting.type)
            if isinstance(value, str) and not utf8_encodable(value):
                raise ConfigError(f"{chosen}: {setting.key} holds a lone surrogate escape")
            config[setting.key] = value
    return config


def pipeline_config(config: dict[str, Any]) -> PipelineConfig:
    if config["backend.kind"] == "script":
        backend = load_script(config["backend.script_path"])
    else:
        backend = HttpBackend(config["backend.endpoint"])
    return PipelineConfig(
        mode=config["pipeline.mode"],
        backend=backend,
        prompts=PromptLibrary(config["prompts.dir"]),
        max_loop_iterations=config["pipeline.max_loop_iterations"],
        model=config["backend.model"],
    )


def cmd_plan(args: argparse.Namespace, config: dict[str, Any]) -> int:
    requirements = load_requirements(args.requirements)
    ctx = AgentContext(pipeline_config(config), Transcript("plan"))
    plan = build_plan(ctx, requirements, PipelineMode.SYSTEM_MANAGER)
    print(render_tasks(plan))
    return EXIT_OK


def cmd_run(args: argparse.Namespace, config: dict[str, Any]) -> int:
    input_path = Path(args.input)
    out_dir = Path(args.out or "out") / input_path.stem
    (outcome,) = run_bench(input_path, args.spec, pipeline_config(config), 1, out_dir=out_dir)
    loc = "-" if outcome.loc is None else outcome.loc
    print(
        f"{outcome.run_id} status={outcome.status.value} "
        f"duration={outcome.duration_seconds:.3f}s loc={loc} tasks={outcome.task_count}"
    )
    return EXIT_OK if outcome.failure is None else EXIT_FAILED_GENERATION


def cmd_bench(args: argparse.Namespace, config: dict[str, Any]) -> int:
    case_dir = Path(args.case_dir)
    pconfig = pipeline_config(config)
    out_dir = Path(args.out or "out") / case_dir.resolve().name  # "." and ".." name no directory
    outcomes = run_bench(
        *case_files(case_dir, pconfig.mode), pconfig, config["bench.repetitions"],
        out_dir=out_dir, parallelism=config["bench.parallelism"],
    )
    write_bench_index(outcomes, out_dir / INDEX_FILE)
    failed = sum(1 for o in outcomes if o.status is RunStatus.FAILED_GENERATION)
    print(f"{len(outcomes)} runs ({failed} failed) -> {out_dir / INDEX_FILE}")
    return EXIT_OK


def cmd_report(args: argparse.Namespace, config: dict[str, Any]) -> int:
    check_label("--label", args.label)  # before any input is read, so a bad label leaves no output touched
    case_out = Path(args.case_out_dir)
    records = read_bench_index(case_out / INDEX_FILE)
    runs = {r.run_id for r in records}
    errors = ingest_ledger(args.ledger, runs)
    scores = ingest_scores(args.scores, runs) if args.scores else []
    replaced = ingest_replaced_functions(args.rf, runs) if args.rf else None
    metrics = aggregate(records, errors, scores, args.label, replaced_functions=replaced)
    out_dir = Path(args.out) if args.out else case_out
    out_dir.mkdir(parents=True, exist_ok=True)
    (row,) = emit_report([metrics], out_dir / REPORT_FILE)
    print(" ".join(f"{name}={_line_cell(cell)}" for name, cell in row.items() if cell))
    return EXIT_OK


def _line_cell(cell: str) -> str:
    """The cell, or an ASCII JSON string if it holds a space, =, ", \\ or a non-printing character."""
    return cell if cell.isprintable() and not any(c in cell for c in ' ="\\') else json.dumps(cell)


_FLAGS = {
    "--config": {"help": "JSON config file (default uplift.json)"},
    **{s.flag: s.argument for s in SETTINGS if s.flag},
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

    bench = sub.add_parser("bench", help=f"repeat a case and write an {INDEX_FILE}")
    bench.add_argument("case_dir", help="directory with original.<ext> and requirements.txt/prompt.txt")
    flags(bench, *_FLAGS)
    bench.set_defaults(func=cmd_bench)

    report = sub.add_parser("report", help="aggregate bench artifacts against a human error ledger")
    report.add_argument("case_out_dir", help=f"bench output directory containing {INDEX_FILE}")
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
        for setting in SETTINGS:
            if (value := getattr(args, setting.key, None)) is not None:
                config[setting.key] = value
                config.update(setting.implies)
        validate(config)
        return args.func(args, config)
    except (UpliftError, OSError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return {DanglingReference: EXIT_REFERENCE, PlanParseError: EXIT_PLAN}.get(type(exc), EXIT_CONFIG)


if __name__ == "__main__":
    sys.exit(main())
