"""Each CLI setting has one name, its config key: cli.py reads the config as
config["section.name"], the string a config file, a flag's error message and
the README use. A key read that no SETTINGS row declares is a typo that only
a run reaching that line would find; a row that no line reads by its key is
a setting that checks its value and then changes nothing."""

from __future__ import annotations

import ast
from pathlib import Path

from uplift import cli

SOURCE = (Path(__file__).resolve().parent.parent / "src" / "uplift" / "cli.py").read_text(encoding="utf-8")
KEYS = {setting.key for setting in cli.SETTINGS}


def config_reads(source: str) -> list[tuple[str, str]]:
    """Each read of the config by a literal key in source, in line order:
    config["key"] or config.get("key"), with its line. Writes, and reads by
    a computed key such as validate's config[setting.key], are not ones."""
    reads = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            target, key = node.value, node.slice
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "get":
            target, key = node.func.value, (node.args or [None])[0]
        else:
            continue
        if isinstance(target, ast.Name) and target.id == "config" and isinstance(key, ast.Constant):
            reads.append((node.lineno, key.value))
    return [(key, f"line {line}") for line, key in sorted(reads)]


def test_the_scan_finds_each_kind_of_read():
    source = (
        "def f(config, other):\n"
        '    a = config["backend.kind"]\n'
        '    b = config.get("bench.reps", 1)\n'
        "    c = f\"{config['backend.endpoint']!r}\"\n"
        '    config["pipeline.mode"] = other["x.y"]\n'
        "    for setting in SETTINGS:\n"
        "        d = config[setting.key]\n"
    )
    assert config_reads(source) == [
        ("backend.kind", "line 2"),
        ("bench.reps", "line 3"),
        ("backend.endpoint", "line 4"),
    ]


def test_every_key_the_cli_reads_is_a_setting():
    assert [(key, line) for key, line in config_reads(SOURCE) if key not in KEYS] == []


def test_every_setting_is_read_by_its_key():
    assert sorted(KEYS - {key for key, _ in config_reads(SOURCE)}) == []
