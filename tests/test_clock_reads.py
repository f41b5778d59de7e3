"""An exchange's latency and a run's duration are the package's only
timings, each read from time.perf_counter by the one function that owns it:
AgentContext.call times the backend call it wraps, retries and backoff
included, and run_pipeline times the run. No backend reports a time of its
own, so every exchange of every backend is timed alike."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "uplift"
MODULES = sorted(PACKAGE.glob("*.py"))
CLOCKS = {("agents.py", "AgentContext.call"), ("pipeline.py", "run_pipeline")}


def _functions(tree: ast.Module):
    """Each top-level function and method of the module, with its qualified name."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef):
                    yield f"{node.name}.{method.name}", method


def _reads_clock(node: ast.AST) -> bool:
    """Whether the node names perf_counter: time.perf_counter, or the name a
    `from time import perf_counter` binds."""
    if isinstance(node, ast.Attribute):
        return node.attr == "perf_counter"
    if isinstance(node, ast.Name):
        return node.id == "perf_counter"
    return isinstance(node, ast.ImportFrom) and any(a.name == "perf_counter" for a in node.names)


def clock_reads(source: str) -> list[tuple[str | None, str]]:
    """Each read of perf_counter in source, in line order: the function or
    method it is in (None outside one) and its line."""
    tree = ast.parse(source)
    owner = {id(node): name for name, fn in _functions(tree) for node in ast.walk(fn)}
    reads = sorted((node for node in ast.walk(tree) if _reads_clock(node)), key=lambda node: node.lineno)
    return [(owner.get(id(node)), f"line {node.lineno}: {ast.unparse(node)}") for node in reads]


def test_the_scan_finds_each_kind_of_read():
    source = (
        "import time\nfrom time import perf_counter\n"
        "def run_pipeline():\n    return time.perf_counter()\n"
        "class Backend:\n    def complete(self):\n        start = time.perf_counter\n        return perf_counter()\n"
        "    def call(self):\n        return time.monotonic()\n"
    )
    assert clock_reads(source) == [
        (None, "line 2: from time import perf_counter"),
        ("run_pipeline", "line 4: time.perf_counter"),
        ("Backend.complete", "line 7: time.perf_counter"),
        ("Backend.complete", "line 8: perf_counter"),
    ]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_the_exchange_and_the_run_read_the_clock(path):
    reads = clock_reads(path.read_text(encoding="utf-8"))
    assert [line for owner, line in reads if (path.name, owner) not in CLOCKS] == []


def test_each_timing_is_read_where_it_is_owned():
    owners = {(path.name, owner) for path in MODULES for owner, _ in clock_reads(path.read_text(encoding="utf-8"))}
    assert owners == CLOCKS
