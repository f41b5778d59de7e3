"""Every file a user hands uplift is read by model.read_text, so one rule
decides its decoding: UTF-8, a leading byte-order mark dropped, other bytes
an error naming the file. No other function of the package reads a file:
uplift writes its run files and reads none back."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "uplift"
MODULES = sorted(PACKAGE.glob("*.py"))
READERS = {("model.py", "read_text")}


def _reads(call: ast.Call) -> bool:
    """Whether the call reads a file: .read_text(), .read_bytes(), or an
    open(path, mode) or path.open(mode) whose mode is not a literal holding
    w, a or x."""
    name = getattr(call.func, "attr", None) or getattr(call.func, "id", None)
    if name in ("read_text", "read_bytes"):
        return isinstance(call.func, ast.Attribute)
    if name != "open":
        return False
    at = 1 if isinstance(call.func, ast.Name) else 0
    modes = [*call.args[at : at + 1], *(k.value for k in call.keywords if k.arg == "mode")]
    writes = modes and isinstance(modes[0], ast.Constant) and set(str(modes[0].value)) & set("wax")
    return not writes


def file_reads(source: str, module: str) -> list[str]:
    """Each call in source that reads a file outside READERS, with its line."""
    tree = ast.parse(source)
    allowed = {
        id(node)
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef) and (module, fn.name) in READERS
        for node in ast.walk(fn)
    }
    return [
        f"line {node.lineno}: {ast.unparse(node.func)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and id(node) not in allowed and _reads(node)
    ]


def test_the_scan_finds_each_kind_of_read():
    source = (
        "def read_text(p):\n    return p.read_text()\n"
        "def f(p):\n"
        "    p.read_text(encoding='utf-8')\n    p.read_bytes()\n    open(p)\n    open(p, 'r+')\n"
        "    p.open(mode='rb')\n    open(p, m)\n"
        "    open(p, 'w')\n    p.open('a', encoding='utf-8')\n    open(p, mode='xb')\n    read_text(p)\n"
    )
    assert file_reads(source, "model.py") == [
        "line 4: p.read_text", "line 5: p.read_bytes", "line 6: open", "line 7: open", "line 8: p.open",
        "line 9: open",
    ]
    assert file_reads(source, "agents.py")[0] == "line 2: p.read_text"


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_the_readers_read_a_file(path):
    assert file_reads(path.read_text(encoding="utf-8"), path.name) == []
