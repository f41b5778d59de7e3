"""No module of the package imports a name it does not use. A name listed in
the module's __all__, or imported on a line marked ``# noqa: F401``, counts as
used; __init__.py exists to re-export and is not scanned."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "uplift"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _names_used(tree: ast.AST) -> set[str]:
    """Every name read in the tree, including those inside string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            used |= _names_used(ast.parse(annotation.value, mode="eval"))
    return used


def unused_imports(source: str) -> list[str]:
    """The names imported in source and never used, each with its line."""
    tree = ast.parse(source)
    lines = source.splitlines()
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    used = _names_used(tree) | exported
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append(f"line {alias.lineno}: {name}")
    return unused


def test_the_scan_finds_an_unused_import():
    source = (
        "from typing import Mapping, Sequence\nimport math\nimport re  # noqa: F401\n"
        "__all__ = ['Sequence']\ndef f(x: 'Mapping') -> None: ...\n"
    )
    assert unused_imports(source) == ["line 2: math"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
