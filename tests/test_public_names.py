"""No public name of the package is kept alive only by its tests. A top-level
def, class or constant of a module in src/uplift (not __init__.py) counts as
used when it appears as a word in another module of the package, more than
once in its own module, in perfbench/*.py, or in README.md. A re-export in
__init__.py is no use, so that it cannot keep a dead name alive; the package
root re-exports exactly the names the README's library example imports."""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "uplift"

def public_names(source: str) -> list[str]:
    """The public names a module defines at its top level."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if not name.startswith("_")]


def unused_public_names(modules: dict[str, str], elsewhere: str) -> list[str]:
    """`module.name` for each public name of modules (module name → source)
    that appears as a word neither in elsewhere, nor in another module, nor a
    second time in its own."""

    def count(name: str, text: str) -> int:
        return len(re.findall(rf"\b{re.escape(name)}\b", text))

    unused = []
    for module, source in modules.items():
        others = "\n".join([elsewhere, *(s for m, s in modules.items() if m != module)])
        unused += [
            f"{module}.{name}"
            for name in public_names(source)
            if count(name, source) < 2 and not count(name, others)
        ]
    return unused


def test_the_scan_finds_a_name_only_its_definition_holds():
    modules = {
        "a": "import b\nLIMIT = 3\nTOTAL: int = LIMIT\ndef helper(): ...\nclass Kept: ...\ndef _private(): ...\n",
        "b": "def lonely(): ...\ndef used_by_a(): ...\n",
    }
    elsewhere = "Kept is documented, and so is used_by_a; the word helpers is not the name."
    assert unused_public_names(modules, elsewhere) == ["a.TOTAL", "a.helper", "b.lonely"]


def test_every_public_name_is_used_outside_the_tests():
    modules = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py")) if p.stem != "__init__"}
    elsewhere = [ROOT / "README.md", *sorted((ROOT / "perfbench").glob("*.py"))]
    assert unused_public_names(modules, "\n".join(p.read_text(encoding="utf-8") for p in elsewhere)) == []


def root_names() -> set[str]:
    """The names src/uplift/__init__.py imports."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    return {alias.asname or alias.name for node in imports for alias in node.names}


def test_the_root_re_exports_exactly_the_readme_example_imports():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^from uplift import \(([^)]*)\)", readme, re.MULTILINE)
    assert root_names() == {name.strip() for name in block.split(",") if name.strip()}


def test_perfbench_reads_from_the_root_only_names_it_re_exports():
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    read = {
        node.attr
        for path in sorted((ROOT / "perfbench").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "uplift"
        if node.attr not in modules and not node.attr.startswith("__")
    }
    assert read and read <= root_names()
