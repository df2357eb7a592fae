"""Every top-level import in the package modules is used.

No linter ships with the project, so this walks each module's syntax tree:
a name bound by a module-level import must be read somewhere in that
module.  __init__.py is skipped, since its imports are the re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "zariskivol"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in used)


def test_the_check_sees_an_unused_import():
    source = "import json\nfrom os import path, sep\nfrom .x import y as z\nprint(sep)\n"
    assert unused_imports(source) == ["json (line 1)", "path (line 2)", "z (line 3)"]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []


@pytest.mark.parametrize("module", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_top_level_imports(module):
    assert MODULES
    assert unused_imports(module.read_text(encoding="utf-8")) == []
