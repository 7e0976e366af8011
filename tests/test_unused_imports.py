"""Every imported name in src/, tests/, demos/ and perfbench/ is used.

A small AST scan, so the check needs no linter: a name bound by an
import counts as used if it is read anywhere in the module, or listed
in the module's `__all__`.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests", "demos", "perfbench")
               for p in (ROOT / d).rglob("*.py"))


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                # `import a.b` binds `a`
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_the_scan_finds_an_unused_import():
    src = ("from __future__ import annotations\n"
           "import os, sys\nimport a.b\nfrom x import y as z, w\n"
           "__all__ = ['w']\nprint(sys.argv, a)\n")
    assert unused_imports(src) == [(2, "os"), (4, "z")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
