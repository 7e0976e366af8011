"""Every imported name in src/, tests/, demos/ and perfbench/ is used,
and every module-level definition of src/emap is read by the program.

Two small AST scans, so the checks need no linter. A name bound by an
import counts as used if it is read anywhere in the module, or listed
in the module's `__all__`. A module-level function, class or constant
of src/emap counts as read if src/, demos/ or perfbench/ loads it
somewhere, as a name or as an attribute; a name only tests read is
dead code.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests", "demos", "perfbench")
               for p in (ROOT / d).rglob("*.py"))
PROGRAM = [p for p in FILES if p.relative_to(ROOT).parts[0] != "tests"]
# read by tests alone, and kept: the world of acceptance criterion 08
TEST_ONLY = {"overlap_scenario"}


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


def definitions(source: str):
    """(line, name) of each module-level function, class and constant,
    dunder names aside."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            found += [(node.lineno, t.id) for t in targets
                      if isinstance(t, ast.Name)]
    return [(line, name) for line, name in found
            if not (name.startswith("__") and name.endswith("__"))]


def loaded_names(sources):
    """Every name the sources read, bare or as an attribute."""
    names = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                names.add(node.attr)
    return names


def test_the_scan_finds_a_dead_definition():
    module = ("__all__ = ['gone']\nLIMIT = 3\n_T: int = 4\n"
              "def used(): return LIMIT\nclass Gone: pass\n"
              "def gone(): return mod._T\n")
    # a store to an attribute is not a read, nor is __all__'s string
    caller = "used()\nx.gone = 1\n"
    read = loaded_names([module, caller])
    assert [d for d in definitions(module) if d[1] not in read] == [
        (5, "Gone"), (6, "gone")]


def test_every_definition_is_read_by_the_program():
    read = loaded_names(p.read_text(encoding="utf-8") for p in PROGRAM)
    dead = [f"{path.relative_to(ROOT)}:{line} {name}"
            for path in FILES if path.parent.name == "emap"
            for line, name in definitions(path.read_text(encoding="utf-8"))
            if name not in read and name not in TEST_ONLY]
    assert dead == []
