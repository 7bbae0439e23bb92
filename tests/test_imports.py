"""Every name a module imports is used in it.

An unused import misleads a reader about what a module depends on, and in a
test module about what it exercises.  A name counts as used when it is read
anywhere in the module or is listed in the module's `__all__`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src", "tests", "scripts") for p in (ROOT / d).rglob("*.py"))


def _imported(tree):
    """(bound name, line) for each name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                yield a.asname or a.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                if a.name != "*":
                    yield a.asname or a.name, node.lineno


def _used(tree):
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names |= set(ast.literal_eval(node.value))
    return names


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = _used(tree)
    return [f"line {line}: {name}" for name, line in _imported(tree) if name not in used]


def test_scan_sees_unused_and_used_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport re as regex\nfrom a import b, c as d, e\n"
              "__all__ = ['e']\nprint(os, d)\n")
    assert unused_imports(source) == ["line 3: regex", "line 4: b"]


def test_no_unused_imports():
    found = {str(p.relative_to(ROOT)): unused_imports(p.read_text()) for p in MODULES}
    assert {p: names for p, names in found.items() if names} == {}
