"""Every imported name in ``src/``, ``tests/`` and ``benchmarks/`` is used.

A stdlib-``ast`` scan, so the check needs nothing installed.  Re-exports in
``__init__.py`` files and names listed in a module's ``__all__`` count as
used.
"""

import ast
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
SCANNED = ("src", "tests", "benchmarks")


def _imported_names(tree: ast.Module):
    """(bound name, line) for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _used_names(tree: ast.Module) -> set:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(target, ast.Name) and target.id == "__all__"
                        for target in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            used.update(element.value for element in node.value.elts
                        if isinstance(element, ast.Constant))
    return used


def unused_imports(path: Path):
    """Sorted ``(line, name)`` pairs of the names ``path`` imports but never uses."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _used_names(tree)
    return sorted({(line, name) for name, line in _imported_names(tree)
                   if name not in used})


def _modules():
    for directory in SCANNED:
        for path in sorted((REPO_ROOT / directory).rglob("*.py")):
            if path.name != "__init__.py":
                yield path


def test_no_unused_imports():
    found = [f"{path.relative_to(REPO_ROOT)}:{line}: {name}"
             for path in _modules() for line, name in unused_imports(path)]
    assert not found, "unused imports:\n" + "\n".join(found)


@pytest.mark.parametrize("source, expected", [
    ("import os\n", [(1, "os")]),
    ("import os.path\nos.getcwd()\n", []),
    ("from typing import List, Tuple\nx: List[int] = []\n", [(1, "Tuple")]),
    ("import numpy as np\n", [(1, "np")]),
    ("from a import b\n__all__ = ['b']\n", []),
    ("from __future__ import annotations\n", []),
])
def test_scan_flags_exactly_the_unused_names(tmp_path, source, expected):
    module = tmp_path / "module.py"
    module.write_text(source, encoding="utf-8")
    assert unused_imports(module) == expected
