"""Source hygiene: no module of the package keeps an import it never uses.

A name that moves between modules tends to leave its import behind, and
an unused import still costs its module at start-up.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import gemcalc

MODULES = sorted(Path(gemcalc.__file__).parent.glob("*.py"))


def _unused_imports(tree: ast.Module) -> list[str]:
    """The names bound by the module-level imports of ``tree`` that no
    expression reads and ``__all__`` does not export."""
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= {
                n.value for n in ast.walk(node.value)
                if isinstance(n, ast.Constant) and isinstance(n.value, str)
            }
    return [
        f"line {line}: {name}"
        for name, line in imported.items()
        if name not in read and name not in exported
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_uses_every_import(path):
    assert _unused_imports(ast.parse(path.read_text(), str(path))) == []


def test_unused_import_detected():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from .core import GemError, is_bipartite\n"
        "from .perms import cycle_pairs\n"
        "__all__ = ['cycle_pairs']\n"
        "def f() -> GemError:\n"
        "    return os.getcwd()\n"
    )
    assert _unused_imports(tree) == ["line 2: sys", "line 3: is_bipartite"]
