"""Source hygiene: no module of the package keeps an import it never uses,
no private module-level name goes unread, no function keeps a parameter
its body never reads, no module but the generator builds a graph without
validation, and ``reports`` reads no private name of ``dim4``.

A name that moves between modules tends to leave its import behind, and
an unused import still costs its module at start-up.  A private helper or
table that its last reader stopped using is dead code the package still
compiles and builds.  A parameter whose last reader moved away still makes
every caller compute and pass its value.  ``ColoredGraph._trusted`` skips
the constructor's checks because the generator's matchings are valid by
construction; a caller that passed it user data would let a malformed gem in.
``dim4`` builds the five-color block of an analysis report itself, so a
private helper of it that ``reports`` reads again is an identity derived
twice.
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


def _private_names(node: ast.stmt) -> list[str]:
    """The private names a module-level statement defines: ``_name``, not a
    dunder such as ``__all__``."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def _reads(node: ast.AST) -> set[str]:
    """The names an AST reads, bare or as an attribute of a module or object."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)) or isinstance(n, ast.Attribute)
    }


def _unread_private_names(trees: dict[str, ast.Module]) -> list[str]:
    """``module: name`` for each private module-level name of ``trees`` that
    no other module-level statement of any of them reads; a function that
    only calls itself is unread."""
    statements = [(module, node) for module, tree in trees.items() for node in tree.body]
    reads = [_reads(node) for _, node in statements]
    return [
        f"{module}: {name}"
        for k, (module, node) in enumerate(statements)
        for name in _private_names(node)
        if not any(name in read for j, read in enumerate(reads) if j != k)
    ]


def test_every_private_name_is_read():
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in MODULES}
    assert _unread_private_names(trees) == []


def test_unread_private_name_detected():
    trees = {
        "a": ast.parse(
            "_LIVE = 1\n"
            "_DEAD, _ALSO_DEAD = 2, 3\n"
            "__all__ = ['f']\n"
            "def _walk(n):\n"
            "    return _walk(n - 1) if n else _LIVE\n"
            "class _Unused:\n"
            "    pass\n"
            "def _helper():\n"
            "    return 0\n"
        ),
        "b": ast.parse("from . import a\n_TABLE: int = a._helper()\nprint(_TABLE)\n"),
    }
    assert _unread_private_names(trees) == [
        "a: _DEAD", "a: _ALSO_DEAD", "a: _walk", "a: _Unused"
    ]


def _unused_parameters(tree: ast.Module) -> list[str]:
    """``qualified name: parameter`` for each parameter of a function in
    ``tree`` that its body, nested functions included, never reads.  The
    receiver of a method, ``self`` or ``cls``, is not a parameter here."""
    found = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, prefix)
                continue
            name = prefix + child.name
            if not isinstance(child, ast.ClassDef):
                args = child.args
                params = args.posonlyargs + args.args + args.kwonlyargs
                params += [arg for arg in (args.vararg, args.kwarg) if arg]
                static = any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in child.decorator_list
                )
                if isinstance(node, ast.ClassDef) and not static:
                    params = params[1:]
                read = {
                    n.id for stmt in child.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                }
                found.extend(f"{name}: {arg.arg}" for arg in params if arg.arg not in read)
            visit(child, name + ".")

    visit(tree, "")
    return found


# the attribute protocol passes the value that ColoredGraph refuses to assign
_PROTOCOL_PARAMETERS = {"core": ["ColoredGraph.__setattr__: value"]}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_parameter_is_read(path):
    found = _unused_parameters(ast.parse(path.read_text(), str(path)))
    assert found == _PROTOCOL_PARAMETERS.get(path.stem, [])


def test_unused_parameter_detected():
    tree = ast.parse(
        "def battery(g, twices, reduced, *rest, flags, **extra):\n"
        "    flags['ok'] = g.p + sum(twices)\n"
        "class Box:\n"
        "    def get(self, key, default=None):\n"
        "        def inner(n):\n"
        "            return key\n"
        "        return inner\n"
        "    @staticmethod\n"
        "    def made(size):\n"
        "        return Box()\n"
    )
    assert _unused_parameters(tree) == [
        "battery: reduced", "battery: rest", "battery: extra",
        "Box.get: default", "Box.get.inner: n", "Box.made: size",
    ]


# the one module whose graphs are valid by construction
_TRUSTED_BUILDERS = {"generator"}


def _unvalidated_builds(trees: dict[str, ast.Module]) -> list[str]:
    """``module: line`` for each read of ``_trusted``, the unvalidated
    construction path, outside the modules allowed to take it."""
    return [
        f"{module}: line {node.lineno}"
        for module, tree in trees.items()
        if module not in _TRUSTED_BUILDERS
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "_trusted"
    ]


def test_only_the_generator_builds_without_validation():
    assert callable(gemcalc.ColoredGraph._trusted)
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in MODULES}
    assert _unvalidated_builds(trees) == []


def test_unvalidated_build_detected():
    trees = {
        "generator": ast.parse("g = ColoredGraph._trusted(2, 2, m)\n"),
        "reports": ast.parse(
            "from .core import ColoredGraph\n"
            "def f(m):\n"
            "    make = ColoredGraph._trusted\n"
            "    return make(2, 2, m)\n"
        ),
        "cli": ast.parse("g = core.ColoredGraph._trusted(2, 2, m)\n"),
    }
    assert _unvalidated_builds(trees) == ["reports: line 3", "cli: line 1"]


def _private_reads(tree: ast.Module, module: str) -> list[str]:
    """``line: name`` for each private name of the sibling ``module`` that
    ``tree`` reads: imported from it, or taken as an attribute of an
    expression that names it (``module.x``, ``_module().x``)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == module:
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute) and module in {
            name.strip("_") for name in _reads(node.value)
        }:
            names = [node.attr]
        else:
            continue
        found += [
            (node.lineno, name)
            for name in names
            if name.startswith("_") and not name.startswith("__")
        ]
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_reports_reads_no_private_name_of_dim4():
    path = Path(gemcalc.__file__).parent / "reports.py"
    assert _private_reads(ast.parse(path.read_text(), str(path)), "dim4") == []


def test_private_read_detected():
    tree = ast.parse(
        "from .dim4 import _classify, analysis_block\n"
        "from . import dim4\n"
        "def f(g):\n"
        "    sides = _dim4()._minimal_degree_sides(g)\n"
        "    block = _dim4().analysis_block(g)\n"
        "    d4 = dim4\n"
        "    return dim4._pair_gaps(g), d4.__name__, _check(g)._euler_via_pair\n"
    )
    assert _private_reads(tree, "dim4") == [
        "line 1: _classify", "line 4: _minimal_degree_sides", "line 7: _pair_gaps"
    ]
