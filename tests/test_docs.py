"""The README's identity-battery table against the code: its check column is
the set of names the battery emits, and every test it names exists."""

from __future__ import annotations

import ast
import re
from pathlib import Path

from gemcalc import dipole
from gemcalc.reports import check_graph

from conftest import corpus

ROOT = Path(__file__).resolve().parent.parent


def _battery_rows() -> list[list[str]]:
    """The cells of each row of the README's "The identity battery" table."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## The identity battery\n", 1)[1].split("\n## ", 1)[0]
    return [
        [cell.strip() for cell in line.strip("|").split(" | ")]
        for line in section.splitlines()
        if line.startswith("| `")
    ]


def _test_names(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_battery_table_lists_exactly_the_emitted_checks(g4, odd_degree_witness):
    # the corpus reaches every branch: d = 2..6, bipartite and not, singular
    # and not, an odd reduced degree and two crystallizations
    graphs = [
        g
        for d, p in ((2, 3), (3, 3), (4, 3), (4, 4), (5, 2), (6, 2))
        for g in corpus(d, p, 40, seed=900 + d + p, connected_only=True)
    ]
    graphs += [g4, odd_degree_witness, dipole(4), dipole(6)]
    emitted = {name for g in graphs for name in check_graph(g)[1]}
    table = [row[0].strip("`") for row in _battery_rows()]
    assert len(table) == len(set(table))
    assert set(table) == emitted


def test_battery_table_names_only_existing_tests():
    # a name is a test of tests/test_dim4.py, "criterion n" one of
    # tests/test_acceptance.py
    dim4_tests = _test_names(ROOT / "tests" / "test_dim4.py")
    criteria = {
        re.match(r"test_criterion_0*(\d+\w?)_", name).group(1)
        for name in _test_names(ROOT / "tests" / "test_acceptance.py")
        if name.startswith("test_criterion_")
    }
    rows = _battery_rows()
    assert rows
    for row in rows:
        pinned = row[-1]
        named = re.findall(r"`(\w+)`", pinned)
        assert named or "criterion" in pinned, row[0]
        assert set(named) <= dim4_tests, row[0]
        assert set(re.findall(r"criterion (\w+)", pinned)) <= criteria, row[0]
