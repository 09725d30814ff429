"""Shared fixtures, a fake campaign fan-out and independent oracles.

The oracles deliberately use different computational routes than the
library: breadth-first walks instead of union-find for components,
explicit bicolored-face walking plus V - E + F for genera, and brute-force
part assignment for bipartiteness.
"""

from __future__ import annotations

import os
from itertools import combinations

import pytest

from gemcalc import ColoredGraph, GenSpec, random_gem, reports

# the three fixed-point-free involutions of {1,2,3,4}
M_A = (2, 1, 4, 3)
M_B = (3, 4, 1, 2)
M_C = (4, 3, 2, 1)


@pytest.fixture
def dipole4() -> ColoredGraph:
    return ColoredGraph(d=4, order=2, matchings=((2, 1),) * 5)


@pytest.fixture
def g4() -> ColoredGraph:
    # order-4 gem: colors 0,1,2 pair (1,2)(3,4); colors 3,4 pair (1,4)(2,3)
    return ColoredGraph(d=4, order=4, matchings=(M_A, M_A, M_A, M_C, M_C))


@pytest.fixture
def rp2_gem() -> ColoredGraph:
    # the three distinct involutions of four points: chi = 1, non-bipartite
    return ColoredGraph(d=2, order=4, matchings=(M_A, M_B, M_C))


@pytest.fixture
def odd_degree_witness() -> ColoredGraph:
    # connected, reduced degree 3
    return ColoredGraph(d=4, order=4, matchings=(M_A, M_A, M_A, M_B, M_C))


@pytest.fixture
def non_closed_d3() -> ColoredGraph:
    # its colors-{0,1,2} residue is the projective-plane gem
    return ColoredGraph(d=3, order=4, matchings=(M_A, M_B, M_C, M_A))


@pytest.fixture
def built_graphs(monkeypatch) -> list[ColoredGraph]:
    """Every graph built while the test runs.  The validating constructor and
    the generator's unvalidated path both set the fields through
    ``ColoredGraph._fill``, so one patch counts either."""
    built: list[ColoredGraph] = []
    fill = ColoredGraph._fill

    def counting(self, d, order, matchings):
        built.append(self)
        fill(self, d, order, matchings)

    monkeypatch.setattr(ColoredGraph, "_fill", counting)
    return built


@pytest.fixture
def serial_fan_out(monkeypatch) -> list[int]:
    """Stands in for ``reports._fan_out``: records the worker count of each
    call and runs the shards in-process, in the order it is given them."""
    workers_seen: list[int] = []

    def fan_out(shards, workers):
        workers_seen.append(workers)
        return {shard: reports._battery_batch(shard) for shard in shards}

    monkeypatch.setattr(reports, "_fan_out", fan_out)
    return workers_seen


def assert_no_child() -> None:
    """Fail if this process has a child, running or not yet reaped."""
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process was left behind: waitpid gave ({pid}, {status})")


@pytest.fixture(autouse=True)
def no_child_left():
    """A test that leaves a child process behind fails."""
    yield
    assert_no_child()


def corpus(d: int, p: int, count: int, seed: int, **kw) -> list[ColoredGraph]:
    return random_gem(GenSpec(d=d, p=p, count=count, seed=seed, **kw))


# --- oracles -----------------------------------------------------------------


def _oracle_vertex_sets(g: ColoredGraph, colors) -> list[list[int]]:
    """Sorted vertex sets of the components keeping these colors, by least vertex."""
    colors = list(colors)
    seen = set()
    out = []
    for start in range(1, g.order + 1):
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        for v in comp:  # breadth-first: the list grows behind the cursor
            for c in colors:
                w = g.matchings[c][v - 1]
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
        out.append(sorted(comp))
    return out


def oracle_components(g: ColoredGraph, colors) -> int:
    """Component count by explicit breadth-first walking."""
    return len(_oracle_vertex_sets(g, colors))


def oracle_residues(g: ColoredGraph, colors) -> list[ColoredGraph]:
    """The components of the residue keeping these colors, ordered by least
    vertex, each rebuilt as a graph: vertices renumbered 1.. and colors 0..,
    both in ascending order."""
    colors = sorted(colors)
    out = []
    for verts in _oracle_vertex_sets(g, colors):
        index = {v: i for i, v in enumerate(verts, 1)}
        mats = tuple(tuple(index[g.matchings[c][v - 1]] for v in verts) for c in colors)
        out.append(ColoredGraph(d=len(colors) - 1, order=len(verts), matchings=mats))
    return out


def oracle_faces(g: ColoredGraph, r: int, s: int) -> int:
    """Number of bicolored cycles, walked edge by edge."""
    visited = [False] * (g.order + 1)
    count = 0
    for start in range(1, g.order + 1):
        if visited[start]:
            continue
        count += 1
        v, use_r = start, True
        while True:
            visited[v] = True
            v = g.matchings[r if use_r else s][v - 1]
            use_r = not use_r
            if v == start and use_r:
                break
    return count


def oracle_genus_twice(g: ColoredGraph, eps) -> int:
    """Twice the regular genus via V - E + F of the regular embedding."""
    d, p = g.d, g.p
    faces = sum(
        oracle_faces(g, eps[j], eps[(j + 1) % (d + 1)]) for j in range(d + 1)
    )
    chi = 2 * p - (d + 1) * p + faces
    return 2 - chi


def oracle_bipartite(g: ColoredGraph) -> bool:
    """Brute force over all two-part assignments; usable for order <= 16."""
    edges = [
        (v, g.matchings[c][v - 1])
        for c in g.colors
        for v in range(1, g.order + 1)
        if v < g.matchings[c][v - 1]
    ]
    for mask in range(1 << (g.order - 1)):  # vertex 1 fixed to part 0
        part = [0] + [(mask >> i) & 1 for i in range(g.order - 1)]
        if all(part[u - 1] != part[w - 1] for u, w in edges):
            return True
    return False


def oracle_simplex_counts(g: ColoredGraph) -> tuple[int, ...]:
    out = [0] * (g.d + 1)
    for h in range(g.d + 1):
        out[g.d - h] = sum(
            oracle_components(g, b) for b in combinations(range(g.d + 1), h)
        )
    return tuple(out)
