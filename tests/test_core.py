"""Core data model, residues, serialization, and the Euler characteristic."""

from __future__ import annotations

import ast
import importlib
import inspect
import json
import pickle
import pkgutil
import random
import re
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

import gemcalc
from gemcalc import (
    ColoredGraph,
    GemError,
    dipole,
    enumerate_gems,
    euler_characteristic_complex,
    is_bipartite,
    is_connected,
    parse_gem,
    residue_count,
    residue_table,
    residue_vector,
    serialize_gem,
    simplex_counts,
)
from gemcalc.core import MAX_DIMENSION, _build_vector

from conftest import (
    M_A,
    M_C,
    corpus,
    oracle_bipartite,
    oracle_components,
    oracle_simplex_counts,
)


def test_parse_dipole_document():
    text = json.dumps({"d": 4, "vertices": 2, "matchings": [[2, 1]] * 5})
    g = parse_gem(text)
    assert g.d == 4 and g.order == 2
    assert all(mu == (2, 1) for mu in g.matchings)


def test_parse_rejects_loop():
    text = json.dumps({"d": 4, "vertices": 2, "matchings": [[1, 2]] + [[2, 1]] * 4})
    with pytest.raises(GemError, match="loop forbidden at vertex 1"):
        parse_gem(text)


def test_parse_refuses_dimension_beyond_permutation_budget():
    # 10!/2 = 1,814,400 cyclic permutations exceed the budget; 9!/2 do not
    def dipole_doc(d):
        return json.dumps({"d": d, "vertices": 2, "matchings": [[2, 1]] * (d + 1)})

    with pytest.raises(GemError, match=r"d=10 has d!/2 = 1814400"):
        parse_gem(dipole_doc(10))
    with pytest.raises(GemError, match=r"d=12 has d!/2 = 239500800"):
        parse_gem(dipole_doc(12))
    assert MAX_DIMENSION == 9
    assert parse_gem(dipole_doc(9)).d == 9


def test_constructor_refuses_dimension_beyond_permutation_budget():
    # a graph that analyze would refuse is not built either: the battery
    # would walk its 10!/2 permutations
    with pytest.raises(GemError, match=r"d=10 has d!/2 = 1814400"):
        ColoredGraph(d=10, order=2, matchings=((2, 1),) * 11)
    assert ColoredGraph(d=9, order=2, matchings=((2, 1),) * 10).d == 9


def test_parse_g4_document(g4):
    doc = {
        "d": 4,
        "vertices": 4,
        "matchings": [[2, 1, 4, 3]] * 3 + [[4, 3, 2, 1]] * 2,
    }
    g = parse_gem(json.dumps(doc))
    assert g == g4
    # involutions hold by direct verification
    for mu in g.matchings:
        for v in range(1, 5):
            assert mu[mu[v - 1] - 1] == v and mu[v - 1] != v


@pytest.mark.parametrize(
    "doc, message",
    [
        ("{not json", "malformed"),
        ('["list"]', "JSON object"),
        ('{"d": 4, "vertices": 2}', "missing field"),
        ('{"d": 1, "vertices": 2, "matchings": [[2,1],[2,1]]}', "dimension >= 2"),
        ('{"d": 2, "vertices": 2, "matchings": [[2,1],[2,1]]}', "expected 3 matchings"),
        ('{"d": 2, "vertices": 3, "matchings": [[2,1,3],[2,1,3],[2,1,3]]}', "even"),
        ('{"d": 2, "vertices": 4, "matchings": [[2,1,4,3],[2,1,4,3],[3,4,2,1]]}', "not an involution"),
        ('{"d": 2, "vertices": 4, "matchings": [[2,1,4,3],[2,1,4,3],[2.0,1,4,3]]}', "integers"),
        pytest.param("[" * 100000, "malformed", id="deeply-nested"),
    ],
)
def test_parse_rejections(doc, message):
    with pytest.raises(GemError, match=message):
        parse_gem(doc)


@pytest.mark.parametrize(
    "second, message",
    [
        ((2, 1), "color 1: matching has 2 entries, expected 4"),
        ((2, 1, 4.0, 3), "color 1: vertex 3 is matched outside 1..4"),
        ((True, 1, 4, 3), "color 1: vertex 1 is matched outside 1..4"),
        ((2, 1, 5, 3), "color 1: vertex 3 is matched outside 1..4"),
        ((0, 1, 4, 3), "color 1: vertex 1 is matched outside 1..4"),
        ((2, 1, 3, 4), "color 1: loop forbidden at vertex 3"),
        ((2, 3, 4, 1), "color 1: not an involution at vertex 1"),
    ],
    ids=["length", "float", "bool", "above", "below", "loop", "involution"],
)
def test_constructor_refusal_messages(second, message):
    # the second of two matchings carries the fault; the first is sound
    with pytest.raises(GemError) as refused:
        ColoredGraph(d=1, order=4, matchings=(M_A, second))
    assert str(refused.value) == message


def test_constructor_names_the_first_fault_in_color_major_order():
    # color 0 has loops at vertices 3 and 4, color 1 one at vertex 1: the
    # first fault by color, then by vertex, is named, not the least vertex
    with pytest.raises(GemError) as refused:
        ColoredGraph(d=1, order=4, matchings=((2, 1, 3, 4), (1, 2, 4, 3)))
    assert str(refused.value) == "color 0: loop forbidden at vertex 3"


@pytest.mark.parametrize(
    "second",
    [(2, 1), (2, 1, 4.0, 3), (True, 1, 4, 3), (2, 1, 5, 3), (0, 1, 4, 3), (2, 1, 3, 4),
     (2, 3, 4, 1)],
    ids=["length", "float", "bool", "above", "below", "loop", "involution"],
)
def test_unpickled_and_parsed_graphs_are_validated(second):
    # a graph that skipped validation does not survive a pickle round trip,
    # nor its document a parse: each is refused as the constructor refuses it
    with pytest.raises(GemError) as direct:
        ColoredGraph(d=2, order=4, matchings=(M_A, second, M_A))
    unchecked = ColoredGraph._trusted(2, 4, (M_A, second, M_A))
    with pytest.raises(GemError) as unpickled:
        pickle.loads(pickle.dumps(unchecked))
    assert str(unpickled.value) == str(direct.value)
    if all(type(w) is int for w in second):
        with pytest.raises(GemError) as parsed:
            parse_gem(serialize_gem(unchecked))
        assert str(parsed.value) == str(direct.value)


def test_residue_counts_dipole(dipole4):
    assert residue_count(dipole4, (0, 1)) == 1
    assert residue_count(dipole4, ()) == 2
    for b_size in range(1, 6):
        for b in combinations(range(5), b_size):
            assert residue_count(dipole4, b) == 1


def test_residue_counts_g4(g4):
    assert residue_count(g4, (0, 1)) == 2
    assert residue_count(g4, (0, 3)) == 1
    for b_size in range(6):
        for b in combinations(range(5), b_size):
            assert residue_count(g4, b) == oracle_components(g4, b)
    # every entry of the vector, over a seeded corpus per dimension
    shapes = {2: (5, 30), 3: (4, 30), 4: (4, 25), 5: (3, 15), 6: (2, 10)}
    for d, (p, count) in shapes.items():
        for g in corpus(d, p, count, seed=200 + d):
            vec = residue_vector(g)
            assert len(vec) == 2 ** (d + 1)
            for mask, value in enumerate(vec):
                colors = [c for c in range(d + 1) if mask >> c & 1]
                assert value == oracle_components(g, colors), (d, g, colors)
            assert simplex_counts(g) == oracle_simplex_counts(g)
            assert is_connected(g) == (oracle_components(g, range(d + 1)) == 1)


def test_residue_vector_built_once(g4):
    fresh = ColoredGraph(d=4, order=4, matchings=g4.matchings)
    assert fresh == g4
    # connectivity alone does not build the vector
    assert is_connected(fresh)
    assert fresh._vector is None
    vec = residue_vector(fresh)
    assert residue_vector(fresh) is vec
    assert residue_count(fresh, (0, 1)) == vec[0b00011]


@pytest.mark.parametrize("d", range(2, 9))
def test_pair_counts_match_full_vector(d):
    # the size-bounded DP fills the empty set, the single colors and the
    # pairs exactly as the full vector does, and counts no larger set
    for p in range(1, 4):
        for g in corpus(d, p, 4, seed=900 + 10 * d + p):
            full = _build_vector(g.order, g.matchings)
            pairs = _build_vector(g.order, g.matchings, 2)
            assert len(pairs) == len(full) == 2 ** (d + 1)
            for mask, value in enumerate(pairs):
                assert value == (full[mask] if mask.bit_count() <= 2 else None), (g, mask)
            assert g._vector is None


def _hamiltonian_pair_gem(d: int, p: int, seed: int) -> ColoredGraph:
    """Colors 0 and 1 form one bicolored cycle through all 2p vertices, the
    matchings (1 2)(3 4)... and (2 3)(4 5)...(2p 1); the others are random."""
    n = 2 * p
    first = tuple(v + 1 if v % 2 else v - 1 for v in range(1, n + 1))
    second = tuple(v - 1 if v % 2 else v + 1 for v in range(1, n + 1))
    second = (n,) + second[1:-1] + (1,)
    rng = random.Random(seed)
    mats = [first, second]
    for _ in range(d - 1):
        order = list(range(1, n + 1))
        rng.shuffle(order)
        mu = [0] * n
        for a, b in zip(order[::2], order[1::2]):
            mu[a - 1], mu[b - 1] = b, a
        mats.append(tuple(mu))
    return ColoredGraph(d=d, order=n, matchings=tuple(mats))


def _assert_vector_matches_oracle(g: ColoredGraph) -> tuple[int, ...]:
    """Every entry of the full vector and of the size-2 and size-3 bounded
    ones against the oracle; returns the full vector."""
    full = _build_vector(g.order, g.matchings)
    assert len(full) == 2 ** (g.d + 1)
    for mask, value in enumerate(full):
        colors = [c for c in g.colors if mask >> c & 1]
        assert value == oracle_components(g, colors), (g, mask)
    for size in (2, 3):
        bounded = _build_vector(g.order, g.matchings, size)
        for mask, value in enumerate(bounded):
            assert value == (full[mask] if mask.bit_count() <= size else None), (g, size, mask)
    return full


@pytest.mark.parametrize("d, p", [(2, 2000), (4, 300)])
def test_forest_dp_on_one_long_bicolored_cycle(d, p):
    # the forests of colors 0 and 1 merge into one long cycle, and every
    # larger set is read off them
    g = _hamiltonian_pair_gem(d, p, seed=d)
    assert oracle_components(g, (0, 1)) == 1
    _assert_vector_matches_oracle(g)


@pytest.mark.parametrize("d", [3, 4])
def test_vector_matches_oracle_on_every_small_gem(d):
    # every gem at p <= 2, disconnected ones included: a set whose
    # predecessor is connected is decided with no merge, a merge stops at
    # one component, and every other set is merged in full
    gems = [g for p in (1, 2) for g in enumerate_gems(d, p)]
    assert any(not is_connected(g) for g in gems)
    connected_rests = 0
    for g in gems:
        full = _assert_vector_matches_oracle(g)
        connected_rests += sum(
            full[mask & ~(1 << mask.bit_length() - 1)] == 1
            for mask in range(1, len(full))
            if mask.bit_count() >= 2
        )
        chi = sum((-1) ** k * n for k, n in enumerate(oracle_simplex_counts(g)))
        assert euler_characteristic_complex(g) == chi
    assert connected_rests


@pytest.mark.parametrize("d", range(2, MAX_DIMENSION + 1))
def test_vector_at_one_edge_per_color(d):
    # at p = 1 each color is one edge on the two vertices, so every set of
    # colors but the empty one is connected
    g = dipole(d)
    assert g.p == 1
    n = d + 1
    for size in (None, 2, 3):
        bound = n if size is None else size
        assert _build_vector(g.order, g.matchings, size) == (2,) + tuple(
            1 if mask.bit_count() <= bound else None for mask in range(1, 1 << n)
        )


@pytest.mark.parametrize("p", [2, 5])
def test_kept_set_connected_before_its_last_edge(p):
    # colors 0 and 1 make one cycle through all 2p vertices: the p color-0
    # edges and the first p - 1 color-1 edges already span it as a path, so
    # the merge of {0, 1}, a kept set, reaches one component before its last
    # color-1 edge; {0, 1, 2} and {0, 1, 3} are then read with {0, 1} as
    # their predecessor, and every set holding both colors is connected
    g = _hamiltonian_pair_gem(3, p, seed=p)
    assert oracle_components(g, (0, 1)) == 1
    full = _assert_vector_matches_oracle(g)
    assert [full[mask] for mask in range(16) if mask & 0b11 == 0b11] == [1] * 4
    assert any(full[mask] > 1 for mask in (0b0101, 0b0110, 0b1001, 0b1010, 0b1100))


def test_residue_color_out_of_range(g4):
    with pytest.raises(GemError, match="color 5 out of range"):
        residue_count(g4, (0, 5))


def test_residue_table_invariants(g4, dipole4):
    for g in (g4, dipole4):
        table = residue_table(g)
        assert table[frozenset()] == g.order
        for c in g.colors:
            assert table[frozenset((c,))] == g.p
        assert table[frozenset(g.colors)] == 1  # connected fixtures
        for h in range(g.d + 2):
            assert sum(len(b) == h for b in table) == comb(g.d + 1, h)
        assert table == {
            frozenset(b): residue_count(g, b)
            for h in range(g.d + 2)
            for b in combinations(g.colors, h)
        }


def test_bipartite(dipole4, g4, rp2_gem):
    assert is_bipartite(dipole4)
    assert is_bipartite(g4)  # parts {1,3}, {2,4}
    assert not is_bipartite(rp2_gem)


def test_bipartite_matches_oracle():
    for g in corpus(3, 3, 40, seed=101):
        assert is_bipartite(g) == oracle_bipartite(g)


def test_bipartite_walks_every_component(dipole4, g4, odd_degree_witness):
    # a graph is bipartite iff each component is: the odd component is found
    # whether it holds vertex 1 or not
    def union(g, h):
        return ColoredGraph(d=g.d, order=g.order + h.order, matchings=tuple(
            a + tuple(w + g.order for w in b) for a, b in zip(g.matchings, h.matchings)
        ))

    assert is_bipartite(union(dipole4, g4))
    assert not is_bipartite(odd_degree_witness)
    assert not is_bipartite(union(g4, odd_degree_witness))
    assert not is_bipartite(union(odd_degree_witness, dipole4))
    disconnected = [g for g in corpus(2, 4, 200, seed=102) if not is_connected(g)]
    outcomes = [is_bipartite(g) for g in disconnected]
    assert outcomes == [oracle_bipartite(g) for g in disconnected]
    assert set(outcomes) == {True, False}


def test_connectivity(dipole4, g4):
    assert is_connected(dipole4)
    assert is_connected(g4)
    two_dipoles = ColoredGraph(d=4, order=4, matchings=(M_A,) * 5)
    assert not is_connected(two_dipoles)
    assert oracle_components(two_dipoles, range(5)) == 2


def test_connectivity_memo_kept_and_ignored_by_value(g4):
    twin = ColoredGraph(d=4, order=4, matchings=g4.matchings)
    assert is_connected(twin) and twin._connected is True
    other = ColoredGraph(d=4, order=4, matchings=g4.matchings)
    assert other._connected is None
    assert twin == other and hash(twin) == hash(other)
    assert repr(twin) == repr(other) == f"ColoredGraph(d=4, order=4, matchings={g4.matchings!r})"
    shipped = pickle.loads(pickle.dumps(twin))
    assert shipped == twin and shipped._connected is None


def test_disconnected_memo_stays_disconnected():
    two_dipoles = ColoredGraph(d=4, order=4, matchings=(M_A,) * 5)
    assert not is_connected(two_dipoles)
    assert two_dipoles._connected is False and two_dipoles._vector is None
    assert not is_connected(two_dipoles)
    residue_vector(two_dipoles)
    assert not is_connected(two_dipoles)


def test_simplex_counts_dipole(dipole4):
    assert simplex_counts(dipole4) == (5, 10, 10, 5, 2)


def test_simplex_counts_g4(g4):
    assert simplex_counts(g4) == (5, 11, 14, 10, 4)
    assert simplex_counts(g4) == oracle_simplex_counts(g4)


@pytest.mark.parametrize("d, chi", [(2, 2), (3, 0), (4, 2), (5, 0), (6, 2)])
def test_euler_characteristic_spheres(d, chi):
    assert euler_characteristic_complex(dipole(d)) == chi


def test_euler_characteristic_g4(g4):
    assert euler_characteristic_complex(g4) == 2


def test_serialization_round_trip(g4, dipole4, rp2_gem):
    # the d = 2 dipole is the int twin of a graph with a bool entry, refused
    # by test_graph_refuses_values_that_are_not_ints
    for g in (g4, dipole4, rp2_gem, ColoredGraph(d=2, order=2, matchings=((2, 1),) * 3)):
        text = serialize_gem(g)
        again = parse_gem(text)
        assert again == g
        assert serialize_gem(again) == text


def test_serialization_round_trip_random():
    for g in corpus(4, 3, 25, seed=7):
        assert parse_gem(serialize_gem(g)) == g


def test_residue_monotone_under_refinement():
    for g in corpus(4, 3, 20, seed=13):
        for b in combinations(range(5), 3):
            for sub in combinations(b, 2):
                assert residue_count(g, sub) >= residue_count(g, b)


def test_singleton_residues_equal_half_order():
    for g in corpus(3, 4, 30, seed=17):
        for c in g.colors:
            assert residue_count(g, (c,)) == g.p


def test_three_colored_euler_bound():
    # chi = sum of pair residues minus p, never above 2, over the full
    # gauge-fixed enumeration at order four
    seen = set()
    for g in enumerate_gems(2, 2, connected_only=True):
        chi = euler_characteristic_complex(g)
        pair_sum = sum(residue_count(g, pr) for pr in combinations(range(3), 2))
        assert chi == pair_sum - g.p
        assert chi <= 2
        seen.add(chi)
    assert seen == {1, 2}


def test_graph_validation_errors():
    with pytest.raises(GemError, match="even"):
        ColoredGraph(d=2, order=3, matchings=((2, 1, 3),) * 3)
    with pytest.raises(GemError, match="expected 3 matchings"):
        ColoredGraph(d=2, order=2, matchings=((2, 1),) * 4)
    with pytest.raises(GemError, match="loop"):
        ColoredGraph(d=2, order=4, matchings=((1, 2, 4, 3), M_A, M_A))
    with pytest.raises(GemError, match="not an involution"):
        ColoredGraph(d=2, order=4, matchings=((2, 3, 4, 1), M_A, M_A))


@pytest.mark.parametrize(
    "d, order, matchings",
    [
        (2, 2, ((2, True), (2, 1), (2, 1))),
        (True, 2, ((2, 1), (2, 1))),
        (2.0, 2, ((2, 1),) * 3),
        (2, 2.0, ((2, 1),) * 3),
        (2, 4, ((2, 1, 4, 3), (2, 1, 4.0, 3), (2, 1, 4, 3))),
    ],
    ids=["bool-entry", "bool-d", "float-d", "float-order", "float-entry"],
)
def test_graph_refuses_values_that_are_not_ints(d, order, matchings):
    # a bool equals an int, but serializes as true or false, which parse_gem
    # refuses: the constructor takes exact ints only
    with pytest.raises(GemError, match="integer|even number|outside 1.."):
        ColoredGraph(d=d, order=order, matchings=matchings)


def test_graphs_hash_by_content(g4):
    twin = ColoredGraph(d=4, order=4, matchings=(M_A, M_A, M_A, M_C, M_C))
    assert twin == g4 and hash(twin) == hash(g4)
    assert len({twin, g4}) == 1


def test_graph_is_immutable(g4):
    with pytest.raises(AttributeError):
        g4.d = 3
    with pytest.raises(AttributeError):
        g4.matchings = g4.matchings[:3]
    with pytest.raises(AttributeError):
        del g4.order
    assert g4.d == 4 and len(g4.matchings) == 5


def test_graph_pickle_round_trip(g4):
    residue_vector(g4)  # the cache is rebuilt on demand, not shipped
    twin = pickle.loads(pickle.dumps(g4))
    assert twin == g4 and hash(twin) == hash(g4)
    assert residue_vector(twin) == residue_vector(g4)


def test_graph_repr_unchanged():
    assert repr(dipole(2)) == (
        "ColoredGraph(d=2, order=2, matchings=((2, 1), (2, 1), (2, 1)))"
    )


def test_public_exports_resolve():
    # every module's __all__ resolves, and the package's export table names
    # only names that their source modules declare public, each function and
    # class from the module that defines it (so no alias re-export comes back)
    modules = {
        info.name: importlib.import_module(f"gemcalc.{info.name}")
        for info in pkgutil.iter_modules(gemcalc.__path__)
        if not info.name.startswith("_")
    }
    for name, module in modules.items():
        missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
        assert not missing, f"gemcalc.{name}.__all__ names undefined {missing}"
    assert gemcalc._EXPORTS
    for source, names in gemcalc._EXPORTS.items():
        assert source in modules, source
        public = modules[source].__all__
        stray = [name for name in names if name not in public]
        assert not stray, f"gemcalc exports {stray} outside gemcalc.{source}.__all__"
        objects = [getattr(gemcalc, name) for name in names]
        assert objects == [getattr(modules[source], name) for name in names]
        relayed = [
            f"{obj.__module__}.{obj.__name__}"
            for obj in objects
            if (inspect.isclass(obj) or inspect.isroutine(obj))
            and obj.__module__ != f"gemcalc.{source}"
        ]
        assert not relayed, f"gemcalc exports {relayed} through gemcalc.{source}"


def test_package_names_resolve_on_first_use():
    # the package imports none of its modules itself; each public name is
    # looked up in its module's table when first asked for
    tree = ast.parse(Path(gemcalc.__file__).read_text())
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level]
    names = [name for table in gemcalc._EXPORTS.values() for name in table]
    assert gemcalc.__all__ == sorted(names) and len(set(names)) == len(names)
    for name in gemcalc.__all__:
        obj = getattr(gemcalc, name)
        assert getattr(gemcalc, name) is obj
    listed = dir(gemcalc)
    assert set(gemcalc.__all__) <= set(listed) and listed == sorted(listed)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        gemcalc.no_such_name
    with pytest.raises(ImportError):
        from gemcalc import no_such_name  # noqa: F401
    namespace: dict = {}
    exec("from gemcalc import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(gemcalc.__all__)


def test_benchmark_library_surface_resolves():
    # perfbench/layers.py reaches the library as lib.<module>.<name>; every
    # name it uses must resolve, and every name it calls cache_clear() on must
    # have one.  The file is read as text, never imported or changed.
    text = (Path(__file__).resolve().parents[1] / "perfbench" / "layers.py").read_text()
    used = set(re.findall(r"\blib\.(\w+)\.(\w+)", text))
    cleared = set(re.findall(r"\blib\.(\w+)\.(\w+)\.cache_clear\(\)", text))
    # it also picks a partition through `cd = lib.cycle_decomp` and clears it
    assert "cd.partition_odd" in text and "cd.partition_even" in text
    assert "partition.cache_clear()" in text
    partitions = {("cycle_decomp", "partition_odd"), ("cycle_decomp", "partition_even")}
    used |= partitions
    cleared |= partitions
    assert ("reports", "check_graph") in used and ("perms", "cyclic_permutations") in cleared
    for module, name in sorted(used):
        assert hasattr(importlib.import_module(f"gemcalc.{module}"), name), f"{module}.{name}"
    for module, name in sorted(cleared):
        obj = getattr(importlib.import_module(f"gemcalc.{module}"), name)
        assert callable(getattr(obj, "cache_clear", None)), f"{module}.{name}"
