"""Genera, degrees, and exact half-integer arithmetic."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import factorial

import pytest
from hypothesis import given, strategies as st

from gemcalc import (
    ColoredGraph,
    GemError,
    HalfInt,
    canonical_perm,
    cyclic_permutations,
    dipole,
    g_degree_definition,
    genus_twices,
    partition_even,
    partition_odd,
    reduced_g_degree,
    regular_genus,
    residue_vector,
    walecki_decomposition,
)
from gemcalc.perms import perm_index
from gemcalc.reports import analysis_report, check_graph

from conftest import M_A, corpus, oracle_components, oracle_genus_twice


# --- HalfInt -----------------------------------------------------------------


def test_halfint_basics():
    h = HalfInt(3)
    assert str(h) == "3/2" and not h.is_integer
    assert str(HalfInt(4)) == "2" and HalfInt(4).is_integer
    assert HalfInt(4).to_int() == 2
    with pytest.raises(ValueError):
        h.to_int()
    assert HalfInt.whole(5) == HalfInt(10) == 5
    assert -HalfInt(3) == HalfInt(-3)


def test_halfint_mixed_comparisons():
    assert HalfInt(2) == 1
    assert HalfInt(3) > 1
    assert HalfInt(3) < 2
    assert 0 <= HalfInt(0)
    assert hash(HalfInt(2)) == hash(1)
    assert hash(HalfInt(-2)) == hash(-1)  # -2: CPython reserves hash -1
    assert hash(HalfInt(3)) == hash(HalfInt(3))
    assert len({HalfInt(4), 2, HalfInt(3), HalfInt(-3)}) == 3
    assert sum([HalfInt(1), HalfInt(2), 1]) == HalfInt(5)


def test_halfint_type_discipline():
    with pytest.raises(TypeError):
        HalfInt(1.5)
    with pytest.raises(TypeError):
        HalfInt(1) * HalfInt(2)  # only integer scaling is defined
    with pytest.raises(TypeError):
        HalfInt(1) + 0.5


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-5, 5))
def test_halfint_matches_fraction_model(a, b, k):
    fa, fb = Fraction(a, 2), Fraction(b, 2)
    assert (HalfInt(a) + HalfInt(b)).twice == (fa + fb) * 2
    assert (HalfInt(a) - HalfInt(b)).twice == (fa - fb) * 2
    assert (k * HalfInt(a)).twice == k * fa * 2
    assert (HalfInt(a) < HalfInt(b)) == (fa < fb)
    assert (HalfInt(a) == HalfInt(b)) == (fa == fb)
    assert HalfInt(a).is_integer == (fa.denominator == 1)
    assert hash(HalfInt(a)) == hash(fa)


# --- cyclic permutations -----------------------------------------------------


@pytest.mark.parametrize("d, count", [(2, 1), (3, 3), (4, 12), (5, 60), (6, 360)])
def test_cyclic_permutation_counts(d, count):
    perms = cyclic_permutations(d)
    assert len(perms) == count
    assert len(set(perms)) == count
    assert list(perms) == sorted(perms)  # lexicographic
    for eps in perms:
        assert eps[0] == 0 and eps[1] < eps[-1]
        assert sorted(eps) == list(range(d + 1))


def test_cyclic_permutations_d2():
    assert cyclic_permutations(2) == ((0, 1, 2),)


def test_canonical_perm_examples():
    assert canonical_perm((2, 3, 4, 0, 1)) == (0, 1, 2, 3, 4)
    assert canonical_perm((0, 4, 3, 2, 1)) == (0, 1, 2, 3, 4)
    with pytest.raises(ValueError):
        canonical_perm((0, 1, 1))


@given(st.permutations(list(range(5))), st.integers(0, 4), st.booleans())
def test_canonical_perm_rotation_reversal_invariant(seq, rot, flip):
    moved = tuple(seq[rot:] + seq[:rot])
    if flip:
        moved = tuple(reversed(moved))
    assert canonical_perm(moved) == canonical_perm(seq)
    assert canonical_perm(canonical_perm(seq)) == canonical_perm(seq)


# --- regular genus -----------------------------------------------------------


def test_regular_genus_dipole(dipole4):
    for eps in cyclic_permutations(4):
        assert regular_genus(dipole4, eps) == 0


def test_regular_genus_g4(g4):
    assert regular_genus(g4, (0, 1, 2, 3, 4)) == 0
    assert regular_genus(g4, (0, 2, 4, 1, 3)) == 1


def test_regular_genus_matches_walking_oracle(g4):
    graphs = [g4, dipole(4)] + corpus(4, 3, 15, seed=23)
    for g in graphs:
        for eps in cyclic_permutations(4):
            assert regular_genus(g, eps).twice == oracle_genus_twice(g, eps)


def test_regular_genus_errors(g4):
    with pytest.raises(GemError, match="colors"):
        regular_genus(g4, (0, 1, 2))
    # non-permutations are refused with a GemError, so the CLI exits 2
    for eps in [(0, 0, 0, 0, 0), (0, 1, 2, 3, 3), (1, 2, 3, 4, 5)]:
        with pytest.raises(GemError, match="not a permutation"):
            regular_genus(g4, eps)
    two_dipoles = ColoredGraph(d=4, order=4, matchings=(M_A,) * 5)
    with pytest.raises(GemError, match="connected"):
        regular_genus(two_dipoles, (0, 1, 2, 3, 4))


def test_genus_twices_same_from_pairs_and_full_vector():
    for d in range(2, 8):
        for g in corpus(d, 3, 3, seed=800 + d, connected_only=True):
            fresh = ColoredGraph(d=d, order=g.order, matchings=g.matchings)
            from_pairs = genus_twices(fresh)
            assert fresh._vector is None
            residue_vector(fresh)
            assert genus_twices(fresh) == from_pairs
            assert from_pairs == tuple(
                oracle_genus_twice(g, eps) for eps in cyclic_permutations(d)
            )


def test_genus_twices_refuses_disconnected():
    two_dipoles = ColoredGraph(d=4, order=4, matchings=(M_A,) * 5)
    for _ in range(2):  # the second call reads the kept answer
        with pytest.raises(GemError, match="connected"):
            genus_twices(two_dipoles)
    assert two_dipoles._vector is None


# --- degrees -----------------------------------------------------------------


def _closed_form_twice(g: ColoredGraph) -> int:
    """Twice the degree by the closed form, from oracle pair counts."""
    d = g.d
    pair_sum = sum(oracle_components(g, pair) for pair in combinations(range(d + 1), 2))
    return factorial(d - 1) * (d + g.p * d * (d - 1) // 2 - pair_sum)


def test_degree_dipole(dipole4):
    assert g_degree_definition(dipole4) == 0
    assert _closed_form_twice(dipole4) == 0
    assert check_graph(dipole4)[1]["degree_formula_agreement"]
    assert reduced_g_degree(dipole4) == 0


def test_degree_g4(g4):
    assert g_degree_definition(g4) == 6
    assert _closed_form_twice(g4) == 12
    assert check_graph(g4)[1]["degree_formula_agreement"]
    assert reduced_g_degree(g4) == 2


def test_degree_d2_equals_genus(rp2_gem):
    assert g_degree_definition(rp2_gem) == regular_genus(rp2_gem, (0, 1, 2))
    assert g_degree_definition(rp2_gem) == HalfInt(1)
    # the closed form needs d >= 3: the battery does not evaluate it at d = 2
    assert "degree_formula_agreement" not in check_graph(rp2_gem)[1]
    with pytest.raises(GemError, match="d >= 3"):
        reduced_g_degree(rp2_gem)


@pytest.mark.parametrize("d, p, seed", [(3, 4, 31), (4, 3, 37), (5, 2, 41)])
def test_degree_definition_equals_formula(d, p, seed):
    for g in corpus(d, p, 25, seed=seed, connected_only=True):
        assert check_graph(g)[1]["degree_formula_agreement"]
        assert g_degree_definition(g).twice == _closed_form_twice(g)


@pytest.mark.parametrize("d, p, seed", [(3, 5, 43), (4, 4, 47), (5, 2, 53)])
def test_degree_multiple_of_half_factorial(d, p, seed):
    for g in corpus(d, p, 25, seed=seed, connected_only=True):
        omega = g_degree_definition(g)
        assert omega >= 0
        assert omega.twice % factorial(d - 1) == 0


def test_bipartite_genera_integral():
    for g in corpus(4, 3, 20, seed=59, connected_only=True, bipartite_only=True):
        for eps in cyclic_permutations(4):
            assert regular_genus(g, eps).is_integer
        assert g_degree_definition(g).twice % (2 * factorial(3)) == 0  # mod 6


# --- class sums --------------------------------------------------------------


def _class_sums_twice(g: ColoredGraph, classes) -> list[int]:
    """Twice the genus sum of each class, read from genus_twices."""
    twices, index = genus_twices(g), perm_index(g.d)
    return [sum(twices[index[eps]] for eps in cls.cycles) for cls in classes]


def test_class_genus_sum_g4(g4):
    # reduced degree 2, halved: every class sums to genus 1
    assert _class_sums_twice(g4, partition_odd(5).classes) == [2] * 6


def test_class_genus_sum_dipole(dipole4):
    assert _class_sums_twice(dipole4, partition_odd(5).classes) == [0] * 6


def test_class_genus_sum_constancy_random():
    classes5 = partition_odd(5).classes
    for g in corpus(4, 4, 15, seed=61, connected_only=True):
        values = set(_class_sums_twice(g, classes5))
        assert len(values) == 1
        assert values == {reduced_g_degree(g)}  # even d: sum is half of it
        assert check_graph(g)[1]["class_genus_sum_constant"]


def test_class_genus_sum_odd_dimension():
    classes4 = partition_even(4).classes
    assert len(classes4) == 1
    for g in corpus(3, 4, 15, seed=67, connected_only=True):
        assert _class_sums_twice(g, classes4) == [2 * reduced_g_degree(g)]
        assert check_graph(g)[1]["class_genus_sum_constant"]


def test_class_genus_sum_walecki_large_d():
    # single-class fallback at d = 8: sum equals half the reduced degree
    cls = walecki_decomposition(9)
    for g in corpus(8, 1, 3, seed=71, connected_only=True):
        assert _class_sums_twice(g, [cls]) == [reduced_g_degree(g)]


def test_battery_holds_beyond_d6():
    # no class of K_8 or K_10 is built, so the class sum is checked at d = 8
    # alone, on its Walecki class
    cases = {
        7: corpus(7, 3, 3, seed=79, connected_only=True) + [dipole(7)],
        8: corpus(8, 2, 3, seed=83, connected_only=True) + [dipole(8)],
        9: [dipole(9)],
    }
    for d, graphs in cases.items():
        for g in graphs:
            flags, checks = check_graph(g)
            assert checks and all(checks.values()), (d, checks)
            assert ("class_genus_sum_constant" in checks) == (d == 8)
            assert "degree_formula_agreement" in checks


# --- minimum genus -----------------------------------------------------------


def _regular_genus_entry(g: ColoredGraph) -> tuple[str, list[tuple[int, ...]]]:
    entry = analysis_report(g)["regular_genus"]
    return entry["value"], [tuple(map(int, key.split(","))) for key in entry["minimizers"]]


def test_regular_genus_min_dipole(dipole4):
    value, minimizers = _regular_genus_entry(dipole4)
    assert value == "0"
    assert tuple(minimizers) == cyclic_permutations(4)


def test_regular_genus_min_g4(g4):
    value, minimizers = _regular_genus_entry(g4)
    assert value == "0"
    assert (0, 1, 2, 3, 4) in minimizers
    assert minimizers == sorted(minimizers)


def test_minimizer_maximizes_class_gap():
    # within its class, the minimizing permutation leaves the largest
    # remainder to the other class members
    classes5 = partition_odd(5).classes
    index = perm_index(4)
    for g in corpus(4, 3, 10, seed=73, connected_only=True):
        twices = genus_twices(g)
        least = min(twices)
        for cls, total in zip(classes5, _class_sums_twice(g, classes5)):
            gaps = {eps: total - 2 * twices[index[eps]] for eps in cls.cycles}
            best_gap = max(gaps.values())
            for eps in cls.cycles:
                if twices[index[eps]] == least:
                    assert gaps[eps] == best_gap
