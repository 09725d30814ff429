"""Genera, degrees, and exact half-integer arithmetic."""

from __future__ import annotations

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

from gemcalc import (
    ColoredGraph,
    GemError,
    HalfInt,
    canonical_perm,
    class_genus_sum,
    cyclic_permutations,
    dipole,
    g_degree_definition,
    g_degree_formula,
    partition_even,
    partition_odd,
    reduced_g_degree,
    regular_genus,
    regular_genus_min,
    walecki_decomposition,
)
from gemcalc.cycle_decomp import DecompositionClass

from conftest import M_A, corpus, oracle_genus_twice


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


# --- degrees -----------------------------------------------------------------


def test_degree_dipole(dipole4):
    assert g_degree_definition(dipole4) == 0
    assert g_degree_formula(dipole4) == 0
    assert reduced_g_degree(dipole4) == 0


def test_degree_g4(g4):
    assert g_degree_definition(g4) == 6
    assert g_degree_formula(g4) == 6
    assert reduced_g_degree(g4) == 2


def test_degree_d2_equals_genus(rp2_gem):
    assert g_degree_definition(rp2_gem) == regular_genus(rp2_gem, (0, 1, 2))
    assert g_degree_definition(rp2_gem) == HalfInt(1)
    with pytest.raises(GemError, match="d >= 3"):
        g_degree_formula(rp2_gem)
    with pytest.raises(GemError, match="d >= 3"):
        reduced_g_degree(rp2_gem)


@pytest.mark.parametrize("d, p, seed", [(3, 4, 31), (4, 3, 37), (5, 2, 41)])
def test_degree_definition_equals_formula(d, p, seed):
    for g in corpus(d, p, 25, seed=seed, connected_only=True):
        assert g_degree_definition(g) == g_degree_formula(g)


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


def test_class_genus_sum_g4(g4):
    for cls in partition_odd(5).classes:
        assert class_genus_sum(g4, cls) == 1  # reduced degree 2, halved


def test_class_genus_sum_dipole(dipole4):
    for cls in partition_odd(5).classes:
        assert class_genus_sum(dipole4, cls) == 0


def test_class_genus_sum_constancy_random():
    classes5 = partition_odd(5).classes
    for g in corpus(4, 4, 15, seed=61, connected_only=True):
        values = {class_genus_sum(g, cls).twice for cls in classes5}
        assert len(values) == 1
        assert values == {reduced_g_degree(g)}  # even d: sum is half of it


def test_class_genus_sum_odd_dimension():
    classes4 = partition_even(4).classes
    assert len(classes4) == 1
    for g in corpus(3, 4, 15, seed=67, connected_only=True):
        assert class_genus_sum(g, classes4[0]) == reduced_g_degree(g)


def test_class_genus_sum_walecki_large_d():
    # single-class fallback at d = 8: sum equals half the reduced degree
    cls = walecki_decomposition(9)
    for g in corpus(8, 1, 3, seed=71, connected_only=True):
        value = class_genus_sum(g, cls)
        assert 2 * value == reduced_g_degree(g)


def test_class_genus_sum_rejects_invalid(g4):
    bad = DecompositionClass(
        n=5, multiplicity=1, cycles=((0, 1, 2, 3, 4), (0, 1, 3, 2, 4))
    )
    with pytest.raises(GemError, match="invalid"):
        class_genus_sum(g4, bad)
    cls7 = partition_odd(7).classes[0]
    with pytest.raises(GemError, match="colors"):
        class_genus_sum(g4, cls7)


# --- minimum genus -----------------------------------------------------------


def test_regular_genus_min_dipole(dipole4):
    value, minimizers = regular_genus_min(dipole4)
    assert value == 0
    assert minimizers == cyclic_permutations(4)


def test_regular_genus_min_g4(g4):
    value, minimizers = regular_genus_min(g4)
    assert value == 0
    assert (0, 1, 2, 3, 4) in minimizers
    assert list(minimizers) == sorted(minimizers)


def test_minimizer_maximizes_class_gap():
    # within its class, the minimizing permutation leaves the largest
    # remainder to the other class members
    classes5 = partition_odd(5).classes
    for g in corpus(4, 3, 10, seed=73, connected_only=True):
        value, minimizers = regular_genus_min(g)
        for cls in classes5:
            total = class_genus_sum(g, cls)
            gaps = {eps: (total - 2 * regular_genus(g, eps)).twice for eps in cls.cycles}
            best_gap = max(gaps.values())
            for eps in cls.cycles:
                if eps in minimizers:
                    assert gaps[eps] == best_gap
