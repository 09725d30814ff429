"""Hamiltonian cycles of K_n: Walecki classes, full partitions, validation."""

from __future__ import annotations

from itertools import combinations
from math import factorial

import pytest

from gemcalc import (
    GemError,
    InvariantViolation,
    cyclic_permutations,
    partition_even,
    partition_odd,
    residue_count,
    validate_class,
    validate_partition,
    walecki_decomposition,
)
from gemcalc import cycle_decomp
from gemcalc.cycle_decomp import DecompositionClass
from gemcalc.dim4 import associated_pairs
from gemcalc.perms import cycle_pairs

from conftest import corpus


def test_hamiltonian_cycle_counts():
    for n in (3, 4, 5, 6, 7):
        assert len(cyclic_permutations(n - 1)) == factorial(n - 1) // 2


def test_cycle_edges():
    assert sorted(cycle_pairs((0, 1, 2))) == [(0, 1), (0, 2), (1, 2)]
    assert len(cycle_pairs((0, 1, 2, 3, 4))) == 5


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11])
def test_walecki_decomposition(n):
    cls = walecki_decomposition(n)
    assert len(cls.cycles) == (n - 1) // 2
    assert validate_class(cls)


def test_walecki_small_cases():
    assert walecki_decomposition(3).cycles == ((0, 1, 2),)
    edges5 = sorted(
        e for cyc in walecki_decomposition(5).cycles for e in cycle_pairs(cyc)
    )
    assert edges5 == sorted(combinations(range(5), 2))


def test_walecki_validates_what_it_builds(monkeypatch):
    monkeypatch.setattr(cycle_decomp, "validate_class", lambda cls: False)
    with pytest.raises(InvariantViolation, match="Walecki decomposition invalid for n=9"):
        walecki_decomposition(9)


def test_walecki_rejects_even():
    with pytest.raises(GemError, match="odd"):
        walecki_decomposition(4)


def test_walecki_refuses_n_beyond_budget(monkeypatch):
    # K_1733 has 1,500,778 edges; K_1731, the largest accepted, has 1,497,315
    class Started(Exception):
        pass

    def no_cycles(seq):
        raise Started

    monkeypatch.setattr(cycle_decomp, "canonical_perm", no_cycles)
    with pytest.raises(GemError, match="1500778 edges, more than the enumeration budget 1500000"):
        walecki_decomposition(1733)
    with pytest.raises(Started):
        walecki_decomposition(1731)


def test_partition_odd_n3():
    part = partition_odd(3)
    assert len(part.classes) == 1
    assert part.classes[0].cycles == ((0, 1, 2),)


def test_partition_odd_n5_is_the_associated_pairing():
    part = partition_odd(5)
    assert len(part.classes) == 6
    assert validate_partition(part)
    # in order: the battery's class sums come in partition order, and the
    # analysis labels them with associated_pairs(); every pair sum is equal
    # on every gem, so a report could never show a wrong label
    assert [cls.cycles for cls in part.classes] == list(associated_pairs())
    assert part.classes[0].cycles == ((0, 1, 2, 3, 4), (0, 2, 4, 1, 3))


def test_partition_odd_n7():
    part = partition_odd(7)
    assert len(part.classes) == 120
    assert all(len(cls.cycles) == 3 for cls in part.classes)
    assert validate_partition(part)


def test_partition_even_n4():
    part = partition_even(4)
    assert len(part.classes) == 1
    cls = part.classes[0]
    assert set(cls.cycles) == set(cyclic_permutations(3))
    counts = {}
    for cyc in cls.cycles:
        for e in cycle_pairs(cyc):
            counts[e] = counts.get(e, 0) + 1
    assert all(counts[e] == 2 for e in combinations(range(4), 2))


def test_partition_even_n6():
    part = partition_even(6)
    assert len(part.classes) == 12
    assert all(len(cls.cycles) == 5 for cls in part.classes)
    assert validate_partition(part)


@pytest.mark.parametrize(
    "maker, n, message",
    [
        (partition_odd, 5, "orbit partition invalid for n=5"),
        (partition_even, 4, "even partition invalid for n=4"),
    ],
)
def test_partitions_validate_what_they_build(monkeypatch, maker, n, message):
    monkeypatch.setattr(cycle_decomp, "validate_partition", lambda part: False)
    with pytest.raises(InvariantViolation, match=message):
        maker.__wrapped__(n)


def test_partition_bounds():
    with pytest.raises(GemError, match="supported"):
        partition_odd(9)
    with pytest.raises(GemError, match="supported"):
        partition_even(8)


def test_partition_class_size_accounting():
    for n, maker in ((3, partition_odd), (5, partition_odd), (7, partition_odd),
                     (4, partition_even), (6, partition_even)):
        part = maker(n)
        assert sum(len(cls.cycles) for cls in part.classes) == factorial(n - 1) // 2


def test_validate_class_negative():
    bad = DecompositionClass(
        n=5, multiplicity=1, cycles=((0, 1, 2, 3, 4), (0, 1, 3, 2, 4))
    )
    assert not validate_class(bad)  # edge (0,1) twice
    wrong_count = DecompositionClass(n=5, multiplicity=1, cycles=((0, 1, 2, 3, 4),))
    assert not validate_class(wrong_count)


def test_edge_sum_identity_even_dimension(g4):
    # summing adjacent-pair residues over any class of the odd partition
    # touches every color pair exactly once
    from gemcalc.perms import cycle_pairs

    graphs = [g4] + corpus(4, 3, 10, seed=79, connected_only=True)
    total = {
        id(g): sum(residue_count(g, pr) for pr in combinations(range(5), 2))
        for g in graphs
    }
    for g in graphs:
        for cls in partition_odd(5).classes:
            class_total = sum(
                residue_count(g, pr) for cyc in cls.cycles for pr in cycle_pairs(cyc)
            )
            assert class_total == total[id(g)]


def test_edge_sum_identity_odd_dimension():
    # even-n classes cover each edge twice, so the double sum doubles
    from gemcalc.perms import cycle_pairs

    for g in corpus(3, 3, 10, seed=83, connected_only=True):
        total = sum(residue_count(g, pr) for pr in combinations(range(4), 2))
        for cls in partition_even(4).classes:
            class_total = sum(
                residue_count(g, pr) for cyc in cls.cycles for pr in cycle_pairs(cyc)
            )
            assert class_total == 2 * total
