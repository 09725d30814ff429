"""Hamiltonian-cycle machinery on the complete graph K_n.

Labelling the vertices of K_n by 0..n-1 identifies each Hamiltonian cycle
with a canonical cyclic permutation, so the d!/2 permutations of a d+1
color set double as the Hamiltonian cycles of K_{d+1}.

Two partition shapes are produced:

* odd n: classes of (n-1)/2 pairwise edge-disjoint cycles, each class an
  exact decomposition of E(K_n), and (n-2)! classes covering every cycle
  once (realized for n in {3, 5, 7});
* even n: classes of n-1 cycles in which every edge of K_n appears exactly
  twice, and (n-2)!/2 classes covering every cycle once (realized for
  n in {4, 6}).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations
from typing import NamedTuple

from .core import ENUMERATION_BUDGET, GemError, InvariantViolation
from .perms import CyclicPerm, canonical_perm, cycle_pairs, cyclic_permutations

__all__ = [
    "DecompositionClass",
    "PermPartition",
    "partition_even",
    "partition_odd",
    "validate_class",
    "validate_partition",
    "walecki_decomposition",
]

PARTITION_ODD_SUPPORTED = (3, 5, 7)
PARTITION_EVEN_SUPPORTED = (4, 6)


class DecompositionClass(NamedTuple):
    """A set of Hamiltonian cycles of K_n with a fixed edge multiplicity."""

    n: int
    multiplicity: int
    cycles: tuple[CyclicPerm, ...]


class PermPartition(NamedTuple):
    """Classes covering every canonical Hamiltonian cycle of K_n exactly once."""

    n: int
    classes: tuple[DecompositionClass, ...]


def validate_class(cls: DecompositionClass) -> bool:
    """Check the edge-multiplicity contract exactly.

    Odd n: (n-1)/2 distinct cycles whose edges partition E(K_n).
    Even n: n-1 distinct cycles with every edge of K_n appearing twice.
    """
    n = cls.n
    if n < 3:
        return False
    if n % 2:
        expect_cycles, expect_mult = (n - 1) // 2, 1
    else:
        expect_cycles, expect_mult = n - 1, 2
    if cls.multiplicity != expect_mult or len(cls.cycles) != expect_cycles:
        return False
    if len(set(cls.cycles)) != len(cls.cycles):
        return False
    counts: dict[tuple[int, int], int] = {}
    for cyc in cls.cycles:
        if len(cyc) != n or canonical_perm(cyc) != cyc:
            return False
        for e in cycle_pairs(cyc):
            counts[e] = counts.get(e, 0) + 1
    return all(
        counts.get(e, 0) == expect_mult for e in combinations(range(n), 2)
    )


def validate_partition(part: PermPartition) -> bool:
    """Every class valid and every canonical cycle used exactly once."""
    seen: list[CyclicPerm] = []
    for cls in part.classes:
        if cls.n != part.n or not validate_class(cls):
            return False
        seen.extend(cls.cycles)
    return sorted(seen) == sorted(cyclic_permutations(part.n - 1))


def walecki_decomposition(n: int) -> DecompositionClass:
    """One Hamiltonian decomposition of K_n for odd n, by the zig-zag construction.

    The vertex n-1 is the hub; the base cycle threads 0, 1, n-2, 2, n-3, ...
    through the remaining vertices and its (n-1)/2 rotations partition the
    edge set.  Available for every odd n >= 3 whose n(n-1)/2 edges fit the
    enumeration budget (n <= 1731).  Like the full partitions, the class is
    validated before it is returned.
    """
    if n < 3 or n % 2 == 0:
        raise GemError(f"Walecki decomposition needs an odd n >= 3, got {n}")
    edges = n * (n - 1) // 2
    if edges > ENUMERATION_BUDGET:
        raise GemError(
            f"Walecki decomposition of K_{n} has n(n-1)/2 = {edges} edges, "
            f"more than the enumeration budget {ENUMERATION_BUDGET}"
        )
    # 0, 1, n-2, 2, n-3, ...: odd steps climb from 1, even steps descend from n-2
    zigzag = [0] + [(k + 1) // 2 if k % 2 else n - 1 - k // 2 for k in range(1, n - 1)]
    cycles = [
        canonical_perm([n - 1] + [(v + k) % (n - 1) for v in zigzag])
        for k in range((n - 1) // 2)
    ]
    cls = DecompositionClass(n=n, multiplicity=1, cycles=tuple(sorted(cycles)))
    if not validate_class(cls):
        raise InvariantViolation(f"Walecki decomposition invalid for n={n}")
    return cls


def _validated_partition(
    n: int, multiplicity: int, classes: list[tuple[CyclicPerm, ...]], name: str
) -> PermPartition:
    """The partition with these classes of cycles, each class of the given
    multiplicity; an invalid one is an invariant violation named ``name``."""
    part = PermPartition(n, tuple(DecompositionClass(n, multiplicity, c) for c in classes))
    if not validate_partition(part):
        raise InvariantViolation(f"{name} invalid for n={n}")
    return part


@lru_cache(maxsize=None)
def partition_odd(n: int) -> PermPartition:
    """Partition of all Hamiltonian cycles of K_n into (n-2)! decompositions.

    For the supported n (3, 5, 7; all prime) the orbit of the circulant
    decomposition {(0, j, 2j, ...) : 1 <= j <= (n-1)/2} under the symmetric
    group is exactly such a partition: its stabilizer is the affine group
    x -> ax + b of order n(n-1), so the orbit has (n-2)! members, and each
    cycle lies in precisely one of them.  For n = 5 this reproduces the six
    pairs of associated permutations, the unique partition in that case.
    """
    if n not in PARTITION_ODD_SUPPORTED:
        raise GemError(
            f"full odd partition supported for n in {PARTITION_ODD_SUPPORTED}, got {n}"
        )
    base = [
        canonical_perm([(j * k) % n for k in range(n)])
        for j in range(1, (n - 1) // 2 + 1)
    ]
    classes = set()
    for sigma in permutations(range(n)):
        classes.add(tuple(sorted(canonical_perm([sigma[v] for v in cyc]) for cyc in base)))
    return _validated_partition(n, 1, sorted(classes), "orbit partition")


@lru_cache(maxsize=None)
def partition_even(n: int) -> PermPartition:
    """Partition of all Hamiltonian cycles of K_n into (n-2)!/2 double covers.

    Found by backtracking: the smallest unused cycle opens a class, the
    class is completed by always branching on its smallest edge still below
    multiplicity two (candidates in lexicographic cycle order, past the one
    taken by the branch above on the same edge), and classes are retried on
    failure.  A full class needs no final test: n-1 cycles hold n(n-1)
    edges, twice the edges of K_n, none of them more than twice.  The first
    partition found in this fixed order is the canonical output.
    """
    if n not in PARTITION_EVEN_SUPPORTED:
        raise GemError(
            f"full even partition supported for n in {PARTITION_EVEN_SUPPORTED}, got {n}"
        )
    cycles = cyclic_permutations(n - 1)
    edge_index = {e: i for i, e in enumerate(combinations(range(n), 2))}
    edge_lists = [[edge_index[e] for e in cycle_pairs(c)] for c in cycles]
    by_edge: list[list[int]] = [[] for _ in edge_index]
    for i, edges in enumerate(edge_lists):
        for e in edges:
            by_edge[e].append(i)
    used = [False] * len(cycles)

    def completions(members: tuple[int, ...], counts: list[int], last: tuple[int, int]):
        """Each completion of a class, with its cycles marked used while it
        is out; ``last`` is the (edge, cycle) of the branch above."""
        if len(members) == n - 1:
            yield members
            return
        e = next(i for i, c in enumerate(counts) if c < 2)
        floor = last[1] if last[0] == e else -1
        for j in by_edge[e]:
            if j <= floor or used[j] or any(counts[b] == 2 for b in edge_lists[j]):
                continue
            for b in edge_lists[j]:
                counts[b] += 1
            used[j] = True
            yield from completions(members + (j,), counts, (e, j))
            used[j] = False
            for b in edge_lists[j]:
                counts[b] -= 1

    def solve() -> list[tuple[int, ...]] | None:
        """The classes covering the unused cycles, or None; unused stay unused."""
        if all(used):
            return []
        pivot = used.index(False)
        counts = [0] * len(edge_index)
        for b in edge_lists[pivot]:
            counts[b] += 1
        used[pivot] = True
        for cls in completions((pivot,), counts, (-1, -1)):
            rest = solve()
            if rest is not None:
                return [cls, *rest]
        used[pivot] = False
        return None

    classes = solve()
    if classes is None:
        raise InvariantViolation(f"no even partition found for n={n}")
    classes = [tuple(sorted(cycles[j] for j in cls)) for cls in classes]
    return _validated_partition(n, 2, classes, "even partition")
