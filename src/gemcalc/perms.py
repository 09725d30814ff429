"""Cyclic permutations of a color set, canonical up to rotation and inverse.

A cyclic permutation of 0..d is stored as a tuple; the canonical form
starts at 0 and has its second entry smaller than its last, which fixes
both the rotation and the direction.  There are d!/2 canonical values.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from typing import Sequence

from .core import GemError

CyclicPerm = tuple[int, ...]

__all__ = [
    "CyclicPerm",
    "canonical_perm",
    "cycle_masks",
    "cycle_pairs",
    "cyclic_permutations",
    "perm_index",
]


def canonical_perm(seq: Sequence[int]) -> CyclicPerm:
    """Rotate to start at 0 and orient so the second entry beats the last."""
    t = tuple(seq)
    d = len(t) - 1
    if sorted(t) != list(range(d + 1)):
        raise GemError(f"not a permutation of 0..{d}: {t}")
    i = t.index(0)
    rot = t[i:] + t[:i]
    if d >= 1 and rot[1] > rot[-1]:
        rot = (0,) + tuple(reversed(rot[1:]))
    return rot


@lru_cache(maxsize=None)
def cyclic_permutations(d: int) -> tuple[CyclicPerm, ...]:
    """All d!/2 canonical cyclic permutations of 0..d, in lexicographic order."""
    if d < 2:
        raise GemError(f"cyclic permutations need d >= 2, got {d}")
    return tuple(
        (0,) + tail
        for tail in permutations(range(1, d + 1))
        if tail[0] < tail[-1]
    )


def cycle_pairs(eps: Sequence[int], step: int = 1) -> list[tuple[int, int]]:
    """Unordered pairs (eps_j, eps_{j+step}) for j over the cyclic index set."""
    n = len(eps)
    out = []
    for j in range(n):
        a, b = eps[j], eps[(j + step) % n]
        out.append((a, b) if a < b else (b, a))
    return out


@lru_cache(maxsize=None)
def perm_index(d: int) -> dict[CyclicPerm, int]:
    """Position of each canonical permutation in :func:`cyclic_permutations`."""
    return {eps: i for i, eps in enumerate(cyclic_permutations(d))}


@lru_cache(maxsize=None)
def cycle_masks(d: int, step: int = 1) -> tuple[tuple[int, ...], ...]:
    """Color-pair bitmasks of :func:`cycle_pairs`, per canonical permutation.

    Entry i lists ``(1 << a) | (1 << b)`` for the pairs of the i-th
    permutation, ready to index a residue vector.
    """
    return tuple(
        tuple((1 << a) | (1 << b) for a, b in cycle_pairs(eps, step))
        for eps in cyclic_permutations(d)
    )
