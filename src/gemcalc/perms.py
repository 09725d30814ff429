"""Cyclic permutations of a color set, canonical up to rotation and inverse.

A cyclic permutation of 0..d is stored as a tuple; the canonical form
starts at 0 and has its second entry smaller than its last, which fixes
both the rotation and the direction.  There are d!/2 canonical values.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from operator import itemgetter
from typing import Iterable, Sequence

from .core import GemError

CyclicPerm = tuple[int, ...]

__all__ = [
    "CyclicPerm",
    "canonical_perm",
    "cycle_gathers",
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


def _perm_key(eps: Iterable[int]) -> str:
    """A permutation, pair or triple as a report key: its colors joined by commas."""
    return ",".join(str(c) for c in eps)


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


def cycle_pairs(eps: Sequence[int]) -> list[tuple[int, int]]:
    """Unordered pairs (eps_j, eps_{j+1}) for j over the cyclic index set."""
    return [(a, b) if a < b else (b, a) for a, b in zip(eps, (*eps[1:], eps[0]))]


@lru_cache(maxsize=None)
def perm_index(d: int) -> dict[CyclicPerm, int]:
    """Position of each canonical permutation in :func:`cyclic_permutations`."""
    return {eps: i for i, eps in enumerate(cyclic_permutations(d))}


@lru_cache(maxsize=None)
def cycle_gathers(d: int) -> tuple[itemgetter, ...]:
    """One ``itemgetter`` per canonical permutation: applied to a residue
    vector, it returns the pair counts of that permutation's d + 1 adjacent
    pairs (:func:`cycle_pairs`) as a tuple."""
    return tuple(
        itemgetter(*((1 << a) | (1 << b) for a, b in cycle_pairs(eps)))
        for eps in cyclic_permutations(d)
    )
