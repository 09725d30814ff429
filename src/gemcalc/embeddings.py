"""Regular genera and the Gurau degree, on integer twice values.

For a connected graph of order 2p and a cyclic permutation e of the colors,
the regular embedding surface has Euler characteristic

    chi_e = sum_j g_{e_j, e_{j+1}} + (1 - d) * p

and genus (or half the genus, in the non-orientable case)
rho_e = (2 - chi_e) / 2.  The Gurau degree is the sum of rho_e over the
d!/2 cyclic permutations up to inverse; the closed form

    omega = (d-1)!/2 * (d + p*(d-1)*d/2 - sum_{r<s} g_{rs})

must agree with it exactly.  The identity battery
(``reports.check_graph``, check ``degree_formula_agreement``) checks that
at every gem, from one walk over the bicolored cycles against the genera
read from the residue vector.  Genera and degrees are computed as integer
twice values (``genus_twices``) and rendered as exact half-integers
(``HalfInt``); floats never appear.  At d = 2 there is one permutation,
and its surface is the surface of the graph (``surface_type``).
"""

from __future__ import annotations

import sys
from itertools import combinations
from math import factorial
from typing import NamedTuple, Sequence

from .core import (
    ColoredGraph, GemError, InvariantViolation, _pair_vector, is_bipartite, is_connected,
    residue_count,
)
from .perms import cycle_gathers, cycle_pairs

__all__ = [
    "HalfInt",
    "SurfaceType",
    "g_degree_definition",
    "genus_twices",
    "reduced_g_degree",
    "regular_genus",
    "surface_type",
]

# the inverse of 2 modulo the hash modulus: hash(n/2) for a rational n/2
_HASH_HALF = pow(2, -1, sys.hash_info.modulus)


class HalfInt:
    """Exact half-integer value; ``twice`` stores double the represented value.

    A value type for reporting: genera and degrees are computed on the
    integer ``twice`` values and wrapped only to be rendered or compared.
    Equality and hashing agree with the integers a value happens to equal.
    """

    __slots__ = ("twice",)

    def __init__(self, twice: int):
        if not isinstance(twice, int) or isinstance(twice, bool):
            raise TypeError(f"twice must be an integer, got {twice!r}")
        self.twice = twice

    @staticmethod
    def _twice_of(other) -> int | None:
        if isinstance(other, HalfInt):
            return other.twice
        if isinstance(other, int) and not isinstance(other, bool):
            return 2 * other
        return None

    def __eq__(self, other):
        t = self._twice_of(other)
        return NotImplemented if t is None else self.twice == t

    def __hash__(self):
        # the hash of the rational twice/2 as int and Fraction define it, so
        # equal values hash alike across HalfInt/int
        h = hash(abs(self.twice) * _HASH_HALF)
        h = h if self.twice >= 0 else -h
        return -2 if h == -1 else h

    def __str__(self):
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    def __repr__(self):
        return f"HalfInt({self})"


def _require_d(g: ColoredGraph, d: int) -> None:
    if g.d != d:
        raise GemError(f"operation defined for {d + 1}-colored graphs, got d={g.d}")


def _require_connected(g: ColoredGraph) -> None:
    if not is_connected(g):
        raise GemError("operation requires a connected graph")


def _bicolored_cycles(g: ColoredGraph) -> dict[tuple[int, int], list[int]]:
    """One vertex (0-based) of every bicolored cycle, for each color pair r < s."""
    partners = [[w - 1 for w in mu] for mu in g.matchings]
    cycles = {}
    for r, s in combinations(g.colors, 2):
        mu_r, mu_s = partners[r], partners[s]
        seen = [False] * g.order
        reps = []
        for v in range(g.order):
            if not seen[v]:
                reps.append(v)
                x = v
                while not seen[x]:
                    seen[x] = True
                    y = mu_r[x]
                    seen[y] = True
                    x = mu_s[y]
        cycles[r, s] = reps
    return cycles


def genus_twices(g: ColoredGraph) -> tuple[int, ...]:
    """Twice the regular genus of every canonical permutation, in the order
    of :func:`cyclic_permutations`, from the pair residue counts.

    They are read off the residue vector when the graph holds one, and
    otherwise counted for the color pairs alone, never for larger sets.
    """
    _require_connected(g)
    vec = _pair_vector(g)
    base = 2 + (g.d - 1) * g.p
    return tuple([base - sum(gather(vec)) for gather in cycle_gathers(g.d)])


def regular_genus(g: ColoredGraph, eps: Sequence[int]) -> HalfInt:
    """Genus of the regular embedding surface attached to a cyclic permutation.

    Integral whenever the graph is bipartite (orientable case); in general
    an exact half-integer.
    """
    if sorted(eps) != list(g.colors):
        raise GemError(f"{tuple(eps)} is not a permutation of the colors 0..{g.d}")
    _require_connected(g)
    s = sum(residue_count(g, pair) for pair in cycle_pairs(eps))
    # 2*rho = 2 - chi = 2 - s + (d-1)*p
    return HalfInt(2 - s + (g.d - 1) * g.p)


def g_degree_definition(g: ColoredGraph) -> HalfInt:
    """Gurau degree as the literal sum of genera over all canonical permutations."""
    return HalfInt(sum(genus_twices(g)))


def _reduced_degree(d: int, p: int, pair_sum: int) -> int:
    """The closed form d + p(d-1)d/2 - sum_{r<s} g_rs: 2 * degree / (d-1)! for
    d >= 3, twice the genus at d = 2."""
    return d + p * (d - 1) * d // 2 - pair_sum


def reduced_g_degree(g: ColoredGraph) -> int:
    """The integer 2 * degree / (d-1)!, for d >= 3.

    A non-integral value cannot arise from a correct degree computation and
    is reported as an internal invariant violation.
    """
    if g.d < 3:
        raise GemError("the reduced degree is defined for d >= 3")
    omega = g_degree_definition(g)
    quotient, rem = divmod(omega.twice, factorial(g.d - 1))
    if rem:
        raise InvariantViolation(f"degree {omega} is not a multiple of (d-1)!/2")
    return quotient


class SurfaceType(NamedTuple):
    orientable: bool
    euler: int
    genus: HalfInt  # orientable genus, or half the non-orientable genus


def _surface(bipartite: bool, pair_sum: int, p: int) -> SurfaceType:
    chi = pair_sum - p  # connected 3-colored graph: faces minus edges plus vertices
    return SurfaceType(bipartite, chi, HalfInt(2 - chi))


def surface_type(g: ColoredGraph) -> SurfaceType:
    """Orientability, Euler characteristic, and genus of a 3-colored graph's
    surface: its one regular embedding, whose genus is the graph's regular genus."""
    _require_d(g, 2)
    if not is_connected(g):
        raise GemError("surface type requires a connected graph")
    return _surface(is_bipartite(g), sum(map(len, _bicolored_cycles(g).values())), g.p)
