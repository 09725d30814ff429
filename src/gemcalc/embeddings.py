"""Regular genera, Gurau degree, and exact half-integer arithmetic.

For a connected graph of order 2p and a cyclic permutation e of the colors,
the regular embedding surface has Euler characteristic

    chi_e = sum_j g_{e_j, e_{j+1}} + (1 - d) * p

and genus (or half the genus, in the non-orientable case)
rho_e = (2 - chi_e) / 2.  The Gurau degree is the sum of rho_e over the
d!/2 cyclic permutations up to inverse; the closed form

    omega = (d-1)!/2 * (d + p*(d-1)*d/2 - sum_{r<s} g_{rs})

must agree with it exactly, which this module treats as a checked
invariant rather than an assumption.  All genus arithmetic is exact
half-integer; floats never appear.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import factorial
from typing import Sequence, TYPE_CHECKING

from .core import ColoredGraph, GemError, is_connected, residue_count, residue_vector
from .perms import CyclicPerm, canonical_perm, cycle_masks, cycle_pairs, cyclic_permutations

if TYPE_CHECKING:
    from .cycle_decomp import DecompositionClass

__all__ = [
    "CyclicPerm",
    "HalfInt",
    "canonical_perm",
    "class_genus_sum",
    "cyclic_permutations",
    "g_degree_definition",
    "g_degree_formula",
    "genus_twices",
    "pair_residue_sum",
    "reduced_degree_formula",
    "reduced_g_degree",
    "regular_genus",
    "regular_genus_min",
]


class HalfInt:
    """Exact half-integer scalar; ``twice`` stores double the represented value.

    Supports addition and subtraction with other half-integers and with
    ints, multiplication by ints, and total ordering.  Equality and
    hashing agree with the integers a value happens to equal.
    """

    __slots__ = ("twice",)

    def __init__(self, twice: int):
        if not isinstance(twice, int) or isinstance(twice, bool):
            raise TypeError(f"twice must be an integer, got {twice!r}")
        self.twice = twice

    @classmethod
    def whole(cls, value: int) -> "HalfInt":
        return cls(2 * value)

    @property
    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def to_int(self) -> int:
        if self.twice % 2:
            raise ValueError(f"{self} is not an integer")
        return self.twice // 2

    @staticmethod
    def _twice_of(other) -> int | None:
        if isinstance(other, HalfInt):
            return other.twice
        if isinstance(other, int) and not isinstance(other, bool):
            return 2 * other
        return None

    def __add__(self, other):
        t = self._twice_of(other)
        return NotImplemented if t is None else HalfInt(self.twice + t)

    __radd__ = __add__

    def __sub__(self, other):
        t = self._twice_of(other)
        return NotImplemented if t is None else HalfInt(self.twice - t)

    def __rsub__(self, other):
        t = self._twice_of(other)
        return NotImplemented if t is None else HalfInt(t - self.twice)

    def __mul__(self, other):
        if isinstance(other, int) and not isinstance(other, bool):
            return HalfInt(self.twice * other)
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return HalfInt(-self.twice)

    def __eq__(self, other):
        t = self._twice_of(other)
        return NotImplemented if t is None else self.twice == t

    def __lt__(self, other):
        t = self._twice_of(other)
        return NotImplemented if t is None else self.twice < t

    def __le__(self, other):
        t = self._twice_of(other)
        return NotImplemented if t is None else self.twice <= t

    def __gt__(self, other):
        t = self._twice_of(other)
        return NotImplemented if t is None else self.twice > t

    def __ge__(self, other):
        t = self._twice_of(other)
        return NotImplemented if t is None else self.twice >= t

    def __hash__(self):
        # equal values must hash alike across HalfInt/int
        return hash(Fraction(self.twice, 2))

    def __str__(self):
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    def __repr__(self):
        return f"HalfInt({self})"


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


def pair_residue_sum(g: ColoredGraph) -> int:
    """Sum of g_{rs} over all unordered color pairs.

    Walks the bicolored cycles directly rather than reading the residue
    vector, so the closed degree formula cross-checks the vector.
    """
    return sum(map(len, _bicolored_cycles(g).values()))


def genus_twices(g: ColoredGraph) -> tuple[int, ...]:
    """Twice the regular genus of every canonical permutation, in the order
    of :func:`cyclic_permutations`, read off the residue vector."""
    vec = residue_vector(g)
    _require_connected(g)
    base = 2 + (g.d - 1) * g.p
    return tuple(base - sum([vec[m] for m in masks]) for masks in cycle_masks(g.d))


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


def reduced_degree_formula(g: ColoredGraph) -> int:
    """The closed form d + p*(d-1)*d/2 - sum_{r<s} g_{rs}.

    For d >= 3 it is 2 * degree / (d-1)!; at d = 2 it is twice the genus.
    """
    return g.d + g.p * (g.d - 1) * g.d // 2 - pair_residue_sum(g)


def g_degree_formula(g: ColoredGraph) -> HalfInt:
    """Gurau degree by the closed formula; valid for d >= 3 only.

    Must agree with :func:`g_degree_definition` exactly; the definition is
    the ground truth and this is a checked accelerator.
    """
    if g.d < 3:
        raise GemError("the closed degree formula needs d >= 3; use the definition for d = 2")
    _require_connected(g)
    return HalfInt(factorial(g.d - 1) * reduced_degree_formula(g))


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
        raise GemError(
            f"internal invariant violation: degree {omega} is not a multiple of (d-1)!/2"
        )
    return quotient


def class_genus_sum(g: ColoredGraph, cls: "DecompositionClass") -> HalfInt:
    """Sum of regular genera over the permutations of one partition class.

    For even d the value is half the reduced degree; for odd d it is the
    reduced degree itself, and it never depends on which class was chosen.
    """
    from .cycle_decomp import validate_class

    if cls.n != g.d + 1:
        raise GemError(f"class is over K_{cls.n}, graph has {g.d + 1} colors")
    if not validate_class(cls):
        raise GemError("invalid decomposition class: edge multiplicity contract violated")
    total = 0
    for cyc in cls.cycles:
        total += regular_genus(g, cyc).twice
    return HalfInt(total)


def regular_genus_min(g: ColoredGraph) -> tuple[HalfInt, tuple[CyclicPerm, ...]]:
    """Minimum genus over all canonical permutations, with every minimizer."""
    twices = genus_twices(g)
    best = min(twices)
    perms = cyclic_permutations(g.d)
    return HalfInt(best), tuple(perms[i] for i, t in enumerate(twices) if t == best)
