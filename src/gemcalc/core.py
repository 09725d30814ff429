"""Edge-colored graph data model, residues, and the simplicial Euler characteristic.

A gem is a regular (d+1)-valent multigraph on an even number of vertices
whose edges are properly colored by 0..d; equivalently, a family of d+1
fixed-point-free involutions (one perfect matching per color).  Vertices
are 1-based, colors 0-based.

The JSON wire format is::

    {"d": int, "vertices": int, "matchings": [[int, ...] x (d+1)]}

where ``matchings[c][v-1]`` is the vertex matched to ``v`` by color ``c``.
Colors appear in ascending order, vertices run 1..2p, and no floats occur.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import combinations
from math import factorial
from typing import Iterable

__all__ = [
    "ENUMERATION_BUDGET",
    "MAX_DIMENSION",
    "ColoredGraph",
    "GemError",
    "InvariantViolation",
    "check_dimension",
    "euler_characteristic_complex",
    "is_bipartite",
    "is_connected",
    "parse_gem",
    "residue_count",
    "residue_table",
    "residue_vector",
    "serialize_gem",
    "simplex_counts",
]


class GemError(ValueError):
    """A document, matching family, or operation argument violates the gem contract."""


class InvariantViolation(GemError):
    """A computed result breaks a property that correct code guarantees.

    The first argument is the message; a second, where given, is the graph
    the violation was found on.
    """

    def __str__(self) -> str:
        return f"internal invariant violation: {self.args[0]}"


# ceiling on enumerated spaces: the (2p-1)!!^d raw gem stream of exhaustive
# enumeration, and the d!/2 cyclic permutations every genus battery walks
ENUMERATION_BUDGET = 1_500_000

# largest dimension whose d!/2 cyclic permutations fit the budget (d = 9)
MAX_DIMENSION = next(d for d in range(2, 64) if factorial(d + 1) // 2 > ENUMERATION_BUDGET)


def check_dimension(d: int) -> None:
    """Refuse a dimension whose d!/2 cyclic permutations exceed the budget."""
    if d > MAX_DIMENSION:
        half = factorial(d) // 2 if d <= 20 else f"{d}!/2"
        raise GemError(
            f"dimension d={d} has d!/2 = {half} cyclic permutations, more than the "
            f"enumeration budget {ENUMERATION_BUDGET}; d <= {MAX_DIMENSION} is supported"
        )


class ColoredGraph:
    """Immutable (d+1)-edge-colored graph given by one involution per color.

    Top-level gems have ``d >= 2``; any d up to ``MAX_DIMENSION`` is
    accepted, so that a residue can be a graph of its own.  ``_vector`` caches
    :func:`residue_vector` and ``_connected`` caches :func:`is_connected`;
    neither takes part in equality, hashing, ``repr`` or pickling, which
    rebuilds (and so re-validates) the graph through the constructor.

    A graph built by this constructor, by :func:`parse_gem` or by unpickling
    is validated.  The gems the generator draws or enumerates are valid by
    construction and skip that check (:meth:`_trusted`).
    """

    __slots__ = ("d", "order", "matchings", "_vector", "_connected")

    def __init__(self, d: int, order: int, matchings: tuple[tuple[int, ...], ...]) -> None:
        self._fill(d, order, matchings)
        self.__post_init__()

    @classmethod
    def _trusted(
        cls, d: int, order: int, matchings: tuple[tuple[int, ...], ...]
    ) -> ColoredGraph:
        """A graph built without :meth:`__post_init__`, for the generator
        alone, whose matchings are fixed-point-free involutions of 1..order
        by construction."""
        g = object.__new__(cls)
        g._fill(d, order, matchings)
        return g

    def _fill(self, d: int, order: int, matchings: tuple[tuple[int, ...], ...]) -> None:
        # both construction paths pass through here, validated or not
        set_ = object.__setattr__
        set_(self, "d", d)
        set_(self, "order", order)
        set_(self, "matchings", matchings)
        set_(self, "_vector", None)
        set_(self, "_connected", None)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.d, self.order, self.matchings) == (other.d, other.order, other.matchings)

    def __hash__(self) -> int:
        return hash((self.d, self.order, self.matchings))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"ColoredGraph(d={self.d!r}, order={self.order!r}, matchings={self.matchings!r})"

    def __reduce__(self) -> tuple:
        return ColoredGraph, (self.d, self.order, self.matchings)

    def __post_init__(self) -> None:
        # exact ints only: a bool is an int, but would serialize as true/false
        if type(self.d) is not int or self.d < 0:
            raise GemError(f"dimension must be a non-negative integer, got {self.d!r}")
        check_dimension(self.d)
        if type(self.order) is not int or self.order <= 0 or self.order % 2:
            raise GemError(f"vertex count must be a positive even number, got {self.order}")
        if len(self.matchings) != self.d + 1:
            raise GemError(
                f"expected {self.d + 1} matchings for dimension {self.d}, "
                f"got {len(self.matchings)}"
            )
        order = self.order
        for c, mu in enumerate(self.matchings):
            if len(mu) != order:
                raise GemError(f"color {c}: matching has {len(mu)} entries, expected {order}")
            for v, w in enumerate(mu, 1):
                if type(w) is not int or not 1 <= w <= order:
                    raise GemError(f"color {c}: vertex {v} is matched outside 1..{order}")
                if w == v:
                    raise GemError(f"color {c}: loop forbidden at vertex {v}")
                if mu[w - 1] != v:
                    raise GemError(f"color {c}: not an involution at vertex {v}")

    @property
    def p(self) -> int:
        """Half the order (each matching has p edges)."""
        return self.order // 2

    @property
    def colors(self) -> range:
        return range(self.d + 1)


def _color_mask(g: ColoredGraph, colors: Iterable[int]) -> int:
    mask = 0
    for c in colors:
        if not 0 <= c <= g.d:
            raise GemError(f"color {c} out of range 0..{g.d}")
        mask |= 1 << c
    return mask


@lru_cache(maxsize=None)
def _vector_plan(n: int, size: int) -> tuple[tuple[int, int, int, bool], ...]:
    """``(mask, rest, top, kept)`` for each subset of 2 to ``size`` of n colors,
    by ascending bitmask: ``top`` is its last color, ``rest`` the mask without
    it, and ``kept`` whether its forest is ever extended (it lacks color
    n - 1 and has fewer than ``size`` colors)."""
    plan = []
    for mask in range(3, 1 << n):
        colors = mask.bit_count()
        if 2 <= colors <= size:
            top = mask.bit_length() - 1
            plan.append((mask, mask ^ (1 << top), top, mask < 1 << (n - 1) and colors < size))
    return tuple(plan)


def _build_vector(
    order: int, matchings: tuple[tuple[int, ...], ...], size: int | None = None
) -> tuple[int | None, ...]:
    """Component counts of the color subsets of at most ``size`` colors (of
    every subset by default), by subset DP over union-find forests.

    A single color's forest points each vertex at the lesser end of its
    edge.  The forest of a larger ``mask`` is a copy of the forest of
    ``mask`` minus its top color, merged along the edges of that color; its
    roots are the components, so it is kept as it is, with no relabel pass.
    Finds halve the paths they walk (Tarjan & van Leeuwen, J. ACM 31, 1984),
    which keeps the chains short that copied forests pass on from one level
    to the next.  Forests are kept only for the sets that are ever extended:
    those without the last color and below the size bound.  The entries of
    larger subsets are None, never counted.  Each subset's predecessor, new
    color and whether it is kept come from a plan built once per ``(n, size)``
    (:func:`_vector_plan`), so no bit is counted per graph.
    """
    n = len(matchings)
    if size is None:
        size = n
    # color 0 is no subset's top color, so its edges are never read
    edges = [()] + [[(v, w - 1) for v, w in enumerate(mu) if v < w - 1] for mu in matchings[1:]]
    counts: list[int | None] = [None] * (1 << n)
    counts[0] = order
    extended = 1 << (n - 1)
    forests: list[list[int]] = [[]] * extended
    for c, mu in enumerate(matchings):
        counts[1 << c] = order // 2
        if 1 << c < extended and size > 1:
            forests[1 << c] = [v if v < w - 1 else w - 1 for v, w in enumerate(mu)]
    for mask, rest, top, kept in _vector_plan(n, size):
        parent = forests[rest][:]
        count = counts[rest]
        for a, b in edges[top]:
            # path halving: point each vertex walked at its grandparent
            # (parent[a] is assigned before a moves on)
            while a != (up := parent[a]):
                parent[a] = a = parent[up]
            while b != (up := parent[b]):
                parent[b] = b = parent[up]
            if a != b:
                parent[b] = a
                count -= 1
        counts[mask] = count
        if kept:
            forests[mask] = parent
    return tuple(counts)


def residue_vector(g: ColoredGraph) -> tuple[int, ...]:
    """Residue counts of every color subset, indexed by bitmask.

    Entry ``mask`` is the number of components of the graph restricted to
    the colors whose bits are set; entry 0 is the vertex count.  Built once per
    graph, on first use, and kept on it.
    """
    vec = g._vector
    if vec is None:
        vec = _build_vector(g.order, g.matchings)
        object.__setattr__(g, "_vector", vec)
    return vec


def _pair_vector(g: ColoredGraph) -> tuple[int | None, ...]:
    """Residue counts of the empty set, the single colors and the color pairs.

    The graph's own vector when it holds one; otherwise a vector counted for
    those sets alone, whose larger entries are None.  That one is not kept
    on the graph, so :func:`residue_vector` only ever hands out a full one.
    """
    vec = g._vector
    return _build_vector(g.order, g.matchings, 2) if vec is None else vec


def residue_count(g: ColoredGraph, colors: Iterable[int]) -> int:
    """Number of connected components of the graph restricted to these colors.

    The empty color set yields one component per vertex.
    """
    return residue_vector(g)[_color_mask(g, colors)]


def residue_table(g: ColoredGraph) -> dict[frozenset[int], int]:
    """Residue counts for every subset of the color set, keyed by frozenset."""
    vec = residue_vector(g)
    return {
        frozenset(b): vec[sum(1 << c for c in b)]
        for h in range(g.d + 2)
        for b in combinations(g.colors, h)
    }


def _component_labels(g: ColoredGraph, colors: Iterable[int]) -> tuple[list[int], list[int]]:
    """Component labels of the residue keeping ``colors``, by one walk per
    component.

    ``label[v]`` is the component of vertex ``v + 1``; components are
    numbered by least vertex, and ``sizes[k]`` is the order of component k.
    A component's walk reads its vertices in the order they are found,
    appending each newly labelled one, so the list it ends with is the
    component and its length the size.
    """
    mus = [g.matchings[c] for c in colors]
    label = [-1] * g.order
    sizes = []
    for start in range(g.order):
        if label[start] < 0:
            k = len(sizes)
            label[start] = k
            found = [start]
            for v in found:  # the list grows as it is read
                for mu in mus:
                    w = mu[v] - 1
                    if label[w] < 0:
                        label[w] = k
                        found.append(w)
            sizes.append(len(found))
    return label, sizes


def is_connected(g: ColoredGraph) -> bool:
    """Whether the walk over all colors from vertex 1 reaches every vertex;
    the answer is kept on the graph."""
    connected = g._connected
    if connected is None:
        mus = g.matchings
        found = [1]
        seen = [False] * (g.order + 1)
        seen[1] = True
        for v in found:  # the list grows as it is read
            for mu in mus:
                w = mu[v - 1]
                if not seen[w]:
                    seen[w] = True
                    found.append(w)
        connected = len(found) == g.order
        object.__setattr__(g, "_connected", connected)
    return connected


def _require_connected(g: ColoredGraph, what: str) -> None:
    """Refuse a disconnected graph: ``what`` requires a connected one."""
    if not is_connected(g):
        raise GemError(f"{what} requires a connected graph")


def is_bipartite(g: ColoredGraph) -> bool:
    """Breadth-first 2-coloring over all components of the underlying
    multigraph, by one walk per component."""
    side = [0] * (g.order + 1)
    for start in range(1, g.order + 1):
        if side[start]:
            continue
        side[start] = 1
        found = [start]
        for v in found:  # the list grows as it is read
            for mu in g.matchings:
                w = mu[v - 1]
                if side[w] == 0:
                    side[w] = -side[v]
                    found.append(w)
                elif side[w] == side[v]:
                    return False
    return True


def simplex_counts(g: ColoredGraph) -> tuple[int, ...]:
    """Counts (N_0, ..., N_d) of k-simplices of the associated pseudocomplex.

    The (d-h)-simplices correspond to the residues over the h-element color
    sets, so N_{d-h} is the sum of g_B over all B of size h; in particular
    N_d equals the graph order.
    """
    out = [0] * (g.d + 1)
    vec = residue_vector(g)
    for mask in range(len(vec) - 1):
        out[g.d - mask.bit_count()] += vec[mask]
    return tuple(out)


def euler_characteristic_complex(g: ColoredGraph) -> int:
    """Alternating sum of the simplex counts of the associated pseudocomplex."""
    return sum((-1) ** k * n for k, n in enumerate(simplex_counts(g)))


def serialize_gem(g: ColoredGraph) -> str:
    """Serialize to the JSON wire format (ascending colors, 1-based vertices)."""
    doc = {
        "d": g.d,
        "vertices": g.order,
        "matchings": [list(mu) for mu in g.matchings],
    }
    return json.dumps(doc)


def parse_gem(text: str) -> ColoredGraph:
    """Parse and validate a gem document.

    Raises :class:`GemError` for malformed or too deeply nested JSON, wrong
    field types, a wrong color count, an odd vertex count, loops, or
    non-involutive matchings, naming the offending color or vertex.
    """
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise GemError(f"malformed gem document: {exc}") from None
    if not isinstance(doc, dict):
        raise GemError("gem document must be a JSON object")
    for key in ("d", "vertices", "matchings"):
        if key not in doc:
            raise GemError(f"gem document missing field {key!r}")
    d, vertices, matchings = doc["d"], doc["vertices"], doc["matchings"]
    if not isinstance(d, int) or isinstance(d, bool):
        raise GemError("field 'd' must be an integer")
    if d < 2:
        raise GemError(f"gem documents require dimension >= 2, got {d}")
    check_dimension(d)
    if not isinstance(vertices, int) or isinstance(vertices, bool):
        raise GemError("field 'vertices' must be an integer")
    if not isinstance(matchings, list):
        raise GemError("field 'matchings' must be a list")
    if len(matchings) != d + 1:
        raise GemError(f"expected {d + 1} matchings for d={d}, got {len(matchings)}")
    mats = []
    for c, mu in enumerate(matchings):
        if not isinstance(mu, list) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in mu
        ):
            raise GemError(f"color {c}: matching must be a list of integers")
        mats.append(tuple(mu))
    return ColoredGraph(d=d, order=vertices, matchings=tuple(mats))
