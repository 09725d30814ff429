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
from collections import deque
from dataclasses import dataclass, field
from itertools import combinations
from math import factorial
from typing import Iterable, Mapping

__all__ = [
    "ENUMERATION_BUDGET",
    "MAX_DIMENSION",
    "ColoredGraph",
    "GemError",
    "ResidueTable",
    "check_dimension",
    "euler_characteristic_complex",
    "is_bipartite",
    "is_connected",
    "parse_gem",
    "residue_components",
    "residue_count",
    "residue_table",
    "residue_vector",
    "serialize_gem",
    "simplex_counts",
    "subgraph",
]


class GemError(ValueError):
    """A document, matching family, or operation argument violates the gem contract."""


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


@dataclass(frozen=True)
class ColoredGraph:
    """Immutable (d+1)-edge-colored graph given by one involution per color.

    Top-level gems have ``d >= 2``; lower-dimensional values are allowed so
    that residues extracted by :func:`subgraph` are themselves graphs.
    ``source_colors`` records, for a residue, which original color each
    relabeled color came from; it does not participate in equality.
    """

    d: int
    order: int
    matchings: tuple[tuple[int, ...], ...]
    source_colors: tuple[int, ...] | None = field(default=None, compare=False)
    _vector: tuple[int, ...] | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.d < 0:
            raise GemError(f"dimension must be non-negative, got {self.d}")
        if self.order <= 0 or self.order % 2:
            raise GemError(f"vertex count must be a positive even number, got {self.order}")
        if len(self.matchings) != self.d + 1:
            raise GemError(
                f"expected {self.d + 1} matchings for dimension {self.d}, "
                f"got {len(self.matchings)}"
            )
        for c, mu in enumerate(self.matchings):
            if len(mu) != self.order:
                raise GemError(
                    f"color {c}: matching has {len(mu)} entries, expected {self.order}"
                )
            for v in range(1, self.order + 1):
                w = mu[v - 1]
                if not isinstance(w, int) or not 1 <= w <= self.order:
                    raise GemError(f"color {c}: vertex {v} is matched outside 1..{self.order}")
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


def _sorted_colors(g: ColoredGraph, colors: Iterable[int]) -> list[int]:
    mask = _color_mask(g, colors)
    return [c for c in g.colors if mask >> c & 1]


def _build_vector(order: int, matchings: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Component counts of every color subset, by subset DP over union-find.

    The components of ``mask`` are those of ``mask`` minus its top color,
    merged along the edges of that color: one union-find pass over the
    component labels of the smaller set.  Labels are kept only for sets
    without the last color, the only ones that are ever extended.
    """
    n = len(matchings)
    edges = [[(v, w - 1) for v, w in enumerate(mu) if v < w - 1] for mu in matchings]
    counts = [0] * (1 << n)
    counts[0] = order
    extended = 1 << (n - 1)
    labels: list[list[int]] = [list(range(order))] + [[]] * (extended - 1)
    for mask in range(1, 1 << n):
        top = mask.bit_length() - 1
        rest = mask ^ (1 << top)
        label = labels[rest]
        parent = list(range(order))
        count = counts[rest]
        for v, w in edges[top]:
            a = label[v]
            while parent[a] != a:
                a = parent[a]
            b = label[w]
            while parent[b] != b:
                b = parent[b]
            if a != b:
                parent[b] = a
                count -= 1
        counts[mask] = count
        if mask < extended:
            for x in range(order):
                r = x
                while parent[r] != r:
                    r = parent[r]
                parent[x] = r
            labels[mask] = [parent[x] for x in label]
    return tuple(counts)


def residue_vector(g: ColoredGraph) -> tuple[int, ...]:
    """Residue counts of every color subset, indexed by bitmask.

    Entry ``mask`` is the number of components of the subgraph keeping the
    colors whose bits are set; entry 0 is the vertex count.  Built once per
    graph, on first use, and kept on it.
    """
    vec = g._vector
    if vec is None:
        vec = _build_vector(g.order, g.matchings)
        object.__setattr__(g, "_vector", vec)
    return vec


def residue_count(g: ColoredGraph, colors: Iterable[int]) -> int:
    """Number of connected components of the subgraph keeping only these colors.

    The empty color set yields one component per vertex.
    """
    return residue_vector(g)[_color_mask(g, colors)]


@dataclass(frozen=True, eq=False)
class ResidueTable:
    """All residue counts of a graph, keyed by color subset."""

    d: int
    order: int
    counts: Mapping[frozenset[int], int]

    def __getitem__(self, colors: Iterable[int]) -> int:
        return self.counts[frozenset(colors)]


def residue_table(g: ColoredGraph) -> ResidueTable:
    """Residue counts for every subset of the color set, keyed by frozenset."""
    vec = residue_vector(g)
    counts = {}
    for h in range(g.d + 2):
        for b in combinations(g.colors, h):
            counts[frozenset(b)] = vec[sum(1 << c for c in b)]
    return ResidueTable(d=g.d, order=g.order, counts=counts)


def is_connected(g: ColoredGraph) -> bool:
    """One breadth-first walk over all colors, or a lookup once the vector exists."""
    if g._vector is not None:
        return g._vector[-1] == 1
    return len(_component_vertices(g, list(g.colors), 1)) == g.order


def is_bipartite(g: ColoredGraph) -> bool:
    """Breadth-first 2-coloring over all components of the underlying multigraph."""
    side = [0] * (g.order + 1)
    for start in range(1, g.order + 1):
        if side[start]:
            continue
        side[start] = 1
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for mu in g.matchings:
                w = mu[v - 1]
                if side[w] == 0:
                    side[w] = -side[v]
                    queue.append(w)
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


def _component_vertices(g: ColoredGraph, b: list[int], start: int) -> list[int]:
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for c in b:
            w = g.matchings[c][v - 1]
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return sorted(seen)


def _extract(g: ColoredGraph, b: list[int], verts: list[int]) -> ColoredGraph:
    index = {v: i + 1 for i, v in enumerate(verts)}
    mats = tuple(tuple(index[g.matchings[c][v - 1]] for v in verts) for c in b)
    return ColoredGraph(
        d=len(b) - 1,
        order=len(verts),
        matchings=mats,
        source_colors=tuple(b),
    )


def subgraph(g: ColoredGraph, colors: Iterable[int], component_of: int) -> ColoredGraph:
    """The component of a vertex in the chosen-colors subgraph, as a standalone graph.

    Vertices are re-indexed to 1..2p' preserving their original order and
    colors are relabeled to 0..#B-1 in ascending order of the original
    colors, which are retained in ``source_colors``.
    """
    b = _sorted_colors(g, colors)
    if not b:
        raise GemError("subgraph needs a non-empty color set")
    if not 1 <= component_of <= g.order:
        raise GemError(f"vertex {component_of} out of range 1..{g.order}")
    return _extract(g, b, _component_vertices(g, b, component_of))


def residue_components(g: ColoredGraph, colors: Iterable[int]) -> list[ColoredGraph]:
    """All components of the chosen-colors subgraph, ordered by least vertex."""
    b = _sorted_colors(g, colors)
    if not b:
        raise GemError("residue components need a non-empty color set")
    out = []
    remaining = set(range(1, g.order + 1))
    while remaining:
        verts = _component_vertices(g, b, min(remaining))
        remaining.difference_update(verts)
        out.append(_extract(g, b, verts))
    return out


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

    Raises :class:`GemError` for malformed JSON, wrong field types, a wrong
    color count, an odd vertex count, loops, or non-involutive matchings,
    naming the offending color or vertex.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
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
