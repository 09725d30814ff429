"""Five-colored graphs: associated permutations, singular-manifold recognition,
Euler-characteristic identities, and crystallization profiles.

With five colors every cyclic permutation e has an associated partner
e' = (e_0, e_2, e_4, e_1, e_3); the edges of e and e' jointly exhaust the
ten color pairs, the degree equals six times the genus sum of any such
pair, and the six pairs are exactly the classes of the (unique) odd
partition for n = 5.

Every identity reads its residue counts from the graph's residue vector
and its genera as integer "twice" values (see ``genus_twices``), through
index tables built once.  Singular-manifold recognition and the component
side of the residue-degree identity are the exception: one walk over the
graph's bicolored cycles keeps a vertex of each cycle, a breadth-first pass
over the matchings labels the components of each residue, and each cycle
is counted as a face of its component.  Neither side therefore collapses
into an algebraic consequence of the vector it is checked against.
Manifold recognition labels only 3-colored residues: each 3-colored
residue of a 4-colored residue component is a 3-colored residue of the
whole graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Mapping, NamedTuple

from .core import (
    ColoredGraph,
    GemError,
    euler_characteristic_complex,
    is_bipartite,
    is_connected,
    residue_vector,
)
from .embeddings import (
    HalfInt,
    _bicolored_cycles,
    canonical_perm,
    cyclic_permutations,
    genus_twices,
    pair_residue_sum,
)
from .perms import CyclicPerm, cycle_masks, perm_index

__all__ = [
    "ClassificationResult",
    "CrystallizationProfile",
    "SurfaceType",
    "associated_pairs",
    "associated_permutation",
    "check_corollary_12rho",
    "check_difference_a",
    "check_difference_b",
    "check_identities",
    "classify_crystallization",
    "consecutive_triples",
    "crystallization_profile",
    "euler_char_via_genus",
    "is_closed_3_manifold",
    "is_singular_4_manifold",
    "residue_degree_identity",
    "skip_triples",
    "surface_type",
]

SEMI_SIMPLE = "semi_simple"
WEAK_SEMI_SIMPLE = "weak_semi_simple"
NEITHER = "neither"


def _require_d(g: ColoredGraph, d: int) -> None:
    if g.d != d:
        raise GemError(f"operation defined for {d + 1}-colored graphs, got d={g.d}")


def associated_permutation(eps: CyclicPerm) -> CyclicPerm:
    """The partner (e_0, e_2, e_4, e_1, e_3), in canonical form.

    Association is an involution up to canonical form, and the edges of a
    permutation together with the edges of its partner cover every
    unordered pair of the five colors exactly once.
    """
    if len(eps) != 5:
        raise GemError(f"associated permutations need five colors, got {len(eps)}")
    e = canonical_perm(eps)
    return canonical_perm((e[0], e[2], e[4], e[1], e[3]))


@lru_cache(maxsize=1)
def associated_pairs() -> tuple[tuple[CyclicPerm, CyclicPerm], ...]:
    """The six unordered pairs {e, e'} among the twelve canonical permutations."""
    out = []
    for eps in cyclic_permutations(4):
        partner = associated_permutation(eps)
        if eps < partner:
            out.append((eps, partner))
    return tuple(out)


def consecutive_triples(eps: CyclicPerm) -> list[tuple[int, int, int]]:
    """Sorted triples (e_i, e_{i+1}, e_{i+2}) for i over the cyclic index set."""
    return [
        tuple(sorted((eps[i], eps[(i + 1) % 5], eps[(i + 2) % 5])))
        for i in range(5)
    ]


def skip_triples(eps: CyclicPerm) -> list[tuple[int, int, int]]:
    """Sorted triples (e_i, e_{i+2}, e_{i+4}); together with the consecutive
    triples these exhaust all ten color triples."""
    return [
        tuple(sorted((eps[i], eps[(i + 2) % 5], eps[(i + 4) % 5])))
        for i in range(5)
    ]


def _mask(colors) -> int:
    return sum(1 << c for c in colors)


# Index tables over cyclic_permutations(4), read by every identity below.
_PERMS = cyclic_permutations(4)
_PARTNER = tuple(perm_index(4)[associated_permutation(eps)] for eps in _PERMS)
_PAIRS = tuple((perm_index(4)[a], perm_index(4)[b]) for a, b in associated_pairs())
_ADJACENT, _SKIP = cycle_masks(4, 1), cycle_masks(4, 2)  # pairs (e_j, e_{j+1}), (e_j, e_{j+2})
_CONSECUTIVE3 = tuple(tuple(consecutive_triples(eps)) for eps in _PERMS)
_SKIP3 = tuple(tuple(skip_triples(eps)) for eps in _PERMS)
_TRIPLE_MASK = {t: _mask(t) for t in combinations(range(5), 3)}
_TRIPLE_PAIRS = tuple(  # (rst, rs, rt, st) masks of the ten triples
    (m,) + tuple(_mask(pr) for pr in combinations(t, 2)) for t, m in _TRIPLE_MASK.items()
)
_HATS = tuple(0b11111 ^ (1 << i) for i in range(5))  # the colors other than i


def _index(eps: CyclicPerm) -> int:
    """Position of a five-color cyclic permutation in ``cyclic_permutations(4)``."""
    if len(eps) != 5:
        raise GemError(f"associated permutations need five colors, got {len(eps)}")
    return perm_index(4)[canonical_perm(eps)]


def _hat_sum(vec: tuple[int, ...]) -> int:
    return sum(vec[m] for m in _HATS)


class SurfaceType(NamedTuple):
    orientable: bool
    euler: int
    genus: HalfInt  # orientable genus, or half the non-orientable genus


def _surface_euler(g: ColoredGraph) -> int:
    # connected 3-colored graph: faces minus edges plus vertices
    return pair_residue_sum(g) - g.p


def surface_type(g: ColoredGraph) -> SurfaceType:
    """Orientability, Euler characteristic, and genus of a 3-colored graph's surface."""
    _require_d(g, 2)
    if not is_connected(g):
        raise GemError("surface type requires a connected graph")
    chi = _surface_euler(g)
    return SurfaceType(is_bipartite(g), chi, HalfInt(2 - chi))


def _component_faces(
    g: ColoredGraph, cycles: dict[tuple[int, int], list[int]], colors: tuple[int, ...]
) -> list[tuple[int, int]]:
    """(faces, p_c) of every component of the residue keeping ``colors``, ordered
    by least vertex: faces counts the component's bicolored cycles, and p_c is
    half its order."""
    mus = [g.matchings[c] for c in colors]
    label = [-1] * g.order
    sizes = []
    for start in range(g.order):
        if label[start] < 0:
            k = len(sizes)
            label[start] = k
            stack = [start]
            size = 1
            while stack:
                v = stack.pop()
                for mu in mus:
                    w = mu[v] - 1
                    if label[w] < 0:
                        label[w] = k
                        stack.append(w)
                        size += 1
            sizes.append(size)
    faces = [0] * len(sizes)
    for pair in combinations(colors, 2):
        for v in cycles[pair]:
            faces[label[v]] += 1
    return [(f, size // 2) for f, size in zip(faces, sizes)]


def _spherical_triples(g: ColoredGraph, cycles: dict[tuple[int, int], list[int]]) -> bool:
    """True iff every component of every 3-colored residue is a sphere
    (Euler characteristic faces - p_c = 2)."""
    return all(
        faces - p_c == 2
        for triple in combinations(g.colors, 3)
        for faces, p_c in _component_faces(g, cycles, triple)
    )


@lru_cache(maxsize=4096)
def is_closed_3_manifold(g: ColoredGraph) -> bool:
    """True iff every 3-colored residue component of the 4-colored graph is a sphere."""
    _require_d(g, 3)
    return _spherical_triples(g, _bicolored_cycles(g))


@lru_cache(maxsize=4096)
def is_singular_4_manifold(g: ColoredGraph) -> bool:
    """True iff every 4-colored residue component represents a closed 3-manifold,
    that is, iff every 3-colored residue component is a sphere."""
    _require_d(g, 4)
    if not is_connected(g):
        raise GemError("singular-manifold recognition requires a connected graph")
    return _spherical_triples(g, _bicolored_cycles(g))


def _require_singular(g: ColoredGraph, what: str) -> None:
    _require_d(g, 4)
    if not is_singular_4_manifold(g):
        raise GemError(f"{what} requires a singular-manifold graph")


def _euler_via_pair(vec: tuple[int, ...], twices: tuple[int, ...], i: int, p: int) -> int:
    twice = twices[i] + twices[_PARTNER[i]] + 2 * (_hat_sum(vec) - p - 2)
    if twice % 2:
        raise GemError("internal invariant violation: non-integral Euler characteristic")
    return twice // 2


def euler_char_via_genus(g: ColoredGraph, eps: CyclicPerm) -> int:
    """Euler characteristic of the represented singular 4-manifold from one
    associated pair: (rho_e + rho_e') - p + sum g_hat - 2.

    Must equal the simplicial Euler characteristic and not depend on eps.
    """
    _require_singular(g, "Euler characteristic via genera")
    return _euler_via_pair(residue_vector(g), genus_twices(g), _index(eps), g.p)


def _adjacent_minus_skip(vec: tuple[int, ...], i: int) -> int:
    return sum([vec[m] for m in _ADJACENT[i]]) - sum([vec[m] for m in _SKIP[i]])


def _difference_a(vec: tuple[int, ...], twices: tuple[int, ...], i: int) -> bool:
    return twices[_PARTNER[i]] - twices[i] == _adjacent_minus_skip(vec, i)


def check_difference_a(g: ColoredGraph, eps: CyclicPerm) -> bool:
    """Exact identity 2(rho_e' - rho_e) = sum g_{e_j e_{j+1}} - sum g_{e_j e_{j+2}}.

    Holds for every 5-colored graph; a False return signals an
    implementation bug, not a property of the input.
    """
    _require_d(g, 4)
    i = _index(eps)
    return _difference_a(residue_vector(g), genus_twices(g), i)


def _difference_b(vec: tuple[int, ...], twices: tuple[int, ...], i: int) -> bool:
    consec = sum(vec[_TRIPLE_MASK[t]] for t in _CONSECUTIVE3[i])
    skip = sum(vec[_TRIPLE_MASK[t]] for t in _SKIP3[i])
    return twices[_PARTNER[i]] - twices[i] == 2 * (consec - skip)


def _triple_relation(vec: tuple[int, ...], p: int) -> bool:
    # 2 g_{rst} = g_{rs} + g_{rt} + g_{st} - p on all ten triples
    return all(
        2 * vec[rst] == vec[rs] + vec[rt] + vec[st] - p
        for rst, rs, rt, st in _TRIPLE_PAIRS
    )


def check_difference_b(g: ColoredGraph, eps: CyclicPerm) -> bool:
    """Triple-residue form of the genus difference, on singular-manifold graphs.

    Computes rho_e' - rho_e against the difference of actual triple-residue
    sums, and separately cross-checks the relation
    2 g_{rst} = g_{rs} + g_{rt} + g_{st} - p on all ten triples.
    """
    _require_singular(g, "triple-residue difference")
    vec = residue_vector(g)
    return _difference_b(vec, genus_twices(g), _index(eps)) and _triple_relation(vec, g.p)


def _corollary_12rho(vec: tuple[int, ...], twices: tuple[int, ...]) -> tuple[bool, bool]:
    left = sum(twices) == 12 * min(twices)
    right = all(_adjacent_minus_skip(vec, i) == 0 for i in range(len(twices)))
    return left, right


def check_corollary_12rho(g: ColoredGraph) -> tuple[bool, bool]:
    """Evaluate both sides of the minimal-degree criterion independently.

    Left: the degree equals twelve times the regular genus.  Right: the
    adjacent-pair and skip-pair residue sums agree for every permutation.
    The two must co-occur.
    """
    _require_d(g, 4)
    twices = genus_twices(g)
    return _corollary_12rho(residue_vector(g), twices)


@dataclass(frozen=True)
class CrystallizationProfile:
    """Ledger (m, g_{jkl}, t_{jkl}, q, p_bar) of a crystallization of a closed
    4-manifold with first-homotopy rank m; p = p_bar + q must hold."""

    m: int
    euler: int
    half_order: int
    g_triples: Mapping[tuple[int, int, int], int]
    t_triples: Mapping[tuple[int, int, int], int]
    q: int
    p_bar: int


def crystallization_profile(g: ColoredGraph, m: int) -> CrystallizationProfile:
    """Build and validate the triple-residue ledger for a crystallization.

    The caller asserts that the graph is a crystallization of a closed
    4-manifold whose fundamental group has rank m; that assertion is
    validated only through the decidable consequences: connected 4-colored
    residues, the singular-manifold residue test, t_{jkl} >= 0, and the
    half-order identity p = 3*chi + 5(2m-1) + q.
    """
    _require_d(g, 4)
    if m < 0:
        raise GemError(f"rank metadata must be non-negative, got {m}")
    vec = residue_vector(g)
    for i, hat in enumerate(_HATS):
        if vec[hat] != 1:
            raise GemError(f"residue missing color {i} is disconnected: not a crystallization")
    if not is_singular_4_manifold(g):
        raise GemError("graph fails the singular-manifold residue test")
    return _ledger(g, vec, m)


def _ledger(g: ColoredGraph, vec: tuple[int, ...], m: int) -> CrystallizationProfile:
    """The profile of a graph already known to pass the residue tests."""
    chi = euler_characteristic_complex(g)
    g_triples = {t: vec[mask] for t, mask in _TRIPLE_MASK.items()}
    t_triples = {t: v - 1 - m for t, v in g_triples.items()}
    for t, v in t_triples.items():
        if v < 0:
            raise GemError(
                f"rank metadata m={m} inconsistent: triple residue {t} has count "
                f"{g_triples[t]} < 1+m"
            )
    q = sum(t_triples.values())
    p_bar = 3 * chi + 5 * (2 * m - 1)
    if g.p != p_bar + q:
        raise GemError(
            f"half-order identity failed: p={g.p} but 3*chi+5*(2m-1)+q = {p_bar + q}; "
            "the closed-manifold/rank metadata is inconsistent with the graph"
        )
    return CrystallizationProfile(
        m=m,
        euler=chi,
        half_order=g.p,
        g_triples=g_triples,
        t_triples=t_triples,
        q=q,
        p_bar=p_bar,
    )


@dataclass(frozen=True)
class ClassificationResult:
    kind: str  # semi_simple | weak_semi_simple | neither
    witness: CyclicPerm | None
    satisfies_12rho: bool


def classify_crystallization(
    profile: CrystallizationProfile, g: ColoredGraph
) -> ClassificationResult:
    """Classify a profiled crystallization by its vanishing triple excesses.

    Semi-simple means every t_{jkl} is zero (q = 0); weak semi-simple means
    some permutation has all five consecutive-triple excesses zero, and the
    witness is the first such permutation.  Three equivalent statements are
    co-evaluated and must agree: the existence of a permutation whose
    associated-partner genus exceeds its own by exactly q, the witness
    existence, and the regular genus hitting 2*chi + 5m - 4.  Their
    disagreement, and a profile with q <= 2 but no witness, are reported as
    invariant violations rather than reconciled.
    """
    if g.p != profile.half_order:
        raise GemError("profile does not belong to this graph")
    return _classify(profile, residue_vector(g), genus_twices(g))


def _classify(
    profile: CrystallizationProfile, vec: tuple[int, ...], twices: tuple[int, ...]
) -> ClassificationResult:
    t = profile.t_triples
    witness = next(
        (_PERMS[i] for i, tris in enumerate(_CONSECUTIVE3) if all(t[tri] == 0 for tri in tris)),
        None,
    )
    stmt_witness = witness is not None
    stmt_gap = any(
        twices[j] - twices[i] == 2 * profile.q for i, j in enumerate(_PARTNER)
    )
    stmt_genus = min(twices) == 2 * (2 * profile.euler + 5 * profile.m - 4)
    if not (stmt_gap == stmt_witness == stmt_genus):
        raise GemError(
            "internal invariant violation: classification statements disagree "
            f"(gap={stmt_gap}, witness={stmt_witness}, genus={stmt_genus})"
        )
    left, right = _corollary_12rho(vec, twices)
    if left != right:
        raise GemError(
            "internal invariant violation: minimal-degree criterion sides disagree"
        )
    if profile.q == 0:
        kind = SEMI_SIMPLE
    elif stmt_witness:
        kind = WEAK_SEMI_SIMPLE
    else:
        kind = NEITHER
    if profile.q <= 2 and kind == NEITHER:
        raise GemError(
            "internal invariant violation: q <= 2 must force a consecutive-triple witness"
        )
    if (profile.q == 0) != (stmt_witness and left):
        raise GemError(
            "internal invariant violation: vanishing excess must coincide with "
            "witness existence plus the minimal-degree property"
        )
    return ClassificationResult(kind=kind, witness=witness, satisfies_12rho=left)


def _residue_degree_holds(
    g: ColoredGraph,
    cycles: dict[tuple[int, int], list[int]],
    vec: tuple[int, ...],
    omega_twice: int,
) -> bool:
    # at d = 3 a component's degree is its reduced degree 3 + 3 p_c - faces
    total = sum(
        3 + 3 * p_c - faces
        for hat in combinations(g.colors, 4)
        for faces, p_c in _component_faces(g, cycles, hat)
    )
    return omega_twice == 6 * (g.p + 4 - _hat_sum(vec)) + 2 * total and total % 3 == 0


def residue_degree_identity(g: ColoredGraph) -> bool:
    """Degree of the graph against the degrees of its 4-colored residues.

    Checks omega = 3*(p + 4 - sum g_hat) + sum of the component degrees of
    the five residues (components computed at d = 3 by the closed formula),
    and that the component-degree total is a multiple of three.
    """
    _require_d(g, 4)
    if not is_connected(g):
        raise GemError("the residue-degree identity requires a connected graph")
    return _residue_degree_holds(
        g, _bicolored_cycles(g), residue_vector(g), sum(genus_twices(g))
    )


# --- the five-color part of the identity battery -----------------------------


def check_identities(
    g: ColoredGraph, twices: tuple[int, ...], flags: dict, checks: dict
) -> None:
    """Evaluate the five-color identities of one connected graph into the
    battery's ``flags`` and ``checks``.

    ``twices`` is :func:`genus_twices` of the graph; ``flags`` already holds
    ``bipartite`` and, where computed, ``odd_reduced_degree``.  One walk
    over the bicolored cycles serves every residue: the singular test
    labels the ten 3-colored residues and stops at the first non-sphere,
    and the residue-degree identity labels the five 4-colored ones.
    """
    vec = residue_vector(g)
    omega_twice = sum(twices)
    cycles = _bicolored_cycles(g)
    singular = _spherical_triples(g, cycles)
    flags["singular_manifold"] = singular

    pair_twices = [twices[a] + twices[b] for a, b in _PAIRS]
    checks["pair_degree_identity"] = all(omega_twice == 6 * t for t in pair_twices)
    pair_sum_twice = 2 * (2 + 3 * g.p) - sum(map(len, cycles.values()))
    checks["pair_sum_constant"] = all(t == pair_sum_twice for t in pair_twices)
    checks["pair_difference_bicolored"] = all(
        _difference_a(vec, twices, i) for i in range(len(twices))
    )
    left, right = _corollary_12rho(vec, twices)
    checks["minimal_degree_biconditional"] = left == right
    if flags.get("odd_reduced_degree"):
        checks["odd_reduced_forces_nonorientable"] = not flags["bipartite"] and not singular
    checks["residue_degree_identity"] = _residue_degree_holds(g, cycles, vec, omega_twice)
    if not singular:
        return

    checks["singular_degree_divisibility"] = omega_twice >= 0 and omega_twice % 12 == 0
    checks["pair_difference_tricolored"] = all(
        _difference_b(vec, twices, i) for i in range(len(twices))
    ) and _triple_relation(vec, g.p)
    chi = euler_characteristic_complex(g)
    checks["euler_formula_agreement"] = all(
        _euler_via_pair(vec, twices, a, g.p) == chi for a, _ in _PAIRS
    )
    if all(vec[hat] == 1 for hat in _HATS):
        _crystallization_checks(g, vec, twices, flags, checks)


def _crystallization_checks(g, vec, twices, flags, checks) -> None:
    """Profile the graph with rank 0 asserted and check the excess identities."""
    try:
        profile = _ledger(g, vec, 0)
    except GemError:
        checks["crystallization_profile_consistent"] = False
        return
    checks["crystallization_profile_consistent"] = True
    flags["crystallization_profile"] = True
    q = profile.q
    base = 2 * profile.euler + 5 * profile.m - 4

    ok_diff = ok_offset = True
    for i, partner in enumerate(_PARTNER):
        skip_excess = sum(profile.t_triples[t] for t in _SKIP3[i])
        diff_twice = twices[partner] - twices[i]
        if diff_twice != 2 * (q - 2 * skip_excess) or diff_twice > 2 * q:
            ok_diff = False
        if twices[i] != 2 * (base + skip_excess):
            ok_offset = False
    checks["excess_difference_identity"] = ok_diff
    checks["excess_genus_offset"] = ok_offset
    checks["excess_pair_sum"] = all(
        twices[a] + twices[b] == 2 * (2 * base + q) for a, b in _PAIRS
    )
    try:
        _classify(profile, vec, twices)
        checks["classification_consistent"] = True
    except GemError:
        checks["classification_consistent"] = False

    chi, m, p = profile.euler, profile.m, g.p
    ok_bounds = True
    for a, b in _PAIRS:
        lo, hi = sorted((twices[a], twices[b]))
        # chi between 2*rho - p + 3 for the two genera of the pair
        if not (lo - p + 3 <= chi <= hi - p + 3):
            ok_bounds = False
        # quarter-resolution chain, scaled by 4
        if not (8 + lo - 10 * m - q <= 4 * chi <= 8 + hi - 10 * m - q):
            ok_bounds = False
        # single-genus chains on the smaller genus of the pair
        if not (lo - p + 3 <= chi <= lo - p + q + 3):
            ok_bounds = False
        if not (8 + lo - 10 * m - q <= 4 * chi <= 8 + lo - 10 * m):
            ok_bounds = False
    checks["euler_bounds"] = ok_bounds
