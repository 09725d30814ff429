"""Four- and five-colored graphs: closed 3-manifold and singular-manifold
recognition, associated permutations, Euler-characteristic identities, and
crystallization profiles.  The surface of a three-colored graph, its one
regular embedding, lives with the genera in ``embeddings``.

With five colors every cyclic permutation e has an associated partner
e' = (e_0, e_2, e_4, e_1, e_3); the edges of e and e' jointly exhaust the
ten color pairs, the degree equals six times the genus sum of any such
pair, and the six pairs are exactly the classes of the (unique) odd
partition for n = 5.

Every identity reads its residue counts from the graph's residue vector
and its genera as integer "twice" values (see ``genus_twices``), through
index tables built once.  The battery's pair gaps, singular-manifold
recognition and the component side of the residue-degree identity are the
exception: one walk over the graph's bicolored cycles (in the battery, the
walk it hands to ``check_identities``) keeps a vertex of each cycle, and a
label walk over the matchings numbers the components of each residue.
The battery reads the adjacent-minus-skip pair sums of the twelve
permutations off that walk once per graph, as one gap tuple.
Singular-manifold recognition labels the 3-colored residues and counts
each cycle as a face of its component; the residue-degree identity counts
the components of the five 4-colored residues, whose cycles are three times
the walk's (each color pair lies in three of them).  No side
therefore collapses into an algebraic consequence of the vector it is
checked against.  Manifold recognition labels only 3-colored residues:
each 3-colored residue of a 4-colored residue component is a 3-colored
residue of the whole graph.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from operator import itemgetter, sub
from typing import Mapping, NamedTuple, Sequence

from .core import (
    ColoredGraph,
    GemError,
    InvariantViolation,
    _component_labels,
    _require_connected,
    euler_characteristic_complex,
    residue_vector,
)
from .embeddings import _bicolored_cycles, _require_d, genus_twices
from .perms import CyclicPerm, canonical_perm, cycle_masks, cyclic_permutations, perm_index

__all__ = [
    "ClassificationResult",
    "CrystallizationProfile",
    "associated_pairs",
    "associated_permutation",
    "check_identities",
    "classify_crystallization",
    "consecutive_triples",
    "crystallization_profile",
    "is_closed_3_manifold",
    "is_singular_4_manifold",
    "residue_degree_identity",
    "skip_triples",
]

SEMI_SIMPLE = "semi_simple"
WEAK_SEMI_SIMPLE = "weak_semi_simple"
NEITHER = "neither"


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
# the genera of the partners, in permutation order
_PARTNER_OF = itemgetter(*(perm_index(4)[associated_permutation(eps)] for eps in _PERMS))
_PAIRS = tuple((perm_index(4)[a], perm_index(4)[b]) for a, b in associated_pairs())
_CONSECUTIVE3 = tuple(tuple(consecutive_triples(eps)) for eps in _PERMS)
_SKIP3 = tuple(tuple(skip_triples(eps)) for eps in _PERMS)
# per permutation, five masks counted plus and then five counted minus: the
# pairs (e_j, e_{j+1}) against (e_j, e_{j+2}), and the consecutive triples
# against the skip triples
_PAIR_GAP_MASKS = tuple(a + s for a, s in zip(cycle_masks(4, 1), cycle_masks(4, 2)))
_TRIPLE_GAP_MASKS = tuple(tuple(map(_mask, c + s)) for c, s in zip(_CONSECUTIVE3, _SKIP3))
_TRIPLE_MASK = {t: _mask(t) for t in combinations(range(5), 3)}
_TRIPLE_PAIRS = tuple(  # (rst, rs, rt, st) masks of the ten triples
    (m,) + tuple(_mask(pr) for pr in combinations(t, 2)) for t, m in _TRIPLE_MASK.items()
)
_HAT_COLORS = tuple(tuple(c for c in range(5) if c != i) for i in range(5))  # all but i
_HATS = tuple(map(_mask, _HAT_COLORS))
_HAT_COUNTS = itemgetter(*_HATS)


def _hat_sum(vec: tuple[int, ...]) -> int:
    return sum(_HAT_COUNTS(vec))


def _gaps(vec: Sequence[int], masks: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Per permutation, the counts under its first five masks minus those under
    its last five."""
    return tuple([
        vec[a] + vec[b] + vec[c] + vec[d] + vec[e] - vec[f] - vec[g] - vec[h] - vec[i] - vec[j]
        for a, b, c, d, e, f, g, h, i, j in masks
    ])


def _pair_gaps(vec: Sequence[int]) -> tuple[int, ...]:
    """sum g_{e_j e_{j+1}} - sum g_{e_j e_{j+2}} for each permutation e, from
    the pair counts of a mask-indexed vector."""
    return _gaps(vec, _PAIR_GAP_MASKS)


def _cycle_counts(cycles: dict[tuple[int, int], list[int]]) -> list[int]:
    """The walk's cycle count of each color pair, at the pair's mask of a
    32-entry list; the other entries are 0 and never read."""
    counts = [0] * 32
    for (r, s), reps in cycles.items():
        counts[1 << r | 1 << s] = len(reps)
    return counts


def _component_faces(
    g: ColoredGraph, cycles: dict[tuple[int, int], list[int]], colors: tuple[int, ...]
) -> list[tuple[int, int]]:
    """(faces, p_c) of every component of the residue keeping ``colors``, ordered
    by least vertex: faces counts the component's bicolored cycles, and p_c is
    half its order."""
    label, sizes = _component_labels(g, colors)
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
    _require_connected(g, "singular-manifold recognition")
    return _spherical_triples(g, _bicolored_cycles(g))


# the Euler characteristic of a singular 4-manifold from one associated pair
# sum, whichever pair is taken: (rho_e + rho_e') - p + sum g_hat - 2
def _euler_via_pair(vec: tuple[int, ...], pair_twice: int, p: int) -> int:
    twice = pair_twice + 2 * (_hat_sum(vec) - p - 2)
    if twice % 2:
        raise InvariantViolation("non-integral Euler characteristic")
    return twice // 2


def _partner_differences(twices: tuple[int, ...]) -> tuple[int, ...]:
    """2(rho_e' - rho_e) for each permutation e, in permutation order."""
    return tuple(map(sub, _PARTNER_OF(twices), twices))


def _triple_relation(vec: tuple[int, ...], p: int) -> bool:
    # 2 g_{rst} = g_{rs} + g_{rt} + g_{st} - p on all ten triples
    return all(
        2 * vec[rst] == vec[rs] + vec[rt] + vec[st] - p
        for rst, rs, rt, st in _TRIPLE_PAIRS
    )


# the minimal-degree criterion, both sides: the degree is twelve times the regular
# genus, and the adjacent and skip pair sums agree for every permutation
def _minimal_degree_sides(twices: tuple[int, ...], gaps: tuple[int, ...]) -> tuple[bool, bool]:
    return sum(twices) == 12 * min(twices), not any(gaps)


class CrystallizationProfile(NamedTuple):
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
    return _ledger(g, vec, m, euler_characteristic_complex(g))


def _ledger(g: ColoredGraph, vec: tuple[int, ...], m: int, chi: int) -> CrystallizationProfile:
    """The profile of a graph already known to pass the residue tests, whose
    Euler characteristic is ``chi``."""
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


class ClassificationResult(NamedTuple):
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
    twices = genus_twices(g)
    diffs = _partner_differences(twices)
    return _classify(profile, twices, diffs, _pair_gaps(residue_vector(g)))


def _classify(
    profile: CrystallizationProfile,
    twices: tuple[int, ...],
    diffs: tuple[int, ...],
    gaps: tuple[int, ...],
) -> ClassificationResult:
    t = profile.t_triples
    witness = next(
        (_PERMS[i] for i, tris in enumerate(_CONSECUTIVE3) if all(t[tri] == 0 for tri in tris)),
        None,
    )
    stmt_witness = witness is not None
    stmt_gap = 2 * profile.q in diffs
    stmt_genus = min(twices) == 2 * (2 * profile.euler + 5 * profile.m - 4)
    if not (stmt_gap == stmt_witness == stmt_genus):
        raise InvariantViolation(
            "classification statements disagree "
            f"(gap={stmt_gap}, witness={stmt_witness}, genus={stmt_genus})"
        )
    left, right = _minimal_degree_sides(twices, gaps)
    if left != right:
        raise InvariantViolation("minimal-degree criterion sides disagree")
    if profile.q == 0:
        kind = SEMI_SIMPLE
    elif stmt_witness:
        kind = WEAK_SEMI_SIMPLE
    else:
        kind = NEITHER
    if profile.q <= 2 and kind == NEITHER:
        raise InvariantViolation("q <= 2 must force a consecutive-triple witness")
    if (profile.q == 0) != (stmt_witness and left):
        raise InvariantViolation(
            "vanishing excess must coincide with witness existence plus the minimal-degree property"
        )
    return ClassificationResult(kind=kind, witness=witness, satisfies_12rho=left)


def _hat_degree_total(g: ColoredGraph, cycle_total: int) -> int:
    """The component degrees of the five 4-colored residues, summed.

    At d = 3 a component's degree is its reduced degree 3 + 3p_c - f_c; the
    k components of a residue cover all p, so its sum is 3k + 3p - F, with k
    counted by a label walk and F the residue's bicolored cycles.  Each color
    pair lies in three of the five residues, so their F add up to three times
    the walk's cycle total S, and the five sums to 3 * (sum k + 5p - S).
    """
    k = sum([len(_component_labels(g, colors)[1]) for colors in _HAT_COLORS])
    return 3 * (k + 5 * g.p - cycle_total)


def _residue_degree_holds(
    g: ColoredGraph, cycle_total: int, hat_sum: int, omega_twice: int
) -> bool:
    return omega_twice == 6 * (g.p + 4 - hat_sum) + 2 * _hat_degree_total(g, cycle_total)


def residue_degree_identity(g: ColoredGraph) -> bool:
    """Degree of the graph against the degrees of its 4-colored residues.

    Checks omega = 3*(p + 4 - sum g_hat) + sum of the component degrees of
    the five residues (at d = 3 by the closed formula, summed per residue
    from its component count and its bicolored cycles).
    """
    _require_d(g, 4)
    _require_connected(g, "the residue-degree identity")
    cycle_total = sum(map(len, _bicolored_cycles(g).values()))
    return _residue_degree_holds(g, cycle_total, _hat_sum(residue_vector(g)), sum(genus_twices(g)))


# --- the five-color part of the identity battery -----------------------------


def check_identities(
    g: ColoredGraph,
    twices: tuple[int, ...],
    cycles: dict[tuple[int, int], list[int]],
    cycle_total: int,
    pair_twices: list[int],
    flags: dict,
    checks: dict,
) -> None:
    """Evaluate the five-color identities of one connected graph into the
    battery's ``flags`` and ``checks``.

    ``twices`` is :func:`genus_twices` of the graph; ``cycles`` and
    ``cycle_total`` are the battery's one bicolored-cycle walk and its cycle
    total; ``pair_twices`` are its class sums, which at n = 5 are twice
    rho_e + rho_e' for the pairs of ``_PAIRS``.  ``flags`` already holds
    ``bipartite`` and ``odd_reduced_degree``, and ``checks``
    ``class_genus_sum_constant``.  The pair sums, the partner differences,
    the pair gaps (off the walk's cycle counts) and the hat counts are each
    formed once, and read by every identity that needs them.  The walk also
    serves every residue: the singular test labels the 3-colored residues,
    stopping at the first non-sphere, and the residue-degree identity
    counts the components of the five 4-colored ones.
    """
    vec = residue_vector(g)
    omega_twice = sum(twices)
    gaps = _pair_gaps(_cycle_counts(cycles))
    diffs = _partner_differences(twices)
    hats = _HAT_COUNTS(vec)
    hat_sum = sum(hats)
    singular = _spherical_triples(g, cycles)
    flags["singular_manifold"] = singular

    checks["pair_degree_identity"] = [6 * t for t in pair_twices] == [omega_twice] * 6
    # the same predicate: at n = 5 the partition classes are the pairs
    checks["pair_sum_constant"] = checks["class_genus_sum_constant"]
    # 2(rho_e' - rho_e) = sum g_{e_j e_{j+1}} - sum g_{e_j e_{j+2}} on every
    # 5-colored graph
    checks["pair_difference_bicolored"] = diffs == gaps
    left, right = _minimal_degree_sides(twices, gaps)
    checks["minimal_degree_biconditional"] = left == right
    if flags["odd_reduced_degree"]:
        checks["odd_reduced_forces_nonorientable"] = not flags["bipartite"] and not singular
    checks["residue_degree_identity"] = _residue_degree_holds(g, cycle_total, hat_sum, omega_twice)
    if not singular:
        return

    # rho_e' - rho_e = consecutive minus skip triple residues on
    # singular-manifold graphs
    tricolored = tuple([2 * gap for gap in _gaps(vec, _TRIPLE_GAP_MASKS)])
    checks["pair_difference_tricolored"] = diffs == tricolored and _triple_relation(vec, g.p)
    chi = euler_characteristic_complex(g)
    # from each pair: twice rho_e + rho_e' is 2 * (chi + p + 2 - sum g_hat)
    checks["euler_formula_agreement"] = pair_twices == [2 * (chi + g.p + 2 - hat_sum)] * 6
    if hats != (1, 1, 1, 1, 1):
        return

    # a crystallization: profile it with rank 0 asserted, check the excesses
    try:
        profile = _ledger(g, vec, 0, chi)
    except GemError:
        checks["crystallization_profile_consistent"] = False
        return
    checks["crystallization_profile_consistent"] = True
    flags["crystallization_profile"] = True
    q = profile.q
    base = 2 * profile.euler + 5 * profile.m - 4

    ok_diff = ok_offset = True
    for i, diff_twice in enumerate(diffs):
        skip_excess = sum(profile.t_triples[t] for t in _SKIP3[i])
        if diff_twice != 2 * (q - 2 * skip_excess) or diff_twice > 2 * q:
            ok_diff = False
        if twices[i] != 2 * (base + skip_excess):
            ok_offset = False
    checks["excess_difference_identity"] = ok_diff
    checks["excess_genus_offset"] = ok_offset
    checks["excess_pair_sum"] = pair_twices == [2 * (2 * base + q)] * 6
    try:
        _classify(profile, twices, diffs, gaps)
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
