"""Four- and five-colored graphs: closed 3-manifold and singular-manifold
recognition, associated permutations, Euler-characteristic identities,
crystallization profiles, and the five-color block of an analysis report.
The surface of a three-colored graph, its one regular embedding, lives with
the genera in ``embeddings``.

With five colors every cyclic permutation e has an associated partner
e' = (e_0, e_2, e_4, e_1, e_3); the edges of e and e' jointly exhaust the
ten color pairs, the degree equals six times the genus sum of any such
pair, and the six pairs are exactly the classes of the (unique) odd
partition for n = 5.  The adjacent pairs of e' are the skip pairs
(e_j, e_{j+2}) of e, and its consecutive triples the skip triples
(e_i, e_{i+2}, e_{i+4}) of e, so every skip quantity is read through the
partner table.

Every identity reads its residue counts from the graph's residue vector
and its genera as integer "twice" values (see ``genus_twices``), through
index tables built once.  The battery's pair gaps, singular-manifold
recognition and the component side of the residue-degree identity are the
exception: one walk over the graph's bicolored cycles (in the battery, the
walk it hands to ``check_identities``) keeps a vertex of each cycle, and a
label walk over the matchings numbers the components of a residue.  A
residue that holds a color pair whose walk is one cycle through every
vertex is connected, since adding colors splits no component: its one
component holds all its pairs' cycles and has half-order p, and it is not
labelled.  Singular-manifold recognition counts each cycle of a 3-colored
residue as a face of its component; the residue-degree identity counts the
components of the five 4-colored residues, whose cycles are three times
the walk's (each color pair lies in three of them).  That evidence comes
from the walk alone, never from the vector, so no side collapses into an
algebraic consequence of the vector it is checked against.  Manifold
recognition reads only 3-colored residues: each 3-colored residue of a
4-colored residue component is a 3-colored residue of the whole graph.
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
from .embeddings import HalfInt, _bicolored_cycles, _require_d, genus_twices
from .perms import (
    CyclicPerm,
    _perm_key,
    canonical_perm,
    cycle_gathers,
    cyclic_permutations,
    perm_index,
)

__all__ = [
    "ClassificationResult",
    "CrystallizationProfile",
    "analysis_block",
    "associated_pairs",
    "associated_permutation",
    "check_identities",
    "classify_crystallization",
    "consecutive_triples",
    "crystallization_profile",
    "is_closed_3_manifold",
    "is_singular_4_manifold",
    "residue_degree_identity",
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


def _mask(colors) -> int:
    return sum(1 << c for c in colors)


def _pair_gather(colors: tuple[int, ...]) -> itemgetter:
    """Gathers the entries of the color pairs within ``colors`` off a
    mask-indexed list: the residue vector, or the walk's cycle counts
    (:func:`_cycle_counts`)."""
    return itemgetter(*map(_mask, combinations(colors, 2)))


# Index tables over cyclic_permutations(4), read by every identity below.
_PERMS = cyclic_permutations(4)
# the genera of the partners, in permutation order
_PARTNER_OF = itemgetter(*(perm_index(4)[associated_permutation(eps)] for eps in _PERMS))
_PAIRS = tuple((perm_index(4)[a], perm_index(4)[b]) for a, b in associated_pairs())
_CONSECUTIVE3 = tuple(tuple(consecutive_triples(eps)) for eps in _PERMS)
# per permutation, the counts of its consecutive triples; the skip triples of
# e are the consecutive triples of its partner
_TRIPLE_GATHERS = tuple(itemgetter(*map(_mask, tris)) for tris in _CONSECUTIVE3)
_TRIPLE_MASK = {t: _mask(t) for t in combinations(range(5), 3)}
# per triple of the colors at d = 3 and at d = 4, its colors and its pairs' gather
_TRIPLE_PAIRS = {
    d: tuple((t, _pair_gather(t)) for t in combinations(range(d + 1), 3)) for d in (3, 4)
}
_HAT_COLORS = tuple(tuple(c for c in range(5) if c != i) for i in range(5))  # all but i
_HATS = tuple(map(_mask, _HAT_COLORS))
_HAT_COUNTS = itemgetter(*_HATS)
_HAT_PAIRS = tuple(map(_pair_gather, _HAT_COLORS))


def _partner_gaps(vec: Sequence[int], gathers: tuple[itemgetter, ...]) -> tuple[int, ...]:
    """Per permutation, the sum of the counts its gather reads off a
    mask-indexed vector, minus its partner's sum."""
    sums = [sum(gather(vec)) for gather in gathers]
    return tuple(map(sub, sums, _PARTNER_OF(sums)))


def _pair_gaps(vec: Sequence[int]) -> tuple[int, ...]:
    """sum g_{e_j e_{j+1}} - sum g_{e_j e_{j+2}} for each permutation e: the
    skip pairs of e are the adjacent pairs of its partner."""
    return _partner_gaps(vec, cycle_gathers(4))


def _cycle_counts(cycles: dict[tuple[int, int], list[int]]) -> list[int]:
    """The walk's cycle count of each color pair, at the pair's mask of a
    32-entry list; the other entries are 0, so the list sums to the walk's
    cycle total."""
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


def _spherical_triples(
    g: ColoredGraph, cycles: dict[tuple[int, int], list[int]], counts: list[int]
) -> bool:
    """True iff every component of every 3-colored residue is a sphere
    (Euler characteristic faces - p_c = 2); ``counts`` is the walk's
    :func:`_cycle_counts`.

    A residue with a one-cycle pair is connected, so its one component holds
    all its pairs' cycles and has half-order p; only the other residues are
    labelled."""
    p = g.p
    for triple, gather in _TRIPLE_PAIRS[g.d]:
        faces = gather(counts)
        if 1 in faces:
            if sum(faces) - p != 2:
                return False
        elif not all(f - p_c == 2 for f, p_c in _component_faces(g, cycles, triple)):
            return False
    return True


@lru_cache(maxsize=4096)
def is_closed_3_manifold(g: ColoredGraph) -> bool:
    """True iff every 3-colored residue component of the 4-colored graph is a sphere."""
    _require_d(g, 3)
    cycles = _bicolored_cycles(g)
    return _spherical_triples(g, cycles, _cycle_counts(cycles))


@lru_cache(maxsize=4096)
def is_singular_4_manifold(g: ColoredGraph) -> bool:
    """True iff every 4-colored residue component represents a closed 3-manifold,
    that is, iff every 3-colored residue component is a sphere."""
    _require_d(g, 4)
    _require_connected(g, "singular-manifold recognition")
    cycles = _bicolored_cycles(g)
    return _spherical_triples(g, cycles, _cycle_counts(cycles))


def _partner_differences(twices: tuple[int, ...]) -> tuple[int, ...]:
    """2(rho_e' - rho_e) for each permutation e, in permutation order."""
    return tuple(map(sub, _PARTNER_OF(twices), twices))


def _triple_relation(vec: tuple[int, ...], p: int) -> bool:
    # 2 g_{rst} = g_{rs} + g_{rt} + g_{st} - p on all ten triples
    return all(
        2 * vec[_TRIPLE_MASK[t]] == sum(gather(vec)) - p for t, gather in _TRIPLE_PAIRS[4]
    )


# the minimal-degree criterion, both sides, from twice the degree and twice
# the regular genus: the degree is twelve times the regular genus, and the
# adjacent and skip pair sums agree for every permutation
def _minimal_degree_sides(
    omega_twice: int, least: int, gaps: tuple[int, ...]
) -> tuple[bool, bool]:
    return omega_twice == 12 * least, not any(gaps)


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
    # the singular test needs a connected graph: taken only once the hats are
    singular = _HAT_COUNTS(vec) == (1, 1, 1, 1, 1) and is_singular_4_manifold(g)
    return _ledger(g, vec, m, euler_characteristic_complex(g), singular)


def _ledger(
    g: ColoredGraph, vec: tuple[int, ...], m: int, chi: int, singular: bool
) -> CrystallizationProfile:
    """The profile of a graph with residue vector ``vec``, Euler
    characteristic ``chi`` and singular flag ``singular``, behind the one
    crystallization gate: connected hats, then the flag, each refused with
    its own message."""
    for i, hat in enumerate(_HATS):
        if vec[hat] != 1:
            raise GemError(f"residue missing color {i} is disconnected: not a crystallization")
    if not singular:
        raise GemError("graph fails the singular-manifold residue test")
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
    least = min(twices)
    sides = _minimal_degree_sides(sum(twices), least, _pair_gaps(residue_vector(g)))
    return _classify(profile, least, _partner_differences(twices), sides)


def _classify(
    profile: CrystallizationProfile,
    least: int,
    diffs: tuple[int, ...],
    sides: tuple[bool, bool],
) -> ClassificationResult:
    """The classification from twice the regular genus, the partner
    differences and the two sides of the minimal-degree criterion."""
    t = profile.t_triples
    witness = next(
        (_PERMS[i] for i, tris in enumerate(_CONSECUTIVE3) if all(t[tri] == 0 for tri in tris)),
        None,
    )
    stmt_witness = witness is not None
    stmt_gap = 2 * profile.q in diffs
    stmt_genus = least == 2 * (2 * profile.euler + 5 * profile.m - 4)
    if not (stmt_gap == stmt_witness == stmt_genus):
        raise InvariantViolation(
            "classification statements disagree "
            f"(gap={stmt_gap}, witness={stmt_witness}, genus={stmt_genus})"
        )
    left, right = sides
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


def _hat_degree_total(g: ColoredGraph, counts: list[int]) -> int:
    """The component degrees of the five 4-colored residues, summed, from the
    walk's cycle counts (:func:`_cycle_counts`).

    At d = 3 a component's degree is its reduced degree 3 + 3p_c - f_c; the
    k components of a residue cover all p, so its sum is 3k + 3p - F, with F
    the residue's bicolored cycles.  k is 1 where one of the residue's pairs
    is a single cycle through every vertex, and is counted by a label walk
    elsewhere.  Each color pair lies in three of the five residues, so their
    F add up to three times the walk's cycle total S, and the five sums to
    3 * (sum k + 5p - S).
    """
    k = sum([
        1 if 1 in gather(counts) else len(_component_labels(g, colors)[1])
        for colors, gather in zip(_HAT_COLORS, _HAT_PAIRS)
    ])
    return 3 * (k + 5 * g.p - sum(counts))


def _residue_degree_holds(
    g: ColoredGraph, counts: list[int], hat_sum: int, omega_twice: int
) -> bool:
    return omega_twice == 6 * (g.p + 4 - hat_sum) + 2 * _hat_degree_total(g, counts)


def residue_degree_identity(g: ColoredGraph) -> bool:
    """Degree of the graph against the degrees of its 4-colored residues.

    Checks omega = 3*(p + 4 - sum g_hat) + sum of the component degrees of
    the five residues (at d = 3 by the closed formula, summed per residue
    from its component count and its bicolored cycles).
    """
    _require_d(g, 4)
    _require_connected(g, "the residue-degree identity")
    counts = _cycle_counts(_bicolored_cycles(g))
    hat_sum = sum(_HAT_COUNTS(residue_vector(g)))
    return _residue_degree_holds(g, counts, hat_sum, sum(genus_twices(g)))


# --- the five-color part of the identity battery -----------------------------


def check_identities(
    g: ColoredGraph,
    twices: tuple[int, ...],
    omega_twice: int,
    cycles: dict[tuple[int, int], list[int]],
    pair_twices: list[int],
    flags: dict,
    checks: dict,
) -> tuple:
    """Evaluate the five-color identities of one connected graph into the
    battery's ``flags`` and ``checks``, and return the facts that
    :func:`analysis_block` reads: ``(pair_twices, hat_sum, singular, least,
    diffs, sides)``.

    ``twices`` is :func:`genus_twices` of the graph and ``omega_twice``
    their sum, twice the degree, as the battery formed it; ``cycles`` is
    the battery's one bicolored-cycle walk; ``pair_twices`` are its class
    sums, which at n = 5 are twice rho_e + rho_e' for the pairs of
    ``_PAIRS``.  ``flags`` already holds ``bipartite`` and
    ``odd_reduced_degree``, and ``checks`` ``class_genus_sum_constant``.
    The pair sums, the partner differences, the walk's cycle counts, the
    pair gaps (the twelve adjacent-minus-skip pair sums, off those counts),
    the hat counts and their sum, the singular flag and twice the regular
    genus are each formed once, and read by every identity that needs them;
    so are the two sides of the minimal-degree criterion, which the
    classification reads again on a crystallization.  There every excess
    check is one comparison, read at the rank 0 that the ledger accepted: no
    excess is negative, and p = 3 chi - 5 + q.
    """
    vec = residue_vector(g)
    least = min(twices)
    counts = _cycle_counts(cycles)
    gaps = _pair_gaps(counts)
    diffs = _partner_differences(twices)
    hats = _HAT_COUNTS(vec)
    hat_sum = sum(hats)
    singular = _spherical_triples(g, cycles, counts)
    flags["singular_manifold"] = singular
    sides = _minimal_degree_sides(omega_twice, least, gaps)
    facts = (pair_twices, hat_sum, singular, least, diffs, sides)

    checks["pair_degree_identity"] = [6 * t for t in pair_twices] == [omega_twice] * 6
    # the same predicate: at n = 5 the partition classes are the pairs
    checks["pair_sum_constant"] = checks["class_genus_sum_constant"]
    # 2(rho_e' - rho_e) = sum g_{e_j e_{j+1}} - sum g_{e_j e_{j+2}} on every
    # 5-colored graph
    checks["pair_difference_bicolored"] = diffs == gaps
    checks["minimal_degree_biconditional"] = sides[0] == sides[1]
    if flags["odd_reduced_degree"]:
        checks["odd_reduced_forces_nonorientable"] = not flags["bipartite"] and not singular
    checks["residue_degree_identity"] = _residue_degree_holds(g, counts, hat_sum, omega_twice)
    if not singular:
        return facts

    # rho_e' - rho_e = consecutive minus skip triple residues on
    # singular-manifold graphs
    tricolored = tuple([2 * gap for gap in _partner_gaps(vec, _TRIPLE_GATHERS)])
    checks["pair_difference_tricolored"] = diffs == tricolored and _triple_relation(vec, g.p)
    chi = euler_characteristic_complex(g)
    # from each pair: twice rho_e + rho_e' is 2 * (chi + p + 2 - sum g_hat)
    checks["euler_formula_agreement"] = pair_twices == [2 * (chi + g.p + 2 - hat_sum)] * 6
    if hats != (1, 1, 1, 1, 1):
        return facts

    # a crystallization: profile it with rank 0 asserted, check the excesses
    try:
        profile = _ledger(g, vec, 0, chi, singular)
    except GemError:
        checks["crystallization_profile_consistent"] = False
        return facts
    checks["crystallization_profile_consistent"] = True
    flags["crystallization_profile"] = True
    q, p = profile.q, g.p
    base = 2 * chi - 4  # 2 chi + 5m - 4 at the asserted rank 0

    # the skip-triple excess of e is its partner's consecutive-triple excess;
    # the ledger refused every negative excess, so no difference exceeds 2q
    t = profile.t_triples
    skip_excesses = _PARTNER_OF([sum(t[tri] for tri in tris) for tris in _CONSECUTIVE3])
    checks["excess_difference_identity"] = diffs == tuple([2 * (q - 2 * s) for s in skip_excesses])
    checks["excess_genus_offset"] = twices == tuple([2 * (base + s) for s in skip_excesses])
    checks["excess_pair_sum"] = pair_twices == [2 * (2 * base + q)] * 6
    try:
        _classify(profile, least, diffs, sides)
        checks["classification_consistent"] = True
    except GemError:
        checks["classification_consistent"] = False

    # chi between 2 rho - p + 3 for both genera of each pair, and at most
    # 2 rho - p + q + 3 for the smaller; with p = 3 chi - 5 + q the
    # quarter-resolution and single-genus chains are these bounds rearranged
    checks["euler_bounds"] = all(
        lo - p + 3 <= chi <= min(hi, lo + q) - p + 3
        for lo, hi in (sorted((twices[a], twices[b])) for a, b in _PAIRS)
    )
    return facts


# --- the five-color block of the analysis report -----------------------------


def analysis_block(g: ColoredGraph, facts: tuple, chi: int, m: int | None) -> dict:
    """The five-color block of a connected graph's analysis report, read off
    the facts :func:`check_identities` returned for it and its Euler
    characteristic ``chi``; with rank metadata ``m``, it holds the ledger
    (behind its gate) and the classification those facts give."""
    pair_twices, hat_sum, singular, least, diffs, sides = facts
    block: dict = {
        "associated_pair_sums": {
            f"{_perm_key(a)}|{_perm_key(b)}": str(HalfInt(t))
            for (a, b), t in zip(associated_pairs(), pair_twices)
        },
        "singular_manifold": singular,
    }
    if singular:
        # (rho_e + rho_e') - p + sum g_hat - 2, whichever pair is taken
        twice = pair_twices[0] + 2 * (hat_sum - g.p - 2)
        if twice % 2:
            raise InvariantViolation("non-integral Euler characteristic")
        block["euler_by_pair_formula"] = twice // 2
    if m is not None:
        profile = _ledger(g, residue_vector(g), m, chi, singular)
        result = _classify(profile, least, diffs, sides)
        excess = {_perm_key(t): v for t, v in sorted(profile.t_triples.items()) if v}
        block["crystallization"] = {
            "m": profile.m,
            "euler": profile.euler,
            "q": profile.q,
            "minimal_half_order": profile.p_bar,
            "triple_excess": excess,
            "kind": result.kind,
            "witness": _perm_key(result.witness) if result.witness else None,
            "satisfies_12rho": result.satisfies_12rho,
        }
    return block
