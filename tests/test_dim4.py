"""Five-colored graph machinery: associated pairs, manifold recognition,
Euler identities, crystallization profiles."""

from __future__ import annotations

import random
import sys
from collections import Counter
from itertools import combinations
from math import factorial

import pytest

from gemcalc import (
    ColoredGraph,
    GemError,
    HalfInt,
    associated_pairs,
    associated_permutation,
    classify_crystallization,
    crystallization_profile,
    cyclic_permutations,
    dipole,
    enumerate_gems,
    euler_characteristic_complex,
    g_degree_definition,
    genus_twices,
    is_closed_3_manifold,
    is_singular_4_manifold,
    regular_genus,
    residue_count,
    residue_degree_identity,
    residue_vector,
    surface_type,
)
from gemcalc import core as core_module
from gemcalc import dim4 as dim4_module
from gemcalc import reports as reports_module
from gemcalc.embeddings import _bicolored_cycles, _reduced_degree
from gemcalc.perms import _perm_key, cycle_pairs
from gemcalc.reports import _class_indices, analysis_report, check_graph
from gemcalc.dim4 import (
    NEITHER,
    SEMI_SIMPLE,
    WEAK_SEMI_SIMPLE,
    _component_faces,
    _cycle_counts,
    _hat_degree_total,
    _pair_gaps,
    _spherical_triples,
    consecutive_triples,
)

from conftest import M_A, M_B, M_C, corpus, oracle_components, oracle_faces, oracle_residues


# --- associated permutations --------------------------------------------------


def test_associated_permutation_example():
    assert associated_permutation((0, 1, 2, 3, 4)) == (0, 2, 4, 1, 3)


def test_association_is_involutive():
    for eps in cyclic_permutations(4):
        assert associated_permutation(associated_permutation(eps)) == eps


def test_association_covers_all_pairs():
    for eps in cyclic_permutations(4):
        partner = associated_permutation(eps)
        union = sorted(cycle_pairs(eps) + cycle_pairs(partner))
        assert union == sorted(combinations(range(5), 2))


def test_partner_reads_the_skip_pairs_and_skip_triples():
    # the adjacent pairs of e' are the skip pairs (e_j, e_{j+2}) of e, and its
    # consecutive triples are the skip triples (e_i, e_{i+2}, e_{i+4}) of e
    for eps in cyclic_permutations(4):
        partner = associated_permutation(eps)
        skip_pairs = {tuple(sorted((eps[j], eps[(j + 2) % 5]))) for j in range(5)}
        skip_triples = {
            tuple(sorted((eps[i], eps[(i + 2) % 5], eps[(i + 4) % 5]))) for i in range(5)
        }
        assert sorted(cycle_pairs(partner)) == sorted(skip_pairs)
        assert sorted(consecutive_triples(partner)) == sorted(skip_triples)
        assert len(skip_triples) == 5 and not skip_triples & set(consecutive_triples(eps))


def test_associated_pairs_partition():
    pairs = associated_pairs()
    assert len(pairs) == 6
    seen = [eps for pair in pairs for eps in pair]
    assert sorted(seen) == sorted(cyclic_permutations(4))


def test_associated_permutation_wrong_size():
    with pytest.raises(GemError, match="five colors"):
        associated_permutation((0, 1, 2))


def test_non_permutations_raise_gem_error():
    with pytest.raises(GemError, match="not a permutation"):
        associated_permutation((0, 1, 1, 2, 3))


# --- surfaces and manifold recognition ----------------------------------------


def test_surface_type_sphere():
    st = surface_type(dipole(2))
    assert st == (True, 2, HalfInt(0))


def test_surface_type_projective_plane(rp2_gem):
    st = surface_type(rp2_gem)
    assert st.orientable is False
    assert st.euler == 1
    assert st.genus == HalfInt(1)


def test_surface_type_torus_found_by_enumeration():
    hit = None
    for g in enumerate_gems(2, 3, connected_only=True):
        st = surface_type(g)
        if st.orientable and st.euler == 0:
            hit = st
            break
    assert hit is not None
    assert hit.genus == 1


def test_surface_type_errors(g4):
    with pytest.raises(GemError, match="3-colored"):
        surface_type(g4)
    halves = ColoredGraph(d=2, order=4, matchings=(M_A, M_A, M_A))
    with pytest.raises(GemError, match="connected"):
        surface_type(halves)


def test_closed_3_manifold_positive(g4):
    assert is_closed_3_manifold(dipole(3))
    (hat0,) = oracle_residues(g4, (1, 2, 3, 4))
    assert hat0.matchings == (M_A, M_A, M_C, M_C)
    assert is_closed_3_manifold(hat0)


def test_closed_3_manifold_negative(non_closed_d3):
    # its colors-{0,1,2} residue is a projective plane, not a sphere
    assert not is_closed_3_manifold(non_closed_d3)


def test_singular_4_manifold(dipole4, g4, odd_degree_witness):
    assert is_singular_4_manifold(dipole4)
    assert is_singular_4_manifold(g4)
    assert not is_singular_4_manifold(odd_degree_witness)
    embedded_rp2 = ColoredGraph(d=4, order=4, matchings=(M_A, M_B, M_C, M_A, M_A))
    assert not is_singular_4_manifold(embedded_rp2)


def _oracle_spherical(g: ColoredGraph) -> bool:
    # a closed surface has chi <= 2, so the components of the {r,s,t}-residue
    # are all spheres iff their Euler characteristics (F - E + V = faces - p
    # in total) sum to twice the number of components
    return all(
        oracle_faces(g, r, s) + oracle_faces(g, r, t) + oracle_faces(g, s, t) - g.p
        == 2 * oracle_components(g, (r, s, t))
        for r, s, t in combinations(range(g.d + 1), 3)
    )


def test_singular_4_manifold_matches_face_oracle():
    graphs = [g for p in (1, 2) for g in enumerate_gems(4, p, connected_only=True)]
    graphs += [
        g for p in range(1, 7) for g in corpus(4, p, 100, seed=200 + p, connected_only=True)
    ]
    outcomes = set()
    for g in graphs:
        expected = _oracle_spherical(g)
        assert is_singular_4_manifold(g) == expected
        flags, _ = check_graph(g)
        assert flags["singular_manifold"] == expected
        outcomes.add(expected)
    assert outcomes == {True, False}


def test_closed_3_manifold_matches_face_oracle():
    outcomes = set()
    for g in [g for p in range(1, 7) for g in corpus(3, p, 150, seed=300 + p)]:
        expected = _oracle_spherical(g)
        assert is_closed_3_manifold(g) == expected
        outcomes.add(expected)
    assert outcomes == {True, False}


# --- genus difference identities ------------------------------------------------


def test_difference_b_g4(g4):
    # the pair/triple relation pins the mixed triple count
    assert 2 * residue_count(g4, (0, 1, 3)) == (
        residue_count(g4, (0, 1))
        + residue_count(g4, (0, 3))
        + residue_count(g4, (1, 3))
        - g4.p
    )
    assert residue_count(g4, (0, 1, 3)) == 1


# --- crystallization profiles ----------------------------------------------------


def test_profile_dipole(dipole4):
    profile = crystallization_profile(dipole4, 0)
    assert profile.q == 0
    assert profile.p_bar == 1 == dipole4.p
    assert all(v == 1 for v in profile.g_triples.values())
    assert all(v == 0 for v in profile.t_triples.values())


def test_profile_g4(g4):
    profile = crystallization_profile(g4, 0)
    assert profile.euler == 2
    assert profile.g_triples[(0, 1, 2)] == 2
    assert profile.q == 1
    assert profile.p_bar == 1
    assert profile.p_bar + profile.q == g4.p


def test_profile_rank_inconsistency(dipole4):
    with pytest.raises(GemError, match="m=1 inconsistent"):
        crystallization_profile(dipole4, 1)


def test_profile_requires_connected_residues():
    g = ColoredGraph(d=4, order=4, matchings=(M_A, M_A, M_A, M_A, M_B))
    with pytest.raises(GemError, match="disconnected"):
        crystallization_profile(g, 0)


def test_profile_requires_singular(odd_degree_witness):
    with pytest.raises(GemError, match="singular"):
        crystallization_profile(odd_degree_witness, 0)


def test_profile_genus_offsets(g4):
    # each genus equals the base offset plus the skip-triple excess
    profile = crystallization_profile(g4, 0)
    base = 2 * profile.euler + 5 * profile.m - 4
    for eps in cyclic_permutations(4):
        skip = consecutive_triples(associated_permutation(eps))
        excess = sum(profile.t_triples[t] for t in skip)
        assert regular_genus(g4, eps) == base + excess


def test_classify_dipole(dipole4):
    profile = crystallization_profile(dipole4, 0)
    result = classify_crystallization(profile, dipole4)
    assert result.kind == SEMI_SIMPLE
    assert result.witness == (0, 1, 2, 3, 4)
    assert result.satisfies_12rho


def test_classify_g4(g4):
    profile = crystallization_profile(g4, 0)
    result = classify_crystallization(profile, g4)
    assert result.kind == WEAK_SEMI_SIMPLE
    assert result.witness == (0, 1, 3, 2, 4)  # avoids consecutive 3,4
    assert not result.satisfies_12rho


def test_classify_graph_mismatch(dipole4, g4):
    profile = crystallization_profile(dipole4, 0)
    with pytest.raises(GemError, match="does not belong"):
        classify_crystallization(profile, g4)


def test_classification_kinds_over_enumeration():
    # every accepted profile classifies without invariant violations; the
    # only semi-simple profile at order <= 4 is the dipole (half-order two
    # forces a positive excess, since 3*chi - 5 = 2 has no integer root)
    from itertools import chain

    kinds = set()
    graphs = chain(
        enumerate_gems(4, 1, connected_only=True),
        enumerate_gems(4, 2, connected_only=True),
    )
    for g in graphs:
        hats = all(
            residue_count(g, [x for x in range(5) if x != i]) == 1 for i in range(5)
        )
        if not hats or not is_singular_4_manifold(g):
            continue
        profile = crystallization_profile(g, 0)
        result = classify_crystallization(profile, g)
        kinds.add(result.kind)
        if profile.q <= 2:
            assert result.kind != NEITHER
    assert SEMI_SIMPLE in kinds
    assert WEAK_SEMI_SIMPLE in kinds


# --- residue degree identity -----------------------------------------------------


def test_residue_degree_identity_dipole(dipole4):
    assert residue_degree_identity(dipole4)


def test_residue_degree_identity_g4(g4):
    assert residue_degree_identity(g4)
    totals = []
    for i in range(5):
        rest = [x for x in range(5) if x != i]
        totals.append(
            sum(g_degree_definition(c).twice for c in oracle_residues(g4, rest))
        )
    # degree 6 = 3*(2 + 4 - 5) + 3, residues contributing (1, 1, 1, 0, 0)
    assert sorted(t // 2 for t in totals) == [0, 0, 1, 1, 1]
    assert g_degree_definition(g4).twice == 2 * 3 * (g4.p + 4 - 5) + sum(totals)


def test_residue_degree_identity_random():
    for g in corpus(4, 4, 60, seed=103, connected_only=True):
        assert residue_degree_identity(g)


def test_dimension_guards(g4, rp2_gem):
    with pytest.raises(GemError, match="5-colored"):
        is_singular_4_manifold(rp2_gem)
    with pytest.raises(GemError, match="4-colored"):
        is_closed_3_manifold(g4)


# --- independence of the component-side checks ---------------------------------


def _bump(g: ColoredGraph, colors) -> ColoredGraph:
    """An equal graph whose residue vector has one entry raised by one."""
    h = ColoredGraph(d=g.d, order=g.order, matchings=g.matchings)
    vec = list(residue_vector(h))
    vec[sum(1 << c for c in colors)] += 1
    object.__setattr__(h, "_vector", tuple(vec))
    return h


def test_tampered_pair_count_breaks_residue_degree_identity(odd_degree_witness):
    # the component side labels residues over the bicolored-cycle walk, so it
    # disagrees with a degree read off a corrupted parent vector
    flags, checks = check_graph(odd_degree_witness)
    assert not flags["singular_manifold"]
    assert checks["residue_degree_identity"]
    flags, checks = check_graph(_bump(odd_degree_witness, (0, 1)))
    assert not flags["singular_manifold"]
    assert checks["residue_degree_identity"] is False


def test_tampered_hat_count_breaks_residue_degree_identity(odd_degree_witness):
    # the components of each 4-colored residue are counted by a label walk,
    # never read off the vector, so a corrupted hat count disagrees with them
    graphs = [odd_degree_witness]
    graphs += [g for p in range(1, 6) for g in corpus(4, p, 8, seed=320 + p, connected_only=True)]
    for g in graphs:
        assert residue_degree_identity(g)
        assert check_graph(g)[1]["residue_degree_identity"]
        for hat in combinations(range(5), 4):
            assert not residue_degree_identity(_bump(g, hat))
            assert check_graph(_bump(g, hat))[1]["residue_degree_identity"] is False


def test_tampered_triple_count_breaks_tricolored_difference(g4):
    # singular-manifold recognition labels residues over the bicolored-cycle
    # walk, so a corrupted triple count cannot switch the tricolored identity off
    flags, checks = check_graph(g4)
    assert flags["singular_manifold"] and checks["pair_difference_tricolored"]
    flags, checks = check_graph(_bump(g4, (0, 1, 2)))
    assert flags["singular_manifold"]
    assert checks["pair_difference_tricolored"] is False
    assert checks["residue_degree_identity"]


def test_uniform_triple_shift_breaks_only_the_triple_relation(g4):
    # one more component on every triple residue keeps each consecutive-minus-
    # skip gap (five triples counted each way), so the partner differences
    # still match; the 2g_rst relation alone fails the tricolored check
    vec = list(residue_vector(g4))
    for mask in range(32):
        if mask.bit_count() == 3:
            vec[mask] += 1
    gathers = dim4_module._TRIPLE_GATHERS
    assert dim4_module._partner_gaps(vec, gathers) == dim4_module._partner_gaps(
        residue_vector(g4), gathers
    )
    flags, checks = check_graph(_stand_in(g4, vec))
    assert flags["singular_manifold"]
    assert checks["degree_formula_agreement"] and checks["pair_difference_bicolored"]
    assert checks["pair_difference_tricolored"] is False


def _stand_in(g: ColoredGraph, vec: list[int]) -> ColoredGraph:
    """An equal graph that holds an arbitrary residue vector."""
    h = ColoredGraph(d=g.d, order=g.order, matchings=g.matchings)
    object.__setattr__(h, "_vector", tuple(vec))
    return h


def _pair_sum(vec) -> int:
    return sum(value for mask, value in enumerate(vec) if mask.bit_count() == 2)


def test_implied_checks_hold_for_any_vector():
    # pair_degree_identity holds on every vector; pair_sum_constant and
    # class_genus_sum_constant hold exactly when the vector's pair sum is the
    # walk's, which is what degree_formula_agreement compares.  2,000 arbitrary
    # 32-entry vectors, half of them with the walk's pair sum, go through the
    # genus side's own gathers and the battery.
    rng = random.Random(1913)
    gems = [g for p in range(1, 7) for g in corpus(4, p, 4, seed=760 + p, connected_only=True)]
    classes = _class_indices(4)
    pair_masks = [mask for mask in range(32) if mask.bit_count() == 2]
    outcomes = set()
    for k in range(2000):
        g = gems[k % len(gems)]
        vec = [rng.randrange(2 * g.order + 1) for _ in range(32)]
        walk_sum = sum(map(len, _bicolored_cycles(g).values()))
        if k % 2:  # a sum-keeping tamper of the true pair counts
            for mask in pair_masks:
                vec[mask] = residue_vector(g)[mask]
            a, b = rng.sample(pair_masks, 2)
            shift = rng.randrange(vec[b] + 1)
            vec[a] += shift
            vec[b] -= shift
        h = _stand_in(g, vec)
        twices = genus_twices(h)
        omega_twice = sum(twices)
        closed = _reduced_degree(4, g.p, _pair_sum(vec))
        for a, b in dim4_module._PAIRS:
            assert omega_twice == 6 * (twices[a] + twices[b])
            assert twices[a] + twices[b] == closed
        assert all(sum(twices[i] for i in cls) == closed for cls in classes)

        checks = check_graph(h)[1]
        agree = _pair_sum(vec) == walk_sum
        assert checks["pair_degree_identity"] is True
        assert checks["degree_formula_agreement"] is agree
        assert checks["pair_sum_constant"] is agree
        assert checks["class_genus_sum_constant"] is agree
        outcomes.add(agree)
    assert outcomes == {False, True}


def test_class_indices_are_the_associated_pairs_in_order():
    # the battery hands its class sums to the five-color identities as the
    # associated-pair sums, which they read in _PAIRS order
    assert _class_indices(4) == dim4_module._PAIRS
    assert _class_indices(4) == ((0, 9), (1, 8), (2, 7), (3, 11), (4, 6), (5, 10))


_PAIR_MASKS = [mask for mask in range(32) if mask.bit_count() == 2]


def _sum_keeping_tampers(g: ColoredGraph):
    """Each stand-in for g with one pair count raised by one and another
    lowered by one, so the vector's pair sum stays the walk's."""
    vec = residue_vector(g)
    for up in _PAIR_MASKS:
        for down in _PAIR_MASKS:
            if up != down and vec[down]:
                tampered = list(vec)
                tampered[up] += 1
                tampered[down] -= 1
                yield _stand_in(g, tampered)


def _tamper_corpus() -> list[ColoredGraph]:
    return [g for p in range(1, 5) for g in corpus(4, p, 3, seed=790 + p, connected_only=True)]


def test_sum_keeping_tamper_breaks_pair_difference_bicolored():
    # the gaps are read off the walk, the genera off the vector: moving one
    # unit between two pair counts changes some genus difference, while the
    # degree, which reads only the pair sum, still agrees with the walk
    tampers = 0
    for g in _tamper_corpus():
        assert check_graph(g)[1]["pair_difference_bicolored"]
        for h in _sum_keeping_tampers(g):
            checks = check_graph(h)[1]
            assert checks["degree_formula_agreement"] is True
            assert checks["pair_difference_bicolored"] is False
            tampers += 1
    assert tampers > 1000


def test_sum_keeping_tamper_breaks_minimal_degree_biconditional():
    # the first sum-keeping tamper, in corpus order, that flips the degree
    # side of the criterion and leaves the walk side (no nonzero gap) alone
    found = None
    for g in _tamper_corpus():
        assert check_graph(g)[1]["minimal_degree_biconditional"]
        for h in _sum_keeping_tampers(g):
            checks = check_graph(h)[1]
            if not checks["minimal_degree_biconditional"]:
                found = h, checks
                break
        if found:
            break
    assert found is not None
    h, checks = found
    assert checks["degree_formula_agreement"] is True
    twices = genus_twices(h)
    left, right = dim4_module._minimal_degree_sides(
        sum(twices), min(twices), _pair_gaps(dim4_module._cycle_counts(_bicolored_cycles(h)))
    )
    assert left != right


@pytest.mark.parametrize("delta", [1, -1])
def test_hat_count_tamper_breaks_only_the_residue_degree_identity(delta):
    # a hat (4-colored) count is read by the residue-degree identity alone on
    # a non-singular gem; the degree and every pair check still hold
    kinds = set()
    for g in _tamper_corpus():
        singular = check_graph(g)[0]["singular_manifold"]
        kinds.add(singular)
        vec = residue_vector(g)
        for hat in dim4_module._HATS:
            tampered = list(vec)
            tampered[hat] += delta
            checks = check_graph(_stand_in(g, tampered))[1]
            assert checks["degree_formula_agreement"] is True
            assert checks["residue_degree_identity"] is False
            if not singular:
                failed = [name for name, ok in checks.items() if not ok]
                assert failed == ["residue_degree_identity"]
    assert kinds == {False, True}


_TRIPLE_MASKS = [mask for mask in range(32) if mask.bit_count() == 3]


def _singular_corpus() -> list[ColoredGraph]:
    """The singular-manifold gems among 120 seeded d = 4 gems, p <= 3: mostly
    crystallizations, and two that are not."""
    gems = [g for p in range(1, 4) for g in corpus(4, p, 40, seed=800 + p, connected_only=True)]
    return [g for g in gems if check_graph(g)[0]["singular_manifold"]]


def _failed(checks: dict) -> set[str]:
    return {name for name, ok in checks.items() if not ok}


def test_triple_count_tamper_breaks_euler_formula_agreement():
    # the Euler characteristic reads every triple count, the degree none: one
    # more 3-colored residue fails the pair formula for chi and the tricolored
    # difference, and on a crystallization the half-order identity as well
    kinds = set()
    for g in _singular_corpus():
        flags, checks = check_graph(g)
        crystal = "crystallization_profile" in flags
        kinds.add(crystal)
        assert checks["euler_formula_agreement"]
        for mask in _TRIPLE_MASKS:
            tampered = list(residue_vector(g))
            tampered[mask] += 1
            checks = check_graph(_stand_in(g, tampered))[1]
            assert checks["degree_formula_agreement"] is True
            expected = {"euler_formula_agreement", "pair_difference_tricolored"}
            if crystal:
                expected.add("crystallization_profile_consistent")
            assert _failed(checks) == expected
    assert kinds == {False, True}


def _profile_keeping_tampers(g: ColoredGraph, masks: list[int]):
    """Stand-ins for a crystallization g with one unit moved from one count
    under ``masks`` to another; a lowered triple count stays at least 1, so
    every triple excess stays non-negative.  The pair sum S2 and the triple
    sum S3 do not change, nor does the half-order identity 10p = 3 S2 - 2 S3
    that the profile checks."""
    vec = residue_vector(g)
    floor = 1 if masks is _TRIPLE_MASKS else 0
    for up in masks:
        for down in masks:
            if up != down and vec[down] > floor:
                tampered = list(vec)
                tampered[up] += 1
                tampered[down] -= 1
                yield _stand_in(g, tampered)


@pytest.mark.parametrize(
    "name, moved",
    [
        ("excess_difference_identity", "triples"),
        ("excess_genus_offset", "triples"),
        ("classification_consistent", "pairs"),
        ("euler_bounds", "pairs"),
    ],
)
def test_profile_keeping_tamper_breaks_excess_check(name, moved):
    # the first tamper, in corpus order, that fails the check while the
    # profile stays consistent and the degree agrees with the walk; a triple
    # tamper leaves every genus, and so every check that reads only genera,
    # as it was
    masks = _TRIPLE_MASKS if moved == "triples" else _PAIR_MASKS
    found = None
    for g in _singular_corpus():
        if "crystallization_profile" not in check_graph(g)[0]:
            continue
        for h in _profile_keeping_tampers(g, masks):
            checks = check_graph(h)[1]
            if not checks[name]:
                found = checks
                break
        if found:
            break
    assert found is not None
    assert found["crystallization_profile_consistent"] is True
    assert found["degree_formula_agreement"] is True
    if masks is _TRIPLE_MASKS:
        assert _failed(found) <= {
            "excess_difference_identity", "excess_genus_offset", "pair_difference_tricolored",
            "classification_consistent",
        }


def test_excess_pair_sum_is_the_half_order_identity():
    # with every hat count 1 and rank 0, each associated pair sum minus the
    # excess form 2(2 base + q) is 3 (10p - 3 S2 + 2 S3) for any vector, and
    # the half-order identity inside crystallization_profile_consistent is
    # 10p = 3 S2 - 2 S3: excess_pair_sum is evaluated exactly when the
    # profile is consistent, and then holds.  400 arbitrary pair and triple
    # counts (each triple at least 1), half of them solving the identity.
    rng = random.Random(1931)
    crystals = [g for g in _singular_corpus() if "crystallization_profile" in check_graph(g)[0]]
    outcomes = set()
    for k in range(400):
        g = crystals[k % len(crystals)]
        vec = list(residue_vector(g))
        for mask in _PAIR_MASKS:
            vec[mask] = rng.randrange(g.p, 3 * g.p + 1)
        vec[_PAIR_MASKS[0]] += _pair_sum(vec) % 2  # 3 S2 - 10p even
        s3 = (3 * _pair_sum(vec) - 10 * g.p) // 2  # at least 10, as S2 >= 10p
        cuts = sorted(rng.sample(range(1, s3), 9))
        for mask, lo, hi in zip(_TRIPLE_MASKS, [0] + cuts, cuts + [s3]):
            vec[mask] = hi - lo
        if k % 2:  # off the identity by one triple
            vec[rng.choice(_TRIPLE_MASKS)] += 1
        h = _stand_in(g, vec)
        s2, s3 = _pair_sum(vec), sum(vec[mask] for mask in _TRIPLE_MASKS)
        chi = euler_characteristic_complex(h)
        q, base = s3 - 10, 2 * chi - 4
        twices = genus_twices(h)
        for a, b in dim4_module._PAIRS:
            assert twices[a] + twices[b] - 2 * (2 * base + q) == 3 * (10 * g.p - 3 * s2 + 2 * s3)

        checks = check_graph(h)[1]
        identity = 10 * g.p == 3 * s2 - 2 * s3
        assert checks["crystallization_profile_consistent"] is identity
        assert checks.get("excess_pair_sum") is (True if identity else None)
        outcomes.add(identity)
    assert outcomes == {False, True}


def test_euler_bounds_are_the_four_chains_at_rank_0():
    # the paper bounds chi by four chains on an associated pair's genus
    # twices lo <= hi; euler_bounds runs only once the ledger has accepted
    # p = 3 chi - 5 + q at rank 0.  There the quarter-resolution chain
    # 8 + lo - q <= 4 chi <= 8 + hi - q is the first chain multiplied by 4,
    # the second single-genus chain is the first, and the single-genus lower
    # bound is the first chain's: the four chains hold exactly when
    # lo - p + 3 <= chi <= min(hi, lo + q) - p + 3 does.  20,000 arbitrary
    # (lo <= hi, chi, q), most of them within a few units of a bound.
    rng = random.Random(1951)
    outcomes = set()
    for k in range(20000):
        chi, q, m = rng.randrange(-12, 13), rng.randrange(10), 0
        p = 3 * chi + 5 * (2 * m - 1) + q
        # 4 chi - 8 + q is the twice at which chi meets both of its bounds
        lo = 4 * chi - 8 + q + rng.randrange(-q - 4, 5) if k % 4 else rng.randrange(-60, 61)
        hi = lo + rng.randrange(q + 6)
        chains = (
            lo - p + 3 <= chi <= hi - p + 3
            and 8 + lo - 10 * m - q <= 4 * chi <= 8 + hi - 10 * m - q
            and lo - p + 3 <= chi <= lo - p + q + 3
            and 8 + lo - 10 * m - q <= 4 * chi <= 8 + lo - 10 * m
        )
        assert chains is (lo - p + 3 <= chi <= min(hi, lo + q) - p + 3)
        outcomes.add(chains)
    assert outcomes == {False, True}


@pytest.mark.parametrize(
    "dlo, dhi, holds",  # the pair's twices lo <= hi, as offsets from x below
    [
        (0, 0, True),  # lo - p + 3 = chi = hi - p + 3
        (-1, 0, True),  # chi = lo + q - p + 3
        (0, 5, True),
        (1, 1, False),  # chi below lo - p + 3 by one
        (-1, -1, False),  # chi above hi - p + 3 by one
        (-2, 0, False),  # chi above lo + q - p + 3 by one
    ],
)
def test_euler_bounds_hold_up_to_each_bound_and_not_past_it(g4, dlo, dhi, holds):
    # g4 is a crystallization with q = 1; x = 4 chi - 8 + q is the twice at
    # which chi meets its bounds, so they read x - q <= lo <= x <= hi.  One
    # associated pair's genus twices, handed to the battery as (x + dlo,
    # x + dhi) in either order, meet each bound exactly or miss it by one
    chi, q = euler_characteristic_complex(g4), crystallization_profile(g4, 0).q
    assert q == 1
    x = 4 * chi - 8 + q
    (a, b), cycles = dim4_module._PAIRS[0], _bicolored_cycles(g4)
    for pair in ((x + dlo, x + dhi), (x + dhi, x + dlo)):
        twices = list(genus_twices(g4))
        twices[a], twices[b] = pair
        flags = {"bipartite": False, "odd_reduced_degree": False}
        checks = {"class_genus_sum_constant": True}
        dim4_module.check_identities(
            g4, tuple(twices), sum(twices), cycles,
            [twices[i] + twices[j] for i, j in dim4_module._PAIRS], flags, checks,
        )
        assert flags["crystallization_profile"]
        assert checks["euler_bounds"] is holds


def test_euler_bounds_fail_only_where_excess_genus_offset_fails():
    # excess_genus_offset pins each genus twice to 2(2 chi - 4 + s), s the
    # skip-triple excess of its permutation; an associated pair's two
    # excesses are not negative and sum to q, so the smaller is at most q / 2
    # and the larger at least q / 2, and with p = 3 chi - 5 + q that puts chi
    # inside both Euler bounds.  So no genus twices fail euler_bounds alone.
    # 600 seeded tuples on drawn crystallizations, each the true twices with
    # one or two entries moved by up to 6, every fifth left as it is.
    rng = random.Random(1971)
    crystals = [g for g in _singular_corpus() if "crystallization_profile" in check_graph(g)[0]]
    outcomes = set()
    for k in range(600):
        g = crystals[k % len(crystals)]
        twices = list(genus_twices(g))
        if k % 5:
            for i in rng.sample(range(len(twices)), rng.randrange(1, 3)):
                twices[i] += rng.choice([-1, 1]) * rng.randrange(1, 7)
        cycles = _bicolored_cycles(g)
        flags = {"bipartite": False, "odd_reduced_degree": False}
        checks = {"class_genus_sum_constant": True}
        dim4_module.check_identities(
            g, tuple(twices), sum(twices), cycles,
            [twices[i] + twices[j] for i, j in dim4_module._PAIRS], flags, checks,
        )
        assert flags["crystallization_profile"]
        assert checks["euler_bounds"] or not checks["excess_genus_offset"]
        outcomes.add((checks["euler_bounds"], checks["excess_genus_offset"]))
    assert outcomes == {(True, True), (True, False), (False, False)}


def test_difference_at_most_2q_follows_from_nonnegative_excesses():
    # the paper also bounds each partner difference by 2q, which
    # excess_difference_identity does not test apart: a difference equal to
    # 2(q - 2s) is at most 2q whenever the skip-triple excess s is not
    # negative, and the ledger refuses every negative t_jkl before the check
    # runs.  Only a negative excess breaks the bound.  1,000 arbitrary excess
    # tables, half of them non-negative.
    rng = random.Random(1961)
    triples = list(combinations(range(5), 3))
    caught = set()
    for k in range(1000):
        t = {tri: rng.randrange(-2 if k % 2 else 0, 4) for tri in triples}
        q = sum(t.values())
        skips = dim4_module._PARTNER_OF(
            [sum(t[tri] for tri in tris) for tris in dim4_module._CONSECUTIVE3]
        )
        above = any(2 * (q - 2 * s) > 2 * q for s in skips)
        if min(t.values()) >= 0:
            assert not above
        caught.add(above)
    assert caught == {False, True}


def _pair_masks(d: int) -> list[int]:
    return [mask for mask in range(2 ** (d + 1)) if mask.bit_count() == 2]


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_degree_multiple_is_the_sign_of_the_vector_degree(d):
    # each color pair lies in (d-1)! of the d!/2 cyclic permutations, so the
    # twices of any vector sum to (d-1)! times the reduced degree of its own
    # pair sum: the remainder is always 0, and
    # degree_multiple_of_half_factorial holds exactly when that degree is not
    # negative.  Where degree_formula_agreement holds it is the walk's
    # reduced degree, which no gem has below 0, so the check is implied.
    # 200 vectors with arbitrary pair counts around the bound, half of them
    # a sum-keeping tamper of the true ones.
    rng = random.Random(1941 + d)
    g = corpus(d, 2, 1, seed=810 + d, connected_only=True)[0]
    masks = _pair_masks(d)
    walk_reduced = _reduced_degree(d, g.p, sum(map(len, _bicolored_cycles(g).values())))
    assert walk_reduced >= 0
    outcomes = set()
    for k in range(200):
        vec = [rng.randrange(g.p + 2) for _ in range(2 ** (d + 1))]
        if k % 2:
            for mask in masks:
                vec[mask] = residue_vector(g)[mask]
            a, b = rng.sample(masks, 2)
            shift = rng.randrange(vec[b] + 1)
            vec[a] += shift
            vec[b] -= shift
        h = _stand_in(g, vec)
        reduced = _reduced_degree(d, g.p, _pair_sum(vec))
        assert sum(genus_twices(h)) == factorial(d - 1) * reduced

        checks = check_graph(h)[1]
        assert checks["degree_multiple_of_half_factorial"] is (reduced >= 0)
        assert checks["degree_formula_agreement"] is (reduced == walk_reduced)
        outcomes.add(reduced >= 0)
    assert outcomes == {False, True}


def _bipartite_corpus(d: int) -> list[ColoredGraph]:
    return [
        g for p in (1, 2, 3)
        for g in corpus(d, p, 2, seed=820 + 10 * d + p, connected_only=True, bipartite_only=True)
    ]


@pytest.mark.parametrize("d", [3, 4])
def test_sum_keeping_tamper_breaks_bipartite_genera_integral(d):
    # one unit moved from one pair count to another changes by one the twice
    # genus of each permutation through exactly one of the two pairs, and two
    # pairs that share a color have such a permutation (two disjoint pairs at
    # d = 3 lie in the same two of the three): some genus of a bipartite gem
    # turns half-integral, while the degree, which reads only the pair sum,
    # still agrees with the walk
    masks = _pair_masks(d)
    tampers = 0
    for g in _bipartite_corpus(d):
        flags, checks = check_graph(g)
        assert flags["bipartite"] and checks["bipartite_genera_integral"]
        vec = residue_vector(g)
        for up in masks:
            for down in masks:
                if up != down and up & down and vec[down]:
                    tampered = list(vec)
                    tampered[up] += 1
                    tampered[down] -= 1
                    checks = check_graph(_stand_in(g, tampered))[1]
                    assert checks["degree_formula_agreement"] is True
                    assert checks["bipartite_genera_integral"] is False
                    tampers += 1
    assert tampers > 100


@pytest.mark.parametrize(
    "flag, d, failing",
    [
        ("bipartite", 4, {"bipartite_degree_divisibility", "odd_reduced_forces_nonorientable"}),
        ("bipartite", 6, {"bipartite_degree_divisibility"}),
        ("singular_manifold", 4,
         {"singular_degree_divisibility", "odd_reduced_forces_nonorientable"}),
    ],
)
def test_one_more_cycle_on_both_sides_breaks_the_main_theorem(monkeypatch, flag, d, failing):
    # one pair count raised by one, and one fake cycle of the same pair added
    # to the walk: the reduced degree drops by one on both sides, so they
    # still agree, but it is now odd on a bipartite or singular-manifold gem.
    # The bipartite test reads the matchings alone; the singular test keeps
    # reading the true walk (a fake cycle would make some 3-colored residue a
    # non-sphere).  The other flag's test is made to answer False, so the
    # checks fail on the one flag alone: the small singular gems are all
    # bipartite, and some bipartite ones singular
    spherical = dim4_module._spherical_triples
    if flag == "bipartite":
        monkeypatch.setattr(dim4_module, "_spherical_triples", lambda g, cycles, counts: False)
        gems = _bipartite_corpus(d)
    else:
        def true_walk(g, cycles, counts):
            walk = _bicolored_cycles(g)
            return spherical(g, walk, _cycle_counts(walk))

        monkeypatch.setattr(dim4_module, "_spherical_triples", true_walk)
        gems = _singular_corpus()
        monkeypatch.setattr(reports_module, "is_bipartite", lambda g: False)
    tampers = 0
    for g in gems:
        assert check_graph(g)[0][flag]
        vec = residue_vector(g)
        for mask in _pair_masks(d):
            pair = tuple(c for c in range(d + 1) if mask >> c & 1)
            tampered = list(vec)
            tampered[mask] += 1
            walk = _bicolored_cycles(g)
            walk[pair] = walk[pair] + walk[pair][:1]
            monkeypatch.setattr(reports_module, "_bicolored_cycles", lambda h: walk)
            flags, checks = check_graph(_stand_in(g, tampered))
            assert [name for name in ("bipartite", "singular_manifold") if flags.get(name)] == [flag]
            assert checks["degree_formula_agreement"] is True
            assert failing <= _failed(checks)
            tampers += 1
    assert tampers >= 30


@pytest.mark.parametrize("d", [2, 3, 5, 6])
def test_class_sums_follow_the_vector_pair_sum(d):
    # at every d with a partition, each class sum of genus_twices is the
    # closed form of the vector's own pair sum, whatever the vector holds
    rng = random.Random(1917 + d)
    g = corpus(d, 2, 1, seed=780 + d, connected_only=True)[0]
    expected_factor = 1 if d % 2 == 0 else 2
    classes = _class_indices(d)
    assert classes
    for _ in range(200):
        vec = [rng.randrange(2 * g.order + 1) for _ in range(2 ** (d + 1))]
        twices = genus_twices(_stand_in(g, vec))
        closed = expected_factor * _reduced_degree(d, g.p, _pair_sum(vec))
        assert all(sum(twices[i] for i in cls) == closed for cls in classes)


@pytest.mark.parametrize("d", range(2, 7))
def test_tampered_pair_count_is_reported_not_raised(d, g4):
    # the walk side (reduced degree, walk Euler characteristic, the d = 4 pair
    # gaps) never reads the vector, so a corrupted pair count shows up as
    # violated checks
    graphs = corpus(d, 3, 2, seed=700 + d, connected_only=True) + ([g4] if d == 4 else [])
    for g in graphs:
        flags, checks = check_graph(g)
        assert all(checks.values())
        flags, checks = check_graph(_bump(g, (0, 1)))
        expected = {"surface_classification" if d == 2 else "degree_formula_agreement"}
        if d == 4:
            expected |= {"pair_sum_constant", "pair_difference_bicolored"}
            if g is g4 or flags["singular_manifold"]:
                expected.add("euler_formula_agreement")
        assert expected <= {name for name, ok in checks.items() if not ok}


@pytest.mark.parametrize("cycles, bipartite", [(2, False), (1, True)])
def test_extra_cycles_on_both_sides_break_one_surface_clause(
    monkeypatch, rp2_gem, cycles, bipartite
):
    # extra cycles of one pair, added to the vector and the walk alike, keep
    # the walk's Euler characteristic equal to the vector's and 2w = 2 - chi:
    # two on the projective plane give chi = 3 > 2, and one on a bipartite
    # torus an odd chi on a bipartite gem, each the one failing clause (the
    # torus's odd genus twice fails bipartite_genera_integral as well)
    if bipartite:
        tori = corpus(2, 3, 40, seed=950, connected_only=True, bipartite_only=True)
        g = next(h for h in tori if euler_characteristic_complex(h) == 0)
    else:
        g = rp2_gem
    assert all(check_graph(g)[1].values())
    vec = list(residue_vector(g))
    vec[0b011] += cycles
    walk = _bicolored_cycles(g)
    walk[(0, 1)] = walk[(0, 1)] + walk[(0, 1)][:1] * cycles
    monkeypatch.setattr(reports_module, "_bicolored_cycles", lambda h: walk)
    h = _stand_in(g, vec)
    chi = euler_characteristic_complex(h)
    assert chi == (1 if bipartite else 3) and sum(genus_twices(h)) == 2 - chi
    flags, checks = check_graph(h)
    assert flags["bipartite"] is bipartite
    assert _failed(checks) == {"surface_classification"} | (
        {"bipartite_genera_integral"} if bipartite else set()
    )


def test_tampered_pair_only_count_breaks_degree_formula(monkeypatch):
    # at d = 3 the genus side counts the pairs alone, never the full vector:
    # a corrupted pair count there disagrees with the bicolored-cycle walk
    build = core_module._build_vector

    def bumped(order, matchings, size=None):
        assert size == 2
        vec = list(build(order, matchings, size))
        vec[0b0011] += 1
        return tuple(vec)

    graphs = corpus(3, 4, 10, seed=730, connected_only=True)
    assert all(all(check_graph(g)[1].values()) for g in graphs)
    monkeypatch.setattr(core_module, "_build_vector", bumped)
    for g in graphs:
        fresh = ColoredGraph(d=3, order=g.order, matchings=g.matchings)
        checks = check_graph(fresh)[1]
        assert checks["degree_formula_agreement"] is False
        assert fresh._vector is None


@pytest.mark.parametrize("d", range(2, 7))
def test_battery_counts_full_vector_only_where_read(monkeypatch, d):
    # d = 2 (the simplicial Euler characteristic) and d = 4 (the five-color
    # identities) build the full vector once; elsewhere the pairs alone
    full = d in (2, 4)
    sizes = []
    build = core_module._build_vector

    def counting(order, matchings, size=None):
        sizes.append(size)
        return build(order, matchings, size)

    monkeypatch.setattr(core_module, "_build_vector", counting)
    for p in range(1, 4):
        for g in corpus(d, p, 5, seed=740 + p, connected_only=True):
            fresh = ColoredGraph(d=d, order=g.order, matchings=g.matchings)
            sizes.clear()
            check_graph(fresh)
            assert sizes == [None if full else 2]
            assert (fresh._vector is not None) == full


def test_battery_refuses_disconnected():
    for d in (3, 4):
        two_dipoles = ColoredGraph(d=d, order=4, matchings=(M_A,) * (d + 1))
        for _ in range(2):  # the second call reads the kept answer
            with pytest.raises(GemError, match="connected"):
                check_graph(two_dipoles)
        assert two_dipoles._connected is False


def test_analysis_reads_genera_once(monkeypatch, g4, rp2_gem):
    # one genus_twices and one full vector per report, whatever d, and with
    # crystallization metadata
    calls = []
    build = core_module._build_vector

    def counting_twices(g):
        calls.append("genus_twices")
        return genus_twices(g)

    def counting_build(order, matchings, size=None):
        calls.append(size)
        return build(order, matchings, size)

    for name, module in list(sys.modules.items()):
        if name.startswith("gemcalc") and hasattr(module, "genus_twices"):
            monkeypatch.setattr(module, "genus_twices", counting_twices)
    monkeypatch.setattr(core_module, "_build_vector", counting_build)
    metadata = {"m": 0, "closed_manifold_asserted": True}
    cases = [(dipole(d), None) for d in range(2, 7)] + [(g4, None), (rp2_gem, None)]
    cases += [(dipole(4), metadata), (g4, metadata)]  # the crystallization block too
    for g, meta in cases:
        fresh = ColoredGraph(d=g.d, order=g.order, matchings=g.matchings)
        calls.clear()
        report = analysis_report(fresh, meta)
        assert calls == [None, "genus_twices"]
        assert ("crystallization" in report.get("dim4", {})) == (meta is not None)


def test_analysis_forms_each_d4_fact_once(monkeypatch, g4, odd_degree_witness):
    # the five-color block reads what the battery formed: one bicolored walk,
    # one sphere test and one pair gap tuple per report, and no second
    # singular-manifold recognition, with and without crystallization metadata
    calls = Counter()
    singular, closed = is_singular_4_manifold, is_closed_3_manifold

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)

        return counted

    walk = counting("walk", _bicolored_cycles)
    for name, module in list(sys.modules.items()):
        if name.startswith("gemcalc") and hasattr(module, "_bicolored_cycles"):
            monkeypatch.setattr(module, "_bicolored_cycles", walk)
    for name, fn in [
        ("_spherical_triples", _spherical_triples),
        ("_pair_gaps", _pair_gaps),
        ("is_singular_4_manifold", singular),
    ]:
        monkeypatch.setattr(dim4_module, name, counting(name, fn))
    metadata = {"m": 0, "closed_manifold_asserted": True}
    cases = [(g, meta) for g in (dipole(4), g4, odd_degree_witness) for meta in (None, metadata)]
    for g, meta in cases:
        singular.cache_clear()
        closed.cache_clear()
        calls.clear()
        fresh = ColoredGraph(d=g.d, order=g.order, matchings=g.matchings)
        if g is odd_degree_witness and meta is not None:
            with pytest.raises(GemError, match="singular-manifold residue test"):
                analysis_report(fresh, meta)
        else:
            report = analysis_report(fresh, meta)
            assert ("crystallization" in report["dim4"]) == (meta is not None)
        assert calls == {"walk": 1, "_spherical_triples": 1, "_pair_gaps": 1}


def _crystallization_corpus() -> list[ColoredGraph]:
    graphs = [g for p in (1, 2) for g in enumerate_gems(4, p, connected_only=True)]
    drawn = [(1, 20, 941), (2, 200, 942), (3, 600, 903), (4, 3000, 904), (5, 8000, 915)]
    graphs += [g for p, n, seed in drawn for g in corpus(4, p, n, seed, connected_only=True)]
    return [g for g in graphs if "crystallization_profile" in check_graph(g)[0]]


def test_analysis_block_agrees_with_the_public_profile_and_classification():
    # the block classifies by the battery's pair gaps off the walk; the public
    # path reads them off the residue vector
    crystals = _crystallization_corpus()
    assert {g.p for g in crystals} == {1, 2, 3, 4, 5}
    for g in crystals:
        for m in (0, 1):
            metadata = {"m": m, "closed_manifold_asserted": True}
            try:
                profile = crystallization_profile(g, m)
            except GemError as exc:
                assert m == 1
                with pytest.raises(GemError) as refused:
                    analysis_report(g, metadata)
                assert str(refused.value) == str(exc)
                continue
            result = classify_crystallization(profile, g)
            assert analysis_report(g, metadata)["dim4"]["crystallization"] == {
                "m": profile.m,
                "euler": profile.euler,
                "q": profile.q,
                "minimal_half_order": profile.p_bar,
                "triple_excess": {
                    _perm_key(t): v for t, v in sorted(profile.t_triples.items()) if v
                },
                "kind": result.kind,
                "witness": _perm_key(result.witness) if result.witness else None,
                "satisfies_12rho": result.satisfies_12rho,
            }


# --- component labels over the bicolored cycles ---------------------------------


def _label_walk_corpus() -> list[ColoredGraph]:
    graphs = [g for p in (1, 2) for g in enumerate_gems(4, p, connected_only=True)]
    graphs += [
        g for p in range(1, 7) for g in corpus(4, p, 60, seed=400 + p, connected_only=True)
    ]
    graphs += [g for p in range(1, 7) for g in corpus(3, p, 60, seed=500 + p)]
    return graphs


def test_label_walk_matches_extracted_residues():
    spherical = set()
    for g in _label_walk_corpus():
        cycles = _bicolored_cycles(g)
        for (r, s), reps in cycles.items():
            assert len(reps) == oracle_faces(g, r, s)
        for h in range(3, g.d + 1):  # the triples, and at d = 4 the hats
            for colors in combinations(g.colors, h):
                walked = _component_faces(g, cycles, colors)
                extracted = [
                    (sum(oracle_faces(c, r, s) for r, s in combinations(c.colors, 2)), c.p)
                    for c in oracle_residues(g, colors)
                ]
                assert walked == extracted
                if h == 3:
                    spherical.update(faces - p_c == 2 for faces, p_c in walked)
    assert spherical == {True, False}


def test_gap_table_and_hat_total_match_oracles():
    # each gap is the adjacent-pair faces minus the skip-pair faces, walked
    # edge by edge; the count-only hat total, which labels only the hats with
    # no one-cycle pair, is the per-component degree sum of the walk over all
    nonzero = set()
    for g in _label_walk_corpus():
        if g.d != 4:
            continue
        faces = {pair: oracle_faces(g, *pair) for pair in combinations(g.colors, 2)}
        gaps = _pair_gaps(residue_vector(g))
        assert gaps == tuple(
            sum(faces[pair] for pair in cycle_pairs(eps))
            - sum(faces[pair] for pair in cycle_pairs(associated_permutation(eps)))
            for eps in cyclic_permutations(4)
        )
        nonzero.add(any(gaps))
        cycles = _bicolored_cycles(g)
        assert _hat_degree_total(g, _cycle_counts(cycles)) == sum(
            _reduced_degree(3, p_c, f_c)
            for hat in combinations(g.colors, 4)
            for f_c, p_c in _component_faces(g, cycles, hat)
        )
    assert nonzero == {True, False}


def _one_cycle_pair(cycles: dict, colors: tuple[int, ...]) -> bool:
    """Whether some color pair of the residue is one bicolored cycle."""
    return any(len(cycles[pair]) == 1 for pair in combinations(colors, 2))


def test_one_cycle_pair_proves_its_residues_connected():
    # a pair that is one cycle through every vertex keeps every vertex in one
    # component of each residue holding that pair, and adding colors splits
    # none: the residue is one component with all its pairs' cycles and
    # half-order p.  The triple test that skips the label walk there agrees
    # with the walk over every triple (the hat total is held to it in
    # test_gap_table_and_hat_total_match_oracles, over the same corpus)
    graphs = _label_walk_corpus() + [g for p in (1, 2) for g in enumerate_gems(3, p)]
    seen = set()
    for g in graphs:
        cycles = _bicolored_cycles(g)
        for h in range(3, g.d + 1):  # the triples, and at d = 4 the hats
            for colors in combinations(g.colors, h):
                proved = _one_cycle_pair(cycles, colors)
                seen.add((h, proved))
                if proved:
                    faces = sum(len(cycles[pair]) for pair in combinations(colors, 2))
                    assert [
                        (sum(oracle_faces(c, r, s) for r, s in combinations(c.colors, 2)), c.p)
                        for c in oracle_residues(g, colors)
                    ] == [(faces, g.p)]
        assert _spherical_triples(g, cycles, _cycle_counts(cycles)) == all(
            faces - p_c == 2
            for triple in combinations(g.colors, 3)
            for faces, p_c in _component_faces(g, cycles, triple)
        )
    assert seen == {(h, proved) for h in (3, 4) for proved in (True, False)}


def test_split_label_walk_fails_where_no_pair_is_one_cycle(monkeypatch):
    # a singular gem whose hat {0, 1, 3, 4} and its four triples have no
    # one-cycle pair (colors 0, 1, 3 and 4 are one matching): the battery
    # labels them, so a label walk that splits one component off fails the
    # residue-degree identity and makes a sphere triple a non-sphere
    g = ColoredGraph(d=4, order=4, matchings=(M_B, M_B, M_A, M_B, M_B))
    cycles = _bicolored_cycles(g)
    assert [hat for hat in combinations(range(5), 4) if not _one_cycle_pair(cycles, hat)] == [
        (0, 1, 3, 4)
    ]
    flags, checks = check_graph(g)
    assert flags["singular_manifold"] and all(checks.values())
    labels = dim4_module._component_labels

    def splitting(h, colors):
        # the last vertex of component 0 becomes a component of its own
        label, sizes = labels(h, colors)
        v = max(v for v, k in enumerate(label) if k == 0)
        label[v] = len(sizes)
        sizes[0] -= 1
        sizes.append(1)
        return label, sizes

    monkeypatch.setattr(dim4_module, "_component_labels", splitting)
    flags, checks = check_graph(ColoredGraph(d=4, order=4, matchings=g.matchings))
    assert checks["residue_degree_identity"] is False
    assert flags["singular_manifold"] is False


def test_d4_battery_reads_each_residue_fact_once(monkeypatch, g4, odd_degree_witness):
    # per gem: one pair gap tuple, and one label walk per residue with no
    # one-cycle pair, every hat and at most each triple, with faces
    # attributed per component on the triples alone
    graphs = [g for p in range(1, 7) for g in corpus(4, p, 20, seed=600 + p, connected_only=True)]
    graphs += [g4, odd_degree_witness]
    pair_gap_builds, labelled, faced = [], [], []
    pair_gaps, labels, component_faces = (
        dim4_module._pair_gaps, dim4_module._component_labels, dim4_module._component_faces
    )

    def counting_gaps(vec):
        pair_gap_builds.append(vec)
        return pair_gaps(vec)

    def counting_labels(g, colors):
        labelled.append(tuple(colors))
        return labels(g, colors)

    def counting_faces(g, cycles, colors):
        faced.append(tuple(colors))
        return component_faces(g, cycles, colors)

    monkeypatch.setattr(dim4_module, "_pair_gaps", counting_gaps)
    monkeypatch.setattr(dim4_module, "_component_labels", counting_labels)
    monkeypatch.setattr(dim4_module, "_component_faces", counting_faces)
    branches, walked = set(), Counter()
    for g in graphs:
        pair_gap_builds.clear()
        labelled.clear()
        faced.clear()
        flags, _ = check_graph(g)
        assert len(pair_gap_builds) == 1
        cycles = _bicolored_cycles(g)
        hats = [colors for colors in labelled if len(colors) == 4]
        triples = [colors for colors in labelled if len(colors) == 3]
        assert sorted(hats) == [
            hat for hat in combinations(range(5), 4) if not _one_cycle_pair(cycles, hat)
        ]
        assert len(hats) + len(triples) == len(labelled)
        assert len(set(triples)) == len(triples)
        assert not any(_one_cycle_pair(cycles, triple) for triple in triples)
        assert faced == triples
        walked.update(hats=len(hats), triples=len(triples))
        branches.add((flags["singular_manifold"], "crystallization_profile" in flags))
    assert branches == {(False, False), (True, False), (True, True)}
    assert walked["hats"] and walked["triples"]


def test_d4_battery_builds_no_graphs(built_graphs, g4, odd_degree_witness):
    graphs = [g4, odd_degree_witness]
    graphs += [g for p in range(1, 7) for g in corpus(4, p, 20, seed=600 + p, connected_only=True)]
    for g in graphs:
        residue_vector(g)
    built_graphs.clear()
    branches = set()
    for g in graphs:
        flags, _ = check_graph(g)
        branches.add((flags["singular_manifold"], "crystallization_profile" in flags))
    assert built_graphs == []
    assert branches == {(False, False), (True, False), (True, True)}


@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_battery_walks_bicolored_cycles_once(monkeypatch, d, g4, odd_degree_witness):
    graphs = [g for p in range(1, 7) for g in corpus(d, p, 20, seed=600 + p, connected_only=True)]
    if d == 4:
        graphs += [g4, odd_degree_witness]
    walks = []
    walk = _bicolored_cycles

    def counting(g):
        walks.append(g)
        return walk(g)

    importers = [
        module
        for name, module in sys.modules.items()
        if name.startswith("gemcalc") and hasattr(module, "_bicolored_cycles")
    ]
    for module in importers:
        monkeypatch.setattr(module, "_bicolored_cycles", counting)
    branches = set()
    for g in graphs:
        walks.clear()
        flags, _ = check_graph(g)
        assert walks == [g]
        branches.add((flags.get("singular_manifold"), "crystallization_profile" in flags))
    if d == 4:
        assert branches == {(False, False), (True, False), (True, True)}


def test_analysis_walks_bicolored_cycles_once(monkeypatch, g4, rp2_gem):
    walks = []
    walk = _bicolored_cycles

    def counting(g):
        walks.append(g)
        return walk(g)

    for name, module in list(sys.modules.items()):
        if name.startswith("gemcalc") and hasattr(module, "_bicolored_cycles"):
            monkeypatch.setattr(module, "_bicolored_cycles", counting)
    singular = set()
    for g in [dipole(d) for d in range(2, 7)] + [g4, rp2_gem]:
        walks.clear()
        report = analysis_report(g)
        assert walks == [g]
        if g.d == 4:
            singular.add("euler_by_pair_formula" in report["dim4"])
    assert singular == {True}  # both d = 4 graphs are singular: the Euler block ran
