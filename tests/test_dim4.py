"""Five-colored graph machinery: associated pairs, manifold recognition,
Euler identities, crystallization profiles."""

from __future__ import annotations

import sys
from itertools import combinations

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
from gemcalc.embeddings import _bicolored_cycles
from gemcalc.reports import analysis_report, check_graph
from gemcalc.dim4 import NEITHER, SEMI_SIMPLE, WEAK_SEMI_SIMPLE, _component_faces, skip_triples

from conftest import M_A, M_B, M_C, corpus, oracle_components, oracle_faces, oracle_residues


# --- associated permutations --------------------------------------------------


def test_associated_permutation_example():
    assert associated_permutation((0, 1, 2, 3, 4)) == (0, 2, 4, 1, 3)


def test_association_is_involutive():
    for eps in cyclic_permutations(4):
        assert associated_permutation(associated_permutation(eps)) == eps


def test_association_covers_all_pairs():
    from gemcalc.perms import cycle_pairs

    for eps in cyclic_permutations(4):
        partner = associated_permutation(eps)
        union = sorted(cycle_pairs(eps) + cycle_pairs(partner))
        assert union == sorted(combinations(range(5), 2))


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
        excess = sum(profile.t_triples[t] for t in skip_triples(eps))
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


def test_tampered_triple_count_breaks_tricolored_difference(g4):
    # singular-manifold recognition labels residues over the bicolored-cycle
    # walk, so a corrupted triple count cannot switch the tricolored identity off
    flags, checks = check_graph(g4)
    assert flags["singular_manifold"] and checks["pair_difference_tricolored"]
    flags, checks = check_graph(_bump(g4, (0, 1, 2)))
    assert flags["singular_manifold"]
    assert checks["pair_difference_tricolored"] is False
    assert checks["residue_degree_identity"]


@pytest.mark.parametrize("d", range(2, 7))
def test_tampered_pair_count_is_reported_not_raised(d, g4):
    # the walk side (reduced degree, walk Euler characteristic) never reads the
    # vector, so a corrupted pair count shows up as violated checks
    graphs = corpus(d, 3, 2, seed=700 + d, connected_only=True) + ([g4] if d == 4 else [])
    for g in graphs:
        flags, checks = check_graph(g)
        assert all(checks.values())
        flags, checks = check_graph(_bump(g, (0, 1)))
        expected = {"surface_classification" if d == 2 else "degree_formula_agreement"}
        if d == 4:
            expected.add("pair_sum_constant")
            if g is g4 or flags["singular_manifold"]:
                expected.add("euler_formula_agreement")
        assert expected <= {name for name, ok in checks.items() if not ok}


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


# --- component labels over the bicolored cycles ---------------------------------


def test_label_walk_matches_extracted_residues():
    graphs = [g for p in (1, 2) for g in enumerate_gems(4, p, connected_only=True)]
    graphs += [
        g for p in range(1, 7) for g in corpus(4, p, 60, seed=400 + p, connected_only=True)
    ]
    graphs += [g for p in range(1, 7) for g in corpus(3, p, 60, seed=500 + p)]
    spherical = set()
    for g in graphs:
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


def test_d4_battery_builds_no_graphs(monkeypatch, g4, odd_degree_witness):
    graphs = [g4, odd_degree_witness]
    graphs += [g for p in range(1, 7) for g in corpus(4, p, 20, seed=600 + p, connected_only=True)]
    for g in graphs:
        residue_vector(g)
    built = []
    post_init = ColoredGraph.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(ColoredGraph, "__post_init__", counting)
    branches = set()
    for g in graphs:
        flags, _ = check_graph(g)
        branches.add((flags["singular_manifold"], "crystallization_profile" in flags))
    assert built == []
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
