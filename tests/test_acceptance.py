"""Acceptance gate: one test per numbered criterion, each printing a
pass/fail line.  Corpora are exhaustive at small order plus seeded random
samples; all tolerances are exact (the identities are integer identities).

Criterion 9 is split: 9a (odd reduced-degree witness) and 9b (the
projective-plane order claims).  9b checks that the minimal projective-plane
witness has order 4: the 3-colored K4, whose three color classes are the
three distinct fixed-point-free involutions of four points.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import chain

import pytest

from gemcalc import (
    GenSpec,
    dipole,
    enumerate_gems,
    euler_characteristic_complex,
    g_degree_definition,
    is_bipartite,
    is_singular_4_manifold,
    partition_even,
    partition_odd,
    random_gem,
    reduced_g_degree,
    search_odd_reduced,
    search_rp2,
    validate_partition,
)
from gemcalc.reports import campaign_report, check_graph, report_json

from conftest import (
    M_A,
    M_B,
    M_C,
    oracle_bipartite,
    oracle_components,
    oracle_simplex_counts,
)


def _line(num: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@dataclass
class Battery:
    graphs: int = 0
    counts: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)
    elapsed: float = 0.0

    def evaluated(self, name: str) -> int:
        return self.stats.get(name, (0, 0))[0]

    def violations(self, name: str) -> int:
        return self.stats.get(name, (0, 0))[1]


def run_battery(graphs) -> Battery:
    out = Battery()
    t0 = time.time()
    for g in graphs:
        flags, checks = check_graph(g)
        out.graphs += 1
        for k, v in flags.items():
            if v:
                out.counts[k] = out.counts.get(k, 0) + 1
        for name, ok in checks.items():
            slot = out.stats.setdefault(name, [0, 0])
            slot[0] += 1
            if not ok:
                slot[1] += 1
    out.elapsed = time.time() - t0
    return out


@pytest.fixture(scope="module")
def d4_battery() -> Battery:
    graphs = chain(
        enumerate_gems(4, 1, connected_only=True),
        enumerate_gems(4, 2, connected_only=True),
        *(
            random_gem(
                GenSpec(d=4, p=p, count=10_000, seed=40_000 + p, connected_only=True)
            )
            for p in (3, 4, 5, 6)
        ),
    )
    return run_battery(graphs)


@pytest.fixture(scope="module")
def d3_battery() -> Battery:
    sizes = {1: 1667, 2: 1667, 3: 1667, 4: 1667, 5: 1666, 6: 1666}
    graphs = chain.from_iterable(
        random_gem(GenSpec(d=3, p=p, count=n, seed=30_000 + p, connected_only=True))
        for p, n in sizes.items()
    )
    return run_battery(graphs)


@pytest.fixture(scope="module")
def d5_battery() -> Battery:
    graphs = chain.from_iterable(
        random_gem(GenSpec(d=5, p=p, count=250, seed=50_000 + p, connected_only=True))
        for p in (1, 2, 3, 4)
    )
    return run_battery(graphs)


@pytest.fixture(scope="module")
def d6_battery() -> Battery:
    graphs = chain.from_iterable(
        random_gem(
            GenSpec(
                d=6, p=p, count=50, seed=60_000 + p,
                connected_only=True, bipartite_only=True,
            )
        )
        for p in (1, 2)
    )
    return run_battery(graphs)


def test_criterion_01_formula_agreement(d4_battery):
    b = d4_battery
    ok = (
        b.graphs == 40_081
        and b.evaluated("degree_formula_agreement") == b.graphs
        and b.violations("degree_formula_agreement") == 0
        and b.elapsed < 300.0
    )
    _line(
        "1",
        ok,
        f"definition == formula on {b.graphs} graphs "
        f"({b.violations('degree_formula_agreement')} violations, "
        f"{b.elapsed:.0f}s)",
    )


def test_criterion_02_degree_divisibility(d4_battery, d3_battery, d5_battery):
    name = "degree_multiple_of_half_factorial"
    parts = {
        "d=4": d4_battery,
        "d=3": d3_battery,
        "d=5": d5_battery,
    }
    bad = {label: b.violations(name) for label, b in parts.items()}
    sizes = {label: b.evaluated(name) for label, b in parts.items()}
    ok = (
        all(v == 0 for v in bad.values())
        and sizes["d=3"] == 10_000
        and sizes["d=5"] == 1_000
        and sizes["d=4"] == 40_081
    )
    _line("2", ok, f"degree is a non-negative multiple of (d-1)!/2: {sizes}, violations {bad}")


def test_criterion_03_bipartite_divisibility(d4_battery, d6_battery):
    name = "bipartite_degree_divisibility"
    ok = (
        d4_battery.violations(name) == 0
        and d4_battery.evaluated(name) == d4_battery.counts.get("bipartite", 0)
        and d4_battery.evaluated(name) > 0
        and d6_battery.violations(name) == 0
        and d6_battery.evaluated(name) == 100
    )
    _line(
        "3",
        ok,
        f"bipartite degree divisible by (d-1)!: d=4 on "
        f"{d4_battery.evaluated(name)} graphs, d=6 on {d6_battery.evaluated(name)}",
    )


def test_criterion_04_singular_divisibility(d4_battery):
    name = "singular_degree_divisibility"
    ok = (
        d4_battery.violations(name) == 0
        and d4_battery.evaluated(name) == d4_battery.counts.get("singular_manifold", 0)
        and d4_battery.evaluated(name) > 0
    )
    _line(
        "4",
        ok,
        f"singular-manifold degree divisible by 6 on {d4_battery.evaluated(name)} graphs",
    )


def test_criterion_05_pair_degree_identity(d4_battery):
    ok = (
        d4_battery.violations("pair_degree_identity") == 0
        and d4_battery.violations("pair_sum_constant") == 0
        and d4_battery.evaluated("pair_degree_identity") == d4_battery.graphs
    )
    _line(
        "5",
        ok,
        f"degree equals six times every associated pair sum on {d4_battery.graphs} graphs",
    )


def test_criterion_06_difference_identities(d4_battery):
    singular = d4_battery.counts.get("singular_manifold", 0)
    ok = (
        d4_battery.violations("pair_difference_bicolored") == 0
        and d4_battery.evaluated("pair_difference_bicolored") == d4_battery.graphs
        and d4_battery.violations("pair_difference_tricolored") == 0
        and d4_battery.evaluated("pair_difference_tricolored") == singular
        and singular > 0
        and d4_battery.violations("minimal_degree_biconditional") == 0
        and d4_battery.evaluated("minimal_degree_biconditional") == d4_battery.graphs
    )
    _line(
        "6",
        ok,
        f"pair/triple genus differences and the minimal-degree biconditional "
        f"({singular} singular graphs)",
    )


def test_criterion_07_euler_cross_check(d4_battery):
    anchors = {
        2: euler_characteristic_complex(dipole(2)),
        3: euler_characteristic_complex(dipole(3)),
        4: euler_characteristic_complex(dipole(4)),
        5: euler_characteristic_complex(dipole(5)),
    }
    ok = (
        d4_battery.violations("euler_formula_agreement") == 0
        and d4_battery.evaluated("euler_formula_agreement")
        == d4_battery.counts.get("singular_manifold", 0)
        and anchors == {2: 2, 3: 0, 4: 2, 5: 0}
    )
    _line(
        "7",
        ok,
        f"genus-pair Euler characteristic matches the complex on "
        f"{d4_battery.evaluated('euler_formula_agreement')} singular graphs; "
        f"dipole anchors {anchors}",
    )


def test_criterion_08_decompositions(d3_battery, d4_battery, d5_battery, d6_battery):
    partition_odd.cache_clear()
    partition_even.cache_clear()
    t0 = time.time()
    odd5 = partition_odd(5)
    odd7 = partition_odd(7)
    even4 = partition_even(4)
    even6 = partition_even(6)
    elapsed = time.time() - t0
    shapes = (
        len(odd5.classes) == 6
        and len(odd7.classes) == 120
        and len(even4.classes) == 1
        and len(even6.classes) == 12
        and all(validate_partition(p) for p in (odd5, odd7, even4, even6))
    )
    class_sums = all(
        b.violations("class_genus_sum_constant") == 0
        and b.evaluated("class_genus_sum_constant") == b.graphs
        for b in (d3_battery, d4_battery, d5_battery, d6_battery)
    )
    ok = shapes and class_sums and elapsed < 60.0
    _line(
        "8",
        ok,
        f"partitions 6/120/1/12 validated in {elapsed:.1f}s; class genus sums "
        f"constant on every corpus",
    )


def test_criterion_09a_odd_reduced_witness():
    witness = search_odd_reduced(4, 8)
    ok = (
        witness is not None
        and reduced_g_degree(witness) % 2 == 1
        and not is_bipartite(witness)
        and not is_singular_4_manifold(witness)
    )
    detail = (
        "no witness found"
        if witness is None
        else f"order {witness.order}, reduced degree {reduced_g_degree(witness)}, "
        f"non-bipartite, non-singular"
    )
    _line("9a", ok, f"odd reduced-degree witness: {detail}")


def test_criterion_09b_projective_plane_order_claims():
    # The first witness is the 3-colored K4 at order four: every color pair
    # spans one bicolored 4-cycle, so the complex has 3 vertices, 6 edges
    # and 4 triangles (chi = 1), and K4 has triangles (non-bipartite).  The
    # only order-two gem is the sphere dipole.  chi and bipartiteness are
    # taken from the independent oracles, and the library must agree.
    def oracle_chi(g):
        return sum((-1) ** i * n for i, n in enumerate(oracle_simplex_counts(g)))

    hits, agree = {}, True
    for p in (1, 2):
        gems = list(enumerate_gems(2, p, connected_only=True))
        hits[p] = sorted(
            g.matchings
            for g in gems
            if oracle_chi(g) == 1 and not oracle_bipartite(g)
        )
        agree &= hits[p] == sorted(
            g.matchings
            for g in gems
            if euler_characteristic_complex(g) == 1 and not is_bipartite(g)
        )
    witness = search_rp2()
    ok = (
        witness.order == 4
        and witness.matchings == (M_A, M_B, M_C)
        and oracle_components(witness, witness.colors) == 1
        and not hits[1]
        and hits[2] == sorted([(M_A, M_B, M_C), (M_A, M_C, M_B)])
        and agree
    )
    _line(
        "9b",
        ok,
        f"projective-plane witness found at order {witness.order}; "
        f"{len(hits[1])} witnesses at order 2, {len(hits[2])} at order 4 "
        f"(K4 colorings expected); library agrees with oracles: {agree}",
    )


def test_criterion_09_witness_is_genuine():
    # the parts of criterion 9 that the witness itself satisfies
    from gemcalc import HalfInt, surface_type

    witness = search_rp2()
    st = surface_type(witness)
    ok = (
        st.euler == 1
        and not st.orientable
        and st.genus == HalfInt(1)
        and g_degree_definition(witness) == HalfInt(1)
    )
    _line("9 (witness quality)", ok, "chi 1, non-orientable, genus 1/2, degree 1/2")


def test_criterion_10_crystallization_ledger(d4_battery):
    names = (
        "crystallization_profile_consistent",
        "excess_difference_identity",
        "excess_genus_offset",
        "excess_pair_sum",
        "classification_consistent",
        "euler_bounds",
        "residue_degree_identity",
    )
    profiles = d4_battery.counts.get("crystallization_profile", 0)
    bad = {n: d4_battery.violations(n) for n in names}
    ok = all(v == 0 for v in bad.values()) and profiles > 0
    _line(
        "10",
        ok,
        f"{profiles} accepted profiles; excess identities, classification "
        f"agreement, and the residue-degree identity hold (violations {bad})",
    )


def test_criterion_11_reproducibility():
    first = campaign_report(d=4, mode="random", max_p=4, count=400, seed=777)
    second = campaign_report(d=4, mode="random", max_p=4, count=400, seed=777)
    ok = report_json(first) == report_json(second) and first["status"] == "ok"
    _line("11", ok, "repeated campaign with one seed is byte-identical")
