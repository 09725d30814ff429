"""Corpus generation: dipoles, seeded random gems, enumeration, searches."""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations, islice, product

import pytest

from gemcalc import (
    ColoredGraph,
    GemError,
    GenSpec,
    HalfInt,
    SplitMix64,
    dipole,
    enumerate_gems,
    euler_characteristic_complex,
    g_degree_definition,
    is_bipartite,
    is_connected,
    is_singular_4_manifold,
    random_gem,
    reduced_g_degree,
    regular_genus,
    search_odd_reduced,
    search_rp2,
    surface_type,
)
from gemcalc.generator import (
    _gem_stream,
    _matchings,
    _random_stream,
    _stream_seeds,
    all_matchings,
    enumeration_size,
)
from gemcalc.perms import cyclic_permutations

from conftest import M_A, M_B, M_C


def test_dipole_properties():
    for d in (2, 3, 4, 5):
        g = dipole(d)
        assert g.order == 2 and is_bipartite(g) and is_connected(g)
        assert g_degree_definition(g) == 0
        for b_size in range(1, d + 2):
            for b in combinations(range(d + 1), b_size):
                from gemcalc import residue_count

                assert residue_count(g, b) == 1


def test_dipole_d5_genera():
    g = dipole(5)
    perms = cyclic_permutations(5)
    assert len(perms) == 60
    assert all(regular_genus(g, eps) == 0 for eps in perms)


def test_splitmix_regression():
    rng = SplitMix64(42)
    assert [rng.next64() for _ in range(3)] == [
        13679457532755275413,
        2949826092126892291,
        5139283748462763858,
    ]
    rng2 = SplitMix64(42)
    assert rng2.next64() == 13679457532755275413


def test_splitmix_below_bounds():
    rng = SplitMix64(7)
    values = [rng.below(10) for _ in range(200)]
    assert all(0 <= v < 10 for v in values)
    assert len(set(values)) == 10


def test_splitmix_below_refuses_bounds_past_two_to_the_64():
    # past 2**64 the largest multiple of the bound up to 2**64 is 0, and no
    # output lies below it
    assert SplitMix64(1).below(2**64) == SplitMix64(1).next64()
    for bound in (0, -1, 2**64 + 1, 2**65):
        with pytest.raises(ValueError):
            SplitMix64(1).below(bound)


def _output(z: int) -> int:
    # the SplitMix64 output function, written out: the finalizer of z + gamma
    z = (z + 0x9E3779B97F4A7C15) % 2**64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2**64
    return z ^ (z >> 31)


def test_gem_streams_start_where_documented():
    for seed, p in ((0, 1), (12345, 8), (-1, 3)):
        states = list(_stream_seeds(seed, p, 3, 7))
        key = _output(_output(seed % 2**64) ^ p)
        assert states == [_output(key ^ i) for i in range(3, 7)]


def test_first_gem_pinned():
    # any change to the per-gem seeding or to the matching draw moves it
    (g,) = random_gem(GenSpec(d=3, p=3, count=1, seed=2026))
    assert g.matchings == (
        (5, 4, 6, 2, 1, 3),
        (3, 6, 1, 5, 4, 2),
        (5, 4, 6, 2, 1, 3),
        (4, 3, 2, 1, 6, 5),
    )


@pytest.mark.parametrize(
    "spec",
    [
        GenSpec(d=3, p=4, count=12, seed=77),
        GenSpec(d=3, p=4, count=12, seed=77, connected_only=True),
        GenSpec(d=2, p=2, count=12, seed=5, non_bipartite_only=True),
        GenSpec(d=4, p=2, count=12, seed=6, bipartite_only=True),
    ],
    ids=["unfiltered", "connected", "non-bipartite", "bipartite"],
)
def test_each_gem_has_its_own_stream(spec):
    # gem i is the one gem of the range [i, i + 1): it does not depend on
    # the gems before it, nor on the candidates a filter rejected for them
    gems = random_gem(spec)
    for i, g in enumerate(gems):
        assert list(_random_stream(spec._replace(count=i + 1), i)) == [g]
    assert list(_random_stream(spec, 5)) == gems[5:]


def test_random_stream_starts_anywhere_in_a_pass_of_stream_seeds():
    # the stream states are finalized 64 gems a pass, counted from lo
    spec = GenSpec(d=3, p=2, count=150, seed=31)
    gems = random_gem(spec)
    for lo in (1, 63, 65, 100, 149):
        assert list(_random_stream(spec, lo)) == gems[lo:]


_GAMMA = 0x9E3779B97F4A7C15


def _one_matching(rng: SplitMix64, order: int) -> tuple[int, ...]:
    # one matching of the lane-packed draw, its state stored back in rng
    (mu,), rng.state = _matchings(rng.state, 1, order)
    return mu


def _draws(before: int, after: int) -> int:
    # each 64-bit output advances the state by gamma, which is odd and so
    # invertible mod 2**64
    return (after - before) * pow(_GAMMA, -1, 2**64) % 2**64


def test_matching_draw_takes_p_minus_one_bounded_draws():
    # the bounds of the draws, 2p - 1, 2p - 3, ..., 3, are checked against
    # SplitMix64.below in test_matching_draw_equals_the_below_reference
    rng = SplitMix64(11)
    for p in range(1, 9):
        for _ in range(20):
            before = rng.state
            mu = _one_matching(rng, 2 * p)
            assert _draws(before, rng.state) == p - 1
            assert sorted(mu) == list(range(1, 2 * p + 1))
            assert all(mu[w - 1] == v != w for v, w in enumerate(mu, 1))


def _reference_matching(rng: SplitMix64, order: int) -> tuple[int, ...]:
    # the direct pairing, each draw a call of SplitMix64.below
    free = list(range(1, order + 1))
    mu = [0] * order
    for others in range(order - 1, 1, -2):
        a = free.pop()
        b = free.pop(rng.below(others))
        mu[a - 1], mu[b - 1] = b, a
    a, b = free
    mu[a - 1], mu[b - 1] = b, a
    return tuple(mu)


def test_matching_draw_equals_the_below_reference():
    # three matchings in a row from each stream: the state is stored back
    for seed in range(0, 2**64, 2**64 // 150 + 1):
        for order in range(2, 41, 2):
            rng, ref = SplitMix64(seed + order), SplitMix64(seed + order)
            for _ in range(3):
                assert _one_matching(rng, order) == _reference_matching(ref, order)
                assert rng.state == ref.state


def _unxorshift(y: int, shift: int) -> int:
    # the x with x ^ (x >> shift) == y, on 64 bits
    x = y
    for _ in range(64 // shift):
        x = y ^ (x >> shift)
    return x


def _state_before(output: int) -> int:
    """The state whose next SplitMix64 output is ``output``: the output
    function undone step by step, less gamma."""
    z = _unxorshift(output, 31)
    z = _unxorshift(z * pow(0x94D049BB133111EB, -1, 2**64) % 2**64, 27)
    z = _unxorshift(z * pow(0xBF58476D1CE4E5B9, -1, 2**64) % 2**64, 30)
    return (z - _GAMMA) % 2**64


def test_matching_draw_rejects_outputs_past_the_last_full_multiple():
    # 2**64 - 1 lies at or past the limit of every odd bound above 1, so the
    # first draw of any matching of order >= 4 is rejected and drawn again
    top = 2**64 - 1
    state = _state_before(top)
    assert _output(state) == top
    assert SplitMix64(state).next64() == top
    for order in range(4, 41, 2):
        rng, ref = SplitMix64(state), SplitMix64(state)
        mu = _one_matching(rng, order)
        assert mu == _reference_matching(ref, order)
        assert rng.state == ref.state
        assert _draws(state, rng.state) == order // 2  # p - 1 draws and one rejected


def test_candidate_spanning_several_passes_equals_the_below_reference():
    # d = 9, p = 40: 10 matchings of 39 draws, 390 outputs in 7 passes
    for seed in (0, 17, 2**63 + 5, 2**64 - 1):
        mats, state = _matchings(seed, 10, 80)
        ref = SplitMix64(seed)
        for mu in mats:
            assert mu == _reference_matching(ref, 80)
        assert state == ref.state


@pytest.mark.parametrize("colors, order", [(4, 16), (10, 80)])
def test_rejected_output_anywhere_in_a_pass(colors, order):
    # 2**64 - 1 planted at the first, a middle and the last lane of the
    # first pass, and at the first lane of the second where there is one
    draws = colors * (order // 2 - 1)
    first = min(draws, 64)
    for lane in sorted({0, first // 2, first - 1, min(64, draws - 1)}):
        state = (_state_before(2**64 - 1) - lane * _GAMMA) % 2**64
        mats, after = _matchings(state, colors, order)
        ref = SplitMix64(state)
        assert mats == tuple(_reference_matching(ref, order) for _ in range(colors))
        assert after == ref.state
        assert _draws(state, after) == draws + 1


def test_matching_draw_is_uniform_at_order_six():
    # 15 matchings: a count is binomial with mean 2,000 and sd 43, so the
    # +-10% band is 4.6 sd wide on either side
    rng = SplitMix64(2024)
    counts = Counter(_one_matching(rng, 6) for _ in range(30_000))
    assert set(counts) == set(all_matchings(6))
    assert all(1800 <= n <= 2200 for n in counts.values())


def test_random_gem_deterministic():
    spec = GenSpec(d=4, p=4, count=50, seed=12345, connected_only=True)
    first = random_gem(spec)
    second = random_gem(spec)
    assert first == second
    assert len(first) == 50
    assert all(is_connected(g) for g in first)


def test_random_gem_order_two_is_dipole():
    graphs = random_gem(GenSpec(d=4, p=1, count=5, seed=1))
    assert all(g == dipole(4) for g in graphs)


def test_random_gem_filters():
    bip = random_gem(GenSpec(d=4, p=2, count=20, seed=2, bipartite_only=True))
    assert all(is_bipartite(g) for g in bip)
    non = random_gem(GenSpec(d=2, p=3, count=20, seed=3, non_bipartite_only=True))
    assert not any(is_bipartite(g) for g in non)


def test_random_gem_infeasible_filter():
    # an order-2 graph is always bipartite
    with pytest.raises(GemError, match="infeasible"):
        random_gem(GenSpec(d=2, p=1, count=1, seed=4, non_bipartite_only=True))


def test_genspec_validation():
    with pytest.raises(GemError, match="mutually exclusive"):
        GenSpec(d=2, p=2, count=1, seed=0, bipartite_only=True, non_bipartite_only=True)
    with pytest.raises(GemError, match="half-order"):
        GenSpec(d=2, p=0, count=1, seed=0)
    with pytest.raises(GemError, match="count"):
        GenSpec(d=2, p=1, count=0, seed=0)


def test_all_matchings():
    assert all_matchings(2) == ((2, 1),)
    assert all_matchings(4) == (M_A, M_B, M_C)
    assert len(all_matchings(6)) == 15
    assert len(all_matchings(8)) == 105


def test_enumerate_counts():
    assert len(list(enumerate_gems(4, 1))) == 1
    raw = list(enumerate_gems(4, 2))
    assert len(raw) == 81
    connected = list(enumerate_gems(4, 2, connected_only=True))
    assert len(connected) == 80  # only the all-equal tuple is disconnected


def test_enumerate_gauge_and_order():
    stream = list(enumerate_gems(2, 2))
    assert len(stream) == 9
    assert all(g.matchings[0] == M_A for g in stream)  # color-0 gauge
    assert stream[0].matchings == (M_A, M_A, M_A)
    assert [g.matchings for g in stream] == sorted(g.matchings for g in stream)


def test_enumerate_order_four_curvature_census():
    # two of the nine order-4 gems have Euler characteristic one: the two
    # colorings using all three distinct involutions
    hits = [
        g
        for g in enumerate_gems(2, 2, connected_only=True)
        if euler_characteristic_complex(g) == 1
    ]
    assert len(hits) == 2
    assert all(set(g.matchings) == {M_A, M_B, M_C} for g in hits)
    assert not any(is_bipartite(g) for g in hits)


def test_enumerate_budget():
    assert enumeration_size(4, 3) == 15 ** 4
    with pytest.raises(GemError, match="bound exceeded"):
        next(enumerate_gems(4, 4))
    with pytest.raises(GemError, match="bound exceeded"):
        next(enumerate_gems(3, 5))


@pytest.mark.parametrize(
    "d, p, lo, hi",
    [
        (3, 2, 0, None),  # the whole stream of 27
        (3, 2, 8, 10),  # across the carry of both low digits at 9
        (3, 2, 5, 27),
        (3, 2, 20, 40),  # hi past the end
        (3, 2, 27, 30),  # lo at the end
        (3, 2, 31, None),  # lo past the end
        (2, 3, 14, 31),  # radix 15: carries at 15 and 30
        (3, 3, 200, 500),  # carries at every 15, two at once at 225 and 450
        (4, 2, 40, 81),
        (3, 4, 1_100_000, 1_100_100),  # deep in the largest in-budget stream
    ],
)
def test_gem_stream_seeks_to_its_range(d, p, lo, hi):
    mats = all_matchings(2 * p)
    reference = [(mats[0],) + rest for rest in islice(product(mats, repeat=d), lo, hi)]
    assert [g.matchings for g in _gem_stream(d, p, False, lo, hi)] == reference
    connected = [
        m for m in reference if is_connected(ColoredGraph(d=d, order=2 * p, matchings=m))
    ]
    assert [g.matchings for g in _gem_stream(d, p, True, lo, hi)] == connected


def test_search_rp2():
    g = search_rp2()
    # the minimal projective-plane gem has four vertices: the coloring by
    # the three distinct involutions of four points
    assert g.order == 4
    assert g.matchings == (M_A, M_B, M_C)
    st = surface_type(g)
    assert st == (False, 1, HalfInt(1))
    assert g_degree_definition(g) == HalfInt(1)
    # and nothing smaller: the only order-2 gem is the sphere dipole
    assert all(
        euler_characteristic_complex(h) == 2
        for h in enumerate_gems(2, 1, connected_only=True)
    )


def test_search_odd_reduced_none_at_order_two():
    assert search_odd_reduced(4, 1) is None


def test_search_odd_reduced_witness():
    g = search_odd_reduced(4, 2)
    assert g is not None
    assert g.matchings == (M_A, M_A, M_A, M_B, M_C)
    assert reduced_g_degree(g) == 3
    assert not is_bipartite(g)
    assert not is_singular_4_manifold(g)


def test_search_odd_reduced_rejects_odd_dimension():
    with pytest.raises(GemError, match="even"):
        search_odd_reduced(3, 2)
    with pytest.raises(GemError, match="even"):
        search_odd_reduced(5, 2)


def test_relabeling_leaves_invariants_alone():
    # gauge soundness: a vertex relabeling never moves any invariant
    rng = random.Random(99)
    for g in random_gem(GenSpec(d=4, p=3, count=10, seed=5, connected_only=True)):
        relabel = list(range(1, g.order + 1))
        rng.shuffle(relabel)
        position = {v: i + 1 for i, v in enumerate(relabel)}
        mats = tuple(
            tuple(
                position[g.matchings[c][relabel[i] - 1]] for i in range(g.order)
            )
            for c in g.colors
        )
        h = ColoredGraph(d=g.d, order=g.order, matchings=mats)
        assert euler_characteristic_complex(h) == euler_characteristic_complex(g)
        assert g_degree_definition(h) == g_degree_definition(g)
        assert is_bipartite(h) == is_bipartite(g)
        assert is_singular_4_manifold(h) == is_singular_4_manifold(g)


def test_emitted_graphs_are_valid():
    # drawn gems skip the constructor's validation: check the involutions here
    for g in random_gem(GenSpec(d=5, p=3, count=10, seed=6)):
        for mu in g.matchings:
            for v in range(1, g.order + 1):
                assert mu[mu[v - 1] - 1] == v
                assert mu[v - 1] != v


# each filter with the half-orders at which it accepts a gem quickly
_FILTERS = [
    ({}, range(1, 9)),
    ({"connected_only": True}, range(1, 9)),
    ({"bipartite_only": True}, range(1, 5)),
    ({"non_bipartite_only": True}, range(2, 9)),
]


@pytest.mark.parametrize("d", range(2, 7))
@pytest.mark.parametrize("kw, half_orders", _FILTERS, ids=["all", "connected", "bipartite",
                                                          "non-bipartite"])
def test_drawn_gems_equal_their_validated_rebuild(d, kw, half_orders):
    # the generator builds its gems without validation; each must be the
    # graph the validating constructor builds from the same fields
    for p in half_orders:
        for seed in (0, 7, 2**63 + 5):
            for g in _random_stream(GenSpec(d, p, 4, seed, **kw)):
                assert g._vector is None
                assert g._connected is (True if kw.get("connected_only") else None)
                h = ColoredGraph(g.d, g.order, g.matchings)
                assert h == g and hash(h) == hash(g)


@pytest.mark.parametrize("d, max_p", [(3, 3), (4, 2)])
def test_enumerated_gems_equal_their_validated_rebuild(d, max_p):
    for p in range(1, max_p + 1):
        for g in enumerate_gems(d, p):
            assert g._vector is None and g._connected is None
            h = ColoredGraph(g.d, g.order, g.matchings)
            assert h == g and hash(h) == hash(g)


def test_genspec_repr_unchanged():
    # the "looks infeasible" error message prints it
    assert repr(GenSpec(d=2, p=3, count=4, seed=5, bipartite_only=True)) == (
        "GenSpec(d=2, p=3, count=4, seed=5, connected_only=False, "
        "bipartite_only=True, non_bipartite_only=False)"
    )


def test_genspec_refuses_bad_values_however_built():
    spec = GenSpec(d=2, p=1, count=1, seed=0)
    with pytest.raises(GemError, match="half-order"):
        spec._replace(p=0)
    with pytest.raises(GemError, match="dimension"):
        GenSpec._make((1, 1, 1, 0))
    with pytest.raises(GemError, match="mutually exclusive"):
        spec._replace(bipartite_only=True, non_bipartite_only=True)
    with pytest.raises(GemError, match="random corpus bound exceeded"):
        GenSpec(2, 1, 1_500_001, 0)
    assert spec._replace(p=2) == GenSpec(d=2, p=2, count=1, seed=0)
    with pytest.raises(AttributeError):
        spec.p = 0


def test_genspec_refuses_dimension_beyond_permutation_budget():
    # a gem that analyze and verify would refuse is not drawn either
    with pytest.raises(GemError, match="d=10 has d!/2 = 1814400"):
        GenSpec(d=10, p=1, count=1, seed=0)
    assert len(random_gem(GenSpec(d=9, p=1, count=1, seed=0))) == 1


def test_dipole_and_enumeration_refuse_dimension_beyond_permutation_budget():
    # refused at the call, before any gem of the stream is built
    with pytest.raises(GemError, match="d=10 has d!/2 = 1814400"):
        dipole(10)
    with pytest.raises(GemError, match="d=10 has d!/2 = 1814400"):
        enumerate_gems(10, 1)
    assert dipole(9).d == 9
    assert [g.d for g in enumerate_gems(9, 1)] == [9]
