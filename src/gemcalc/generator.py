"""Graph corpora: known families, seeded random gems, exhaustive enumeration,
and targeted searches.

Randomness comes from SplitMix64, a named 64-bit generator implemented here
so that identical seeds give bit-identical corpora on every platform and
Python version.  Each gem of a random corpus is drawn from its own stream,
seeded from (seed, p, gem index) (Steele, Lea & Flood, "Fast Splittable
Pseudorandom Number Generators", OOPSLA 2014), so any range of a corpus can
be drawn without the gems before it.  A matching is drawn by direct
pairing: p - 1 unbiased bounded draws per matching of 2p vertices.

SplitMix64 is counter-based: output k from state s is the finalizer of
s + (k + 1)·gamma mod 2**64.  So a gem candidate's (d+1)(p-1) outputs are
finalized together, in one wide integer with a 128-bit lane per output, and
unpacked through a little-endian ``struct`` layout, so they do not depend on
the platform.  A pass holds at most 64 lanes; when a rejected output or that
cap uses a pass up, the next starts from the state after the outputs taken.
The stream states of up to 64 gems are finalized in one pass the same way.

Campaign corpora are sized here, an oversized one refused before any gem
exists (``campaign_corpus``), and drawn here, any range of one half-order's
stream at a time (``campaign_gems``).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, islice, product
from struct import Struct
from typing import Iterator, NamedTuple

from .core import (
    ENUMERATION_BUDGET,
    ColoredGraph,
    GemError,
    InvariantViolation,
    check_dimension,
    euler_characteristic_complex,
    is_bipartite,
    is_connected,
)
from .embeddings import reduced_g_degree

__all__ = [
    "GenSpec",
    "SplitMix64",
    "all_matchings",
    "campaign_corpus",
    "campaign_gems",
    "dipole",
    "enumerate_gems",
    "enumeration_size",
    "random_gem",
    "search_odd_reduced",
    "search_rp2",
]

_MASK64 = (1 << 64) - 1
_TWO64 = 1 << 64
# SplitMix64's state increment (the golden gamma) and the two multipliers
# of its output function
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# the most 64-bit outputs finalized in one lane-packed pass
_LANE_CAP = 64

# per-sample rejection ceiling before a filter is declared infeasible
REJECTION_BUDGET = 100_000

# fixed seed, and gems per half-order, of the randomized tail of witness searches
_SEARCH_SEED = 0x0DDC0FFEE
_SEARCH_COUNT = 5000


def _first64(seed: int) -> int:
    """``SplitMix64(seed).next64()``: the output function applied to
    seed + gamma mod 2**64."""
    z = (seed + _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Deterministic 64-bit PRNG (SplitMix64)."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next64(self) -> int:
        z = _first64(self.state)
        self.state = (self.state + _GAMMA) & _MASK64
        return z

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), unbiased by rejection; ``bound``
        is at most 2**64, the number of outputs."""
        if not 0 < bound <= _TWO64:
            raise ValueError("bound must be in 1..2**64")
        limit = _TWO64 - _TWO64 % bound
        while True:
            r = self.next64()
            if r < limit:
                return r % bound


class _GenFields(NamedTuple):
    d: int
    p: int
    count: int
    seed: int
    connected_only: bool = False
    bipartite_only: bool = False
    non_bipartite_only: bool = False


class GenSpec(_GenFields):
    """Parameters of a random corpus draw, validated however one is built."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> GenSpec:
        self = super().__new__(cls, *args, **kwargs)
        if self.d < 2:
            raise GemError(f"dimension must be >= 2, got {self.d}")
        check_dimension(self.d)
        if self.p < 1:
            raise GemError(f"half-order must be >= 1, got {self.p}")
        if self.count < 1:
            raise GemError(f"count must be >= 1, got {self.count}")
        _check_sample_bound(self.d, self.p, self.count)
        if self.bipartite_only and self.non_bipartite_only:
            raise GemError("bipartite_only and non_bipartite_only are mutually exclusive")
        return self

    @classmethod
    def _make(cls, iterable) -> GenSpec:
        # _replace builds through _make, so both go through the checks
        return cls(*iterable)


def _check_sample_bound(d: int, p: int, count: int) -> None:
    """Refuse a random corpus of more than the enumeration budget in gems, or
    whose largest gem (half-order p) has more matching entries than that."""
    if count > ENUMERATION_BUDGET:
        raise GemError(
            f"random corpus bound exceeded: count = {count} > {ENUMERATION_BUDGET}"
        )
    entries = (d + 1) * 2 * p
    if entries > ENUMERATION_BUDGET:
        raise GemError(
            f"random corpus bound exceeded: (d+1)*2p = {entries} matching entries "
            f"> {ENUMERATION_BUDGET} for d={d}, p={p}"
        )


def dipole(d: int) -> ColoredGraph:
    """The order-2 gem with all d+1 colors joining its two vertices."""
    if d < 2:
        raise GemError(f"dipoles need d >= 2, got {d}")
    return ColoredGraph(d=d, order=2, matchings=((2, 1),) * (d + 1))


@lru_cache(maxsize=8)
def _draw_limits(order: int) -> tuple[tuple[int, int], ...]:
    """The ``(bound, limit)`` of each draw of a matching of 1..order.

    The bounds run order - 1, order - 3, ..., 3.  As in ``SplitMix64.below``,
    a 64-bit output is accepted below its limit, the largest multiple of the
    bound up to 2**64.
    """
    return tuple((bound, _TWO64 - _TWO64 % bound) for bound in range(order - 1, 1, -2))


@lru_cache(maxsize=_LANE_CAP)
def _lanes(n: int) -> tuple[int, int, int, Struct]:
    """The constants of an n-lane pass: the integer with 1 in each 128-bit
    lane, the mask of each lane's low 64 bits, the ramp whose lane k holds
    (k + 1)·gamma mod 2**64, and the little-endian layout of the lanes."""
    shifts = range(0, 128 * n, 128)
    one = sum(1 << s for s in shifts)
    ramp = sum((k * _GAMMA & _MASK64) << s for k, s in enumerate(shifts, 1))
    return one, one * _MASK64, ramp, Struct("<" + "Q8x" * n)


def _finalized(z: int, mask: int, layout: Struct) -> tuple[int, ...]:
    """The SplitMix64 finalizer applied to every lane of ``z`` at once.

    Each lane holds a 64-bit value in its low half.  A right shift carries a
    lane's neighbour into its high half, which the mask clears before each
    multiplication, so no product reaches the next lane.
    """
    z = ((z ^ (z >> 30)) & mask) * _MIX1 & mask
    z = ((z ^ (z >> 27)) & mask) * _MIX2 & mask
    return layout.unpack((z ^ (z >> 31)).to_bytes(layout.size, "little"))


def _batches(state: int, count: int) -> Iterator[tuple[int, ...]]:
    """The SplitMix64 outputs from ``state`` on, one pass at a time: the
    first ``count`` in passes of up to 64 lanes, then one output a pass."""
    while True:
        n = min(count, _LANE_CAP) if count > 0 else 1
        one, mask, ramp, layout = _lanes(n)
        yield _finalized((state * one + ramp) & mask, mask, layout)
        state = (state + n * _GAMMA) & _MASK64
        count -= n


def _matchings(
    state: int, colors: int, order: int
) -> tuple[tuple[tuple[int, ...], ...], int]:
    """``colors`` uniform perfect matchings of 1..order, as involution
    arrays, drawn from the SplitMix64 state ``state``; and the state after
    them.

    The last free vertex is paired with a uniformly drawn other free vertex
    until two are left, which pair with each other: p - 1 draws for
    order 2p, with 2p - 1, 2p - 3, ..., 3 outcomes, so each of the (2p-1)!!
    matchings is drawn with the same probability.  Each draw is
    ``SplitMix64.below(bound)``: the outputs are taken in order, and one at
    or past its limit is rejected and the next taken instead.
    """
    limits = _draw_limits(order)
    draws = colors * len(limits)
    outputs = chain.from_iterable(_batches(state, draws))
    mats = []
    for _ in range(colors):
        free = list(range(1, order + 1))
        mu = [0] * order
        for (bound, limit), z in zip(limits, outputs):
            while z >= limit:
                draws += 1
                z = next(outputs)
            a = free.pop()
            b = free.pop(z % bound)
            mu[a - 1] = b
            mu[b - 1] = a
        a, b = free
        mu[a - 1] = b
        mu[b - 1] = a
        mats.append(tuple(mu))
    return tuple(mats), (state + draws * _GAMMA) & _MASK64


def _stream_seeds(seed: int, p: int, lo: int, hi: int) -> Iterator[int]:
    """The stream states that draw gems ``lo`` to ``hi - 1`` of the corpus
    (seed, p).

    With f(z) the SplitMix64 output function, the finalizer applied to
    z + 0x9E3779B97F4A7C15 mod 2**64 (the first ``next64`` of
    ``SplitMix64(z)``, see ``_first64``), gem i's stream starts from
    f(f(f(seed) ^ p) ^ i).  The states of up to 64 gems are finalized in
    one pass.
    """
    key = _first64(_first64(seed) ^ p)
    for start in range(lo, hi, _LANE_CAP):
        stop = min(start + _LANE_CAP, hi)
        one, mask, _, layout = _lanes(stop - start)
        z = int.from_bytes(layout.pack(*[key ^ i for i in range(start, stop)]), "little")
        yield from _finalized((z + _GAMMA * one) & mask, mask, layout)


def random_gem(spec: GenSpec) -> list[ColoredGraph]:
    """Draw ``spec.count`` gems with independent uniform matchings per color.

    Gem i is drawn from its own SplitMix64 stream, seeded from
    (spec.seed, spec.p, i) (see ``_stream_seeds``), so it does not depend on
    the gems before it.  Filters act by rejection, each rejected candidate
    replaced by the next one from the same gem's stream; exceeding the
    per-sample rejection budget is reported as an infeasible filter.
    """
    return list(_random_stream(spec))


def _random_stream(spec: GenSpec, lo: int = 0) -> Iterator[ColoredGraph]:
    """Gems ``lo`` to ``spec.count - 1`` of :func:`random_gem`, drawn one at a
    time as they are taken."""
    order = 2 * spec.p
    colors = spec.d + 1
    for state in _stream_seeds(spec.seed, spec.p, lo, spec.count):
        for attempt in range(REJECTION_BUDGET):
            mats, state = _matchings(state, colors, order)
            g = ColoredGraph._trusted(spec.d, order, mats)
            if spec.connected_only and not is_connected(g):
                continue
            if spec.bipartite_only and not is_bipartite(g):
                continue
            if spec.non_bipartite_only and is_bipartite(g):
                continue
            yield g
            break
        else:
            raise GemError(
                f"filter rejected {REJECTION_BUDGET} candidates in a row; "
                f"spec {spec} looks infeasible"
            )


@lru_cache(maxsize=8)
def all_matchings(order: int) -> tuple[tuple[int, ...], ...]:
    """Every fixed-point-free involution of 1..order, lexicographic by array."""
    if order <= 0 or order % 2:
        raise GemError(f"matchings need a positive even order, got {order}")
    out: list[tuple[int, ...]] = []
    mu = [0] * order

    def rec(free: list[int]) -> None:
        if not free:
            out.append(tuple(mu))
            return
        a = free[0]
        for i in range(1, len(free)):
            b = free[i]
            mu[a - 1] = b
            mu[b - 1] = a
            rec(free[1:i] + free[i + 1:])
        # no cleanup needed: entries overwritten on the next branch
    rec(list(range(1, order + 1)))
    return tuple(out)


def _double_factorial_odd(p: int) -> int:
    # (2p-1)!! = number of perfect matchings on 2p points
    out = 1
    for k in range(1, 2 * p, 2):
        out *= k
    return out


def enumeration_size(d: int, p: int) -> int:
    """Raw stream length of the gauge-fixed exhaustive enumeration."""
    return _double_factorial_odd(p) ** d


def enumerate_gems(d: int, p: int, connected_only: bool = False) -> Iterator[ColoredGraph]:
    """Stream every gem with color 0 fixed to the matching (1,2)(3,4)...

    The remaining d matchings range over all fixed-point-free involutions,
    in lexicographic order.  Fixing color 0 is harmless for label-invariant
    statistics and cuts the raw space by a (2p-1)!! factor; the stream is
    refused at the call, before any gem is built, when still larger than
    the enumeration budget.
    """
    if d < 2:
        raise GemError(f"enumeration needs d >= 2, got {d}")
    check_dimension(d)
    if p < 1:
        raise GemError(f"enumeration needs p >= 1, got {p}")
    _budgeted_size(d, p)
    return _gem_stream(d, p, connected_only)


def _budgeted_size(d: int, p: int) -> int:
    """Raw stream length, refused when larger than the enumeration budget."""
    size = enumeration_size(d, p)
    if size > ENUMERATION_BUDGET:
        raise GemError(
            f"enumeration bound exceeded: (2p-1)!!^d = {size} > {ENUMERATION_BUDGET} "
            f"for d={d}, p={p}"
        )
    return size


def _gem_stream(
    d: int, p: int, connected_only: bool, lo: int = 0, hi: int | None = None
) -> Iterator[ColoredGraph]:
    """The gauge-fixed stream, restricted to raw candidates [lo, hi)."""
    mats = all_matchings(2 * p)
    base = mats[0]
    for rest in islice(_product_from(mats, d, lo), None if hi is None else hi - lo):
        g = ColoredGraph._trusted(d, 2 * p, (base,) + rest)
        if connected_only and not is_connected(g):
            continue
        yield g


def _product_from(mats: tuple, d: int, lo: int) -> Iterator[tuple]:
    """``product(mats, repeat=d)`` from its ``lo``-th tuple on.

    ``lo`` is decoded in mixed radix ``len(mats)``, most significant digit
    first as ``product`` orders its tuples, so nothing before it is stepped
    through.  From there the last position runs on from its digit; each
    earlier one then carries, running from its digit + 1 with every position
    after it free.
    """
    digits: list[int] = []
    for _ in range(d):
        lo, digit = divmod(lo, len(mats))
        digits.append(digit)
    if lo:  # past the end of the stream
        return iter(())
    digits.reverse()
    fixed = [(mats[i],) for i in digits]
    return chain.from_iterable(
        product(*fixed[:k], mats[digits[k] + (k < d - 1):], *[mats] * (d - 1 - k))
        for k in range(d - 1, -1, -1)
    )


def campaign_corpus(
    d: int, mode: str, max_p: int, count: int, seed: int
) -> list[tuple[int, int, int | None]]:
    """Each half-order's ``(p, size, stream seed)`` in a campaign corpus.

    A random corpus splits ``count`` gems over p = 1..max_p, p's share drawn
    from the corpus (seed + p, p); only p <= count can hold a gem.  An
    exhaustive corpus holds each p's gauge-fixed raw candidates (stream seed
    None).  An oversized corpus, or an unknown mode, is refused before any
    gem exists.
    """
    if mode == "random":
        if count < 1:
            raise GemError("random campaigns need a positive sample count")
        top = min(max_p, count)
        _check_sample_bound(d, top, count)
        return [(p, count // max_p + (p <= count % max_p), seed + p) for p in range(1, top + 1)]
    if mode == "exhaustive":
        return [(p, _budgeted_size(d, p), None) for p in range(1, max_p + 1)]
    raise GemError(f"unknown campaign mode {mode!r}")


def campaign_gems(
    mode: str, d: int, p: int, lo: int, hi: int, seed: int | None
) -> Iterator[ColoredGraph]:
    """The connected gems at positions [lo, hi) of one p's stream in a
    :func:`campaign_corpus`: gems of the random corpus (seed, p), or raw
    candidates of the gauge-fixed stream."""
    if mode == "random":
        return _random_stream(GenSpec(d=d, p=p, count=hi, seed=seed, connected_only=True), lo)
    return _gem_stream(d, p, True, lo, hi)


def search_rp2(max_p: int = 4) -> ColoredGraph:
    """First connected non-bipartite 3-colored gem with Euler characteristic 1.

    Scans the gauge-fixed enumeration in lexicographic order for increasing
    half-order and returns the first hit (it exists within the default
    bound).
    """
    for p in range(1, max_p + 1):
        for g in enumerate_gems(2, p, connected_only=True):
            if euler_characteristic_complex(g) == 1 and not is_bipartite(g):
                return g
    raise GemError(f"no projective-plane gem found with p <= {max_p}")


def search_odd_reduced(d: int, max_p: int) -> ColoredGraph | None:
    """First connected graph with odd reduced degree, or None.

    Even d >= 4 only.  Half-orders are scanned upward: exhaustively while
    the enumeration budget allows, then by a fixed-seed random scan.  A hit
    is post-verified to be non-bipartite and to fail the singular-manifold
    test, as any odd-reduced-degree graph must; a hit that fails raises
    :class:`InvariantViolation` with the hit as its second argument.  A
    ``max_p`` whose random tail would break the random corpus bound is
    refused before any gem is drawn.
    """
    from .dim4 import is_singular_4_manifold  # imported here: drawing a corpus never loads dim4

    if d < 4 or d % 2:
        raise GemError(f"odd reduced degree search needs an even d >= 4, got {d}")
    if max_p < 1:
        raise GemError(f"max_p must be >= 1, got {max_p}")
    _check_sample_bound(d, max_p, _SEARCH_COUNT)  # the largest random tail
    for p in range(1, max_p + 1):
        if enumeration_size(d, p) <= ENUMERATION_BUDGET:
            candidates: Iterator[ColoredGraph] = enumerate_gems(d, p, connected_only=True)
        else:
            spec = GenSpec(d, p, _SEARCH_COUNT, _SEARCH_SEED + p, connected_only=True)
            candidates = _random_stream(spec)
        for g in candidates:
            if reduced_g_degree(g) % 2:
                if is_bipartite(g):
                    raise InvariantViolation("odd reduced degree on a bipartite graph", g)
                if d == 4 and is_singular_4_manifold(g):
                    raise InvariantViolation("odd reduced degree on a singular-manifold graph", g)
                return g
    return None
