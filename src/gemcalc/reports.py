"""Identity-check battery and report builders for the CLI.

Every theorem-shaped statement the library exposes is evaluated per graph
as a named boolean check; campaign reports aggregate evaluation and
violation counts, embedding the first counterexample gems verbatim.  The
five-color block of an analysis report is built by ``dim4``.  All reports
serialize deterministically (sorted keys, integers and exact half-integer
strings only), so a repeated run with the same seed is byte-identical.
"""

from __future__ import annotations

import json
import marshal
import os
from collections import Counter
from functools import lru_cache
from itertools import combinations, islice
from math import factorial
from operator import itemgetter
from typing import BinaryIO, Iterator

from .core import (
    ColoredGraph,
    GemError,
    _require_connected,
    check_dimension,
    euler_characteristic_complex,
    is_bipartite,
    residue_count,
    residue_vector,
    serialize_gem,
)
from .cycle_decomp import (
    PARTITION_EVEN_SUPPORTED,
    PARTITION_ODD_SUPPORTED,
    partition_even,
    partition_odd,
    walecki_decomposition,
)
from .embeddings import (
    HalfInt,
    _bicolored_cycles,
    _reduced_degree,
    _surface,
    genus_twices,
)
from .generator import campaign_corpus, campaign_gems, enumeration_size
from .perms import _perm_key, cyclic_permutations, perm_index

__all__ = [
    "REPORT_SCHEMA",
    "analysis_report",
    "campaign_report",
    "check_graph",
    "check_metadata",
    "render_text",
    "report_json",
    "worker_count",
]

REPORT_SCHEMA = "gemcalc.report/2"
MAX_EMBEDDED_COUNTEREXAMPLES = 5
_BATCH_SIZE = 2000
_RUN_SIZE = 64


def worker_count() -> int:
    """Worker cap from GEMCALC_THREADS (default 1)."""
    raw = os.environ.get("GEMCALC_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise GemError(f"GEMCALC_THREADS must be an integer, got {raw!r}") from None
    return max(1, n)


def _affinity() -> list[int]:
    """This process's scheduler affinity in CPU order; empty where the
    platform has no affinity calls, and then nothing is pinned."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return []


def _usable_cpus() -> int:
    return len(_affinity()) or os.cpu_count() or 1


def _pin(cpus: list[int], worker: int | None = None) -> None:
    """Bind this process to CPU ``cpus[worker % len(cpus)]``, or back to all
    of ``cpus`` if ``worker`` is None.  A binding the kernel refuses leaves
    the process where it is: placement never changes a result."""
    if cpus:
        try:
            os.sched_setaffinity(0, cpus if worker is None else [cpus[worker % len(cpus)]])
        except OSError:
            pass


@lru_cache(maxsize=None)
def _dim4():
    """:mod:`gemcalc.dim4`, imported by the first d = 4 battery or analysis,
    so that no other command compiles it.  Cached: an import statement in
    the battery would cost about 1.2 us per gem."""
    from . import dim4

    return dim4


@lru_cache(maxsize=None)
def _class_indices(d: int) -> tuple[tuple[int, ...], ...]:
    """Permutation indices of the partition classes for the class-sum check."""
    n = d + 1
    if n % 2:
        if n in PARTITION_ODD_SUPPORTED:
            classes = partition_odd(n).classes
        else:
            classes = (walecki_decomposition(n),)
    elif n in PARTITION_EVEN_SUPPORTED:
        classes = partition_even(n).classes
    else:
        return ()
    index = perm_index(d)
    return tuple(tuple(index[cyc] for cyc in cls.cycles) for cls in classes)


@lru_cache(maxsize=None)
def _class_gathers(d: int) -> tuple[itemgetter, ...]:
    """One ``itemgetter`` per class of :func:`_class_indices`: applied to the
    genus twices, it returns the class's values as a tuple.  A one-cycle class
    (d = 2) gathers through a slice, as a one-index getter returns no tuple."""
    return tuple(
        itemgetter(*cls) if len(cls) > 1 else itemgetter(slice(cls[0], cls[0] + 1))
        for cls in _class_indices(d)
    )


def check_graph(g: ColoredGraph) -> tuple[dict[str, bool], dict[str, bool]]:
    """Evaluate every applicable identity on one connected graph.

    Returns (flags, checks): flags are corpus counters (bipartite, singular
    manifold, odd reduced degree, crystallization profile accepted); checks
    map stable names to pass/fail.
    """
    if g.d in (2, 4):
        # these branches read the full residue vector: build it before the
        # genus side reads its pair counts, so they are counted once
        residue_vector(g)
    return _check(g, genus_twices(g), _bicolored_cycles(g))[:2]


def _check(
    g: ColoredGraph, twices: tuple[int, ...], cycles: dict[tuple[int, int], list[int]]
) -> tuple[dict, dict, list[int], int, int]:
    """:func:`check_graph`'s flags and checks, then the sums formed for them:
    the class sums (at d = 4 the associated-pair sums), twice the degree and
    the walk's cycle total."""
    d = g.d
    checks: dict[str, bool] = {}
    flags: dict[str, bool] = {}

    # the vector side (twices) against the one walk over the bicolored cycles
    omega_twice = sum(twices)
    pair_sum = sum(map(len, cycles.values()))
    reduced = _reduced_degree(d, g.p, pair_sum)
    quotient, rem = divmod(omega_twice, factorial(d - 1))
    multiple = omega_twice >= 0 and rem == 0

    bipartite = is_bipartite(g)
    flags["bipartite"] = bipartite

    if d >= 3:
        checks["degree_formula_agreement"] = rem == 0 and quotient == reduced
        checks["degree_multiple_of_half_factorial"] = multiple
        flags["odd_reduced_degree"] = rem == 0 and quotient % 2 == 1
    if bipartite:
        checks["bipartite_genera_integral"] = all([t % 2 == 0 for t in twices])

    class_sums = [sum(gather(twices)) for gather in _class_gathers(d)]
    if class_sums:
        expected = reduced if d % 2 == 0 else 2 * reduced
        checks["class_genus_sum_constant"] = class_sums == [expected] * len(class_sums)

    if d == 2:
        walk_euler = _surface(bipartite, pair_sum, g.p).euler
        chi = euler_characteristic_complex(g)
        checks["surface_classification"] = (
            walk_euler == chi
            and chi <= 2
            and omega_twice == 2 - chi
            and (not bipartite or chi % 2 == 0)
        )

    if d == 4:
        _dim4().check_identities(g, twices, omega_twice, cycles, class_sums, flags, checks)

    # the main theorem: (d-1)! divides the degree of bipartite and of
    # singular-manifold graphs in even d >= 4
    if d >= 4 and d % 2 == 0:
        divisible = multiple and quotient % 2 == 0
        if bipartite:
            checks["bipartite_degree_divisibility"] = divisible
        if flags.get("singular_manifold"):
            checks["singular_degree_divisibility"] = divisible
    return flags, checks, class_sums, omega_twice, pair_sum


def analysis_report(g: ColoredGraph, metadata: dict | None = None) -> dict:
    """Full single-graph report; requires a connected graph, and crystallization
    metadata only with five colors."""
    if metadata is not None:
        check_metadata(g, metadata)
    # the report reads the complements and chi: the full vector, built first
    residue_vector(g)
    _require_connected(g, "analysis")
    d = g.d
    perms = cyclic_permutations(d)
    twices = genus_twices(g)
    least = min(twices)

    flags, checks, class_sums, omega_twice, pair_sum = _check(g, twices, _bicolored_cycles(g))
    report: dict = {
        "schema": REPORT_SCHEMA,
        "kind": "analysis",
        "graph": {
            "d": d,
            "vertices": g.order,
            "half_order": g.p,
            "connected": True,
            "bipartite": flags["bipartite"],
        },
        "residues": {
            "pairs": {_perm_key(pr): residue_count(g, pr) for pr in combinations(g.colors, 2)},
            "complements": {
                str(i): residue_count(g, [x for x in g.colors if x != i])
                for i in g.colors
            },
        },
        "euler_characteristic": euler_characteristic_complex(g),
        "genera": {_perm_key(eps): str(HalfInt(t)) for eps, t in zip(perms, twices)},
        "regular_genus": {
            "value": str(HalfInt(least)),
            "minimizers": [_perm_key(eps) for eps, t in zip(perms, twices) if t == least],
        },
        "gurau_degree": str(HalfInt(omega_twice)),
        "checks": checks,
        "violations": sorted(name for name, ok in checks.items() if not ok),
    }
    if d >= 3:
        report["reduced_degree"] = omega_twice // factorial(d - 1)
    if d == 2:
        st = _surface(flags["bipartite"], pair_sum, g.p)
        report["surface"] = {
            "orientable": st.orientable,
            "euler": st.euler,
            "genus": str(st.genus),
        }
    if d == 4:
        m = None if metadata is None else metadata["m"]
        singular = flags["singular_manifold"]
        report["dim4"] = _dim4().analysis_block(g, twices, class_sums, singular, m)
    return report


def check_metadata(g: ColoredGraph, metadata: dict) -> None:
    """Refuse crystallization metadata before any report work starts."""
    if g.d != 4:
        raise GemError(f"crystallization metadata needs a 5-colored graph (d = 4), got d={g.d}")
    if not isinstance(metadata, dict) or "m" not in metadata:
        raise GemError("crystallization metadata must be an object with field 'm'")
    m = metadata["m"]
    if not isinstance(m, int) or isinstance(m, bool):
        raise GemError("metadata field 'm' must be an integer")
    if m < 0:
        raise GemError(f"rank metadata must be non-negative, got {m}")
    if metadata.get("closed_manifold_asserted") is not True:
        raise GemError("crystallization metadata requires closed_manifold_asserted: true")


# --- campaigns ---------------------------------------------------------------


def _shards(d: int, mode: str, max_p: int, count: int, seed: int) -> list[tuple]:
    """Shard descriptors ``(mode, d, p, lo, hi, seed)`` in corpus order.

    A shard is a range ``[lo, hi)`` of one p's stream of the
    :func:`campaign_corpus`, which refuses an oversized corpus before any
    shard exists.  Each stream is cut into the fewest ranges of at most
    ``_BATCH_SIZE`` positions, whose lengths differ by at most one (the
    longer ones first).
    """
    shards = []
    for p, size, stream_seed in campaign_corpus(d, mode, max_p, count, seed):
        parts = -(-size // _BATCH_SIZE)  # every p's stream holds a gem
        cuts = [k * (size // parts) + min(k, size % parts) for k in range(parts + 1)]
        shards += [(mode, d, p, lo, hi, stream_seed) for lo, hi in zip(cuts, cuts[1:])]
    return shards


def _battery_batch(shard: tuple) -> tuple[dict, list]:
    """Worker: build one shard's gems and run the battery over them.

    Returns the shard's outcome shapes with their gem counts (a plain dict,
    whose counts sum to the shard's graph count), and its earliest
    violations as (shard-local index, check, serialized gem): enough of them
    to fill the report's embedded counterexamples, so a violating shard
    holds no more.  Every value is a built-in that :mod:`marshal` carries.

    Each gem is counted once, under its shape: the names of its true flags,
    of its evaluated checks and of its failed checks.  A campaign holds few
    shapes, and :func:`campaign_report` expands them into the three name
    counts once, after its merge.

    A shard with more gems than there are labelled gems of its half-order,
    (2p-1)!!^(d+1), must repeat one (pigeonhole): such a shard checks each
    distinct gem once and reuses its shape for every repeat, which still
    counts, and is embedded, as its own gem under its own index.  So the
    memo holds at most that many gems (one at p = 1, 81 at d = 3, p = 2);
    exhaustive shards, which hold each gem once, never reach the bound.
    """
    _, d, p, lo, hi, _ = shard
    gems = campaign_gems(*shard)
    # (2p-1)!!^(d+1) labelled gems, a perfect matching of 2p vertices per
    # color: at least p, so a shard of at most p gems skips the big product
    memo: dict | None = (
        {} if p < hi - lo and hi - lo > enumeration_size(d + 1, p) else None
    )
    graphs = 0
    shapes: Counter = Counter()
    earliest: list[tuple[int, str, str]] = []
    # drawn and checked in runs, which bounds the gems held at once; taking
    # one gem at a time from the stream measured about 10 us/gem slower
    while run := list(islice(gems, _RUN_SIZE)):
        for g in run:
            if memo is None or (shape := memo.get(g)) is None:
                flags, checks = check_graph(g)
                shape = (
                    tuple([name for name, value in flags.items() if value]),
                    tuple(checks),
                    tuple([name for name, ok in checks.items() if not ok]),
                )
                if memo is not None:
                    memo[g] = shape
            shapes[shape] += 1
            failed = shape[2]
            if failed and len(earliest) < MAX_EMBEDDED_COUNTEREXAMPLES:
                text = serialize_gem(g)
                earliest += [(graphs, name, text) for name in failed]
            graphs += 1
    return dict(shapes), earliest


def _claimed_results(shards: list[tuple], claims, first: int) -> Iterator[tuple]:
    """One worker's ``(index, result)`` pairs, each as its shard is run: shard
    ``first``, then every shard whose byte in ``claims`` it finds still 0 when
    it is free, which it sets to 1 before it runs the shard."""
    yield first, _battery_batch(shards[first])
    k = first
    # the bytes before a worker's last claim are all set, and none is ever
    # cleared, so each search starts after it
    while (k := claims.find(b"\0", k + 1)) >= 0:
        claims[k] = 1
        yield k, _battery_batch(shards[k])


def _child_results(pid: int, data: bytes, status: int) -> list:
    """The ``(index, result)`` pairs a child piped back as ``data``; raises its
    exception, or :class:`ChildProcessError` if it sent nothing."""
    if not data:
        raise ChildProcessError(
            f"campaign worker {pid} ended without a result "
            f"(exit status {os.waitstatus_to_exitcode(status)})"
        )
    payload = marshal.loads(data)
    if isinstance(payload, bytes):
        import pickle
        raise pickle.loads(payload)
    return payload


def _fan_out(shards: list[tuple], workers: int) -> dict[tuple, tuple]:
    """Each shard's :func:`_battery_batch` result, keyed by the shard, from
    ``workers`` processes: this one and ``workers - 1`` forked children.

    Worker i runs shard i first; after that, each worker that is free claims
    the next shard in list order that no worker has claimed (greedy list
    scheduling, so a worker held up by one costly shard is not dealt more).
    The claims are one byte per shard in an anonymous shared map that the
    children inherit across ``fork``: no thread, no lock that a dead child
    could keep held, and room for any shard count.  Two workers that test
    one byte at the same moment both run that shard; a shard's result
    depends only on its descriptor, so both copies are equal, and the merge
    keeps one.

    A child pipes back its ``(index, result)`` pairs as :mod:`marshal`
    data, or its exception pickled (the only path that loads
    :mod:`pickle`), which is raised here; one that ends with neither raises
    :class:`ChildProcessError`.  This process reads a child that has ended
    as soon as it finishes its own shard, not after its last.  On any error
    the children still running are killed, and all are reaped before this
    returns; the pipes and the map are closed.

    Worker i is pinned to the i-th CPU of this process's scheduler affinity,
    modulo its size, so no two workers share a CPU while there are enough:
    left to the kernel, a forked child may stay on its parent's CPU for the
    whole campaign.  Each child pins itself right after ``fork``, and this
    process after the forks.  A pin the kernel refuses leaves that worker
    where it was, and this process's own affinity is restored before this
    returns or raises.
    """
    from mmap import mmap  # only a fan-out pays for it

    cpus = _affinity()
    claims = mmap(-1, len(shards))  # all 0; anonymous, so no descriptor
    claims[:workers] = b"\1" * workers  # worker i's first shard is shard i
    children: dict[int, BinaryIO] = {}  # pid: the read end of its pipe
    try:
        for first in range(1, workers):
            read_end, write_end = os.pipe()
            # fork, not a fresh interpreter: a child starts with every module
            # and table loaded; gemcalc starts no thread, so fork is safe
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    _pin(cpus, first)
                    os.close(read_end)
                    try:
                        data = marshal.dumps(list(_claimed_results(shards, claims, first)))
                    except Exception as exc:
                        claims[:] = b"\1" * len(shards)  # no worker starts another
                        import pickle  # only a failing worker pays for it
                        data = marshal.dumps(pickle.dumps(exc))
                    with open(write_end, "wb") as pipe:
                        pipe.write(data)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_end)
            children[pid] = open(read_end, "rb")
        _pin(cpus, 0)
        done = []
        for result in _claimed_results(shards, claims, 0):
            done.append(result)
            for pid in list(children):
                ended, status = os.waitpid(pid, os.WNOHANG)
                if ended:
                    with children.pop(pid) as pipe:
                        done += _child_results(pid, pipe.read(), status)
        for pid in list(children):
            data = children[pid].read()
            children.pop(pid).close()
            done += _child_results(pid, data, os.waitpid(pid, 0)[1])
    finally:
        _pin(cpus)
        claims.close()
        if children:
            import signal  # only an error with a child still running pays for it
            for pid, pipe in children.items():
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return {shards[k]: result for k, result in done}


def campaign_report(
    d: int,
    mode: str,
    max_p: int,
    count: int = 0,
    seed: int = 0,
    threads: int | None = None,
) -> dict:
    """Run the identity battery over a corpus and aggregate the outcome.

    Workers (:func:`_fan_out`) are sent shard descriptors and build their
    own gems; every violation carries its corpus index, so the report does
    not depend on sharding or the worker count.  The workers never exceed
    the usable CPUs or the shard count, whatever ``threads`` asks for, and
    the campaign runs in-process when the corpus is one shard or the
    platform has no ``os.fork``.
    """
    if threads is None:
        threads = worker_count()
    if d < 2:
        raise GemError(f"campaigns need d >= 2, got {d}")
    check_dimension(d)
    if max_p < 1:
        raise GemError(f"campaigns need a positive half-order bound, got {max_p}")

    shards = _shards(d, mode, max_p, count, seed)
    workers = min(threads, _usable_cpus(), len(shards)) if hasattr(os, "fork") else 1
    if workers > 1:
        if d == 4:
            _dim4()  # loaded before the fork, so that no worker compiles it again
        # the largest half-orders cost the most per shard: handed out first
        # (the sort is stable, so each p's ranges stay in order), they leave
        # the cheap ones for the last free workers; then the results go back
        # in corpus order (every descriptor is distinct)
        longest_first = sorted(shards, key=lambda shard: -shard[2])
        done = _fan_out(longest_first, workers)
        results = [done[shard] for shard in shards]
    else:
        results = map(_battery_batch, shards)

    graphs = 0
    shapes: Counter = Counter()
    violations: list[tuple[int, str, str]] = []
    for shard_shapes, earliest in results:
        shapes.update(shard_shapes)
        violations += [(graphs + i, name, text) for i, name, text in earliest]
        graphs += sum(shard_shapes.values())
    violations.sort()
    flagged, evaluated, violated = tallies = (Counter(), Counter(), Counter())
    for shape, n in shapes.items():
        for tally, names in zip(tallies, shape):
            for name in names:
                tally[name] += n
    return {
        "schema": REPORT_SCHEMA,
        "kind": "campaign",
        "params": {
            "d": d,
            "mode": mode,
            "max_p": max_p,
            "count": count,
            "seed": seed,
        },
        "counts": {
            "graphs": graphs,
            "bipartite": flagged["bipartite"],
            "singular_manifold": flagged["singular_manifold"],
            "odd_reduced_degree": flagged["odd_reduced_degree"],
            "crystallization_profiles": flagged["crystallization_profile"],
        },
        "checks": {
            name: {"evaluated": evaluated[name], "violations": violated[name]}
            for name in sorted(evaluated)
        },
        "violations": [
            {"index": idx, "check": name, "gem": json.loads(text)}
            for idx, name, text in violations[:MAX_EMBEDDED_COUNTEREXAMPLES]
        ],
        "status": "violations" if violated else "ok",
    }


# --- rendering ---------------------------------------------------------------


def report_json(report: dict) -> str:
    """Canonical JSON bytes of a report (sorted keys, trailing newline)."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def render_text(report: dict) -> str:
    """Aligned human-readable rendering of an analysis or campaign report."""
    lines: list[str] = []
    if report["kind"] == "analysis":
        gr = report["graph"]
        lines.append(
            f"gem: d={gr['d']} vertices={gr['vertices']} "
            f"connected={gr['connected']} bipartite={gr['bipartite']}"
        )
        lines.append(f"euler characteristic: {report['euler_characteristic']}")
        lines.append(
            f"gurau degree: {report['gurau_degree']}"
            + (
                f"   reduced: {report['reduced_degree']}"
                if "reduced_degree" in report
                else ""
            )
        )
        rg = report["regular_genus"]
        lines.append(
            f"regular genus: {rg['value']}  attained by {len(rg['minimizers'])} permutation(s)"
        )
        if "surface" in report:
            s = report["surface"]
            lines.append(
                f"surface: orientable={s['orientable']} euler={s['euler']} genus={s['genus']}"
            )
        if "dim4" in report:
            d4 = report["dim4"]
            lines.append(f"singular manifold: {d4['singular_manifold']}")
            if "crystallization" in d4:
                c = d4["crystallization"]
                lines.append(
                    f"crystallization: kind={c['kind']} q={c['q']} m={c['m']} "
                    f"12rho={c['satisfies_12rho']}"
                )
        lines.append("checks:")
        for name, ok in sorted(report["checks"].items()):
            lines.append(f"  {name:<40} {'ok' if ok else 'VIOLATED'}")
    else:
        pr = report["params"]
        lines.append(
            f"campaign: d={pr['d']} mode={pr['mode']} max_p={pr['max_p']} "
            f"count={pr['count']} seed={pr['seed']}"
        )
        lines.append("counts:")
        for name, value in report["counts"].items():
            lines.append(f"  {name:<28} {value}")
        lines.append("checks:")
        for name, st in report["checks"].items():
            lines.append(
                f"  {name:<40} evaluated={st['evaluated']:<8} violations={st['violations']}"
            )
        lines.append(f"status: {report['status']}")
    return "\n".join(lines) + "\n"
