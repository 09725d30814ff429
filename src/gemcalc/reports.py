"""Identity-check battery and report builders for the CLI.

Every theorem-shaped statement the library exposes is evaluated per graph
as a named boolean check; campaign reports aggregate evaluation and
violation counts, embedding the first counterexample gems verbatim.  All
reports serialize deterministically (sorted keys, integers and exact
half-integer strings only), so a repeated run with the same seed is
byte-identical.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from functools import lru_cache
from itertools import combinations
from math import factorial
from typing import Iterable, Iterator

from .core import (
    ColoredGraph,
    GemError,
    check_dimension,
    euler_characteristic_complex,
    is_bipartite,
    is_connected,
    residue_count,
    serialize_gem,
)
from .cycle_decomp import (
    PARTITION_EVEN_SUPPORTED,
    PARTITION_ODD_SUPPORTED,
    partition_even,
    partition_odd,
    walecki_decomposition,
)
from .dim4 import (
    associated_pairs,
    check_identities,
    classify_crystallization,
    crystallization_profile,
    euler_char_via_genus,
    surface_type,
)
from .embeddings import HalfInt, cyclic_permutations, genus_twices, reduced_degree_formula
from .generator import GenSpec, enumerate_gems, random_gem
from .perms import perm_index

__all__ = [
    "REPORT_SCHEMA",
    "analysis_report",
    "campaign_report",
    "render_text",
    "report_json",
    "worker_count",
]

REPORT_SCHEMA = "gemcalc.report/1"
MAX_EMBEDDED_COUNTEREXAMPLES = 5
_BATCH_SIZE = 2000


def worker_count() -> int:
    """Worker cap from GEMCALC_THREADS (default 1)."""
    raw = os.environ.get("GEMCALC_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise GemError(f"GEMCALC_THREADS must be an integer, got {raw!r}") from None
    return max(1, n)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _perm_key(eps: Iterable[int]) -> str:
    return ",".join(str(c) for c in eps)


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


def check_graph(g: ColoredGraph) -> tuple[dict[str, bool], dict[str, bool]]:
    """Evaluate every applicable identity on one connected graph.

    Returns (flags, checks): flags are corpus counters (bipartite, singular
    manifold, odd reduced degree, crystallization profile accepted); checks
    map stable names to pass/fail.
    """
    return _check(g, genus_twices(g))


def _check(g: ColoredGraph, twices: tuple[int, ...]) -> tuple[dict, dict]:
    d = g.d
    checks: dict[str, bool] = {}
    flags: dict[str, bool] = {}

    omega_twice = sum(twices)
    reduced = reduced_degree_formula(g)

    bipartite = is_bipartite(g)
    flags["bipartite"] = bipartite

    if d >= 3:
        checks["degree_formula_agreement"] = omega_twice == factorial(d - 1) * reduced
        checks["degree_multiple_of_half_factorial"] = (
            omega_twice >= 0 and omega_twice % factorial(d - 1) == 0
        )
        flags["odd_reduced_degree"] = (
            omega_twice % factorial(d - 1) == 0
            and (omega_twice // factorial(d - 1)) % 2 == 1
        )
    if bipartite:
        checks["bipartite_genera_integral"] = all(t % 2 == 0 for t in twices)
        if d >= 4 and d % 2 == 0:
            checks["bipartite_degree_divisibility"] = (
                omega_twice % (2 * factorial(d - 1)) == 0
            )

    classes = _class_indices(d)
    if classes:
        expected = reduced if d % 2 == 0 else 2 * reduced
        checks["class_genus_sum_constant"] = all(
            sum(twices[i] for i in cls) == expected for cls in classes
        )

    if d == 2:
        st = surface_type(g)
        chi = euler_characteristic_complex(g)
        checks["surface_classification"] = (
            st.euler == chi
            and chi <= 2
            and st.orientable == bipartite
            and omega_twice == st.genus.twice == 2 - chi
            and (not bipartite or st.genus.is_integer)
        )

    if d == 4:
        check_identities(g, twices, flags, checks)
    return flags, checks


def analysis_report(g: ColoredGraph, metadata: dict | None = None) -> dict:
    """Full single-graph report; requires a connected graph."""
    if not is_connected(g):
        raise GemError("analysis requires a connected graph")
    d = g.d
    perms = cyclic_permutations(d)
    twices = genus_twices(g)
    rho_min = min(twices)

    flags, checks = _check(g, twices)
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
            "pairs": {
                _perm_key(pr): residue_count(g, pr)
                for pr in combinations(g.colors, 2)
            },
            "complements": {
                str(i): residue_count(g, [x for x in g.colors if x != i])
                for i in g.colors
            },
        },
        "euler_characteristic": euler_characteristic_complex(g),
        "genera": {_perm_key(eps): str(HalfInt(t)) for eps, t in zip(perms, twices)},
        "regular_genus": {
            "value": str(HalfInt(rho_min)),
            "minimizers": [_perm_key(eps) for eps, t in zip(perms, twices) if t == rho_min],
        },
        "gurau_degree": str(HalfInt(sum(twices))),
        "checks": checks,
        "violations": sorted(name for name, ok in checks.items() if not ok),
    }
    if d >= 3:
        report["reduced_degree"] = sum(twices) // factorial(d - 1)
    if d == 2:
        st = surface_type(g)
        report["surface"] = {
            "orientable": st.orientable,
            "euler": st.euler,
            "genus": str(st.genus),
        }
    if d == 4:
        singular = flags["singular_manifold"]
        index = perm_index(4)
        block: dict = {
            "associated_pair_sums": {
                f"{_perm_key(a)}|{_perm_key(b)}": str(
                    HalfInt(twices[index[a]] + twices[index[b]])
                )
                for a, b in associated_pairs()
            },
            "singular_manifold": singular,
        }
        if singular:
            block["euler_by_pair_formula"] = euler_char_via_genus(
                g, associated_pairs()[0][0]
            )
        if metadata is not None:
            block["crystallization"] = _metadata_block(g, metadata)
        report["dim4"] = block
    return report


def _metadata_block(g: ColoredGraph, metadata: dict) -> dict:
    if not isinstance(metadata, dict) or "m" not in metadata:
        raise GemError("crystallization metadata must be an object with field 'm'")
    m = metadata["m"]
    if not isinstance(m, int) or isinstance(m, bool):
        raise GemError("metadata field 'm' must be an integer")
    if not metadata.get("closed_manifold_asserted", False):
        raise GemError(
            "crystallization metadata requires closed_manifold_asserted: true"
        )
    profile = crystallization_profile(g, m)
    result = classify_crystallization(profile, g)
    return {
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


# --- campaigns ---------------------------------------------------------------


def _campaign_graphs(d: int, mode: str, max_p: int, count: int, seed: int) -> Iterator[ColoredGraph]:
    if mode == "exhaustive":
        for p in range(1, max_p + 1):
            yield from enumerate_gems(d, p, connected_only=True)
    elif mode == "random":
        for p in range(1, max_p + 1):
            n = count // max_p + (p <= count % max_p)
            if n:
                yield from random_gem(
                    GenSpec(d=d, p=p, count=n, seed=seed + p, connected_only=True)
                )
    else:
        raise GemError(f"unknown campaign mode {mode!r}")


def _battery_batch(batch: tuple[int, list[ColoredGraph]]) -> tuple[Counter, Counter, list]:
    """Worker: true flags and evaluated checks by name, plus violations.

    Violations are (corpus index, check, serialized gem); the batch carries
    the corpus index of its first gem.
    """
    start, gems = batch
    flagged: list[str] = []
    evaluated: list[str] = []
    violations: list[tuple[int, str, str]] = []
    for idx, g in enumerate(gems, start):
        flags, checks = check_graph(g)
        flagged += [name for name, value in flags.items() if value]
        evaluated += checks
        violations += [
            (idx, name, serialize_gem(g)) for name, ok in checks.items() if not ok
        ]
    return Counter(flagged), Counter(evaluated), violations


def campaign_report(
    d: int,
    mode: str,
    max_p: int,
    count: int = 0,
    seed: int = 0,
    threads: int | None = None,
) -> dict:
    """Run the identity battery over a corpus and aggregate the outcome.

    The corpus order is deterministic and every violation carries its corpus
    index, so the report does not depend on batching or the worker count.
    The pool never exceeds the usable CPUs or the batch count, whatever
    ``threads`` asks for.  The first few violating gems are embedded
    verbatim.
    """
    if threads is None:
        threads = worker_count()
    if d < 2:
        raise GemError(f"campaigns need d >= 2, got {d}")
    check_dimension(d)
    if max_p < 1:
        raise GemError(f"campaigns need a positive half-order bound, got {max_p}")
    if mode == "random" and count < 1:
        raise GemError("random campaigns need a positive sample count")

    gems = list(_campaign_graphs(d, mode, max_p, count, seed))
    batches = [
        (start, gems[start : start + _BATCH_SIZE])
        for start in range(0, len(gems), _BATCH_SIZE)
    ]
    workers = min(threads, _usable_cpus(), len(batches))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_battery_batch, batches))
    else:
        results = [_battery_batch(batch) for batch in batches]

    flagged: Counter = Counter()
    evaluated: Counter = Counter()
    violations: list[tuple[int, str, str]] = []
    for batch_flagged, batch_evaluated, batch_violations in results:
        flagged += batch_flagged
        evaluated += batch_evaluated
        violations += batch_violations
    violations.sort()
    violated = Counter(name for _, name, _ in violations)
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
            "graphs": len(gems),
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
        "status": "violations" if violations else "ok",
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
