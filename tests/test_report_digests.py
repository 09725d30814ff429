"""Byte-identity gate: fixed-seed reports, and the partitions ``decompose``
prints, hash to pinned sha256 digests.

The digests were re-recorded when the report schema became
``gemcalc.report/2`` with the second random corpus (a stream per gem,
matchings drawn by direct pairing); every digest of a report that draws no
random gem equals, with ``gemcalc.report/1`` put back, the one recorded
before the residue layer was rebuilt as a bitmask-indexed vector.  Any change
to a count, a check, a flag, a key or the rendering of a half-integer changes
the bytes and fails this test.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from itertools import groupby
from math import prod
from operator import itemgetter

import pytest

from gemcalc import GenSpec, dipole, parse_gem, random_gem, reports, serialize_gem
from gemcalc.cli import main
from gemcalc.reports import analysis_report, campaign_report, report_json


def _digest(report: dict) -> str:
    return hashlib.sha256(report_json(report).encode()).hexdigest()


# shaped like the d = 3 benchmark corpus: p up to 8, 4000 gems
BENCHMARK_SHAPED = (3, "random", 8, 4000, 16)

CAMPAIGNS = {
    # (d, mode, max_p, count, seed): sha256 of report_json
    (2, "random", 6, 1500, 11): "bfb882d0177c5f878d51b81c7335d283f311d377821f08c718fa2fab15ad41b6",
    (3, "random", 6, 1500, 12): "e6451d19ede23f2a179271fd18729d310e980192bd54a8c751169f0169b12f29",
    (4, "random", 6, 1200, 13): "a635b82aaf65c54b1bcddf8dd11228a335252151ffeb73a5c542d67d55099e16",
    (5, "random", 4, 240, 14): "a87b71957e06a77ffb9b866774b60a1b4c657379b26225c71788d44fe97dc2d6",
    (6, "random", 3, 40, 15): "8fcf3fdf8c2532fcdf76bfdb2cb9ddf2ab0b5fe570a045b8d9b905da8ed6f188",
    BENCHMARK_SHAPED: "edefe97cd0f0892c01c033cda20ad0a8b3d3a3c452c91715e4d0599e30912ea5",
    (4, "exhaustive", 2, 0, 0): "dc2d6ff7b7435239796a3d46179c0fdda9f9b411f0b56043cbeaa78fc1815e8c",
}

VIOLATING_CAMPAIGNS = {
    # (d, mode, max_p, count, seed) under _sabotaged checks: sha256 of report_json
    (4, "random", 4, 40, 9): "037d1aba01dc7bc89de3feb4f773353bbe8ab1828e8e4beacce8fda6c7bef0f4",
    (4, "exhaustive", 2, 0, 0): "3ca22ac41d54ef398230a0a285c193586a2871a4d2b83c21b00c9b8ebf63a37f",
    (3, "random", 3, 1, 9): "ff3b43a175e879282692d41369378328943bb4b32f1b3f22621fa49b28116a36",
}

ANALYSES = {
    # (fixture, with crystallization metadata): sha256 of report_json
    ("dipole4", False): "9f19600a7453cdeba4cbd768bdfd518a9b428d294de19792d8bdf4980646eaa3",
    ("g4", False): "e7fea8da312e97fb27eccf656548abc53e12bb9b36e3905d3b379d8530d0c5bc",
    ("rp2_gem", False): "33ff729cb2faded13c0130f476eef11ed5ff59db3c18a6c90a2ad9a0e56df7b0",
    ("odd_degree_witness", False): "07d886525d2c7c96ed469c4662d3352e5f725024eb64484c59e03bfca8056411",
    ("dipole4", True): "e6fcddc9c6e3a046bad22f763cb5d57a443ab2191d610ae50d4b90e90f5d209c",
    ("g4", True): "ddef1c05e4c0cd798908d28e6e5ecad8214089c09344cd07eef74b28480c4dfc",
}

DECOMPOSITIONS = {
    # decompose arguments: sha256 of the command's output
    ("--n", "4"): "6fa656c96b0c4f8e82d764c6fcbcfd731a3f9201ff638dc1549a4acc94287f94",
    ("--n", "4", "--full"): "a1e3d18e6eb284f95080606af28a2d587f281df9c08c1ef19076cfbfee511793",
    ("--n", "6"): "8070b9510a831abafe02e66a6a0d81364aec307dc4f0539ce574078fd326deb2",
    ("--n", "6", "--full"): "4ce541bc4fc98f16dc54debf2bb331c2022c6c27547bc3b02d3729d84e958f8f",
    ("--n", "5", "--full"): "df806242fb2b1463b51cbe55c71f5af52415c0c06e0220ba7f8a23ce0141940a",
    ("--n", "7", "--full"): "d05acd026e313702ecaa73f8a415e245ae0a3ae204aa3d326d4c1059bc20dc85",
    ("--n", "9"): "49b5bbc47744285c54f3c1cec634f76267719d4632cf1e101f749c15df07c7a8",
}


def _campaign_id(params: tuple, mode: bool = True) -> str:
    if params == BENCHMARK_SHAPED:
        return "d3-benchmark"
    return f"d{params[0]}-{params[1]}" if mode else f"d{params[0]}"


@pytest.mark.parametrize("params", list(CAMPAIGNS), ids=_campaign_id)
def test_campaign_report_bytes_pinned(params):
    d, mode, max_p, count, seed = params
    report = campaign_report(d, mode, max_p, count, seed, threads=1)
    assert report["status"] == "ok"
    assert _digest(report) == CAMPAIGNS[params]


RANDOM_CAMPAIGNS = [params for params in CAMPAIGNS if params[1] == "random"]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("batch_size", [2000, 16, 1])
@pytest.mark.parametrize("params", RANDOM_CAMPAIGNS, ids=lambda p: _campaign_id(p, mode=False))
def test_random_campaign_bytes_do_not_depend_on_gem_ranges(
    monkeypatch, serial_fan_out, params, batch_size, workers
):
    # a shard is a range of gems, each drawn from its own stream
    monkeypatch.setattr(reports, "_BATCH_SIZE", batch_size)
    monkeypatch.setattr(
        reports.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False
    )
    report = campaign_report(*params, threads=workers)
    # every campaign of more than one shard fans out
    shards = reports._shards(*params)
    assert serial_fan_out == ([2] if workers == 2 and len(shards) > 1 else [])
    assert _digest(report) == CAMPAIGNS[params]


# sha256 of the serialized gems of random_gem(GenSpec(d=9, p=40, count=3,
# seed=17)), one per line: 390 draws per candidate, more than one 64-lane batch
LARGE_GEMS = "3d28c829b26d2cd6522a2e09d43636e22573c359dc1c99a40631c57d2197ddc8"


def test_large_random_gems_pinned():
    gems = random_gem(GenSpec(d=9, p=40, count=3, seed=17))
    text = "\n".join(serialize_gem(g) for g in gems)
    assert hashlib.sha256(text.encode()).hexdigest() == LARGE_GEMS


def _labelled_gems(d: int, p: int) -> int:
    # (2p-1)!! perfect matchings of 2p vertices for each of the d + 1 colors
    return prod(range(1, 2 * p, 2)) ** (d + 1)


@pytest.mark.parametrize("batch_size", [2000, 16])
def test_random_campaign_corpus_is_random_gem_per_half_order(monkeypatch, batch_size):
    # the corpus the traced benchmark draws: count split over p = 1..max_p,
    # the p-th part random_gem(GenSpec(d, p, n_p, seed + p, connected_only=True));
    # a shard longer than the labelled gems of its p checks each distinct gem
    # once, any other shard checks every gem
    campaign_gems, check_graph = reports.campaign_gems, reports.check_graph
    drawn, checked = [], []

    def drawing(*shard):
        for g in campaign_gems(*shard):
            drawn.append((shard, g))
            yield g

    def checking(g):
        checked.append(g)
        return check_graph(g)

    monkeypatch.setattr(reports, "campaign_gems", drawing)
    monkeypatch.setattr(reports, "check_graph", checking)
    monkeypatch.setattr(reports, "_BATCH_SIZE", batch_size)
    # d = 4: only p = 1 repeats; d = 3, p = 2: 200 gems over 81 labelled ones
    for d, max_p, count, seed in [(4, 5, 123, 3), (3, 2, 400, 6)]:
        drawn.clear()
        checked.clear()
        campaign_report(d, "random", max_p, count, seed, threads=1)
        expected = []
        for p in range(1, max_p + 1):
            n = count // max_p + (1 if p - 1 < count % max_p else 0)
            expected += random_gem(
                GenSpec(d=d, p=p, count=n, seed=seed + p, connected_only=True)
            )
        assert [g for _, g in drawn] == expected
        first_seen = []
        for shard, group in groupby(drawn, key=itemgetter(0)):
            gems = [g for _, g in group]
            _, _, p, lo, hi, _ = shard
            if hi - lo > _labelled_gems(d, p):
                distinct: dict = {}
                gems = [distinct.setdefault(g.matchings, g) for g in gems
                        if g.matchings not in distinct]
            first_seen += gems
        assert checked == first_seen
        assert len(checked) < len(drawn)  # the dipole repeats at every batch size


def _sabotaged(check_graph):
    """Fail pair_degree_identity on even p and class_genus_sum_constant on p = 3."""

    def wrapped(g):
        flags, checks = check_graph(g)
        if g.p % 2 == 0 and "pair_degree_identity" in checks:
            checks["pair_degree_identity"] = False
        if g.p == 3 and "class_genus_sum_constant" in checks:
            checks["class_genus_sum_constant"] = False
        return flags, checks

    return wrapped


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("batch_size", [2000, 16, 1])
@pytest.mark.parametrize(
    "params", list(VIOLATING_CAMPAIGNS), ids=lambda p: f"d{p[0]}-{p[1]}-p{p[2]}"
)
def test_violating_campaign_bytes_pinned(
    monkeypatch, serial_fan_out, params, batch_size, workers
):
    # counts, per-check tallies and embedded gems must not depend on batching
    monkeypatch.setattr(reports, "check_graph", _sabotaged(reports.check_graph))
    monkeypatch.setattr(reports, "_BATCH_SIZE", batch_size)
    monkeypatch.setattr(
        reports.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False
    )
    report = campaign_report(*params, threads=workers)
    shards = reports._shards(*params)
    assert serial_fan_out == ([2] if workers == 2 and len(shards) > 1 else [])
    assert _digest(report) == VIOLATING_CAMPAIGNS[params]


def _sabotaged_repeats(check_graph):
    """Fail degree_formula_agreement on the dipole, and
    class_genus_sum_constant on the p = 2 gems whose colors 0 and 1 share
    their matching: some of the gems of one half-order and not others."""

    def wrapped(g):
        flags, checks = check_graph(g)
        if g.p == 1:
            checks["degree_formula_agreement"] = False
        if g.p == 2 and g.matchings[0] == g.matchings[1]:
            checks["class_genus_sum_constant"] = False
        return flags, checks

    return wrapped


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("batch_size", [2000, 16])
def test_repeated_violating_gems_tallied_one_by_one(monkeypatch, batch_size, workers):
    # d = 3, p <= 2, 400 gems: 200 dipoles, then 200 gems of p = 2 drawn from
    # 81 labelled ones; every repeat counts, and violates, as its own gem
    d, max_p, count, seed = 3, 2, 400, 6
    sabotaged = _sabotaged_repeats(reports.check_graph)
    monkeypatch.setattr(reports, "check_graph", sabotaged)
    monkeypatch.setattr(reports, "_BATCH_SIZE", batch_size)
    monkeypatch.setattr(
        reports.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False
    )
    report = campaign_report(d, "random", max_p, count, seed, threads=workers)

    corpus = []
    for p in (1, 2):
        corpus += random_gem(
            GenSpec(d=d, p=p, count=count // max_p, seed=seed + p, connected_only=True)
        )
    flagged, evaluated, violated, violations = Counter(), Counter(), Counter(), []
    for index, g in enumerate(corpus):
        flags, checks = sabotaged(g)
        flagged.update(name for name, value in flags.items() if value)
        evaluated.update(checks.keys())
        for name, ok in sorted(checks.items()):
            if not ok:
                violated[name] += 1
                violations.append((index, name, g))
    assert report["counts"] == {
        "graphs": count,
        "bipartite": flagged["bipartite"],
        "singular_manifold": 0,
        "odd_reduced_degree": flagged["odd_reduced_degree"],
        "crystallization_profiles": 0,
    }
    assert report["checks"] == {
        name: {"evaluated": evaluated[name], "violations": violated[name]}
        for name in evaluated
    }
    assert 0 < violated["class_genus_sum_constant"] < count // max_p
    embedded = [
        (v["index"], v["check"], parse_gem(json.dumps(v["gem"])))
        for v in report["violations"]
    ]
    assert embedded == violations[:5]
    assert embedded == [(i, "degree_formula_agreement", dipole(d)) for i in range(5)]


@pytest.mark.parametrize(
    "name, with_metadata", list(ANALYSES), ids=lambda v: str(v).lower()
)
def test_analysis_report_bytes_pinned(request, name, with_metadata):
    g = request.getfixturevalue(name)
    metadata = {"m": 0, "closed_manifold_asserted": True} if with_metadata else None
    assert _digest(analysis_report(g, metadata)) == ANALYSES[(name, with_metadata)]


@pytest.mark.parametrize("args", list(DECOMPOSITIONS), ids=lambda a: "".join(a[1:]))
def test_decompose_bytes_pinned(capsys, args):
    # which classes the searches find, and in what order, is part of the output
    assert main(["decompose", *args]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DECOMPOSITIONS[args]
