"""Byte-identity gate: fixed-seed reports hash to pinned sha256 digests.

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

import pytest

from gemcalc import GenSpec, random_gem, reports
from gemcalc.reports import analysis_report, campaign_report, report_json


def _digest(report: dict) -> str:
    return hashlib.sha256(report_json(report).encode()).hexdigest()


CAMPAIGNS = {
    # (d, mode, max_p, count, seed): sha256 of report_json
    (2, "random", 6, 1500, 11): "bfb882d0177c5f878d51b81c7335d283f311d377821f08c718fa2fab15ad41b6",
    (3, "random", 6, 1500, 12): "e6451d19ede23f2a179271fd18729d310e980192bd54a8c751169f0169b12f29",
    (4, "random", 6, 1200, 13): "a635b82aaf65c54b1bcddf8dd11228a335252151ffeb73a5c542d67d55099e16",
    (5, "random", 4, 240, 14): "a87b71957e06a77ffb9b866774b60a1b4c657379b26225c71788d44fe97dc2d6",
    (6, "random", 3, 40, 15): "8fcf3fdf8c2532fcdf76bfdb2cb9ddf2ab0b5fe570a045b8d9b905da8ed6f188",
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


@pytest.mark.parametrize("params", list(CAMPAIGNS), ids=lambda p: f"d{p[0]}-{p[1]}")
def test_campaign_report_bytes_pinned(params):
    d, mode, max_p, count, seed = params
    report = campaign_report(d, mode, max_p, count, seed, threads=1)
    assert report["status"] == "ok"
    assert _digest(report) == CAMPAIGNS[params]


RANDOM_CAMPAIGNS = [params for params in CAMPAIGNS if params[1] == "random"]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("batch_size", [2000, 16, 1])
@pytest.mark.parametrize("params", RANDOM_CAMPAIGNS, ids=lambda p: f"d{p[0]}")
def test_random_campaign_bytes_do_not_depend_on_gem_ranges(
    monkeypatch, serial_fan_out, params, batch_size, workers
):
    # a shard is a range of gems, each drawn from its own stream
    monkeypatch.setattr(reports, "_BATCH_SIZE", batch_size)
    monkeypatch.setattr(
        reports.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False
    )
    report = campaign_report(*params, threads=workers)
    assert serial_fan_out == ([2] if workers == 2 and batch_size < params[3] else [])
    assert _digest(report) == CAMPAIGNS[params]


@pytest.mark.parametrize("batch_size", [2000, 16])
def test_random_campaign_corpus_is_random_gem_per_half_order(monkeypatch, batch_size):
    # the corpus the traced benchmark draws: count split over p = 1..max_p,
    # the p-th part random_gem(GenSpec(d, p, n_p, seed + p, connected_only=True))
    d, max_p, count, seed = 4, 5, 123, 3
    seen = []
    check_graph = reports.check_graph

    def recording(g):
        seen.append(g)
        return check_graph(g)

    monkeypatch.setattr(reports, "check_graph", recording)
    monkeypatch.setattr(reports, "_BATCH_SIZE", batch_size)
    campaign_report(d, "random", max_p, count, seed, threads=1)
    expected = []
    for p in range(1, max_p + 1):
        n = count // max_p + (1 if p - 1 < count % max_p else 0)
        expected += random_gem(GenSpec(d=d, p=p, count=n, seed=seed + p, connected_only=True))
    assert seen == expected


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
    batches = -(-report["counts"]["graphs"] // batch_size)
    assert serial_fan_out == ([2] if workers == 2 and batches > 1 else [])
    assert _digest(report) == VIOLATING_CAMPAIGNS[params]


@pytest.mark.parametrize(
    "name, with_metadata", list(ANALYSES), ids=lambda v: str(v).lower()
)
def test_analysis_report_bytes_pinned(request, name, with_metadata):
    g = request.getfixturevalue(name)
    metadata = {"m": 0, "closed_manifold_asserted": True} if with_metadata else None
    assert _digest(analysis_report(g, metadata)) == ANALYSES[(name, with_metadata)]
