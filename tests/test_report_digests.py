"""Byte-identity gate: fixed-seed reports hash to pinned sha256 digests.

The digests were recorded before the residue layer was rebuilt as a
bitmask-indexed vector, and those of violating campaigns before the
campaign tally was rewritten; any change to a count, a check, a flag, a key or
the rendering of a half-integer changes the bytes and fails this test.
"""

from __future__ import annotations

import hashlib

import pytest

from gemcalc import reports
from gemcalc.reports import analysis_report, campaign_report, report_json

from conftest import SerialPool


def _digest(report: dict) -> str:
    return hashlib.sha256(report_json(report).encode()).hexdigest()


CAMPAIGNS = {
    # (d, mode, max_p, count, seed): sha256 of report_json
    (2, "random", 6, 1500, 11): "4d64a6243a951b2a6ee013a030ec26ccd7544b0de9b4534927bab6c612750d53",
    (3, "random", 6, 1500, 12): "a06db2be0afe1682a9b07f0b08fe5e352319893d25f7991adcc50931f3b1cc5b",
    (4, "random", 6, 1200, 13): "71bb702bdecb2d1020d78911ce467a533b9e4c7d8a24bdf80b895c3f57c60c66",
    (5, "random", 4, 240, 14): "1535f219e98161f6cc5488a37c33c32759c6cfb5a59bc4374a1e9524d67ffb6d",
    (6, "random", 3, 40, 15): "4fbcfa0a6fb5ccc7916297ded504e2e9c439d19525b50985ebb13f01b84675c6",
    (4, "exhaustive", 2, 0, 0): "e89cd67d2a7ee3d9b8de9b9ee63d7e2fc8ace5df3e65b9a178948f13426eac00",
}

VIOLATING_CAMPAIGNS = {
    # (d, mode, max_p, count, seed) under _sabotaged checks: sha256 of report_json
    (4, "random", 4, 40, 9): "6b345e27df250322c305426e586e28416c57309b16f8abc92edcf3138a73cae8",
    (4, "exhaustive", 2, 0, 0): "02d4c3c6fd2d8a3f9363845c183d9e7f00d3495a26fe3a62a092746284f9aa19",
    (3, "random", 3, 1, 9): "61ff7115006303c47637cc920df756428c1bdd5e0ac559467b93c3c993d3be1e",
}

ANALYSES = {
    # (fixture, with crystallization metadata): sha256 of report_json
    ("dipole4", False): "ffcfafc38f3dc37cf168a350793a4724d04038e0b8331243eed05d85b43e6279",
    ("g4", False): "579d47fc8697c9e1fd26a9a3d3b47f18b9f904cf41203901964f11c74e410d4e",
    ("rp2_gem", False): "e6300efc26f7cbad048b69353255b8bffe369853360a16d40ecbcc5ee7297cd0",
    ("odd_degree_witness", False): "5719db5f21e0b131610d0feaf2ce6dc627a5379099c1977ab4ff72709ae0e9c2",
    ("dipole4", True): "42a78aea5ab55ffb61678462e5b7b4e0384867493a5e2386c02381c562788f9c",
    ("g4", True): "beec3ab2d7ebbfac3e3eb7d83eb0c756c59f9bc8199c2e21b7215c0d3a54a78b",
}


@pytest.mark.parametrize("params", list(CAMPAIGNS), ids=lambda p: f"d{p[0]}-{p[1]}")
def test_campaign_report_bytes_pinned(params):
    d, mode, max_p, count, seed = params
    report = campaign_report(d, mode, max_p, count, seed, threads=1)
    assert report["status"] == "ok"
    assert _digest(report) == CAMPAIGNS[params]


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
def test_violating_campaign_bytes_pinned(monkeypatch, params, batch_size, workers):
    # counts, per-check tallies and embedded gems must not depend on batching
    monkeypatch.setattr(reports, "check_graph", _sabotaged(reports.check_graph))
    monkeypatch.setattr(reports, "_BATCH_SIZE", batch_size)
    monkeypatch.setattr(reports, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(SerialPool, "created", [])
    monkeypatch.setattr(
        reports.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False
    )
    report = campaign_report(*params, threads=workers)
    batches = -(-report["counts"]["graphs"] // batch_size)
    assert SerialPool.created == ([2] if workers == 2 and batches > 1 else [])
    assert _digest(report) == VIOLATING_CAMPAIGNS[params]


@pytest.mark.parametrize(
    "name, with_metadata", list(ANALYSES), ids=lambda v: str(v).lower()
)
def test_analysis_report_bytes_pinned(request, name, with_metadata):
    g = request.getfixturevalue(name)
    metadata = {"m": 0, "closed_manifold_asserted": True} if with_metadata else None
    assert _digest(analysis_report(g, metadata)) == ANALYSES[(name, with_metadata)]
