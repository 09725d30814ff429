"""Command-line surface: subcommands, exit codes, reproducibility."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from gemcalc import serialize_gem
from gemcalc.cli import main
from gemcalc import reports as reports_module

from conftest import M_A, M_C, SerialPool
from gemcalc import ColoredGraph, dipole


@pytest.fixture
def dipole_file(tmp_path) -> Path:
    path = tmp_path / "dipole.json"
    path.write_text(serialize_gem(dipole(4)))
    return path


@pytest.fixture
def g4_file(tmp_path) -> Path:
    g = ColoredGraph(d=4, order=4, matchings=(M_A, M_A, M_A, M_C, M_C))
    path = tmp_path / "g4.json"
    path.write_text(serialize_gem(g))
    return path


def test_analyze_dipole(dipole_file, capsys):
    assert main(["analyze", str(dipole_file)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["gurau_degree"] == "0"
    assert report["regular_genus"]["value"] == "0"
    assert report["euler_characteristic"] == 2
    assert report["dim4"]["singular_manifold"] is True
    assert report["violations"] == []


def test_analyze_g4(g4_file, capsys):
    assert main(["analyze", str(g4_file)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["gurau_degree"] == "6"
    assert report["reduced_degree"] == 2
    assert set(report["dim4"]["associated_pair_sums"].values()) == {"1"}
    assert report["euler_characteristic"] == 2


def test_analyze_with_metadata(g4_file, tmp_path, capsys):
    meta = tmp_path / "meta.json"
    meta.write_text(json.dumps({"m": 0, "closed_manifold_asserted": True}))
    assert main(["analyze", str(g4_file), "--metadata", str(meta)]) == 0
    report = json.loads(capsys.readouterr().out)
    block = report["dim4"]["crystallization"]
    assert block["kind"] == "weak_semi_simple"
    assert block["q"] == 1
    assert block["witness"] == "0,1,3,2,4"


def test_analyze_inconsistent_metadata(dipole_file, tmp_path, capsys):
    meta = tmp_path / "meta.json"
    meta.write_text(json.dumps({"m": 1, "closed_manifold_asserted": True}))
    assert main(["analyze", str(dipole_file), "--metadata", str(meta)]) == 2
    assert "inconsistent" in capsys.readouterr().err


def test_analyze_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"d": 4, "vertices": 2, "matchings": [[1, 2],[2,1],[2,1],[2,1],[2,1]]}')
    assert main(["analyze", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "loop forbidden at vertex 1" in err


def test_analyze_disconnected(tmp_path, capsys):
    path = tmp_path / "disc.json"
    path.write_text(
        serialize_gem(ColoredGraph(d=4, order=4, matchings=(M_A,) * 5))
    )
    assert main(["analyze", str(path)]) == 2
    assert "connected" in capsys.readouterr().err


def test_analyze_text_format(g4_file, capsys):
    assert main(["analyze", str(g4_file), "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "gurau degree: 6" in out
    assert "VIOLATED" not in out


def test_verify_exhaustive(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(
        ["verify", "--d", "4", "--mode", "exhaustive", "--p", "2", "--out", str(out)]
    )
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["counts"]["graphs"] == 81
    assert report["status"] == "ok"
    assert all(st["violations"] == 0 for st in report["checks"].values())


def test_verify_random_reproducible(tmp_path):
    args = ["verify", "--d", "3", "--mode", "random", "--p", "3",
            "--count", "90", "--seed", "21"]
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_worker_sharding_invisible(tmp_path, monkeypatch):
    args = ["verify", "--d", "4", "--mode", "random", "--p", "2",
            "--count", "60", "--seed", "31"]
    monkeypatch.setattr(reports_module, "_BATCH_SIZE", 16)
    solo, duo = tmp_path / "solo.json", tmp_path / "duo.json"
    monkeypatch.setenv("GEMCALC_THREADS", "1")
    assert main(args + ["--out", str(solo)]) == 0
    monkeypatch.setenv("GEMCALC_THREADS", "2")
    assert main(args + ["--out", str(duo)]) == 0
    assert solo.read_bytes() == duo.read_bytes()


@pytest.mark.parametrize("cpus, expected", [(8, 4), (3, 3)])
def test_verify_pool_capped_by_cpus_and_batches(
    tmp_path, monkeypatch, cpus, expected
):
    # 60 gems in batches of 16 make 4 batches; GEMCALC_THREADS asks for 10000
    monkeypatch.setattr(reports_module, "_BATCH_SIZE", 16)
    monkeypatch.setattr(reports_module, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(
        reports_module.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False
    )
    monkeypatch.setattr(SerialPool, "created", [])
    monkeypatch.setenv("GEMCALC_THREADS", "10000")
    args = ["verify", "--d", "4", "--mode", "random", "--p", "2",
            "--count", "60", "--seed", "31"]
    capped, solo = tmp_path / "capped.json", tmp_path / "solo.json"
    assert main(args + ["--out", str(capped)]) == 0
    assert SerialPool.created == [expected]
    monkeypatch.setenv("GEMCALC_THREADS", "1")
    assert main(args + ["--out", str(solo)]) == 0
    assert SerialPool.created == [expected]  # one worker: no pool at all
    assert capped.read_bytes() == solo.read_bytes()


def test_dimension_beyond_permutation_budget_refused(tmp_path, capsys):
    from gemcalc.perms import cyclic_permutations

    cached = cyclic_permutations.cache_info().currsize
    path = tmp_path / "dipole12.json"
    path.write_text(serialize_gem(ColoredGraph(d=12, order=2, matchings=((2, 1),) * 13)))
    assert main(["analyze", str(path)]) == 2
    assert "d=12 has d!/2 = 239500800" in capsys.readouterr().err
    rc = main(["verify", "--d", "12", "--mode", "random", "--p", "1", "--count", "1"])
    assert rc == 2
    assert "d=12 has d!/2 = 239500800" in capsys.readouterr().err
    assert cyclic_permutations.cache_info().currsize == cached


def test_verify_violation_exit_code(tmp_path, monkeypatch, capsys):
    # force a lying check to exercise the counterexample path
    real = reports_module.check_graph

    def sabotaged(g):
        flags, checks = real(g)
        checks["degree_formula_agreement"] = False
        return flags, checks

    monkeypatch.setattr(reports_module, "check_graph", sabotaged)
    out = tmp_path / "report.json"
    rc = main(
        ["verify", "--d", "4", "--mode", "exhaustive", "--p", "1", "--out", str(out)]
    )
    assert rc == 1
    report = json.loads(out.read_text())
    assert report["status"] == "violations"
    assert report["violations"][0]["check"] == "degree_formula_agreement"
    assert report["violations"][0]["gem"]["d"] == 4
    ce = out.with_suffix(".counterexample.json")
    assert ce.exists()
    assert json.loads(ce.read_text())["vertices"] == 2
    assert "counterexample" in capsys.readouterr().err


def test_decompose_full_n5(capsys):
    assert main(["decompose", "--n", "5", "--full"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["classes"]) == 6
    assert doc["multiplicity"] == 1
    assert doc["classes"][0] == [[0, 1, 2, 3, 4], [0, 2, 4, 1, 3]]


def test_decompose_full_n4(capsys):
    assert main(["decompose", "--n", "4", "--full"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["classes"]) == 1
    assert len(doc["classes"][0]) == 3
    assert doc["multiplicity"] == 2


def test_decompose_walecki_default(capsys):
    assert main(["decompose", "--n", "9"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["classes"]) == 1
    assert len(doc["classes"][0]) == 4


def test_decompose_unsupported(capsys):
    assert main(["decompose", "--n", "9", "--full"]) == 2
    assert "supported" in capsys.readouterr().err


def test_generate_deterministic(tmp_path):
    base = ["generate", "--d", "4", "--p", "4", "--count", "10", "--seed", "7",
            "--connected"]
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main(base + ["--out", str(d1)]) == 0
    assert main(base + ["--out", str(d2)]) == 0
    files = sorted(f.name for f in d1.iterdir())
    assert files == sorted(f.name for f in d2.iterdir())
    assert "manifest.json" in files
    assert len(files) == 11
    for name in files:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    manifest = json.loads((d1 / "manifest.json").read_text())
    assert manifest["seed"] == 7 and manifest["count"] == 10


def test_generate_nonbipartite_includes_projective_plane(tmp_path):
    out = tmp_path / "np"
    rc = main(
        ["generate", "--d", "2", "--p", "3", "--count", "40", "--seed", "3",
         "--connected", "--nonbipartite", "--out", str(out)]
    )
    assert rc == 0
    from gemcalc import euler_characteristic_complex, parse_gem

    chis = set()
    for path in sorted(out.glob("gem_*.json")):
        chis.add(euler_characteristic_complex(parse_gem(path.read_text())))
    assert 1 in chis  # a projective-plane gem appears in the batch


def test_search_odd_cli(tmp_path, capsys):
    assert main(["search-odd", "--max-p", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["found"] is False

    out = tmp_path / "witness.json"
    assert main(["search-odd", "--max-p", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["found"] is True
    assert doc["reduced_degree"] % 2 == 1
    assert doc["bipartite"] is False
    assert doc["singular_manifold"] is False

    # the witness re-analyzes consistently
    gem_file = tmp_path / "witness_gem.json"
    gem_file.write_text(json.dumps(doc["gem"]))
    assert main(["analyze", str(gem_file)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["reduced_degree"] == doc["reduced_degree"]
    assert report["dim4"]["singular_manifold"] is False
