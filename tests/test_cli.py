"""Command-line surface: subcommands, exit codes, reproducibility."""

from __future__ import annotations

import errno
import json
import os
import pickle
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from gemcalc import parse_gem, serialize_gem
from gemcalc import cli as cli_module
from gemcalc.cli import main
from gemcalc import generator as generator_module
from gemcalc import reports as reports_module
from gemcalc import cycle_decomp

from conftest import M_A, M_B, M_C, assert_no_child
from gemcalc import ColoredGraph, GemError, InvariantViolation, dipole
from gemcalc.core import ENUMERATION_BUDGET


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


@pytest.mark.parametrize("asserted", ["false", "true", 1])
def test_analyze_metadata_requires_boolean_assertion(dipole_file, tmp_path, capsys, asserted):
    # only the JSON boolean true asserts a closed manifold
    meta = tmp_path / "meta.json"
    meta.write_text(json.dumps({"m": 0, "closed_manifold_asserted": asserted}))
    assert main(["analyze", str(dipole_file), "--metadata", str(meta)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "closed_manifold_asserted: true" in err


@pytest.mark.parametrize(
    "metadata",
    [
        {"m": "x", "closed_manifold_asserted": True},
        {"m": 0},
        [],
        {"m": -1, "closed_manifold_asserted": True},
    ],
)
def test_analysis_checks_metadata_before_the_battery(monkeypatch, metadata):
    runs = []
    check = reports_module._check

    def counting(*args):
        runs.append(args)
        return check(*args)

    monkeypatch.setattr(reports_module, "_check", counting)
    with pytest.raises(GemError):
        reports_module.analysis_report(dipole(4), metadata)
    assert runs == []


def test_analyze_refuses_negative_rank(dipole_file, tmp_path, capsys):
    meta = tmp_path / "meta.json"
    meta.write_text(json.dumps({"m": -1, "closed_manifold_asserted": True}))
    assert main(["analyze", str(dipole_file), "--metadata", str(meta)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "rank metadata must be non-negative, got -1" in err


def test_analyze_metadata_refused_below_five_colors(tmp_path, monkeypatch, capsys):
    def unreachable(*args):
        raise AssertionError("the battery ran")

    monkeypatch.setattr(reports_module, "_check", unreachable)
    gem = tmp_path / "dipole3.json"
    gem.write_text(serialize_gem(dipole(3)))
    meta = tmp_path / "meta.json"
    # a file holding JSON null is metadata too, not its absence
    for metadata in ({"nonsense": 1}, None):
        meta.write_text(json.dumps(metadata))
        assert main(["analyze", str(gem), "--metadata", str(meta)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "5-colored" in err and "d=3" in err


@pytest.mark.parametrize(
    "gem_bytes, meta_bytes, message",
    [
        (b"\xff\xfe", None, "gem.json is not UTF-8 text"),
        (None, b"\xff\xfe", "meta.json is not UTF-8 text"),
        (None, b"[" * 100000, "malformed metadata file: maximum recursion depth"),
        (b"[" * 100000, None, "malformed gem document: maximum recursion depth"),
        (None, b"null", "crystallization metadata must be an object with field 'm'"),
    ],
    ids=["gem-not-utf8", "metadata-not-utf8", "metadata-nested", "gem-nested", "metadata-null"],
)
def test_analyze_bad_input_file_exits_2(tmp_path, capsys, gem_bytes, meta_bytes, message):
    # exit 1 means a violated identity: an unreadable file, or metadata that
    # is JSON null rather than absent, is bad input
    gem = tmp_path / "gem.json"
    gem.write_bytes(gem_bytes or serialize_gem(dipole(4)).encode())
    argv = ["analyze", str(gem)]
    if meta_bytes is not None:
        meta = tmp_path / "meta.json"
        meta.write_bytes(meta_bytes)
        argv += ["--metadata", str(meta)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


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


@pytest.mark.parametrize("to_file", [False, True])
def test_analyze_invariant_violation_names_the_input_gem(
    g4_file, tmp_path, monkeypatch, capsys, to_file
):
    # the gem an analysis breaks on is its input file: the error names it,
    # leaves it as it was, and writes no report
    def broken(g, metadata=None):
        raise InvariantViolation("planted in the analysis", g)

    monkeypatch.setattr(cli_module, "analysis_report", broken)
    before = g4_file.read_bytes()
    report = tmp_path / "report.json"
    argv = ["analyze", str(g4_file)] + (["--out", str(report)] if to_file else [])
    assert main(argv) == 1
    assert capsys.readouterr() == (
        "",
        "error: internal invariant violation: planted in the analysis\n"
        f"counterexample gem preserved in {g4_file}\n",
    )
    assert g4_file.read_bytes() == before
    assert not report.exists()


def test_analyze_text_format(g4_file, capsys):
    assert main(["analyze", str(g4_file), "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "gurau degree: 6" in out
    assert "VIOLATED" not in out


def test_analyze_text_format_with_metadata(g4_file, tmp_path, capsys):
    meta = tmp_path / "meta.json"
    meta.write_text(json.dumps({"m": 0, "closed_manifold_asserted": True}))
    args = ["analyze", str(g4_file), "--metadata", str(meta), "--format", "text"]
    assert main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "singular manifold: True" in lines
    assert "crystallization: kind=weak_semi_simple q=1 m=0 12rho=False" in lines


@pytest.mark.parametrize(
    "matchings, message",
    [
        (
            (M_A, M_A, M_A, M_A, M_B),
            "residue missing color 4 is disconnected: not a crystallization",
        ),
        ((M_A, M_A, M_A, M_B, M_C), "graph fails the singular-manifold residue test"),
    ],
)
def test_analyze_refuses_a_gem_that_fails_the_crystallization_gate(
    tmp_path, capsys, matchings, message
):
    # a disconnected hat, then a connected-hat gem that is not singular
    # (the odd_degree_witness fixture)
    gem, meta = tmp_path / "gem.json", tmp_path / "meta.json"
    gem.write_text(serialize_gem(ColoredGraph(d=4, order=4, matchings=matchings)))
    meta.write_text(json.dumps({"m": 0, "closed_manifold_asserted": True}))
    assert main(["analyze", str(gem), "--metadata", str(meta)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


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


def _two_cpus(monkeypatch, refuse_pins: bool = False) -> list[list[int]]:
    """Show the fan-out two usable CPUs, {0, 1}, on any machine, and return
    the pins this process asks for from now on.  A pin within {0, 1} sets
    the affinity that is read back, and any other pin is refused as the
    kernel refuses it, so the fake stays consistent on a one-CPU host; with
    ``refuse_pins`` every pin is refused."""
    bound = {0, 1}
    parent = os.getpid()
    pins: list[list[int]] = []

    def getaffinity(pid):
        return set(bound)

    def setaffinity(pid, cpus):
        if os.getpid() == parent:
            pins.append(sorted(cpus))
        if refuse_pins or not set(cpus) <= {0, 1}:
            raise OSError(errno.EINVAL, os.strerror(errno.EINVAL))
        bound.clear()
        bound.update(cpus)

    monkeypatch.setattr(reports_module.os, "sched_getaffinity", getaffinity, raising=False)
    monkeypatch.setattr(reports_module.os, "sched_setaffinity", setaffinity, raising=False)
    return pins


def _counted_forks(monkeypatch) -> list[int]:
    """Record the pid of the process behind each os.fork from now on."""
    forks: list[int] = []
    fork = os.fork

    def counted():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def _assert_two_workers_fork_once(tmp_path, monkeypatch, args, refuse_pins=False) -> None:
    """One worker forks and pins nothing, two fork once, and the reports are
    equal.  This process pins itself to CPU 0 and then back to both, whether
    or not the pins are refused."""
    pins = _two_cpus(monkeypatch, refuse_pins)
    forks = _counted_forks(monkeypatch)
    solo, duo = tmp_path / "solo.json", tmp_path / "duo.json"
    monkeypatch.setenv("GEMCALC_THREADS", "1")
    assert main(args + ["--out", str(solo)]) == 0
    assert forks == [] and pins == []
    monkeypatch.setenv("GEMCALC_THREADS", "2")
    assert main(args + ["--out", str(duo)]) == 0
    # this process is one of the two workers: it forked the other once
    assert forks == [os.getpid()]
    assert pins == [[0], [0, 1]]
    assert reports_module.os.sched_getaffinity(0) == {0, 1}
    assert solo.read_bytes() == duo.read_bytes()
    assert_no_child()


def test_verify_worker_sharding_invisible(tmp_path, monkeypatch):
    args = ["verify", "--d", "4", "--mode", "random", "--p", "2",
            "--count", "60", "--seed", "31"]
    monkeypatch.setattr(reports_module, "_BATCH_SIZE", 16)
    _assert_two_workers_fork_once(tmp_path, monkeypatch, args)


def test_benchmark_d4_shape_forks_once_at_two_workers(tmp_path, monkeypatch):
    # 600 gems over p <= 6 fit one batch but make six shards, one per p:
    # a campaign of more than one shard fans out whatever its size
    args = ["verify", "--d", "4", "--mode", "random", "--p", "6",
            "--count", "600", "--seed", "5"]
    assert 600 <= reports_module._BATCH_SIZE
    _assert_two_workers_fork_once(tmp_path, monkeypatch, args)


def _stamped_batches(monkeypatch, slow: tuple | None = None) -> None:
    """Stand in a ``_battery_batch`` that returns (the pid that ran the
    shard, the shard's place in that process's run order, the shard), and
    sleeps 0.3 s on ``slow`` in this process."""
    parent = os.getpid()
    runs = []  # each child inherits it empty: this process forks before it runs

    def stamped(shard):
        if shard == slow and os.getpid() == parent:
            time.sleep(0.3)
        runs.append(shard)
        return os.getpid(), len(runs) - 1, shard

    monkeypatch.setattr(reports_module, "_battery_batch", stamped)


def test_fan_out_worker_i_runs_shard_i_first(monkeypatch):
    # seven shards over three workers: this process and two forked children
    _stamped_batches(monkeypatch)
    shards = [("shard", k) for k in range(7)]
    done = reports_module._fan_out(shards, 3)
    firsts = [done[shard] for shard in shards[:3]]
    assert [run for _, run, _ in firsts] == [0, 0, 0]
    pids = [pid for pid, _, _ in firsts]
    assert pids[0] == os.getpid() and len(set(pids)) == 3
    assert {done[shard][0] for shard in shards} <= set(pids)
    assert_no_child()


def test_fan_out_free_worker_claims_the_later_shards(monkeypatch):
    # this process is held up 0.3 s on shard 0: meanwhile the child, free
    # after shard 1, claims every later shard, in list order
    shards = [("shard", k) for k in range(10)]
    _stamped_batches(monkeypatch, slow=shards[0])
    done = reports_module._fan_out(shards, 2)
    assert done[shards[0]][:2] == (os.getpid(), 0)
    child = done[shards[1]][0]
    assert child != os.getpid()
    assert [done[shard][:2] for shard in shards[1:]] == [(child, k) for k in range(9)]
    assert_no_child()


@pytest.mark.parametrize("workers", [2, 3])
def test_fan_out_pins_worker_i_to_the_ith_cpu(monkeypatch, workers):
    # worker i runs every shard it claims on the i-th CPU of this process's
    # affinity, modulo its size (on a one-CPU host all share that CPU), and
    # this process is worker 0; its own affinity is restored afterwards
    cpus = sorted(os.sched_getaffinity(0))
    monkeypatch.setattr(
        reports_module, "_battery_batch",
        lambda shard: (os.getpid(), sorted(os.sched_getaffinity(0))),
    )
    shards = [("shard", k) for k in range(4 * workers)]
    done = reports_module._fan_out(shards, workers)
    worker_of = {done[shards[i]][0]: i for i in range(workers)}
    assert len(worker_of) == workers and worker_of[os.getpid()] == 0
    assert all(placed == [cpus[worker_of[pid] % len(cpus)]] for pid, placed in done.values())
    assert sorted(os.sched_getaffinity(0)) == cpus
    assert_no_child()


@pytest.mark.parametrize("workers, count", [(2, 2), (3, 3), (3, 50), (4, 2000)])
def test_fan_out_keys_every_shard_once(monkeypatch, workers, count):
    # the last case races more workers than most machines have cores for
    # the claims of 2,000 instant shards: a claim may be run twice, never lost
    _stamped_batches(monkeypatch)
    shards = [("shard", k) for k in range(count)]
    done = reports_module._fan_out(shards, workers)
    assert len(done) == count
    assert all(done[shard][2] == shard for shard in shards)
    assert len({pid for pid, _, _ in done.values()}) <= workers
    assert_no_child()


def test_worker_error_stops_the_claims(monkeypatch):
    # a child that raises claims every shard left, so this process stops
    # after the shard it is running instead of running all the others
    parent = os.getpid()
    ran = []

    def batch(shard):
        if os.getpid() != parent:
            raise GemError("planted in a worker")
        time.sleep(0.05)
        ran.append(shard)
        return shard

    monkeypatch.setattr(reports_module, "_battery_batch", batch)
    affinity = os.sched_getaffinity(0)
    with pytest.raises(GemError, match="planted in a worker"):
        reports_module._fan_out([("shard", k) for k in range(40)], 2)
    assert len(ran) < 20
    assert os.sched_getaffinity(0) == affinity  # this process's pin undone
    assert_no_child()


def test_dead_worker_reported_between_shards(monkeypatch):
    # a child that dies on its first shard is found when this process polls
    # after one of its own shards, not once it has run out of shards
    parent = os.getpid()
    ran = []

    def batch(shard):
        if os.getpid() != parent:
            os._exit(3)
        time.sleep(0.01)
        ran.append(shard)
        return shard

    monkeypatch.setattr(reports_module, "_battery_batch", batch)
    affinity = os.sched_getaffinity(0)
    with pytest.raises(ChildProcessError, match=r"ended without a result \(exit status 3\)"):
        reports_module._fan_out([("shard", k) for k in range(40)], 2)
    assert len(ran) < 10
    assert os.sched_getaffinity(0) == affinity  # this process's pin undone
    assert_no_child()


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.parametrize("outcome", ["success", "worker raises", "worker dies", "parent raises"])
def test_fan_out_leaves_no_descriptor_open(monkeypatch, outcome):
    # the result pipes are closed and the claim map holds none, however the
    # fan-out ends
    parent = os.getpid()

    def batch(shard):
        if os.getpid() == parent:
            if outcome == "parent raises":
                raise GemError("planted in the parent")
        elif outcome == "worker raises":
            raise GemError("planted in a worker")
        elif outcome == "worker dies":
            os._exit(3)
        elif outcome == "parent raises":
            time.sleep(60)
        return shard

    monkeypatch.setattr(reports_module, "_battery_batch", batch)
    shards = [("shard", k) for k in range(5)]
    before = _open_fds()
    affinity = os.sched_getaffinity(0)
    if outcome == "success":
        assert reports_module._fan_out(shards, 3) == {shard: shard for shard in shards}
    else:
        error = ChildProcessError if outcome == "worker dies" else GemError
        with pytest.raises(error):
            reports_module._fan_out(shards, 3)
    assert _open_fds() == before
    assert os.sched_getaffinity(0) == affinity
    assert_no_child()


# 2,400 gems over p <= 2: two shards, the p = 2 one run by this process and
# the p = 1 one by the child it forks
_FAN_OUT_VERIFY = ["verify", "--d", "3", "--mode", "random", "--p", "2",
                   "--count", "2400", "--seed", "5"]


def test_refused_pin_changes_nothing_visible(tmp_path, monkeypatch):
    # a kernel that refuses every pin leaves each worker where it is: the
    # two-worker report is the one-worker report, and no OSError escapes
    # to be read as bad input (exit 2)
    _assert_two_workers_fork_once(tmp_path, monkeypatch, _FAN_OUT_VERIFY, refuse_pins=True)


@pytest.mark.parametrize("error, code", [(InvariantViolation, 1), (GemError, 2)])
def test_worker_error_reraised_with_its_type(monkeypatch, capsys, error, code):
    parent = os.getpid()
    check_graph = reports_module.check_graph

    def failing(g):
        if os.getpid() != parent:
            raise error(f"planted in a worker at p = {g.p}")
        return check_graph(g)

    monkeypatch.setattr(reports_module, "check_graph", failing)
    _two_cpus(monkeypatch)
    monkeypatch.setenv("GEMCALC_THREADS", "2")
    assert main(_FAN_OUT_VERIFY) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {error('planted in a worker at p = 1')}\n"
    assert_no_child()


def test_worker_death_exits_2_with_one_error_line(monkeypatch, capsys, tmp_path):
    parent = os.getpid()
    battery = reports_module._battery_batch

    def dying(shard):
        if os.getpid() != parent:
            os._exit(3)
        return battery(shard)

    monkeypatch.setattr(reports_module, "_battery_batch", dying)
    _two_cpus(monkeypatch)
    monkeypatch.setenv("GEMCALC_THREADS", "2")
    assert main(_FAN_OUT_VERIFY) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: campaign worker ") and err.count("\n") == 1
    assert "ended without a result (exit status 3)" in err
    report = tmp_path / "report.json"
    assert main(_FAN_OUT_VERIFY + ["--out", str(report)]) == 2
    assert not report.exists()
    assert_no_child()


def test_parent_error_kills_and_reaps_running_workers(monkeypatch, capsys):
    # the child would run for a minute; the error in this process's own
    # share must not wait for it
    parent = os.getpid()
    battery = reports_module._battery_batch

    def stalling(shard):
        if os.getpid() != parent:
            time.sleep(60)
            return battery(shard)
        raise GemError("planted in the parent")

    monkeypatch.setattr(reports_module, "_battery_batch", stalling)
    _two_cpus(monkeypatch)
    monkeypatch.setenv("GEMCALC_THREADS", "2")
    start = time.monotonic()
    assert main(_FAN_OUT_VERIFY) == 2
    assert time.monotonic() - start < 30
    assert capsys.readouterr() == ("", "error: planted in the parent\n")
    assert_no_child()


@pytest.mark.parametrize("cpus, expected", [(8, 4), (3, 3)])
def test_verify_pool_capped_by_cpus_and_batches(
    tmp_path, monkeypatch, serial_fan_out, cpus, expected
):
    # 60 gems over p <= 4 make 4 shards of 15; GEMCALC_THREADS asks for 10000
    monkeypatch.setattr(reports_module, "_BATCH_SIZE", 16)
    monkeypatch.setattr(
        reports_module.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False
    )
    monkeypatch.setenv("GEMCALC_THREADS", "10000")
    args = ["verify", "--d", "4", "--mode", "random", "--p", "4",
            "--count", "60", "--seed", "31"]
    capped, solo = tmp_path / "capped.json", tmp_path / "solo.json"
    assert main(args + ["--out", str(capped)]) == 0
    assert serial_fan_out == [expected]
    monkeypatch.setenv("GEMCALC_THREADS", "1")
    assert main(args + ["--out", str(solo)]) == 0
    assert serial_fan_out == [expected]  # one worker: no fan-out at all
    assert capped.read_bytes() == solo.read_bytes()


class RecordingFanOut:
    """Stands in for ``reports._fan_out``: notes the worker count and how many
    gems this process had built by the call, pickles every shard it is sent,
    then runs them in-process."""

    def __init__(self):
        self.workers: list[int] = []
        self.built_at_call: list[int] = []
        self.sent: list[bytes] = []
        self.built: list[ColoredGraph] = []

    def __call__(self, shards, workers):
        self.workers.append(workers)
        self.built_at_call.append(len(self.built))
        data = [pickle.dumps(shard) for shard in shards]
        self.sent += data
        return {shard: reports_module._battery_batch(pickle.loads(item))
                for shard, item in zip(shards, data)}


@pytest.fixture
def recording_fan_out(monkeypatch, built_graphs) -> RecordingFanOut:
    recorder = RecordingFanOut()
    recorder.built = built_graphs
    monkeypatch.setattr(reports_module, "_fan_out", recorder)
    _two_cpus(monkeypatch)
    return recorder


def _assert_descriptors_only(fan_out: RecordingFanOut) -> list[tuple]:
    # the parent built no gem before dispatch and dealt none to the workers
    assert fan_out.workers == [2]
    assert fan_out.built_at_call == [0]
    assert all(b"ColoredGraph" not in data and len(data) < 256 for data in fan_out.sent)
    return [pickle.loads(data) for data in fan_out.sent]


@pytest.mark.parametrize("seed", [1, 2])
def test_random_shards_carry_descriptors_not_graphs(recording_fan_out, seed):
    duo = reports_module.campaign_report(3, "random", 8, 4000, seed, threads=2)
    shards = _assert_descriptors_only(recording_fan_out)
    # the largest half-order first
    assert [shard[2] for shard in shards] == list(range(8, 0, -1))
    assert duo["counts"]["graphs"] == 4000
    solo = reports_module.campaign_report(3, "random", 8, 4000, seed, threads=1)
    assert reports_module.report_json(duo) == reports_module.report_json(solo)


def test_exhaustive_shards_are_raw_ranges_across_p(recording_fan_out, monkeypatch):
    solo = reports_module.campaign_report(4, "exhaustive", 2, threads=1)
    monkeypatch.setattr(reports_module, "_BATCH_SIZE", 16)
    recording_fan_out.built.clear()
    duo = reports_module.campaign_report(4, "exhaustive", 2, threads=2)
    shards = _assert_descriptors_only(recording_fan_out)
    # the 81 raw candidates at p = 2 in six even ranges of at most 16, then
    # the one at p = 1
    cuts = [0, 14, 28, 42, 55, 68, 81]
    assert [shard[2:] for shard in shards] == [
        (2, lo, hi, None) for lo, hi in zip(cuts, cuts[1:])
    ] + [(1, 0, 1, None)]
    assert duo["counts"]["graphs"] == 81
    assert reports_module.report_json(duo) == reports_module.report_json(solo)


def test_single_half_order_random_campaign_runs_in_parallel(
    recording_fan_out, monkeypatch, tmp_path
):
    # 4,001 gems of one half-order: three gem ranges, as even as they can be
    args = ["verify", "--d", "3", "--mode", "random", "--p", "1",
            "--count", "4001", "--seed", "7"]
    solo, duo = tmp_path / "solo.json", tmp_path / "duo.json"
    monkeypatch.setenv("GEMCALC_THREADS", "2")
    assert main(args + ["--out", str(duo)]) == 0
    shards = _assert_descriptors_only(recording_fan_out)
    assert [shard[2:] for shard in shards] == [
        (1, 0, 1334, 8), (1, 1334, 2668, 8), (1, 2668, 4001, 8)
    ]
    monkeypatch.setenv("GEMCALC_THREADS", "1")
    assert main(args + ["--out", str(solo)]) == 0
    assert recording_fan_out.workers == [2]  # one worker: no fan-out at all
    assert solo.read_bytes() == duo.read_bytes()


@pytest.mark.parametrize("batch", [1, 16, 2000])
def test_shards_cut_each_stream_into_even_ranges(monkeypatch, batch):
    monkeypatch.setattr(reports_module, "_BATCH_SIZE", batch)
    for count in (1, 15, 16, 17, 81, 600, 1999, 2000, 2001, 4001, 10_000):
        shards = reports_module._shards(3, "random", 2, count, 9)
        for p, size, seed in generator_module.campaign_corpus(3, "random", 2, count, 9):
            ranges = [shard[3:5] for shard in shards if shard[2] == p]
            assert all(shard[5] == seed for shard in shards if shard[2] == p)
            # the fewest ranges of at most `batch` positions, tiling the stream
            assert len(ranges) == -(-size // batch)
            assert [lo for lo, _ in ranges] == [0] + [hi for _, hi in ranges[:-1]]
            assert ranges[-1][1] == size
            lengths = [hi - lo for lo, hi in ranges]
            assert max(lengths) <= batch
            # as even as can be, the longer ones first
            assert lengths == sorted(lengths, reverse=True)
            assert lengths[0] - lengths[-1] <= 1


def test_benchmark_shapes_keep_one_shard_per_half_order():
    # verify-d4-mixed and verify-d3-fanout: each p's share fits one batch
    for d, max_p, count, seed in ((4, 6, 600, 1220894173), (3, 8, 4000, 1865967541)):
        per_p = count // max_p
        assert per_p <= reports_module._BATCH_SIZE
        assert reports_module._shards(d, "random", max_p, count, seed) == [
            ("random", d, p, 0, per_p, seed + p) for p in range(1, max_p + 1)
        ]


def test_random_campaign_walks_only_nonempty_half_orders():
    # p > count holds no sample: a huge --p must not be walked up to
    huge = reports_module.campaign_report(2, "random", 10**18, 3, 0)
    assert huge["counts"]["graphs"] == 3
    assert huge["counts"] == reports_module.campaign_report(2, "random", 3, 3, 0)["counts"]
    shards = reports_module._shards(2, "random", 10**18, 3, 0)
    # one gem of each p: the range [0, 1) of the corpus (seed + p, p)
    assert [shard[2:] for shard in shards] == [(1, 0, 1, 1), (2, 0, 1, 2), (3, 0, 1, 3)]


def test_zero_count_random_campaign_refused_before_generation(recording_fan_out, capsys):
    assert main(["verify", "--d", "3", "--mode", "random", "--p", "2", "--count", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "random campaigns need a positive sample count" in err
    assert recording_fan_out.built == []


def test_unknown_campaign_mode_refused_before_generation(recording_fan_out):
    with pytest.raises(GemError, match="'bogus'"):
        reports_module.campaign_report(3, "bogus", 2)
    assert recording_fan_out.built == []


def test_random_shard_memory_does_not_grow_with_its_size():
    # a first shard fills the interpreter's tuple free lists (2,000 per size),
    # which tracemalloc counts as allocated; after it, the traced peaks count
    # only what a shard itself holds.  A p = 1 shard checks its one dipole
    # once; a p = 3 shard (3,375 labelled gems at d = 2) checks every gem
    for p in (1, 3):
        reports_module._battery_batch(("random", 2, p, 0, 2100, 2))
        peaks = []
        for n in (125, 1000):
            tracemalloc.start()
            try:
                shapes, _ = reports_module._battery_batch(("random", 2, p, 0, n, 2))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert sum(shapes.values()) == n
        assert peaks[1] < 2 * peaks[0]


def test_violating_campaign_memory_does_not_grow_with_its_size(monkeypatch):
    # every gem violates one check, but a report embeds only the first few
    real = reports_module.check_graph

    def sabotaged(g):
        flags, checks = real(g)
        checks["surface_classification"] = False
        return flags, checks

    monkeypatch.setattr(reports_module, "check_graph", sabotaged)
    reports_module.campaign_report(2, "random", 1, 2100, 2)  # fills the free lists
    peaks = []
    for n in (500, 4000):
        tracemalloc.start()
        try:
            report = reports_module.campaign_report(2, "random", 1, n, 2)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert report["checks"]["surface_classification"]["violations"] == n
        assert len(report["violations"]) == reports_module.MAX_EMBEDDED_COUNTEREXAMPLES
    assert peaks[1] < 2 * peaks[0]


def _tally_gem_by_gem(shard: tuple, check) -> tuple:
    """What ``_battery_batch`` returns for ``shard``, counted gem by gem,
    followed by the shard's graph count and its violated checks by name."""
    shapes, violated = Counter(), Counter()
    earliest = []
    gems = list(generator_module.campaign_gems(*shard))
    for index, g in enumerate(gems):
        flags, checks = check(g)
        failed = tuple(name for name, ok in checks.items() if not ok)
        shapes[tuple(name for name, value in flags.items() if value), tuple(checks), failed] += 1
        violated.update(failed)
        if failed and len(earliest) < reports_module.MAX_EMBEDDED_COUNTEREXAMPLES:
            earliest += [(index, name, serialize_gem(g)) for name in failed]
    return dict(shapes), earliest, len(gems), violated


# a d = 4 shard mix: five copies of the one p = 1 gem (checked once, through
# the memo), and seeded shards whose gems take every battery branch
_D4_SHARDS = [("random", 4, 1, 0, 5, 11)] + [("random", 4, p, 0, 40, 11 + p) for p in (2, 3, 4)]


def test_shape_tally_matches_a_gem_by_gem_count():
    kinds = Counter()
    for shard in _D4_SHARDS:
        shapes, earliest, graphs, _ = _tally_gem_by_gem(shard, reports_module.check_graph)
        assert reports_module._battery_batch(shard) == (shapes, earliest)
        assert sum(shapes.values()) == graphs
        kinds.update(name for flags, _, _ in shapes for name in flags)
    assert kinds["singular_manifold"] and kinds["crystallization_profile"] and kinds["bipartite"]


def test_shape_tally_counts_violations_gem_by_gem(monkeypatch):
    # non-bipartite gems fail one check, singular-manifold ones a second
    real = reports_module.check_graph

    def sabotaged(g):
        flags, checks = real(g)
        if not flags["bipartite"]:
            checks["pair_sum_constant"] = False
        if flags["singular_manifold"]:
            checks["euler_formula_agreement"] = False
        return flags, checks

    monkeypatch.setattr(reports_module, "check_graph", sabotaged)
    both = 0
    for shard in _D4_SHARDS:
        shapes, earliest, _, violated = _tally_gem_by_gem(shard, sabotaged)
        assert reports_module._battery_batch(shard) == (shapes, earliest)
        assert 0 < sum(violated.values()) and len(earliest) >= 5
        both += len(violated) == 2
    assert both


def test_generate_memory_does_not_hold_the_corpus(tmp_path, capsys):
    # gems are written as they are drawn: from 500 to 4,000 the traced peak
    # grows by the manifest's file names (about 72 B each), not by the gems
    # (about 830 B each at d = 2, p = 8)
    base = ["generate", "--d", "2", "--p", "8", "--seed", "3"]
    assert main(base + ["--count", "300", "--out", str(tmp_path / "warm")]) == 0
    peaks = []
    for n in (500, 4000):
        tracemalloc.start()
        try:
            assert main(base + ["--count", str(n), "--out", str(tmp_path / str(n))]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(list((tmp_path / str(n)).iterdir())) == n + 1
    assert peaks[1] - peaks[0] < 128 * 3500


@pytest.mark.parametrize(
    "argv, bound",
    [
        (["verify", "--d", "3", "--mode", "random", "--p", "4", "--count", "1500001"],
         "count = 1500001 > 1500000"),
        # the largest gem drawn has half-order min(--p, --count) = 200000
        (["verify", "--d", "3", "--mode", "random", "--p", "1000000000",
          "--count", "200000"], "(d+1)*2p = 1600000 matching entries > 1500000"),
        (["generate", "--d", "3", "--p", "1000000000"],
         "(d+1)*2p = 8000000000 matching entries > 1500000"),
        (["generate", "--d", "2", "--p", "1", "--count", "1500001"],
         "count = 1500001 > 1500000"),
    ],
    ids=["verify-count", "verify-order", "generate-order", "generate-count"],
)
def test_oversized_random_corpus_refused_before_generation(
    tmp_path, built_graphs, capsys, argv, bound
):
    out = tmp_path / "corpus"
    if argv[0] == "generate":
        argv = argv + ["--out", str(out)]
    assert main(argv) == 2
    assert f"random corpus bound exceeded: {bound}" in capsys.readouterr().err
    assert built_graphs == []
    assert not out.exists()


def _run_probe(probe: str, *args: str) -> subprocess.CompletedProcess:
    """Run a probe script in a fresh interpreter under ``-X importtime``."""
    src = str(Path(reports_module.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", probe, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc


def _import_chain(importtime: str, module: str) -> str:
    """The ``-X importtime`` lines of ``module`` and of the imports that led to it.

    Each line follows those of its own imports, indented one level deeper,
    so the importers of a module are the first later lines at each
    shallower level.
    """
    rows = []  # (depth, module, line)
    for line in importtime.splitlines():
        fields = line.split("|")
        if line.startswith("import time:") and fields[0][12:].strip().isdigit():
            name = fields[2]
            rows.append((len(name) - len(name.lstrip()), name.strip(), line))
    for k, (level, name, line) in enumerate(rows):
        if name == module:
            chain = [line]
            for depth, _, later in rows[k + 1:]:
                if depth < level:
                    chain.append(later)
                    level = depth
            return "\n".join(reversed(chain))
    return f"{module}: not in the -X importtime output"


# Runs in a fresh interpreter: every command, a 1-worker verify among them,
# then the same verify with 2 workers on a machine made to show 2 CPUs.
# Prints the pool modules loaded at start and at the end, and the workers
# each campaign fan-out got.
_POOL_PROBE = """
import json, os, sys

def pool_modules():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] in ("concurrent", "multiprocessing"))

loaded_at_start = pool_modules()
from gemcalc import reports
from gemcalc.cli import main

gem, solo, duo, corpus, verify = sys.argv[1:5] + [sys.argv[5:]]
os.environ["GEMCALC_THREADS"] = "1"
assert main(["analyze", gem, "--out", os.devnull]) == 0
assert main(["decompose", "--n", "7", "--out", os.devnull]) == 0
assert main(["generate", "--d", "3", "--p", "2", "--count", "2", "--out", corpus]) == 0
assert main(["search-odd", "--max-p", "2", "--out", os.devnull]) == 0
assert main(verify + ["--out", solo]) == 0

fan_outs = []
fan_out = reports._fan_out

def counted(shards, workers):
    fan_outs.append(workers)
    return fan_out(shards, workers)

reports._fan_out = counted
os.sched_getaffinity = lambda pid: {0, 1}
os.environ["GEMCALC_THREADS"] = "2"
assert main(verify + ["--out", duo]) == 0
print(json.dumps([loaded_at_start, pool_modules(), fan_outs]))
"""


def test_pool_stack_loaded_by_no_command(tmp_path, dipole_file):
    # 2,400 gems over p <= 2 make 2 shards, over the 2,000 of one batch
    verify = ["verify", "--d", "3", "--mode", "random", "--p", "2",
              "--count", "2400", "--seed", "5"]
    assert 2400 > reports_module._BATCH_SIZE
    solo, duo = tmp_path / "solo.json", tmp_path / "duo.json"
    proc = _run_probe(_POOL_PROBE, str(dipole_file), str(solo), str(duo),
                      str(tmp_path / "corpus"), *verify)
    # generate reports what it wrote on stdout: the probe's line is the last
    loaded_at_start, loaded, fan_outs = json.loads(proc.stdout.splitlines()[-1])
    assert loaded_at_start == []
    assert loaded == [], "\n\n".join(_import_chain(proc.stderr, m) for m in loaded)
    assert fan_outs == [2]
    assert solo.read_bytes() == duo.read_bytes()


# Runs in a fresh interpreter: one verify with 2 workers on a machine made to
# show 2 CPUs.  Prints the modules of LAZY loaded at start and at the end, and
# the workers each campaign fan-out got.
_FAN_OUT_PROBE = """
import json, os, sys

LAZY = ("pickle", "signal")
loaded_at_start = [m for m in LAZY if m in sys.modules]
from gemcalc import reports
from gemcalc.cli import main

fan_outs = []
fan_out = reports._fan_out

def counted(shards, workers):
    fan_outs.append(workers)
    return fan_out(shards, workers)

reports._fan_out = counted
os.sched_getaffinity = lambda pid: {0, 1}
os.environ["GEMCALC_THREADS"] = "2"
assert main(sys.argv[1:] + ["--out", os.devnull]) == 0
print(json.dumps([loaded_at_start, [m for m in LAZY if m in sys.modules], fan_outs]))
"""


def test_successful_fan_out_loads_neither_pickle_nor_signal():
    # results cross the pipe as marshal data; pickle is only for a worker's
    # exception, and signal only for killing a worker still running after an
    # error.  The d = 4 benchmark shape: six shards over two workers
    verify = ["verify", "--d", "4", "--mode", "random", "--p", "6",
              "--count", "600", "--seed", "5"]
    proc = _run_probe(_FAN_OUT_PROBE, *verify)
    loaded_at_start, loaded, fan_outs = json.loads(proc.stdout)
    assert loaded_at_start == []
    assert loaded == [], "\n\n".join(_import_chain(proc.stderr, m) for m in loaded)
    assert fan_outs == [2]


# Runs in a fresh interpreter under -X importtime: an analyze, then a
# 1-worker verify.  Prints the heavy stdlib modules loaded after each.
_LEAN_PROBE = """
import json, os, sys

HEAVY = ("dataclasses", "inspect", "fractions", "decimal")
from gemcalc.cli import main

gem, verify = sys.argv[1], sys.argv[2:]
os.environ["GEMCALC_THREADS"] = "1"
assert main(["analyze", gem, "--out", os.devnull]) == 0
after_analyze = [m for m in HEAVY if m in sys.modules]
assert main(verify + ["--out", os.devnull]) == 0
print(json.dumps([after_analyze, [m for m in HEAVY if m in sys.modules]]))
"""


def test_commands_skip_dataclasses_and_fractions(dipole_file):
    verify = ["verify", "--d", "4", "--mode", "random", "--p", "3",
              "--count", "40", "--seed", "5"]
    proc = _run_probe(_LEAN_PROBE, str(dipole_file), *verify)
    after_analyze, after_verify = json.loads(proc.stdout)
    loaded = sorted(set(after_analyze) | set(after_verify))
    assert loaded == [], "\n\n".join(_import_chain(proc.stderr, m) for m in loaded)


# Runs in a fresh interpreter: one verify at the given worker count, on a
# machine made to show 2 CPUs.  Prints the gemcalc modules loaded, and for
# each campaign fan-out whether gemcalc.dim4 was loaded when it forked.
_DIM4_PROBE = """
import json, os, sys
from gemcalc import reports
from gemcalc.cli import main

at_fork = []
fan_out = reports._fan_out

def recorded(shards, workers):
    at_fork.append("gemcalc.dim4" in sys.modules)
    return fan_out(shards, workers)

reports._fan_out = recorded
os.sched_getaffinity = lambda pid: {0, 1}
os.environ["GEMCALC_THREADS"] = sys.argv[1]
assert main(sys.argv[2:] + ["--out", os.devnull]) == 0
print(json.dumps([sorted(m for m in sys.modules if m.startswith("gemcalc")), at_fork]))
"""


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_dim4_loaded_only_where_its_battery_runs(tmp_path, rp2_gem, d, workers):
    # no d = 2 or d = 3 command compiles gemcalc.dim4; a d = 4 campaign loads
    # it, and before it forks, so that no worker compiles it again
    verify = ["verify", "--d", str(d), "--mode", "random", "--p", "3",
              "--count", "60", "--seed", "5"]
    proc = _run_probe(_DIM4_PROBE, str(workers), *verify)
    loaded, at_fork = json.loads(proc.stdout)
    if d < 4:
        assert "gemcalc.dim4" not in loaded, _import_chain(proc.stderr, "gemcalc.dim4")
    else:
        assert "gemcalc.dim4" in loaded
    assert at_fork == ([d == 4] if workers == 2 else [])
    if d == 2:
        # nor does the analysis of a 3-colored gem, surface included
        path = tmp_path / "rp2.json"
        path.write_text(serialize_gem(rp2_gem))
        proc = _run_probe(_DIM4_PROBE, str(workers), "analyze", str(path))
        loaded, at_fork = json.loads(proc.stdout)
        assert "gemcalc.dim4" not in loaded, _import_chain(proc.stderr, "gemcalc.dim4")
        assert at_fork == []


@pytest.mark.parametrize("d", [4, 6])
def test_search_odd_max_p_bounded_before_any_gem(built_graphs, capsys, d):
    # the largest random tail, 5,000 gems of half-order max_p, must fit the
    # random corpus bound, checked before the first (exhaustive) half-order
    top = ENUMERATION_BUDGET // (2 * (d + 1))
    for max_p in (top + 1, 10_000_000):
        assert main(["search-odd", "--d", str(d), "--max-p", str(max_p)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"error: random corpus bound exceeded: (d+1)*2p = {(d + 1) * 2 * max_p} "
            f"matching entries > {ENUMERATION_BUDGET} for d={d}, p={max_p}\n"
        )
    assert built_graphs == []
    generator_module._check_sample_bound(d, top, generator_module._SEARCH_COUNT)


def test_search_odd_accepts_the_largest_bounded_max_p(capsys):
    # at d = 4 the witness lies at a small half-order, so the search stops there
    top = ENUMERATION_BUDGET // (2 * 5)
    assert main(["search-odd", "--max-p", str(top)]) == 0
    assert json.loads(capsys.readouterr().out)["found"] is True


def test_dimension_beyond_permutation_budget_refused(tmp_path, capsys):
    from gemcalc.perms import cyclic_permutations

    cached = cyclic_permutations.cache_info().currsize
    path = tmp_path / "dipole12.json"
    # written as a document: the library refuses to build a d = 12 graph
    path.write_text(json.dumps({"d": 12, "vertices": 2, "matchings": [[2, 1]] * 13}))
    assert main(["analyze", str(path)]) == 2
    assert "d=12 has d!/2 = 239500800" in capsys.readouterr().err
    rc = main(["verify", "--d", "12", "--mode", "random", "--p", "1", "--count", "1"])
    assert rc == 2
    assert "d=12 has d!/2 = 239500800" in capsys.readouterr().err
    assert cyclic_permutations.cache_info().currsize == cached


def test_generate_refuses_dimension_beyond_permutation_budget(tmp_path, capsys):
    # analyze would refuse the gem, so generate draws none and makes no directory
    out = tmp_path / "corpus"
    assert main(["generate", "--d", "12", "--p", "1", "--count", "1", "--out", str(out)]) == 2
    assert "d=12 has d!/2 = 239500800" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("d, p", [(3, 5), (4, 4)])
def test_over_budget_exhaustive_campaign_refused_before_generation(built_graphs, capsys, d, p):
    assert main(["verify", "--d", str(d), "--mode", "exhaustive", "--p", str(p)]) == 2
    assert "enumeration bound exceeded" in capsys.readouterr().err
    assert built_graphs == []


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


def test_decompose_invalid_class_exits_1(monkeypatch, capsys):
    # the class is validated where it is built, not again by the command
    monkeypatch.setattr(cycle_decomp, "validate_class", lambda cls: False)
    assert main(["decompose", "--n", "9"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: internal invariant violation: Walecki decomposition invalid for n=9\n"
    )


def test_decompose_unsupported(capsys):
    assert main(["decompose", "--n", "9", "--full"]) == 2
    assert "supported" in capsys.readouterr().err


def test_decompose_refuses_n_beyond_budget(capsys):
    assert main(["decompose", "--n", "1733"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "enumeration budget 1500000" in captured.err


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


def test_search_odd_invariant_violation_exits_1(monkeypatch, capsys, tmp_path):
    # a broken internal invariant is not an input error, and the gem it was
    # found on is kept: on one stderr line, or next to --out
    witness = generator_module.search_odd_reduced(4, 3)
    monkeypatch.setattr(generator_module, "is_bipartite", lambda g: True)
    assert main(["search-odd", "--max-p", "3"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    first, kept = err.splitlines()
    assert first == "error: internal invariant violation: odd reduced degree on a bipartite graph"
    prefix = "counterexample gem: "
    assert kept.startswith(prefix)
    assert parse_gem(kept[len(prefix):]) == witness

    report = tmp_path / "odd.json"
    assert main(["search-odd", "--max-p", "3", "--out", str(report)]) == 1
    out, err = capsys.readouterr()
    ce = report.with_suffix(".counterexample.json")
    assert out == ""
    assert err.splitlines() == [first, f"counterexample gem preserved in {ce}"]
    assert not report.exists()
    assert parse_gem(ce.read_text()) == witness
