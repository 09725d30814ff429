"""Shared pieces of the benchmark: workloads, CLI runner, report checks, stats, facts.

Only the standard library is used.  Everything the benchmark writes goes
under ``OUT_DIR`` in the checkout it runs from.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

OUT_DIR = ".perfbench_out"

# a command that runs longer than this is killed and counted as failed
COMMAND_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    """One `gemcalc verify` campaign shape.

    ``count`` is the corpus size of a timed repetition, ``wall_threads`` the
    worker count at which ``wall_s`` is reported, and ``trace_count`` the
    corpus size of the in-process traced pass.
    """

    name: str
    d: int
    p: int
    count: int
    wall_threads: int
    trace_count: int

    def verify_args(self, seed_flag: int, count: int | None = None) -> list[str]:
        return [
            "verify", "--d", str(self.d), "--mode", "random", "--p", str(self.p),
            "--count", str(self.count if count is None else count),
            "--seed", str(seed_flag),
        ]


# Why these two: d=4 runs every branch of the battery and of dim4 (about a
# quarter of the gems are singular manifolds, a fifth are profiled as
# crystallizations) and is dominated by residue_count dispatch; d=3 has a
# cheap battery, so parent-side generation, serialization and worker IPC
# dominate, and it is the one shape run at two workers.  The d=6 shape
# (regular genera, partition_odd(7)) is measured only in the traced run.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-d4-mixed", d=4, p=6, count=600, wall_threads=1, trace_count=300),
        # 4000 gems are two batches of 2000, one per worker
        Workload("verify-d3-fanout", d=3, p=8, count=4000, wall_threads=2, trace_count=3000),
    )
}


def gem_seed(workload: str, seed: int) -> int:
    """The --seed handed to gemcalc, derived from the benchmark seed."""
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def out_dir(root: Path) -> Path:
    path = root / OUT_DIR
    path.mkdir(exist_ok=True)
    return path


@dataclass
class CommandResult:
    wall_s: float
    # largest peak RSS among the process and the workers it waited for
    rss_mb: float
    exit_code: int
    stdout: bytes


def run_gemcalc(root: Path, args: list[str], threads: int = 1) -> CommandResult:
    """Run `python -m gemcalc <args>` from the checkout's sources and time it.

    The wall time spans process creation to reaping, so it includes
    interpreter start, imports and every worker the command starts.
    """
    env = dict(os.environ, GEMCALC_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH", "")) if p
    )
    with open(out_dir(root) / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "gemcalc", *args],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=err,
        )
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            proc.stdout.close()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0:
        tail = (out_dir(root) / "stderr.txt").read_text(errors="replace")[-2000:]
        print(f"gemcalc {' '.join(args)} exited {proc.returncode}: {tail}", file=sys.stderr)
    return CommandResult(wall, usage.ru_maxrss / 1024, proc.returncode, stdout)


# perfbench/reference.py: its wall time on a 2-core "Intel Xeon Processor" KVM
# guest at that host's usual speed, and the digest it prints
REFERENCE_NOMINAL_S = 0.17
REFERENCE_DIGEST = "663496914ff7647e43b31f2789dc11ff5d2ba8ffeeb7e2dea26c9ee37289e8fb"


def reference_s() -> float:
    """Wall time of one run of ``reference.py``, which runs no gemcalc code."""
    script = Path(__file__).with_name("reference.py")
    start = time.perf_counter()
    res = subprocess.run([sys.executable, str(script)], capture_output=True, check=True)
    elapsed = time.perf_counter() - start
    if res.stdout.decode().strip() != REFERENCE_DIGEST:
        raise RuntimeError(f"reference.py printed {res.stdout!r}, not {REFERENCE_DIGEST}")
    return elapsed


def at_nominal_speed(wall_s: float, reference_s: float) -> float:
    """``wall_s`` as it would read with the reference at its nominal time.

    The shared host's speed swings by a third within seconds and drifts over
    minutes, alike for gemcalc and for the reference, so a time scaled by the
    reference runs around it compares across runs where the time alone does
    not.
    """
    return wall_s * REFERENCE_NOMINAL_S / reference_s


def campaign_problems(text: bytes, exit_code: int, count: int) -> list[str]:
    """What is wrong with one campaign report; empty when it passes."""
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    try:
        report = json.loads(text)
        if report["status"] != "ok" or report["violations"]:
            problems.append(f"status {report['status']!r}")
        bad = sorted(n for n, c in report["checks"].items() if c["violations"])
        if bad:
            problems.append(f"violated checks {bad}")
        if report["counts"]["graphs"] != count:
            problems.append(f"counts.graphs {report['counts']['graphs']} != {count}")
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        problems.append(f"malformed report: {exc!r}")
    return problems


@dataclass
class Ledger:
    """Attempted and failed operations of one benchmark run.

    An operation fails when it has a problem of its own, or when its output
    is grouped with others that must be byte-identical and its digest is not
    the one a strict majority of the group shares.
    """

    entries: list[dict] = field(default_factory=list)

    def record(self, label: str, problems: list[str], group: str | None = None,
               output: bytes | None = None) -> None:
        entry = {"label": label, "problems": list(problems), "group": group}
        if output is not None:
            entry["sha256"] = hashlib.sha256(output).hexdigest()
        self.entries.append(entry)

    def finish(self) -> tuple[int, int]:
        groups: dict[str, list[dict]] = {}
        for e in self.entries:
            if e["group"] is not None:
                groups.setdefault(e["group"], []).append(e)
        for members in groups.values():
            (top, n), = Counter(e.get("sha256") for e in members).most_common(1)
            majority = top if 2 * n > len(members) else None
            for e in members:
                if e.get("sha256") != majority:
                    e["problems"].append(f"output differs within group {e['group']!r}")
        failed = [e for e in self.entries if e["problems"]]
        for e in failed[:5]:
            print(f"FAILED {e['label']}: {'; '.join(e['problems'])}", file=sys.stderr)
        return len(self.entries), len(failed)

    def digests(self) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {}
        for e in self.entries:
            if e["group"] is not None:
                out.setdefault(e["group"], []).append(e.get("sha256", "-"))
        return {g: sorted(set(v)) for g, v in out.items()}


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) for the highest of a fixed ladder of percentiles
    that has at least ten samples beyond it; the median when none has."""
    xs = sorted(samples)
    n = len(xs)
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        k = int(q / 100 * n)  # samples at or below the percentile
        if n - k - 1 >= 10:
            return q, xs[k]
    return 50.0, statistics.median(xs)


def facts(root: Path, workload: str, seed: int) -> dict[str, str]:
    """Machine and commit facts printed with every run; none is a metric."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        res = subprocess.run(
            ["git", f"--git-dir={root / '.git'}", "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        if res.returncode == 0:
            commit = res.stdout.strip()
    src_lines = sum(
        len(p.read_bytes().splitlines()) for p in sorted((root / "src").rglob("*.py"))
    )
    return {
        "nproc": str(len(os.sched_getaffinity(0))),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "git_commit": commit,
        "workload": workload,
        "seed": str(seed),
        "gem_seed": str(gem_seed(workload, seed)),
        "src_lines": str(src_lines),
    }
