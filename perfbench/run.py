#!/usr/bin/env python3
"""Campaign benchmark for gemcalc.

Run from the root of a gemcalc checkout::

    python3 perfbench/run.py --workload verify-d4-mixed --seed 1 --seconds 60 --trace 0

With ``--trace 0`` it times the real CLI, ``python -m gemcalc verify``,
each repetition in a fresh interpreter, and prints the end-to-end metrics;
its times are scaled to a nominal machine speed, measured by timing
``reference.py`` between the commands (see ``measure_end_to_end``).
With ``--trace 1`` it calls the library's layers one at a time in-process,
records a span around each call and prints the per-layer metrics (see
``layers.py``).  Load is a closed loop from one client: each command starts
after the previous one exits, and no command uses more than two workers.

Every output line but the last is for people: one ``metric`` line per
metric with its unit, the machine and commit facts, and ``failed_ratio``.
The last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

from harness import (
    WORKLOADS,
    Ledger,
    Workload,
    at_nominal_speed,
    campaign_problems,
    facts,
    gem_seed,
    out_dir,
    reference_s,
    run_gemcalc,
)

MIN_REPS = 3


def measure_end_to_end(root: Path, w: Workload, seed: int, seconds: float,
                       ledger: Ledger, tamper=None) -> dict[str, tuple[float, str]]:
    """Time repetitions of the workload's command until ``seconds`` pass.

    A repetition is one run at ``--count 1`` (a ``setup_s`` sample) and the
    full command at one and at two workers, in alternating order.  The last
    repetition starts only if the longest one so far still fits in
    ``seconds``.

    ``reference.py`` is timed before the first command, between any two
    commands and after the last one, and each command's time is scaled by the
    mean of the two reference times around it (``at_nominal_speed``), so a
    sample reads as seconds at the nominal machine speed.  Each figure is the
    median of its scaled samples over the whole run; the medians as measured
    are printed too, and the raw samples are written to
    ``.perfbench_out/samples-<workload>-seed<seed>.json``.  ``tamper``, used
    only by the self-test, may rewrite a report's bytes before they are
    checked.
    """
    seed_flag = gem_seed(w.name, seed)
    setup_args = w.verify_args(seed_flag, count=1)
    full_args = w.verify_args(seed_flag)
    runs: list[tuple[str, float, float]] = []  # (kind, wall, peak RSS), in order
    refs: list[float] = []
    n_cmd = 0

    def run_checked(args, threads, n, group):
        nonlocal n_cmd
        res = run_gemcalc(root, args, threads)
        if tamper is not None:
            res.stdout = tamper(n_cmd, res.stdout)
        n_cmd += 1
        ledger.record(f"{' '.join(args)} @{threads}w",
                      campaign_problems(res.stdout, res.exit_code, n), group, res.stdout)
        return res

    # untimed warm-up: the first run in a checkout writes the bytecode cache
    run_checked(setup_args, 1, 1, "setup")

    start = time.perf_counter()
    longest = 0.0
    reps = 0
    while True:
        rep_start = time.perf_counter()
        order = (1, 2) if reps % 2 == 0 else (2, 1)
        for kind, args, threads, n, group in (
            ("setup", setup_args, 1, 1, "setup"),
            *((str(t), full_args, t, w.count, "full") for t in order),
        ):
            refs.append(reference_s())
            res = run_checked(args, threads, n, group)
            runs.append((kind, res.wall_s, res.rss_mb))
        reps += 1
        now = time.perf_counter()
        longest = max(longest, now - rep_start)
        elapsed = now - start
        if reps >= MIN_REPS and elapsed + longest > seconds:
            break
    refs.append(reference_s())

    (out_dir(root) / f"samples-{w.name}-seed{seed}.json").write_text(
        json.dumps({"runs": runs, "reference_s": refs}))
    raw: dict[str, list[float]] = {"setup": [], "1": [], "2": []}
    scaled: dict[str, list[float]] = {"setup": [], "1": [], "2": []}
    rss: dict[str, list[float]] = {"setup": [], "1": [], "2": []}
    for i, (kind, wall, rss_mb) in enumerate(runs):
        raw[kind].append(wall)
        scaled[kind].append(at_nominal_speed(wall, (refs[i] + refs[i + 1]) / 2))
        rss[kind].append(rss_mb)
    raw_med = {k: statistics.median(v) for k, v in raw.items()}
    med = {k: statistics.median(v) for k, v in scaled.items()}
    print(f"# {reps} repetitions in {elapsed:.1f} s; as measured: wall at 1 worker "
          f"{raw_med['1']:.4f} s, at 2 workers {raw_med['2']:.4f} s, "
          f"setup {raw_med['setup']:.4f} s, reference {statistics.median(refs):.4f} s")
    wt = str(w.wall_threads)
    return {
        "wall_s": (med[wt], "s"),
        "setup_s": (med["setup"], "s"),
        "peak_rss_mb": (statistics.median(rss[wt]), "MB"),
        "parallel_efficiency": (med["1"] / (2 * med["2"]), "ratio"),
    }


def emit(metrics: dict[str, tuple[float, str]], info: dict[str, str],
         ledger: Ledger) -> None:
    attempted, failed = ledger.finish()
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    for key, value in info.items():
        print(f"fact {key} = {value}")
    for group, shas in ledger.digests().items():
        print(f"fact sha256.{group} = {','.join(shas)}")
    print(f"failed_ratio = {failed / max(attempted, 1):.6g} ({failed} of {attempted} failed)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "gemcalc" / "__init__.py").is_file():
        print("error: run from the root of a gemcalc checkout (src/gemcalc not found)",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    info = facts(root, w.name, args.seed)
    ledger = Ledger()
    if args.trace:
        import layers

        metrics = layers.traced_run(root, w, args.seed, args.seconds, ledger, info)
    else:
        metrics = measure_end_to_end(root, w, args.seed, args.seconds, ledger)
    emit(metrics, info, ledger)
    return 0


if __name__ == "__main__":
    sys.exit(main())
