#!/usr/bin/env python3
"""Quick self-test of the benchmark harness on tiny corpora.

Run from the root of a gemcalc checkout::

    python3 perfbench/selftest.py

It shows that the end-to-end and the traced runs of every workload print
each metric BENCHMARK.json names, with its unit, both as a ``metric`` line
and in the closing JSON object; and that a tampered report, one with a
flipped byte or with a wrong graph count, is counted as failed.  It exits 0
when all of that holds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
from pathlib import Path

import layers
import run
from harness import WORKLOADS, Ledger, facts

SEED = 1
TINY = {"verify-d4-mixed": 12, "verify-d3-fanout": 40}


def _shrink_traced_pass() -> None:
    layers.PROBE = {d: (p, n) for (d, (p, _)), n in zip(layers.PROBE.items(), (30, 60, 6))}
    layers.SWEEP = tuple((d, p, 5) for d, p, _ in layers.SWEEP)
    layers.CAMPAIGN_REPS = 1
    layers.ANALYZE_REPS = 1
    layers.ANALYSIS_SAMPLE = 2


def _emitted(metrics, w, ledger) -> tuple[list[str], dict]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.emit(metrics, facts(Path.cwd(), w.name, SEED), ledger)
    lines = buf.getvalue().splitlines()
    return lines, json.loads(lines[-1])


def _check_names(kind: str, expected: list[dict], lines: list[str], result: dict) -> list[str]:
    errors = []
    printed = {}
    for ln in lines:
        if ln.startswith("metric "):
            name, rest = ln[len("metric "):].split(" = ")
            printed[name] = rest.split()[-1]
    want = {m["name"]: m["unit"] for m in expected}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if printed != want:
        errors.append(f"{kind}: metric lines {sorted(set(printed) ^ set(want))} or units differ")
    if got != want:
        errors.append(f"{kind}: JSON metrics {sorted(set(got) ^ set(want))} or units differ")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{kind}: JSON keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"{kind}: untampered run not correct: {lines[-1][:200]}")
    return errors


def _flip_byte(n: int, text: bytes) -> bytes:
    if n != 2:  # the first full-size report
        return text
    mid = len(text) // 2
    return text[:mid] + bytes([text[mid] ^ 1]) + text[mid + 1:]


def _wrong_count(n: int, text: bytes) -> bytes:
    if n != 3:  # the second full-size report
        return text
    report = json.loads(text)
    report["counts"]["graphs"] += 1
    return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    _shrink_traced_pass()
    errors = []
    for name, count in TINY.items():
        w = dataclasses.replace(WORKLOADS[name], count=count, trace_count=count)
        ledger = Ledger()
        metrics = run.measure_end_to_end(root, w, SEED, 0, ledger)
        errors += _check_names(f"{name} --trace 0", spec["end_to_end"], *_emitted(metrics, w, ledger))
        ledger = Ledger()
        with contextlib.redirect_stdout(io.StringIO()):
            metrics = layers.traced_run(root, w, SEED, 0, ledger, facts(root, name, SEED))
        errors += _check_names(f"{name} --trace 1", spec["per_layer"], *_emitted(metrics, w, ledger))
        print(f"{name}: every metric printed with its unit")

    w = dataclasses.replace(WORKLOADS["verify-d4-mixed"], count=TINY["verify-d4-mixed"])
    for label, tamper in (("flipped byte", _flip_byte), ("wrong graph count", _wrong_count)):
        ledger = Ledger()
        with contextlib.redirect_stderr(io.StringIO()):
            metrics = run.measure_end_to_end(root, w, SEED, 0, ledger, tamper=tamper)
            lines, result = _emitted(metrics, w, ledger)
        ratio = next(ln for ln in lines if ln.startswith("failed_ratio"))
        if result["failed"] != 1 or result["correct"] or ratio.startswith("failed_ratio = 0 "):
            errors.append(f"{label}: not counted as one failure: {ratio}")
        print(f"{label}: {ratio}")

    for e in errors:
        print(f"SELF-TEST ERROR {e}", file=sys.stderr)
    print("self-test " + ("FAILED" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
