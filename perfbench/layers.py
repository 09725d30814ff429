"""Traced run: gemcalc's layers called one at a time, in-process.

Every call the harness makes into the library is wrapped in a span (name,
start, end, parent, run id, phase); one pass over the corpora shares a run
id.  Spans stay in memory and are written as JSON lines to
``.perfbench_out/spans-<workload>-seed<seed>.jsonl`` when the run ends.
Per-layer timings are derived from the spans, call counts from ``cProfile``
(which needs no edit of the library), and the CLI figures from subprocess
runs.  Passes repeat until the run's seconds are used; each timing is the
median over passes.

A pass covers:

* the workload's own corpus (``trace_count`` gems, generated exactly as
  ``campaign_report`` generates them): generation, serialization, parsing,
  a cold residue table, all regular genera with residues warm, and the
  battery per gem;
* the same campaign through ``campaign_report`` untraced and under
  ``cProfile``, and through the CLI, whose report bytes must agree;
* a fixed probe corpus of each shape in ``PROBE`` (d=3, 4 and 6), seeded
  by the benchmark seed alone, on which the battery's branches, ``dim4`` and
  ``analysis_report`` are measured, so every traced run reports them;
* the ROADMAP baseline sweep and ``gemcalc analyze`` on two dipoles.

Before each per-gem timing the gem is rebuilt as a fresh ``ColoredGraph``
(the residue memo lives on the instance) and the ``lru_cache``s of the
manifold tests are cleared, so no timing skips work a user pays for.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from harness import (
    Ledger,
    Workload,
    campaign_problems,
    gem_seed,
    out_dir,
    run_gemcalc,
    tail_percentile,
)

# probe shapes as d: (p, gems), the gem counts sized so each battery branch
# has a tail; only about 2.5% of d=4 gems are singular but not profiled as
# crystallizations.  d=6 p<=4 gems carry 360 regular genera each and use the
# lazy partition_odd(7) table.
PROBE = {3: (8, 300), 4: (6, 1000), 6: (4, 120)}
CAMPAIGN_REPS = 5
ANALYSIS_SAMPLE = 10
SWEEP = ((3, 4, 200), (4, 3, 200), (4, 6, 200), (5, 4, 200), (6, 2, 100))  # (d, p, gems)
BRANCHES = ("d3", "d4_plain", "d4_singular", "d4_crystal", "d6")
MODULES = ("core", "perms", "embeddings", "cycle_decomp", "dim4", "generator", "reports")
SPAN_LAYERS = ("bench", "generator", "core", "perms", "cycle_decomp", "embeddings",
               "dim4", "reports", "cli")
ANALYZE_DIPOLES = (6, 7)
ANALYZE_REPS = 3


class Tracer:
    """In-memory span recorder; spans nest by call order."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.run_id = ""
        self.phase = ""

    def span(self, name: str, **attrs) -> "_Span":
        return _Span(self, name, attrs)

    def select(self, run_id: str, phase: str, name: str) -> list[dict]:
        return [s for s in self.spans
                if s["run_id"] == run_id and s["phase"] == phase and s["name"] == name]

    def layer_self_s(self, run_id: str) -> dict[str, float]:
        """Self time per layer: each span's duration minus its children's."""
        spans = [s for s in self.spans if s["run_id"] == run_id]
        child_ns: dict[int, int] = {}
        for s in spans:
            if s["parent"] is not None:
                child_ns[s["parent"]] = child_ns.get(s["parent"], 0) + s["end_ns"] - s["start_ns"]
        out = dict.fromkeys(SPAN_LAYERS, 0.0)
        for s in spans:
            layer = s["name"].split(".", 1)[0]
            out[layer] += (s["end_ns"] - s["start_ns"] - child_ns.get(s["id"], 0)) / 1e9
        return out

    def write(self, path: Path, header: dict) -> None:
        with open(path, "w") as f:
            f.write(json.dumps(header) + "\n")
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: Tracer, name: str, attrs: dict):
        self.tracer = tracer
        self.record = {
            "id": len(tracer.spans), "name": name, "start_ns": 0, "end_ns": 0,
            "parent": tracer.stack[-1] if tracer.stack else None,
            "run_id": tracer.run_id, "phase": tracer.phase, "attrs": attrs,
        }

    def __enter__(self) -> dict:
        t = self.tracer
        t.spans.append(self.record)
        t.stack.append(self.record["id"])
        self.record["start_ns"] = time.perf_counter_ns()
        return self.record

    def __exit__(self, *exc) -> bool:
        self.record["end_ns"] = time.perf_counter_ns()
        self.tracer.stack.pop()
        return False


def _dur_us(spans: list[dict]) -> list[float]:
    return [(s["end_ns"] - s["start_ns"]) / 1e3 for s in spans]


def _mean(xs: list[float]) -> float:
    return sum(xs) / len(xs) if xs else 0.0


class _Pass:
    """One traced pass over every corpus; ``metrics`` holds its numbers."""

    def __init__(self, lib, tracer: Tracer, ledger: Ledger, root: Path,
                 w: Workload, seed: int):
        self.lib, self.tr, self.ledger, self.root, self.w = lib, tracer, ledger, root, w
        self.seed = seed
        self.metrics: dict[str, float] = {}
        self.check_us: dict[str, list[float]] = {b: [] for b in BRANCHES}
        self.tail_pct: dict[str, float] = {}

    # -- helpers ---------------------------------------------------------

    def clear_caches(self) -> None:
        self.lib.dim4.is_singular_4_manifold.cache_clear()
        self.lib.dim4.is_closed_3_manifold.cache_clear()

    def fresh(self, g):
        """An equal graph with an empty residue memo, manifold caches cleared."""
        self.clear_caches()
        return self.lib.core.ColoredGraph(d=g.d, order=g.order, matchings=g.matchings)

    def generate(self, d: int, p_max: int, count: int, seed: int) -> list:
        """The corpus campaign_report draws: count split over p = 1..p_max."""
        gems = []
        for p in range(1, p_max + 1):
            n = count // p_max + (1 if p - 1 < count % p_max else 0)
            if n:
                spec = self.lib.generator.GenSpec(d=d, p=p, count=n, seed=seed + p,
                                                  connected_only=True)
                with self.tr.span("generator.random_gem", d=d, p=p, count=n):
                    gems.extend(self.lib.generator.random_gem(spec))
        return gems

    def battery(self, gems: list, shape: str, binned: bool) -> list:
        """check_graph on fresh copies; returns the flags per gem.

        With ``binned`` the latencies feed the per-branch metrics.
        """
        out = []
        for i, g in enumerate(gems):
            g = self.fresh(g)
            with self.tr.span("reports.check_graph") as rec:
                flags, checks = self.lib.reports.check_graph(g)
            rec["attrs"]["branch"] = branch = _branch(g.d, flags)
            if binned:
                self.check_us[branch].append((rec["end_ns"] - rec["start_ns"]) / 1e3)
            bad = sorted(n for n, ok in checks.items() if not ok)
            self.ledger.record(f"check_graph {shape} #{i}", [f"violated {bad}"] if bad else [])
            out.append(flags)
        return out

    # -- the pass ----------------------------------------------------------

    def run(self) -> None:
        tr = self.tr
        with tr.span("bench.pass"):
            tr.phase = "workload"
            self.workload_layers()
            tr.phase = "campaign"
            self.campaign()
            tr.phase = "lazy"
            self.lazy_tables()
            corpora = {}
            for d, (p, count) in PROBE.items():
                tr.phase = f"probe.d{d}"
                gems = self.generate(d, p, count, gem_seed(f"probe.d{d}", self.seed))
                corpora[d] = (gems, self.battery(gems, f"probe d{d}", True))
            tr.phase = "dim4"
            self.dim4(*corpora[4])
            tr.phase = "analysis"
            self.analysis(corpora[6][0][:ANALYSIS_SAMPLE])
            self.sweep()
            tr.phase = "cli"
            self.analyze_cli()
        for b, xs in self.check_us.items():
            q, tail = tail_percentile(xs) if xs else (50.0, 0.0)
            self.metrics[f"reports.check_graph_us.{b}.p50"] = statistics.median(xs) if xs else 0.0
            self.metrics[f"reports.check_graph_us.{b}.tail"] = tail
            self.metrics[f"reports.check_graph_us.{b}.n"] = len(xs)
            self.tail_pct[b] = q
        for layer, s in tr.layer_self_s(tr.run_id).items():
            self.metrics[f"span_self_s.{layer}"] = s

    def workload_layers(self) -> list:
        lib, tr, w, m = self.lib, self.tr, self.w, self.metrics
        gems = self.generate(w.d, w.p, w.trace_count, gem_seed(w.name, self.seed))
        texts = []
        for g in gems:
            with tr.span("core.serialize_gem"):
                texts.append(lib.core.serialize_gem(g))
        perms = lib.perms.cyclic_permutations(w.d)
        for text in texts:
            with tr.span("core.parse_gem"):
                g = lib.core.parse_gem(text)
            with tr.span("core.residue_table"):
                lib.core.residue_table(g)
            with tr.span("embeddings.regular_genus", calls=len(perms)):
                for eps in perms:
                    lib.embeddings.regular_genus(g, eps)
        self.battery(gems, "workload", False)

        def total_us(name):
            return sum(_dur_us(tr.select(tr.run_id, "workload", name)))

        n = len(gems)
        m["generator.us_per_graph"] = total_us("generator.random_gem") / n
        m["core.serialize_us"] = total_us("core.serialize_gem") / n
        m["core.parse_us"] = total_us("core.parse_gem") / n
        m["core.residue_table_cold_us"] = total_us("core.residue_table") / n
        m["embeddings.genera_us"] = total_us("embeddings.regular_genus") / n
        self.generation_s = total_us("generator.random_gem") / 1e6
        self.battery_s = total_us("reports.check_graph") / 1e6

    def campaign(self) -> None:
        """campaign_report in-process, untraced and under cProfile, and the CLI.

        The untraced call and the CLI alternate ``CAMPAIGN_REPS`` times and
        their medians are compared; all reports must be byte-identical.
        """
        lib, tr, w, m = self.lib, self.tr, self.w, self.metrics
        n = w.trace_count
        seed_flag = gem_seed(w.name, self.seed)
        kwargs = dict(d=w.d, mode="random", max_p=w.p, count=n, seed=seed_flag, threads=1)
        plain, cli = [], []
        for _ in range(CAMPAIGN_REPS):
            self.clear_caches()
            with tr.span("reports.campaign_report", profiled=False) as rec:
                report = lib.reports.campaign_report(**kwargs)
            plain.append((rec["end_ns"] - rec["start_ns"]) / 1e9)
            text = lib.reports.report_json(report).encode()
            self.ledger.record("in-process campaign_report",
                               campaign_problems(text, 0, n), "trace-campaign", text)
            with tr.span("cli.verify", count=n):
                res = run_gemcalc(self.root, w.verify_args(seed_flag, n), 1)
            cli.append(res.wall_s)
            self.ledger.record("CLI verify (traced run)",
                               campaign_problems(res.stdout, res.exit_code, n),
                               "trace-campaign", res.stdout)
        plain_s = statistics.median(plain)

        self.clear_caches()
        prof = cProfile.Profile()
        with tr.span("reports.campaign_report", profiled=True) as rec:
            prof.enable()
            report = lib.reports.campaign_report(**kwargs)
            prof.disable()
        traced_s = (rec["end_ns"] - rec["start_ns"]) / 1e9
        text = lib.reports.report_json(report).encode()
        self.ledger.record("profiled campaign_report",
                           campaign_problems(text, 0, n), "trace-campaign", text)

        calls, self_s = _profile_counts(prof)
        residue_calls = calls.get(("core", "residue_count"), 0)
        uf_passes = calls.get(("core", "_component_count"), 0)
        m["core.residue_calls_per_graph"] = residue_calls / n
        m["core.residue_hit_ratio"] = 1 - uf_passes / residue_calls if residue_calls else 0.0
        m["embeddings.genus_calls_per_graph"] = calls.get(("embeddings", "regular_genus"), 0) / n
        for mod, s in self_s.items():
            m[f"self_s.{mod}"] = s
        m["trace.overhead_ratio"] = traced_s / plain_s
        m["reports.orchestration_s"] = plain_s - self.generation_s - self.battery_s
        m["cli.overhead_s"] = statistics.median(cli) - plain_s

    def lazy_tables(self) -> None:
        """Cold cost of the lazily built tables the workload's d needs."""
        lib, tr, d = self.lib, self.tr, self.w.d
        lib.perms.cyclic_permutations.cache_clear()
        with tr.span("perms.cyclic_permutations") as rec:
            lib.perms.cyclic_permutations(d)
        self.metrics["perms.cyclic_permutations_cold_us"] = _dur_us([rec])[0]
        cd = lib.cycle_decomp
        partition = cd.partition_odd if (d + 1) % 2 else cd.partition_even
        partition.cache_clear()
        with tr.span(f"cycle_decomp.{partition.__name__}") as rec:
            partition(d + 1)
        self.metrics["cycle_decomp.partition_cold_us"] = _dur_us([rec])[0]

    def dim4(self, gems: list, flags: list) -> None:
        lib, tr, m = self.lib, self.tr, self.metrics
        singular, degree, crystal = [], [], []
        for g, f in zip(gems, flags):
            h = self.fresh(g)
            with tr.span("dim4.is_singular_4_manifold") as rec:
                lib.dim4.is_singular_4_manifold(h)
            singular.append(rec)
            h = self.fresh(g)
            with tr.span("dim4.residue_degree_identity") as rec:
                lib.dim4.residue_degree_identity(h)
            degree.append(rec)
            if f.get("crystallization_profile"):
                h = self.fresh(g)
                with tr.span("dim4.crystallization") as rec:
                    lib.dim4.classify_crystallization(lib.dim4.crystallization_profile(h, 0), h)
                crystal.append(rec)
        m["dim4.singular_test_us"] = _mean(_dur_us(singular))
        m["dim4.residue_degree_us"] = _mean(_dur_us(degree))
        m["dim4.crystallization_us"] = _mean(_dur_us(crystal))

    def analysis(self, gems: list) -> None:
        recs = []
        for i, g in enumerate(gems):
            h = self.fresh(g)
            with self.tr.span("reports.analysis_report") as rec:
                report = self.lib.reports.analysis_report(h)
            recs.append(rec)
            bad = report["violations"]
            self.ledger.record(f"analysis_report d6 #{i}", [f"violated {bad}"] if bad else [])
        self.metrics["reports.analysis_us"] = _mean(_dur_us(recs))

    def sweep(self) -> None:
        """The ROADMAP baseline table: generation, cold residues, battery."""
        lib, tr, m = self.lib, self.tr, self.metrics
        for d, p, n in SWEEP:
            key = f"d{d}p{p}"
            tr.phase = f"sweep.{key}"
            spec = lib.generator.GenSpec(d=d, p=p, count=n, seed=gem_seed(key, self.seed),
                                         connected_only=True)
            with tr.span("generator.random_gem", d=d, p=p, count=n) as rec:
                gems = lib.generator.random_gem(spec)
            m[f"sweep.generation_us.{key}"] = _dur_us([rec])[0] / n
            recs = []
            for g in gems:
                h = self.fresh(g)
                with tr.span("core.residue_table") as r:
                    lib.core.residue_table(h)
                recs.append(r)
            m[f"sweep.residues_us.{key}"] = _mean(_dur_us(recs))
            self.battery(gems, f"sweep {key}", False)
            m[f"sweep.battery_us.{key}"] = _mean(
                _dur_us(tr.select(tr.run_id, tr.phase, "reports.check_graph")))

    def analyze_cli(self) -> None:
        for d in ANALYZE_DIPOLES:
            path = out_dir(self.root) / f"dipole_d{d}.json"
            path.write_text(self.lib.core.serialize_gem(self.lib.generator.dipole(d)) + "\n")
            walls = []
            for _ in range(ANALYZE_REPS):
                with self.tr.span("cli.analyze", d=d):
                    res = run_gemcalc(self.root, ["analyze", str(path)])
                problems = [] if res.exit_code == 0 else [f"exit code {res.exit_code}"]
                try:
                    if json.loads(res.stdout)["violations"]:
                        problems.append("violations reported")
                except (ValueError, KeyError, TypeError) as exc:
                    problems.append(f"malformed report: {exc!r}")
                self.ledger.record(f"analyze dipole d{d}", problems, f"analyze-d{d}", res.stdout)
                walls.append(res.wall_s)
            self.metrics[f"cli.analyze_s.d{d}"] = statistics.median(walls)


def _branch(d: int, flags: dict) -> str:
    if d != 4:
        return f"d{d}"
    if flags.get("crystallization_profile"):
        return "d4_crystal"
    return "d4_singular" if flags.get("singular_manifold") else "d4_plain"


def _profile_counts(prof: cProfile.Profile) -> tuple[dict, dict]:
    """Call counts per (module, function) and self seconds per module."""
    calls: dict[tuple[str, str], int] = {}
    self_s = dict.fromkeys(MODULES + ("builtins", "other"), 0.0)
    for (filename, _, func), (_, ncalls, tottime, _, _) in pstats.Stats(prof).stats.items():
        path = Path(filename)
        if path.parent.name == "gemcalc" and path.stem in MODULES:
            module = path.stem
            calls[(module, func)] = calls.get((module, func), 0) + ncalls
        elif filename == "~":
            module = "builtins"
        else:
            module = "other"
        self_s[module] += tottime
    return calls, self_s


def _unit(name: str) -> str:
    if name.endswith((".n", "calls_per_graph")):
        return "count"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(("_us", ".p50", ".tail", ".us_per_graph")) or "_us." in name:
        return "us"
    if name.endswith("_s") or "_s." in name or name.startswith("self_s."):
        return "s"
    raise ValueError(f"no unit for metric {name}")


def traced_run(root: Path, w: Workload, seed: int, seconds: float, ledger: Ledger,
               info: dict[str, str]) -> dict[str, tuple[float, str]]:
    sys.path.insert(0, str(root / "src"))
    import gemcalc
    from gemcalc import core, cycle_decomp, dim4, embeddings, generator, perms, reports

    if Path(gemcalc.__file__).resolve().parent != (root / "src" / "gemcalc").resolve():
        raise SystemExit(f"error: imported gemcalc from {gemcalc.__file__}, not the checkout")
    lib = SimpleNamespace(core=core, cycle_decomp=cycle_decomp, dim4=dim4,
                          embeddings=embeddings, generator=generator, perms=perms,
                          reports=reports)
    tracer = Tracer()
    passes: list[_Pass] = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        tracer.run_id = f"{w.name}/seed{seed}/pass{len(passes)}"
        one = _Pass(lib, tracer, ledger, root, w, seed)
        pass_start = time.perf_counter()
        one.run()
        passes.append(one)
        now = time.perf_counter()
        longest = max(longest, now - pass_start)
        elapsed = now - start
        # the next pass starts only if the longest one so far still fits
        if elapsed + longest > seconds:
            break
    print(f"# {len(passes)} traced passes in {elapsed:.1f} s")
    for b in BRANCHES:
        print(f"# reports.check_graph_us.{b}.tail is the p{passes[0].tail_pct[b]:g}")

    path = out_dir(root) / f"spans-{w.name}-seed{seed}.jsonl"
    tracer.write(path, {"kind": "perfbench.spans", "facts": info, "passes": len(passes)})
    print(f"# {len(tracer.spans)} spans written to {path.relative_to(root)}")

    return {k: (statistics.median(p.metrics[k] for p in passes), _unit(k))
            for k in passes[0].metrics}
