"""Command-line interface.

Subcommands: analyze, verify, decompose, generate, search-odd.

Exit codes: 0 when every applicable identity holds, 1 on a mathematical
violation (the counterexample gem is serialized before exiting) or an
internal invariant violation, 2 on input errors.  All randomized commands
are reproducible from their seed and flags alone; GEMCALC_THREADS caps
campaign workers.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from pathlib import Path

from .core import GemError, InvariantViolation, parse_gem, serialize_gem
from .cycle_decomp import partition_even, partition_odd, walecki_decomposition
from .embeddings import reduced_g_degree
from .generator import GenSpec, _random_stream, search_odd_reduced
from .reports import (
    REPORT_SCHEMA,
    analysis_report,
    campaign_report,
    check_metadata,
    render_text,
    report_json,
)

__all__ = ["main", "run"]


def _emit(report: dict, fmt: str, out: str | None) -> None:
    text = report_json(report) if fmt == "json" else render_text(report)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _read_utf8(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise GemError(f"{path} is not UTF-8 text: {exc}") from None


def cmd_analyze(args: argparse.Namespace) -> int:
    g = parse_gem(_read_utf8(args.path))
    metadata = None
    if args.metadata:
        try:
            metadata = json.loads(_read_utf8(args.metadata))
        except (json.JSONDecodeError, RecursionError) as exc:
            raise GemError(f"malformed metadata file: {exc}") from None
        check_metadata(g, metadata)  # a file holding null is refused, not absent
    try:
        report = analysis_report(g, metadata)
    except InvariantViolation as exc:
        # the gem the violation was found on is the input file, kept as it was
        print(f"error: {exc}", file=sys.stderr)
        print(f"counterexample gem preserved in {args.path}", file=sys.stderr)
        return 1
    _emit(report, args.format, args.out)
    if report["violations"]:
        print(
            f"identity violated: {', '.join(report['violations'])}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    report = campaign_report(
        d=args.d,
        mode=args.mode,
        max_p=args.p,
        count=args.count,
        seed=args.seed,
    )
    _emit(report, args.format, args.out)
    if report["status"] != "ok":
        first = report["violations"][0]
        where = _keep_counterexample(json.dumps(first["gem"]), args.out) or "report body"
        print(
            f"violation of {first['check']} at corpus index {first['index']}; "
            f"counterexample gem preserved in {where}",
            file=sys.stderr,
        )
        return 1
    return 0


def _keep_counterexample(text: str, out: str | None) -> str | None:
    """Write a serialized gem to ``<out>.counterexample.json`` and return that
    path; without ``--out``, write nothing and return None."""
    if not out:
        return None
    path = Path(out).with_suffix(".counterexample.json")
    path.write_text(text + "\n")
    return str(path)


def cmd_decompose(args: argparse.Namespace) -> int:
    n = args.n
    # each of these validates the classes it returns
    if args.full or n % 2 == 0:
        part = partition_odd(n) if n % 2 else partition_even(n)
        classes = part.classes if args.full else part.classes[:1]
    else:
        classes = (walecki_decomposition(n),)
    doc = {
        "schema": REPORT_SCHEMA,
        "kind": "partition" if args.full else "decomposition",
        "n": n,
        "multiplicity": classes[0].multiplicity,
        "classes": [[list(cyc) for cyc in cls.cycles] for cls in classes],
    }
    _emit(doc, "json", args.out)
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    spec = GenSpec(
        d=args.d,
        p=args.p,
        count=args.count,
        seed=args.seed,
        connected_only=args.connected,
        bipartite_only=args.bipartite,
        non_bipartite_only=args.nonbipartite,
    )
    out_dir = Path(args.out)
    files = []
    # each gem is written as it is drawn; the directory appears with the
    # first one, so a refused or infeasible spec leaves none
    for i, g in enumerate(_random_stream(spec)):
        if not i:
            out_dir.mkdir(parents=True, exist_ok=True)
        name = f"gem_{i:04d}.json"
        # a str path: pathlib interns every name it parses, which grows the
        # interpreter's intern table with the corpus
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.write(serialize_gem(g) + "\n")
        files.append(name)
    manifest = {"schema": REPORT_SCHEMA, "kind": "corpus", **spec._asdict(), "files": files}
    with open(out_dir / "manifest.json", "w") as fh:
        # the bytes of report_json, encoded piece by piece, never held whole
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(f"wrote {len(files)} gems and manifest.json to {out_dir}")
    return 0


def cmd_search_odd(args: argparse.Namespace) -> int:
    try:
        witness = search_odd_reduced(args.d, args.max_p)
    except InvariantViolation as exc:
        if len(exc.args) < 2:
            raise
        # keep the gem the check failed on, as verify keeps a counterexample
        text = serialize_gem(exc.args[1])
        where = _keep_counterexample(text, args.out)
        print(f"error: {exc}", file=sys.stderr)
        if where:
            print(f"counterexample gem preserved in {where}", file=sys.stderr)
        else:
            print(f"counterexample gem: {text}", file=sys.stderr)
        return 1
    doc = {
        "schema": REPORT_SCHEMA,
        "kind": "odd-degree-search",
        "found": witness is not None,
        "d": args.d,
        "max_p": args.max_p,
    }
    if witness is not None:
        # the search refuses a bipartite witness, and at d = 4 a singular one
        doc.update(
            reduced_degree=reduced_g_degree(witness),
            bipartite=False,
            singular_manifold=False if args.d == 4 else None,
            gem=json.loads(serialize_gem(witness)),
        )
    _emit(doc, "json", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gemcalc",
        description="Invariants of edge-colored graphs and verification campaigns",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="full invariant report for one gem file")
    p_an.add_argument("path", help="gem JSON file")
    p_an.add_argument("--metadata", help="crystallization metadata JSON file")
    p_an.add_argument("--format", choices=("json", "text"), default="json")
    p_an.add_argument("--out", help="write the report here instead of stdout")
    p_an.set_defaults(func=cmd_analyze)

    p_ver = sub.add_parser("verify", help="run the identity battery over a corpus")
    p_ver.add_argument("--d", type=int, required=True)
    p_ver.add_argument("--mode", choices=("exhaustive", "random"), required=True)
    p_ver.add_argument("--p", type=int, required=True, help="maximum half-order")
    p_ver.add_argument("--count", type=int, default=0, help="random sample count")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--format", choices=("json", "text"), default="json")
    p_ver.add_argument("--out")
    p_ver.set_defaults(func=cmd_verify)

    p_dec = sub.add_parser("decompose", help="Hamiltonian cycle decompositions of K_n")
    p_dec.add_argument("--n", type=int, required=True)
    p_dec.add_argument("--full", action="store_true", help="emit the whole partition")
    p_dec.add_argument("--out")
    p_dec.set_defaults(func=cmd_decompose)

    p_gen = sub.add_parser("generate", help="write a seeded random corpus")
    p_gen.add_argument("--d", type=int, required=True)
    p_gen.add_argument("--p", type=int, required=True)
    p_gen.add_argument("--count", type=int, default=1)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--connected", action="store_true")
    p_gen.add_argument("--bipartite", action="store_true")
    p_gen.add_argument("--nonbipartite", action="store_true")
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.set_defaults(func=cmd_generate)

    p_odd = sub.add_parser(
        "search-odd", help="search for an odd reduced-degree witness"
    )
    p_odd.add_argument("--d", type=int, choices=(4, 6), default=4)
    p_odd.add_argument("--max-p", type=int, required=True, dest="max_p")
    p_odd.add_argument("--out")
    p_odd.set_defaults(func=cmd_search_odd)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvariantViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (GemError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> int:
    """The process entry: :func:`main`, then freeze the heap, so that the
    interpreter's final collections at exit skip every object left alive."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
