"""CLI/orchestration for the jiffylint passes (see tools/lint.py)."""

import argparse
import json
import sys

from . import (PASS_NAMES, astmode, audit, cas_hygiene, guard_escape,
               pubgraph, retire, textscan)

PASS_RUNNERS = {
    "guard": guard_escape.run,
    "retire": retire.run,
    "cas": cas_hygiene.run,
    "pubgraph": pubgraph.run,
    "audit": audit.run,
}


def load_catalog(path):
    with open(path, encoding="utf-8") as f:
        catalog = json.load(f)
    catalog["__path__"] = path
    return catalog


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="lint.py",
        description="Concurrency lint driver: the jiffylint passes "
                    "(guard-escape, retire-after-unlink, CAS hygiene, "
                    "publication graph, memory-order audit) behind one CLI. "
                    "Exit 0 clean, 1 findings, 2 environment error.")
    ap.add_argument("roots", nargs="*",
                    help="files/dirs to lint (default: src bench/harness.h)")
    ap.add_argument("--catalog", default=textscan.DEFAULT_CATALOG,
                    help="memory-model catalog JSON "
                         "(default: tools/memory_model.json)")
    ap.add_argument("--passes", default=",".join(PASS_NAMES),
                    help=f"comma list from {{{','.join(PASS_NAMES)}}} "
                         f"(default: all)")
    ap.add_argument("--no-coverage", action="store_true",
                    help="skip catalog-coverage checks (partial scans)")
    ap.add_argument("--compdb", metavar="BUILD_DIR",
                    help="clang AST cross-check against one TU from "
                         "BUILD_DIR/compile_commands.json")
    ap.add_argument("--ast-tu", default="tests/",
                    help="substring selecting the TU for --compdb "
                         "(default: tests/)")
    ap.add_argument("--output", metavar="FILE",
                    help="also write findings (and the summary) to FILE")
    ap.add_argument("--list-regions", action="store_true",
                    help="print discovered guard regions and exit")
    args = ap.parse_args(argv)

    passes = [p.strip() for p in args.passes.split(",") if p.strip()]
    unknown = [p for p in passes if p not in PASS_NAMES]
    if unknown:
        print(f"lint: unknown pass(es): {', '.join(unknown)} "
              f"(choose from {', '.join(PASS_NAMES)})", file=sys.stderr)
        return 2

    catalog = load_catalog(args.catalog)
    files = textscan.collect_files(args.roots or textscan.DEFAULT_ROOTS)
    # One scan per file per run: every pass reads these SourceFiles.
    sources = [textscan.SourceFile(p) for p in files]

    if args.list_regions:
        guard_escape.run(sources, catalog, list_regions=True)
        return 0

    findings = []
    counts = {}
    for p in passes:
        if p == "guard":
            got = guard_escape.run(sources, catalog)
        else:
            got = PASS_RUNNERS[p](sources, catalog,
                                  check_coverage=not args.no_coverage)
        counts[p] = len(got)
        findings.extend(got)

    if args.compdb:
        got = astmode.run(sources, args.compdb, args.ast_tu)
        counts["ast"] = len(got)
        findings.extend(got)

    lines = sorted(str(f) for f in findings)
    for l in lines:
        print(l)
    summary = (f"lint: {len(lines)} finding(s) in {len(files)} files ("
               + ", ".join(f"{k}: {v}" for k, v in sorted(counts.items()))
               + ")")
    print(summary, file=sys.stderr)

    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write("\n".join(lines + [summary]) + "\n")

    return 1 if lines else 0
