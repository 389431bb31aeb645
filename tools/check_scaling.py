#!/usr/bin/env python3
"""Scaling gate over BENCH_RESULTS fig CSVs (ISSUE 9, DESIGN.md §14).

Parses one or more figure CSVs (schema:
figure,scenario,batch,dist,kv,index,threads,total_mops,update_mops), groups
the index=jiffy rows by (figure, scenario, batch, dist, kv), and fails if any
unbatched (batch == "simple") group's total_mops at T threads drops below
RATIO x its value at the PREVIOUS thread count in the grid (2 vs 1, 4 vs 2,
8 vs 4, ...). This is the ISSUE-9 acceptance shape — "non-decreasing from
1→2→4 threads, 8-thread no worse than 0.9x of 4-thread" — with the same
tolerance at every step. The engine cannot promise speedup on an arbitrary
box (CI containers are often single-core, where extra threads are pure
oversubscription), but it must not fall off a cliff anywhere along the
thread grid — that regression is what this gate pins.

Gated scope: the a_update and b_lookup75 scenarios with batch == "simple" —
the two whose thread-role composition keeps total_mops comparable across the
grid (update-only is all-updaters at every T; lookup75 mixes two point-op
roles with like units). Everything else is checked with the same ratio but
reported as WARNINGS:

* scan/range scenarios (c/d/e): their total_mops adds scan-entries to
  point-ops, and the harness role schedule gives scanners 50% of a 1-core
  box at 2 threads but 25% at 4+ (1 scanner of 2 vs 1 of 4) — the apparent
  2->4 "cliff" is that share arithmetic, not the engine;
* batched groups (b10/b100 seq/rand): their multi-thread deficit predates
  the per-op cacheline and allocator work the hard gate protects (fig10
  b100_rand already ran 0.65x at 2 threads before it) and is a different
  mechanism: helping-replay duplication (ROADMAP direction 1). A writer
  that meets a pending batch revision replays the rest of that batch in
  lockstep with its owner, both build every group, and one of the two
  builds is thrown away. The _20261017_122313 fig6 sweep counts
  replay_group_duplicated at 0.91x of replay_group_claimed on b10_rand
  and 2.0x on b100_rand at 4 threads (0.19x and 0.44x at 2). An earlier
  sweep read <= 0.03% and concluded the opposite; it used 0.05-s cells at
  1-2 threads on a one-core container, where owner and helper rarely ran
  at the same time.

--metrics=<file> (repeatable) points at the harness's --metrics JSON dump
(schema jiffy-metrics-v1, src/obs/counters.h). When the dump covers a
batched group that warns, the warning stops guessing and reports the
MEASURED replay-duplication ratio — replay_group_duplicated /
(replay_group_claimed + replay_group_duplicated) for the matching cells —
so "helping replay rebuilt 38% of groups" replaces "probably helping".

--strict-batches widens the gate to every group (scans included) for local
what-if runs.

Usage:
    tools/check_scaling.py [--ratio=0.9] [--index=jiffy] [--strict-batches]
                           [--metrics=metrics.json ...] CSV [CSV ...]

Exit status: 0 when every gated group passes (or has no multi-thread rows),
1 on any violation, 2 on usage/parse errors. Non-fig CSVs (ablations with a
different header) are skipped with a note so the tool can be pointed at a
whole sweep directory glob.
"""

import csv
import json
import sys

REQUIRED = ["figure", "scenario", "batch", "dist", "kv", "index", "threads",
            "total_mops"]


def load_metrics(paths):
    """Aggregates replay counters from jiffy-metrics-v1 dumps.

    Returns {(figure, scenario, batch, dist, kv, index, threads):
             [claimed, duplicated]}, summed across dumps (a re-run sweep
    appends a second metrics file rather than merging cells)."""
    cells = {}
    for path in paths:
        with open(path) as fh:
            doc = json.load(fh)
        if doc.get("schema") != "jiffy-metrics-v1":
            print(f"error: {path}: schema {doc.get('schema')!r} "
                  f"(want jiffy-metrics-v1)")
            sys.exit(2)
        for cell in doc.get("cells", []):
            key = (cell.get("figure"), cell.get("scenario"),
                   cell.get("batch"), cell.get("dist"), cell.get("kv"),
                   cell.get("index"), int(cell.get("threads", 0)))
            counters = cell.get("counters", {})
            agg = cells.setdefault(key, [0, 0])
            agg[0] += counters.get("replay_group_claimed", 0)
            agg[1] += counters.get("replay_group_duplicated", 0)
    return cells


def replay_note(metrics, key, index_name, threads):
    """Measured duplication ratio suffix for a batched-group warning."""
    agg = metrics.get(key + (index_name, threads))
    if not agg or agg[0] + agg[1] == 0:
        return ""
    claimed, duplicated = agg
    total = claimed + duplicated
    return (f" [measured: helping replay rebuilt {duplicated}/{total} "
            f"groups = {100.0 * duplicated / total:.1f}% duplicated]")


def check_file(path, ratio, index_name, strict_batches, metrics, violations,
               warnings):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        if any(col not in header for col in REQUIRED):
            print(f"note: {path}: not a figure CSV (header {header}); skipped")
            return 0
        groups = {}
        for row in reader:
            if row["index"] != index_name:
                continue
            key = (row["figure"], row["scenario"], row["batch"], row["dist"],
                   row["kv"])
            try:
                threads = int(row["threads"])
                mops = float(row["total_mops"])
            except (TypeError, ValueError):
                print(f"error: {path}: bad row {row}")
                sys.exit(2)
            # Last row wins if a cell was re-run and appended.
            groups.setdefault(key, {})[threads] = mops
    checked = 0
    for key, by_threads in sorted(groups.items()):
        gated = strict_batches or (
            key[2] == "simple" and key[1] in ("a_update", "b_lookup75"))
        grid = sorted(by_threads)
        for prev, threads in zip(grid, grid[1:]):
            if gated:
                checked += 1
            base = by_threads[prev]
            floor = ratio * base
            if by_threads[threads] < floor:
                msg = (f"{path}: {'/'.join(key)}: {threads} threads = "
                       f"{by_threads[threads]:.3f} Mops < {ratio:.2f} x "
                       f"{prev}-thread ({base:.3f}) = {floor:.3f}")
                if not gated and key[2] != "simple":
                    msg += replay_note(metrics, key, index_name, threads)
                (violations if gated else warnings).append(msg)
    return checked


def main(argv):
    ratio = 0.9
    index_name = "jiffy"
    strict_batches = False
    paths = []
    metrics_paths = []
    for arg in argv[1:]:
        if arg.startswith("--ratio="):
            ratio = float(arg[len("--ratio="):])
        elif arg.startswith("--index="):
            index_name = arg[len("--index="):]
        elif arg == "--strict-batches":
            strict_batches = True
        elif arg.startswith("--metrics="):
            metrics_paths.append(arg[len("--metrics="):])
        elif arg in ("-h", "--help"):
            print(__doc__)
            return 0
        elif arg.startswith("-"):
            print(f"error: unknown flag {arg}")
            return 2
        else:
            paths.append(arg)
    if not paths:
        print("error: no CSV files given (try BENCH_RESULTS/fig*.csv)")
        return 2

    metrics = load_metrics(metrics_paths)
    violations = []
    warnings = []
    checked = 0
    for path in paths:
        checked += check_file(path, ratio, index_name, strict_batches,
                              metrics, violations, warnings)

    for w in warnings:
        print(f"  WARN (not gated) {w}")
    if violations:
        print(f"check_scaling: {len(violations)} violation(s) "
              f"(ratio {ratio:.2f}, index {index_name}):")
        for v in violations:
            print(f"  FAIL {v}")
        return 1
    print(f"check_scaling: OK — {checked} gated multi-thread cell(s) within "
          f"{ratio:.2f} x of their predecessor cell (index {index_name}"
          f"{', strict batches' if strict_batches else ''}; "
          f"{len(warnings)} ungated warning(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
