#!/usr/bin/env python3
"""Decode a Jiffy binary event trace (--trace=<file>, src/obs/trace.h).

File layout (little-endian):
    header: char magic[8] = "JFTRACE1", u32 version, u32 event_size,
            u64 event_count, u64 ticks_per_sec_hint (0 = unknown)
    events: event_count 32-byte records {u64 ts, u64 a, u64 b,
            u16 kind, u16 tag, u32 tid}, grouped by per-thread ring,
            oldest-first within a ring. Timestamps are raw TSC ticks and
            only order events within one tid.

Usage:
    tools/traceview.py trace.bin                # listing, per-tid ts order
    tools/traceview.py trace.bin --stats        # summary only
    tools/traceview.py trace.bin --kind=retire  # filter: sched|retire|epoch
    tools/traceview.py trace.bin --tid=3 --limit=50

The decoder mirrors the append-only kind/tag tables in src/obs/trace.h and
the schedule-point names in src/core/schedule_points.h; extend all three
together.
"""

import argparse
import struct
import sys
from collections import Counter

HEADER = struct.Struct("<8sIIQQ")
EVENT = struct.Struct("<QQQHHI")
MAGIC = b"JFTRACE1"

KIND_NAMES = {1: "sched", 2: "retire", 3: "epoch"}
RETIRE_TAGS = {1: "rev_unref", 2: "rev_unref_immediate", 3: "purge_shell"}
# sched::Point catalog (src/core/schedule_points.h kPointNames).
POINT_NAMES = [
    "plain_stamp", "split_link", "split_stamp",
    "batch_install", "batch_watermark", "batch_stamp",
    "merge_marker", "merge_stamp", "purge_retire", "batch_locate",
    "locate_head",
]


def read_trace(path):
    """Returns (header dict, list of event tuples (ts, a, b, kind, tag, tid))."""
    with open(path, "rb") as f:
        raw = f.read(HEADER.size)
        if len(raw) < HEADER.size:
            raise ValueError("truncated header")
        magic, version, event_size, count, ticks_hint = HEADER.unpack(raw)
        if magic != MAGIC:
            raise ValueError(f"bad magic {magic!r} (want {MAGIC!r})")
        if event_size != EVENT.size:
            raise ValueError(f"event_size {event_size} != {EVENT.size}")
        body = f.read(count * EVENT.size)
        if len(body) < count * EVENT.size:
            raise ValueError(
                f"truncated body: header claims {count} events, "
                f"file holds {len(body) // EVENT.size}")
        events = list(EVENT.iter_unpack(body))
    return (
        {"version": version, "event_count": count, "ticks_hint": ticks_hint},
        events,
    )


def describe(ev):
    ts, a, b, kind, tag, tid = ev
    kname = KIND_NAMES.get(kind, f"kind{kind}")
    if kind == 1:  # sched point
        what = POINT_NAMES[tag] if tag < len(POINT_NAMES) else f"point{tag}"
        detail = ""
    elif kind == 2:  # retire
        what = RETIRE_TAGS.get(tag, f"tag{tag}")
        detail = f" ptr=0x{a:012x} bytes={b}"
    elif kind == 3:  # epoch advance
        what = f"-> {a}"
        detail = ""
    else:
        what = f"tag={tag}"
        detail = f" a=0x{a:x} b=0x{b:x}"
    return f"{ts:>20d}  tid={tid:<4d} {kname:<7s} {what}{detail}"


def print_stats(header, events, out):
    kinds = Counter(e[3] for e in events)
    tids = Counter(e[5] for e in events)
    retire_tags = Counter(e[4] for e in events if e[3] == 2)
    retire_ptrs = Counter(e[1] for e in events if e[3] == 2)
    retire_bytes = sum(e[2] for e in events if e[3] == 2)
    print(f"events: {len(events)} (header: {header['event_count']}, "
          f"version {header['version']})", file=out)
    print(f"threads: {len(tids)} "
          f"({', '.join(f'tid {t}: {n}' for t, n in sorted(tids.items()))})",
          file=out)
    for k, n in sorted(kinds.items()):
        print(f"  {KIND_NAMES.get(k, f'kind{k}')}: {n}", file=out)
    for t, n in sorted(retire_tags.items()):
        print(f"    retire/{RETIRE_TAGS.get(t, f'tag{t}')}: {n}", file=out)
    if retire_ptrs:
        print(f"  retired bytes: {retire_bytes}, "
              f"distinct pointers: {len(retire_ptrs)}", file=out)
        # The retire stream must be unique per pointer within a window: the
        # same address retired twice WITHOUT an intervening reallocation is
        # exactly the double-retire signature the ROADMAP's heap-corruption
        # hunt wants surfaced. Address reuse across long runs is legitimate
        # (the allocator recycles), so this is a lead, not a verdict.
        dupes = {p: n for p, n in retire_ptrs.items() if n > 1}
        if dupes:
            worst = sorted(dupes.items(), key=lambda kv: -kv[1])[:5]
            print(f"  reused retire addresses: {len(dupes)} "
                  f"(top: {', '.join(f'0x{p:x} x{n}' for p, n in worst)})",
                  file=out)
    epochs = [e[1] for e in events if e[3] == 3]
    if epochs:
        print(f"  epoch range: {min(epochs)} .. {max(epochs)}", file=out)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trace", help="binary trace file from --trace=/JIFFY_TRACE")
    ap.add_argument("--stats", action="store_true", help="summary only")
    ap.add_argument("--kind", choices=sorted(KIND_NAMES.values()),
                    help="only this event kind")
    ap.add_argument("--tid", type=int, help="only this thread id")
    ap.add_argument("--limit", type=int, default=0,
                    help="print at most N events (0 = all)")
    args = ap.parse_args()

    try:
        header, events = read_trace(args.trace)
    except (OSError, ValueError) as e:
        print(f"traceview: {args.trace}: {e}", file=sys.stderr)
        return 1

    if args.stats:
        print_stats(header, events, sys.stdout)
        return 0

    want_kind = None
    if args.kind:
        want_kind = {v: k for k, v in KIND_NAMES.items()}[args.kind]
    shown = 0
    # ts is only monotone per tid: sort by (tid, ts) so each thread's
    # protocol history reads in order; never interleave tids by raw ts.
    for ev in sorted(events, key=lambda e: (e[5], e[0])):
        if want_kind is not None and ev[3] != want_kind:
            continue
        if args.tid is not None and ev[5] != args.tid:
            continue
        print(describe(ev))
        shown += 1
        if args.limit and shown >= args.limit:
            break
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Piped through head/less that quit early; not an error. Detach
        # stdout so the interpreter's shutdown flush doesn't re-raise.
        sys.stdout = None
        sys.exit(0)
