#!/usr/bin/env python3
"""Self-test for the tools/jiffylint passes (via tools/lint.py).

For each pass, runs the driver over a seeded-violation fixture and asserts
the EXACT (file, kind) finding set, then over the clean twin and asserts
zero findings and exit 0. The protocol passes use jiffylint_fixtures/ with
the model_bad/model_clean catalogs; the audit uses fixtures/ with
fixtures_model.json. It also checks the clang AST walk without clang: a
hand-written dump (jiffylint_fixtures/ast_dump.json) must yield the exact
sites and cross-check findings listed below; and the one clang probe
(astmode.find_clangxx) against stub compilers on a temporary PATH. Wired
into ctest as a quick-label target (see tests/CMakeLists.txt).

Exit codes: 0 pass, 1 fail.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
LINT = os.path.join(REPO, "tools", "lint.py")
FIXTURES = os.path.join(HERE, "jiffylint_fixtures")
MODEL_BAD = os.path.join(FIXTURES, "model_bad.json")
MODEL_CLEAN = os.path.join(FIXTURES, "model_clean.json")
AUDIT_FIXTURES = os.path.join(HERE, "fixtures")
AUDIT_MODEL = os.path.join(HERE, "fixtures_model.json")
AST_SOURCE = os.path.join(FIXTURES, "ast_sites.h")
AST_DUMP = os.path.join(FIXTURES, "ast_dump.json")

FINDING_RE = re.compile(r"^(.*?):(\d+): \[([a-z-]+)\]")


def protocol_row(bad, expected, clean):
    return (["--catalog", MODEL_BAD, os.path.join(FIXTURES, bad)], expected,
            ["--catalog", MODEL_CLEAN, os.path.join(FIXTURES, clean)])


# pass -> (bad run args, expected (basename, kind) list, clean run args)
CASES = {
    "guard": protocol_row(
        "guard_bad.h",
        [
            ("guard_bad.h", "guard-escape"),
            ("guard_bad.h", "guard-escape"),
            ("guard_bad.h", "guard-escape"),
        ],
        "guard_clean.h",
    ),
    "retire": protocol_row(
        "retire_bad.h",
        [
            ("retire_bad.h", "unjustified-retire"),
            ("retire_bad.h", "unknown-unlink-tag"),
            ("retire_bad.h", "unlink-bad-ref"),
            ("retire_bad.h", "unlink-missing-edge"),
            ("model_bad.json", "stale-unlink"),
        ],
        "retire_clean.h",
    ),
    "cas": protocol_row(
        "cas_bad.h",
        [
            ("cas_bad.h", "weak-outside-loop"),
            ("cas_bad.h", "strong-tight-loop"),
            ("cas_bad.h", "stale-expected"),
            ("cas_bad.h", "invalid-failure-order"),
            ("cas_bad.h", "failure-stronger-than-success"),
            ("cas_bad.h", "cas-tag-order"),
            ("cas_bad.h", "cas-tag-order"),
        ],
        "cas_clean.h",
    ),
    "pubgraph": protocol_row(
        "pubgraph_bad.h",
        [
            ("model_bad.json", "schema-missing"),
            ("model_bad.json", "schema-missing"),
            ("model_bad.json", "unknown-after"),
            ("model_bad.json", "pub-cycle"),
            ("model_bad.json", "unpublished-field"),
            ("model_bad.json", "disconnected-object"),
            ("pubgraph_bad.h", "direction-mismatch"),
        ],
        "pubgraph_clean.h",
    ),
    "audit": (
        ["--catalog", AUDIT_MODEL, AUDIT_FIXTURES],
        [
            ("violations.h", "implicit-order"),
            ("violations.h", "unjustified-relaxed"),
            ("violations.h", "missing-pairs"),
            ("violations.h", "unknown-tag"),
            ("violations.h", "orphan-release"),
            ("violations.h", "unpaired-acquire"),
            ("violations.h", "operator-form"),
            ("violations.h", "operator-form"),
            ("violations.h", "free-function"),
            ("violations.h", "free-function"),
            ("fixtures_model.json", "stale-catalog"),
        ],
        ["--catalog", AUDIT_MODEL, "--no-coverage",
         os.path.join(AUDIT_FIXTURES, "clean.h")],
    ),
}

# What the AST walk must collect from ast_dump.json: kind -> ast_sites.h
# lines. Each member call sits on its operation token's line: also when the
# call spans two lines (23), when clang elides its line because an earlier
# sibling wrote it (24), and when it comes from a macro (26, the expansion).
AST_SITES = {"atomic": [18, 20, 23, 24, 26], "cas": [20], "retire": [27],
             "guard": [17]}
AST_FINDINGS = [(26, "ast-missed")]


def run_lint(passes, args):
    return subprocess.run(
        [sys.executable, LINT, "--passes", passes, *args],
        capture_output=True, text=True)


def parse(stdout):
    out = []
    for line in stdout.splitlines():
        m = FINDING_RE.match(line)
        if m:
            out.append((os.path.basename(m.group(1)), m.group(3)))
    return sorted(out)


def check_ast_walk():
    """The AST walk and cross-check over the hand-written dump (no clang)."""
    sys.path.insert(0, os.path.join(REPO, "tools"))
    from jiffylint import astmode, textscan

    with open(AST_DUMP, encoding="utf-8") as f:
        tree = json.load(f)
    sites = astmode.collect_ast_sites(
        tree, {os.path.realpath(AST_SOURCE)}, FIXTURES)
    got = {k: sorted(line for _path, line in v) for k, v in sites.items()}
    findings = sorted((f.line, f.kind) for f in astmode.cross_check(
        [textscan.SourceFile(AST_SOURCE)], sites))
    ok = True
    if got != AST_SITES:
        print(f"FAIL [ast]: walk collected {got}, want {AST_SITES}")
        ok = False
    if findings != AST_FINDINGS:
        print(f"FAIL [ast]: cross-check found {findings}, "
              f"want {AST_FINDINGS}")
        ok = False
    return ok


def check_clang_probe():
    """$CXX wins over the unversioned clang++ found earlier on PATH: with
    stub `clang++` and `clang++-18` first on PATH and CXX=clang++-18, the
    probe must return the clang++-18 stub."""
    sys.path.insert(0, os.path.join(REPO, "tools"))
    from jiffylint import astmode

    saved = {k: os.environ.get(k) for k in ("PATH", "CXX", "JIFFY_CLANGXX")}
    with tempfile.TemporaryDirectory() as stubs:
        for name in ("clang++", "clang++-18"):
            path = os.path.join(stubs, name)
            with open(path, "w", encoding="utf-8") as f:
                f.write("#!/bin/sh\nexit 0\n")
            os.chmod(path, 0o755)
        try:
            os.environ["PATH"] = stubs + os.pathsep + (saved["PATH"] or "")
            os.environ.pop("JIFFY_CLANGXX", None)
            os.environ["CXX"] = "clang++-18"
            got = astmode.find_clangxx()
        finally:
            for k, v in saved.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v
        want = os.path.join(stubs, "clang++-18")
        if got != want:
            print(f"FAIL [clang-probe]: find_clangxx() returned {got}, "
                  f"want {want}")
            return False
    return True


def main():
    ok = check_ast_walk()
    ok = check_clang_probe() and ok
    for name, (bad, expected, clean) in CASES.items():
        expected = sorted(expected)

        proc = run_lint(name, bad)
        got = parse(proc.stdout)
        if proc.returncode != 1:
            print(f"FAIL [{name}]: seeded run exited {proc.returncode}, "
                  f"want 1")
            print(proc.stdout, proc.stderr)
            ok = False
        if got != expected:
            print(f"FAIL [{name}]: finding mismatch on the seeded run")
            for f in sorted((Counter(expected) - Counter(got)).elements()):
                print(f"  missing:    {f}")
            for f in sorted((Counter(got) - Counter(expected)).elements()):
                print(f"  unexpected: {f}")
            print("--- lint output ---")
            print(proc.stdout)
            ok = False

        cproc = run_lint(name, clean)
        if cproc.returncode != 0 or parse(cproc.stdout):
            print(f"FAIL [{name}]: clean twin {clean[-1]} exited "
                  f"{cproc.returncode} with findings:\n{cproc.stdout}"
                  f"{cproc.stderr}")
            ok = False

    if ok:
        total = sum(len(e) for _b, e, _c in CASES.values())
        print(f"PASS: {total} expected findings across {len(CASES)} passes, "
              f"clean twins clean, AST walk sites exact, clang probe "
              f"honours $CXX")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
