"""Clang AST cross-check for the jiffylint text passes (--compdb).

Dumps one translation unit from compile_commands.json as JSON (`clang++
-Xclang -ast-dump=json`), once per run, and walks it once to verify the
text scan's site discovery against what the compiler actually parsed. The
AST is treated as ground truth for *existence*; the rules stay in the text
passes (so the text mode and the AST mode can never disagree about rules,
only about coverage).

Cross-checks (each a finding when the AST sees a site the text scan missed):

  ast-missed         atomic member operations (load/store/exchange/CAS/
                     fetch_*) the audit's site scan did not recognise
  ast-missed-cas     compare_exchange_{weak,strong} MemberExprs
  ast-missed-retire  DeclRefExprs to ebr::retire / retire_fn / retire_shell
                     (src/ebr/ excluded, same as the retire pass)
  ast-missed-guard   RequiresCapabilityAttr expansion sites
                     (JIFFY_REQUIRES / JIFFY_REQUIRES_GUARD macro lines)

Locations: clang writes a location's `file` and `line` only when they
differ from the location it wrote last, in output order (not from the
parent node's), and a macro location as a spellingLoc then an
expansionLoc. The walk replays that state in document order and places a
node at the end of its range's expansion: a member call's operation token,
a retire's callee name, an attribute's macro line.

Requires a clang++ (find_clangxx below); exits 2 when none is found.
"""

import json
import os
import shutil
import subprocess
import sys

from . import retire, textscan
from .textscan import Finding

CAS_OPS = {"compare_exchange_weak", "compare_exchange_strong"}
RETIRE_FNS = {"retire", "retire_fn", "retire_shell"}
SITE_KINDS = ("atomic", "cas", "retire", "guard")

#: Versioned binary names distros ship without a bare `clang++` symlink
#: (newest first, matching the CI pin range).
CLANG_VERSIONS = range(19, 14, -1)


def find_clangxx():
    """The clang++ every clang-driven check uses (this AST mode and
    tools/tests/check_thread_safety.py): $JIFFY_CLANGXX, then $CXX, then
    clang++ and clang++-19 ... clang++-15, then clang and clang-19 ...
    clang-15. A candidate counts only if it is on PATH and its file name
    names clang, so a GCC $CXX is passed over."""
    candidates = [os.environ.get("JIFFY_CLANGXX"), os.environ.get("CXX"),
                  "clang++"]
    candidates += [f"clang++-{v}" for v in CLANG_VERSIONS]
    candidates.append("clang")
    candidates += [f"clang-{v}" for v in CLANG_VERSIONS]
    for cand in candidates:
        path = shutil.which(cand) if cand else None
        if path and "clang" in os.path.basename(path):
            return path
    return None


def fail(msg):
    print(f"jiffylint: {msg}", file=sys.stderr)
    sys.exit(2)


def dump_tu(compdb_dir, tu_substring):
    """(AST JSON, compile directory) of the first TU matching tu_substring."""
    clangxx = find_clangxx()
    if clangxx is None:
        fail("--compdb needs clang++ (set $JIFFY_CLANGXX)")
    compdb_path = os.path.join(compdb_dir, "compile_commands.json")
    if not os.path.isfile(compdb_path):
        fail(f"{compdb_path} not found "
             f"(configure with CMAKE_EXPORT_COMPILE_COMMANDS=ON)")
    with open(compdb_path, encoding="utf-8") as f:
        compdb = json.load(f)
    entry = next((e for e in compdb if tu_substring in e["file"]), None)
    if entry is None:
        fail(f"no TU matching '{tu_substring}' in compdb")
    if "arguments" in entry:
        args = list(entry["arguments"])[1:]
    else:
        args = entry["command"].split()[1:]
    # Drop -o/-c and any GCC-only flags clang chokes on; add the dump flags.
    cleaned = []
    skip = False
    for a in args:
        if skip:
            skip = False
            continue
        if a == "-o":
            skip = True
            continue
        if a in ("-c", "-fconcepts-diagnostics-depth=2"):
            continue
        cleaned.append(a)
    cmd = [clangxx] + cleaned + [
        "-fsyntax-only", "-Wno-everything", "-Xclang", "-ast-dump=json"]
    directory = entry.get("directory", compdb_dir)
    proc = subprocess.run(cmd, cwd=directory, capture_output=True, text=True)
    if proc.returncode != 0:
        fail(f"clang AST dump failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout), directory


def collect_ast_sites(tree, audited, base_dir):
    """{kind: {(realpath, line)}} for the SITE_KINDS clang sees in the
    audited files; relative file names resolve against base_dir."""
    sites = {k: set() for k in SITE_KINDS}
    last = {"file": None, "line": None}
    real = {}

    def advance(loc):
        if not loc:
            return
        if "spellingLoc" in loc or "expansionLoc" in loc:
            advance(loc.get("spellingLoc"))
            advance(loc.get("expansionLoc"))
            return
        for key in ("file", "line"):
            if key in loc:
                last[key] = loc[key]

    stack = [tree]
    while stack:
        node = stack.pop()
        if not isinstance(node, dict):
            continue
        advance(node.get("loc"))
        rng = node.get("range") or {}
        advance(rng.get("begin"))
        advance(rng.get("end"))
        stack.extend(reversed(node.get("inner") or []))

        kind = node.get("kind")
        ref = node.get("referencedDecl") or {}
        if kind == "MemberExpr" and node.get("name") in textscan.ALL_OPS:
            found = ["atomic"] + (["cas"] if node["name"] in CAS_OPS else [])
        elif kind == "DeclRefExpr" and ref.get("name") in RETIRE_FNS and \
                ref.get("kind") == "FunctionDecl":
            found = ["retire"]
        elif kind == "RequiresCapabilityAttr":
            found = ["guard"]
        else:
            continue
        f = last["file"]
        if f not in real:
            real[f] = f and os.path.realpath(os.path.join(base_dir, f))
        if real[f] in audited:
            for k in found:
                sites[k].add((real[f], last["line"]))
    return sites


def cross_check(sources, ast):
    """Findings for AST sites (collect_ast_sites) the text scan missed."""
    text = {k: set() for k in SITE_KINDS}
    for src in sources:
        real = os.path.realpath(src.path)
        for s in src.sites:
            text["atomic"].add((real, s.line))
            if s.op in CAS_OPS:
                text["cas"].add((real, s.line))
        if not retire.is_ebr_impl(src.path):
            for idx, _tags, _send in retire.retire_sites(src):
                text["retire"].add((real, idx + 1))
        _regions, macro_lines = textscan.find_guard_regions(src)
        text["guard"].update((real, ln) for ln in macro_lines)

    findings = []
    checks = (
        ("atomic", 0, "ast-missed",
         "clang AST sees an atomic member operation here that the text "
         "scan did not recognise"),
        ("cas", 0, "ast-missed-cas",
         "clang sees a compare_exchange here that the text scan missed"),
        ("retire", 0, "ast-missed-retire",
         "clang sees an ebr::retire call here that the text scan missed"),
        # Attr locations can land a line off the macro on wrapped
        # signatures; this is an existence check, so allow a small window.
        ("guard", 2, "ast-missed-guard",
         "clang sees a RequiresCapabilityAttr here that the text scan "
         "missed"),
    )
    for key, fuzz, kind, msg in checks:
        for file, line in sorted(ast[key], key=lambda loc: (
                loc[0], loc[1] or 0)):
            if key == "retire" and retire.is_ebr_impl(file):
                continue
            if line is not None and any(
                    (file, line + d) in text[key]
                    for d in range(-fuzz, fuzz + 1)):
                continue
            findings.append(Finding(file, line or 0, kind, msg))
    return findings


def run(sources, compdb_dir, tu_substring):
    tree, directory = dump_tu(compdb_dir, tu_substring)
    audited = {os.path.realpath(src.path) for src in sources}
    return cross_check(sources, collect_ast_sites(tree, audited, directory))
