"""Pass 5 — memory-order audit (DESIGN.md §10).

Enforces the repo's memory-model conventions over every atomic site the
text scan finds (textscan.SourceFile.sites):

  implicit-order       a load/store/exchange/CAS/fetch_* or fence names no
                       std::memory_order (the seq_cst default is banned — if
                       seq_cst is required, say so)
  invalid-order        a store with an acquire-class order or a load with a
                       release-class order
  operator-form        ++ / -- / = / += on a std::atomic variable or
                       reference: seq_cst by default and invisible to the
                       order check
  free-function        a std::atomic_* free-function call (atomic_load,
                       atomic_fetch_add_explicit, ...; qualified or found
                       by ADL), for the same reason: the per-site checks
                       see only member operations. The two fences are
                       checked as sites instead.
  unjustified-relaxed  a site whose strongest effect is memory_order_relaxed
                       carries no `// relaxed: <why>` justification
  missing-pairs        a site with release or acquire semantics carries no
                       `// pairs: <tag>` naming its publication edge
  unknown-tag          a `pairs:` tag is not in the catalog
                       (tools/memory_model.json, mirrored in DESIGN.md §10)
  orphan-release       a tag has release sites but no acquire observer
  unpaired-acquire     a tag has acquire sites but no release publisher
  stale-catalog        a catalog tag has no sites at all

The last three are coverage checks, skipped under --no-coverage. The AST
mode's `ast-missed` check (astmode.py) completes the audit: an atomic
member operation clang sees that the text scan did not.
"""

import re

from .textscan import Finding

# A std::atomic variable, member or reference declaration: the names the
# operator-form check tracks.
ATOMIC_DECL_RE = re.compile(
    r"\batomic\s*<[^;<]*?>\s*(?:&\s*|\s)(\w+)\s*[\[{;=(]")


# A std::atomic_* free function, not reached through `.`, `->` or another
# namespace; atomic_thread_fence/atomic_signal_fence are sites (FENCE_RE).
FREE_FUNCTION_RE = re.compile(
    r"(?<![\w.>:])(?:std\s*::\s*)?"
    r"(atomic_(?!thread_fence\b|signal_fence\b)\w+)\s*\(")


def is_declaration_init(code, match_start):
    """`T name = init` / `T* name = init` / `, name = default` declare a plain
    variable that merely shares the atomic's name; only flag assignments whose
    target can actually be the atomic itself."""
    prefix = code[:match_start].rstrip()
    return bool(prefix) and (prefix[-1].isalnum() or prefix[-1] in "_>*&,")


def operator_access(code, name):
    n = re.escape(name)
    for pat in (rf"(?<![\w.>]){n}\s*(\+\+|--)",
                rf"(\+\+|--)\s*{n}\b",
                rf"(?<![\w.>]){n}\s*(\+=|-=|\|=|&=|\^=)"):
        if re.search(pat, code):
            return True
    m = re.search(rf"(?<![\w.>]){n}\s*(?<![<>=!+\-*/&|^])=(?![=])", code)
    return bool(m) and not is_declaration_init(code, m.start())


def operator_form(src):
    """Operator-form access on std::atomic names declared in this file."""
    names = sorted({m.group(1) for code in src.code_lines
                    for m in ATOMIC_DECL_RE.finditer(code)})
    findings = []
    for idx, code in enumerate(src.code_lines):
        if "atomic" in code and ATOMIC_DECL_RE.search(code):
            continue  # declaration (brace-init) line
        for name in names:
            if operator_access(code, name):
                findings.append(Finding(
                    src.path, idx + 1, "operator-form",
                    f"operator access on std::atomic '{name}' "
                    f"(implicit seq_cst); use explicit "
                    f".load/.store/.fetch_* with a named order"))
    return findings


def free_function(src):
    """std::atomic_* free-function calls, whose order the sites miss."""
    return [Finding(src.path, idx + 1, "free-function",
                    f"std::{m.group(1)} free function (its order is "
                    f"invisible to the audit); use the member form "
                    f".load/.store/.fetch_* with a named order")
            for idx, code in enumerate(src.code_lines)
            for m in FREE_FUNCTION_RE.finditer(code)]


def site_findings(sites, pairs, check_coverage, catalog_path):
    findings = []
    tag_release = {}
    tag_acquire = {}

    for s in sites:
        where = f"{s.recv}.{s.op}" if s.op != "fence" else "fence"
        if not s.orders:
            findings.append(Finding(
                s.path, s.line, "implicit-order",
                f"{where} does not name a std::memory_order "
                f"(seq_cst default is banned; spell it out)"))
            continue
        if s.kind == "write" and s.orders & {"acquire", "acq_rel", "consume"}:
            findings.append(Finding(
                s.path, s.line, "invalid-order",
                f"{where}: store with an acquire-class order is undefined"))
        if s.kind == "read" and s.orders & {"release", "acq_rel"}:
            findings.append(Finding(
                s.path, s.line, "invalid-order",
                f"{where}: load with a release-class order is undefined"))
        if s.relaxed_only:
            if not s.justified_relaxed:
                findings.append(Finding(
                    s.path, s.line, "unjustified-relaxed",
                    f"{where} is memory_order_relaxed without a "
                    f"'// relaxed: <why>' justification"))
            continue
        if s.acquire_side or s.release_side:
            if not s.tags:
                findings.append(Finding(
                    s.path, s.line, "missing-pairs",
                    f"{where} ({'/'.join(sorted(s.orders))}) has no "
                    f"'// pairs: <tag>' naming its publication edge"))
            for t in s.tags:
                if t not in pairs:
                    findings.append(Finding(
                        s.path, s.line, "unknown-tag",
                        f"pairs tag '{t}' is not in the catalog "
                        f"(tools/memory_model.json)"))
                    continue
                if s.release_side:
                    tag_release.setdefault(t, []).append(s)
                if s.acquire_side:
                    tag_acquire.setdefault(t, []).append(s)

    if check_coverage:
        for t in sorted(pairs):
            rel = tag_release.get(t, [])
            acq = tag_acquire.get(t, [])
            if rel and not acq:
                s = rel[0]
                findings.append(Finding(
                    s.path, s.line, "orphan-release",
                    f"tag '{t}' has release sites but no acquire observer "
                    f"in the scanned sources"))
            elif acq and not rel:
                s = acq[0]
                findings.append(Finding(
                    s.path, s.line, "unpaired-acquire",
                    f"tag '{t}' has acquire sites but no release publisher "
                    f"in the scanned sources"))
            elif not rel and not acq:
                findings.append(Finding(
                    catalog_path, 1, "stale-catalog",
                    f"catalog tag '{t}' has no sites in the scanned sources"))
    return findings


def run(sources, catalog, check_coverage=True):
    findings = []
    for src in sources:
        findings.extend(operator_form(src))
        findings.extend(free_function(src))
    findings.extend(site_findings(
        [s for src in sources for s in src.sites], catalog.get("pairs", {}),
        check_coverage, catalog.get("__path__", "memory_model.json")))
    return findings
