"""Pass 2 — retire-after-unlink.

ebr::retire hands memory to the collector on the promise that no new
references can be created — i.e. the object was unlinked (install CAS
replaced the last pointer to it) or condemned (the purge protocol's sticky
flag plus a clean post-drain sweep). The compiler cannot check that
promise, so every retire site must name the protocol edge that makes it
true:

    ebr::retire_fn(x, &delete_dead_node);  // unlink: purge-shell

The tag is declared in the `unlink` section of tools/memory_model.json (the
machine-readable form of the DESIGN.md §9 reclamation catalog). Each entry
describes the dominating unlink and lists, under `via`, the publication-
edge tags (from the `pairs` catalog) whose release sites perform it. The
pass verifies:

  * every retire call site carries `// unlink: <tag>` (or
    JIFFY_LINT_UNLINK(tag))                                → unjustified-retire
  * the tag exists in the unlink catalog                   → unknown-unlink-tag
  * its `via` edges exist in the pairs catalog             → unlink-bad-ref
  * each via edge has at least one release-capable site in
    the scanned sources (delete the install CAS and the
    retire that depended on it starts failing)             → unlink-missing-edge
  * no unlink catalog entry is dead                        → stale-unlink

src/ebr/ itself is excluded: it is the collector's implementation, not a
protocol user (its internal retire_fn forwarding is the mechanism the tags
describe).
"""

import os
import re

from . import textscan
from .textscan import Finding

RETIRE_RE = re.compile(r"\bebr::retire(?:_fn)?\s*\(|\bretire_shell\s*\(")
EBR_IMPL_DIR = os.path.join("src", "ebr")


def is_ebr_impl(path):
    rel = os.path.relpath(path, textscan.REPO_ROOT)
    return rel.startswith(EBR_IMPL_DIR + os.sep) or rel == EBR_IMPL_DIR


def retire_sites(src):
    """[(line_idx, tags, span_end)] for retire calls in one SourceFile."""
    out = []
    for idx, code in enumerate(src.code_lines):
        m = RETIRE_RE.search(code)
        if m is None:
            continue
        open_col = code.index("(", m.end() - 1)
        send, _c = src.span_close(idx, open_col)
        comments = src.comments_for(idx, send)
        tags = []
        for c in comments:
            tags.extend(textscan.UNLINK_RE.findall(c))
        span = " ".join(src.code_lines[i] for i in range(idx, send + 1))
        tags.extend(textscan.UNLINK_MACRO_RE.findall(span))
        out.append((idx, tags, send))
    return out


def run(sources, catalog, check_coverage=True):
    unlink_catalog = catalog.get("unlink", {})
    pairs_catalog = catalog.get("pairs", {})
    findings = []
    used_tags = set()

    # Release-capable pairs sites in the scanned sources, per tag — the
    # ground truth that a via edge actually exists in the code.
    release_tags = {t for src in sources for s in src.sites
                    if s.release_side for t in s.tags}

    for src in sources:
        if is_ebr_impl(src.path):
            continue
        for idx, tags, _send in retire_sites(src):
            line = idx + 1
            if not tags:
                findings.append(Finding(
                    src.path, line, "unjustified-retire",
                    "retire call without '// unlink: <tag>' naming the "
                    "unlink CAS / condemn marker that dominates it "
                    "(catalog: tools/memory_model.json `unlink`)"))
                continue
            for t in tags:
                used_tags.add(t)
                entry = unlink_catalog.get(t)
                if entry is None:
                    findings.append(Finding(
                        src.path, line, "unknown-unlink-tag",
                        f"unlink tag '{t}' is not in the catalog "
                        f"(tools/memory_model.json `unlink`)"))
                    continue
                for via in entry.get("via", []):
                    if via not in pairs_catalog:
                        findings.append(Finding(
                            src.path, line, "unlink-bad-ref",
                            f"unlink tag '{t}' references pairs tag "
                            f"'{via}' which is not in the catalog"))
                    elif via not in release_tags:
                        findings.append(Finding(
                            src.path, line, "unlink-missing-edge",
                            f"unlink tag '{t}' claims dominance via "
                            f"'{via}', but no release site of that edge "
                            f"exists in the scanned sources"))

    if check_coverage:
        for t in sorted(unlink_catalog):
            if t not in used_tags:
                findings.append(Finding(
                    catalog.get("__path__", "memory_model.json"), 1,
                    "stale-unlink",
                    f"unlink catalog tag '{t}' has no retire sites in the "
                    f"scanned sources"))
    return findings
