"""Pass 4 — publication-graph verification.

The audit pass (audit.py) proves every `pairs:` tag has both a release
and an acquire side. That is necessary but not sufficient: a tag
can pair up and still be wrong — the acquire side may dereference a field
no release edge ever published, the catalog may claim a direction the code
does not implement, or an object's edges may form a cycle or fall apart
into disconnected islands (a sign the catalog no longer describes one
coherent protocol).

Schema (tools/memory_model.json, per pairs tag):

    "object"        struct whose memory the edge publishes ("Revision", ...)
    "direction"     "<release ops> -> <acquire ops>", ops from
                    {store, cas, rmw, fence, load}
    "publishes"     fields guaranteed initialized before the release
    "acquire_reads" fields the acquire side dereferences
    "after"         optional: tags whose publication this edge depends on
                    (the publication DAG; cross-object edges allowed)

Checks:
  schema-missing       a tag lacking the v2 keys or with a malformed
                       direction
  unknown-after        `after` names a tag not in the catalog
  pub-cycle            the `after` graph has a cycle (publication order
                       cannot be circular)
  disconnected-object  an object with >= 2 tags whose tags share no `after`
                       connectivity — the catalog describes two unrelated
                       protocols under one object name
  unpublished-field    an acquire side dereferences a field no release edge
                       of the same object publishes (the one-sided-tag trap
                       the pairing audit cannot see)
  direction-mismatch   a source site whose op/order role is not permitted
                       by its tag's declared direction
"""

import re

from . import textscan
from .textscan import Finding

OP_CLASSES = {"store", "cas", "rmw", "fence", "load"}
DIRECTION_RE = re.compile(r"^\s*([a-z, ]+?)\s*->\s*([a-z, ]+?)\s*$")

REQUIRED_KEYS = ("object", "direction", "publishes", "acquire_reads")


def parse_direction(spec):
    """'store,cas -> load,cas' -> (set, set); None if malformed/absent."""
    if not isinstance(spec, str):
        return None
    m = DIRECTION_RE.match(spec)
    if not m:
        return None
    rel = {s.strip() for s in m.group(1).split(",") if s.strip()}
    acq = {s.strip() for s in m.group(2).split(",") if s.strip()}
    if not rel or not acq or (rel | acq) - OP_CLASSES:
        return None
    return rel, acq


def op_class(site):
    if site.op == "fence":
        return "fence"
    if site.op in textscan.READ_OPS:
        return "load"
    if site.op in textscan.WRITE_OPS:
        return "store"
    if site.op.startswith("compare_exchange"):
        return "cas"
    return "rmw"


def catalog_findings(catalog, catalog_path, check_coverage=True):
    pairs = catalog.get("pairs", {})
    findings = []
    valid = {}

    for tag in sorted(pairs):
        entry = pairs[tag]
        missing = [k for k in REQUIRED_KEYS if k not in entry]
        dirspec = parse_direction(entry.get("direction"))
        if missing:
            findings.append(Finding(
                catalog_path, 1, "schema-missing",
                f"pairs tag '{tag}' lacks publication-graph keys: "
                f"{', '.join(missing)}"))
            continue
        if dirspec is None:
            findings.append(Finding(
                catalog_path, 1, "schema-missing",
                f"pairs tag '{tag}' has a malformed direction "
                f"'{entry.get('direction')}' (want e.g. 'store,cas -> "
                f"load,cas')"))
            continue
        valid[tag] = entry
        for dep in entry.get("after", []):
            if dep not in pairs:
                findings.append(Finding(
                    catalog_path, 1, "unknown-after",
                    f"pairs tag '{tag}' declares after: '{dep}' which is "
                    f"not in the catalog"))

    # Cycle detection over the after DAG (valid entries only).
    color = {}
    stack = []

    def visit(tag):
        color[tag] = 1
        stack.append(tag)
        for dep in valid.get(tag, {}).get("after", []):
            if dep not in valid:
                continue
            if color.get(dep) == 1:
                cyc = stack[stack.index(dep):] + [dep]
                findings.append(Finding(
                    catalog_path, 1, "pub-cycle",
                    f"publication order cycle: {' -> '.join(cyc)}"))
            elif color.get(dep, 0) == 0:
                visit(dep)
        stack.pop()
        color[tag] = 2

    for tag in sorted(valid):
        if color.get(tag, 0) == 0:
            visit(tag)

    # Per-object checks: published-field closure and connectivity.
    by_object = {}
    for tag, entry in valid.items():
        by_object.setdefault(entry["object"], []).append(tag)

    for obj in sorted(by_object):
        tags = sorted(by_object[obj])
        published = set()
        for t in tags:
            published.update(valid[t].get("publishes", []))
        for t in tags:
            for f in valid[t].get("acquire_reads", []):
                if f not in published:
                    findings.append(Finding(
                        catalog_path, 1, "unpublished-field",
                        f"tag '{t}' (object {obj}): acquire side reads "
                        f"field '{f}' but no release edge of {obj} "
                        f"publishes it"))
        if len(tags) >= 2 and check_coverage:
            parent = {t: t for t in tags}

            def find(t):
                while parent[t] != t:
                    parent[t] = parent[parent[t]]
                    t = parent[t]
                return t

            for t in tags:
                for dep in valid[t].get("after", []):
                    if dep in parent:
                        parent[find(t)] = find(dep)
            roots = {find(t) for t in tags}
            if len(roots) > 1:
                groups = {}
                for t in tags:
                    groups.setdefault(find(t), []).append(t)
                findings.append(Finding(
                    catalog_path, 1, "disconnected-object",
                    f"object {obj}: release->acquire graph is "
                    f"disconnected: "
                    + " | ".join(",".join(g)
                                 for g in sorted(groups.values()))))
    return findings, valid


def site_findings(sources, valid):
    findings = []
    for src in sources:
        for s in src.sites:
            for t in s.tags:
                entry = valid.get(t)
                if entry is None:
                    continue  # unknown-tag / schema-missing handled above
                rel_ops, acq_ops = parse_direction(entry["direction"])
                cls = op_class(s)
                roles_ok = []
                if s.release_side:
                    roles_ok.append(cls in rel_ops)
                if s.acquire_side:
                    roles_ok.append(cls in acq_ops)
                if roles_ok and not any(roles_ok):
                    findings.append(Finding(
                        s.path, s.line, "direction-mismatch",
                        f"{s.recv}.{s.op} tagged '{t}': a {cls} cannot "
                        f"play any side of the declared direction "
                        f"'{entry['direction']}'"))
    return findings


def run(sources, catalog, check_coverage=True):
    catalog_path = catalog.get("__path__", "memory_model.json")
    findings, valid = catalog_findings(catalog, catalog_path, check_coverage)
    findings.extend(site_findings(sources, valid))
    return findings
