"""Pass 3 — CAS-loop hygiene.

compare_exchange misuse the type system permits but the protocol does not:

  weak-outside-loop      compare_exchange_weak may fail spuriously; outside
                         a retry loop a spurious failure is a lost update.
  strong-tight-loop      `while (!x.compare_exchange_strong(...)) ;` with an
                         empty body — weak is the correct (cheaper) form
                         when the loop re-tries unconditionally.
  stale-expected         a loop that can `continue` back past the CAS
                         without ever reassigning `expected` retries with a
                         value the failed iteration already invalidated —
                         the classic ABA shape. (The canonical push loop —
                         `do { n->next = head; } while (!cas(head, ...)); `
                         — is fine: the failure writeback is the reload.)
  invalid-failure-order  failure order with release semantics is undefined.
  failure-stronger-than-success
                         C++17 relaxed the rule, but a failure order above
                         the success order is still a smell this codebase
                         bans.
  cas-tag-order          a CAS carrying a `pairs:` tag whose success order
                         cannot provide the semantics the catalog direction
                         assigns to CAS sites of that edge.
"""

import re

from . import textscan
from .textscan import Finding
from .pubgraph import parse_direction

CAS_RE = re.compile(r"[\w\]\)](?:\.|->)\s*compare_exchange_(weak|strong)\s*\(")
CONTINUE_RE = re.compile(r"(^|[^\w])continue\s*;")

ORDER_RANK = {"relaxed": 0, "consume": 1, "acquire": 2, "release": 2,
              "acq_rel": 3, "seq_cst": 4}
IDENT_RE = re.compile(r"^\s*&?\s*(\w+)\s*$")


def first_arg(span_text, open_off):
    """The expected-expression: first top-level comma-delimited argument."""
    depth = 0
    i = open_off
    start = open_off + 1
    while i < len(span_text):
        ch = span_text[i]
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
            if depth == 0:
                return span_text[start:i]
        elif ch == "," and depth == 1:
            return span_text[start:i]
        i += 1
    return span_text[start:]


def reassigned_in(src, name, lo, hi):
    """True if `name` is (re)assigned/declared anywhere in lines [lo, hi)."""
    pats = (
        rf"(?<![\w.>]){re.escape(name)}\s*(?:\[[^\]]*\])?\s*=(?![=])",
        rf"(\+\+|--)\s*{re.escape(name)}\b",
        rf"(?<![\w.>]){re.escape(name)}\s*(\+\+|--|[+\-|&^]=)",
        rf"\[[^\]]*\b{re.escape(name)}\b[^\]]*\]\s*[:=]",
        rf"[&*]\s*{re.escape(name)}\s*[,)]",  # passed by address/out-param
    )
    for i in range(max(0, lo), min(hi, len(src.code_lines))):
        code = src.code_lines[i]
        if any(re.search(p, code) for p in pats):
            return True
    return False


def run(sources, catalog, check_coverage=True):
    pairs_catalog = catalog.get("pairs", {})
    findings = []
    for src in sources:
        path = src.path
        for idx, code in enumerate(src.code_lines):
            for m in CAS_RE.finditer(code):
                strength = m.group(1)
                open_col = code.index("(", m.end() - 1)
                send, scol = src.span_close(idx, open_col)
                span = "\n".join(
                    src.code_lines[i][
                        (open_col if i == idx else 0):
                        (scol + 1 if i == send else None)]
                    for i in range(idx, send + 1))
                orders = textscan.ORDER_RE.findall(span)
                loop = src.loop_start(idx)
                line = idx + 1
                where = f"compare_exchange_{strength}"

                if strength == "weak" and loop is None:
                    findings.append(Finding(
                        path, line, "weak-outside-loop",
                        f"{where} outside any retry loop: a spurious "
                        f"failure is unhandled (use _strong, or loop)"))

                if strength == "strong":
                    stmt_start, _e, stmt = src.statement_text(idx)
                    if re.search(
                            r"(^|[^\w])while\s*\(\s*!", stmt) and \
                            stmt_start <= idx:
                        after = src.code_lines[send][scol + 1:].strip()
                        if send + 1 < len(src.code_lines) and (
                                after in (")", "") or after.endswith("(")):
                            after += " " + \
                                src.code_lines[send + 1].strip()
                        if re.match(r"^\)\s*(;|\{\s*\})", after):
                            findings.append(Finding(
                                path, line, "strong-tight-loop",
                                f"{where} as the whole body of a retry "
                                f"loop: use compare_exchange_weak (no "
                                f"work is lost on spurious failure and "
                                f"it is cheaper on LL/SC targets)"))

                if loop is not None:
                    im = IDENT_RE.match(first_arg(span, 0))
                    if im:
                        name = im.group(1)
                        if CONTINUE_RE.search("\n".join(
                                src.code_lines[loop:idx])) and \
                                not reassigned_in(src, name, loop, idx):
                            findings.append(Finding(
                                path, line, "stale-expected",
                                f"{where}: a continue path can re-reach "
                                f"this CAS without reloading expected "
                                f"'{name}' — it retries with a value the "
                                f"failed iteration already invalidated "
                                f"(reload it at the top of the loop)"))

                if len(orders) >= 2:
                    succ, fail = orders[0], orders[1]
                    if fail in ("release", "acq_rel"):
                        findings.append(Finding(
                            path, line, "invalid-failure-order",
                            f"{where}: failure order memory_order_{fail} "
                            f"is undefined (failure is a pure load)"))
                    elif ORDER_RANK.get(fail, 0) > ORDER_RANK.get(succ, 0):
                        findings.append(Finding(
                            path, line, "failure-stronger-than-success",
                            f"{where}: failure order {fail} is stronger "
                            f"than success order {succ}"))

                # Tagged CAS: the success order must be able to supply the
                # semantics the catalog assigns to CAS sites of this edge.
                tags = textscan.pairs_tags(src.comments_for(idx, send))
                succ = orders[0] if orders else None
                for t in tags:
                    entry = pairs_catalog.get(t)
                    if entry is None or succ is None:
                        continue  # unknown-tag / implicit-order: audit's job
                    dirspec = parse_direction(entry.get("direction"))
                    if dirspec is None:
                        continue  # schema-missing: pubgraph's job
                    rel_ops, acq_ops = dirspec
                    if "cas" in rel_ops and succ not in textscan.RELEASE_ORDERS:
                        findings.append(Finding(
                            path, line, "cas-tag-order",
                            f"{where} tagged '{t}': catalog direction "
                            f"makes CAS a release side of this edge, but "
                            f"success order {succ} has no release "
                            f"semantics"))
                    elif "cas" in acq_ops and "cas" not in rel_ops and \
                            succ not in textscan.ACQUIRE_ORDERS:
                        findings.append(Finding(
                            path, line, "cas-tag-order",
                            f"{where} tagged '{t}': catalog direction "
                            f"makes CAS an acquire side of this edge, but "
                            f"success order {succ} has no acquire "
                            f"semantics"))
    return findings
