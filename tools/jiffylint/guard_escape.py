"""Pass 1 — guard-escape / lifetime.

A raw pointer to EBR-protected memory (node, revision, version cell, entry)
obtained inside a guard region is only valid while that guard is alive.
This pass flags statements that let such a pointer outlive the region:

  * a store into a member field (`name_ = p`, `this->name_ = p`, or a
    member-container mutation like `pending_.push_back(p)`) — members
    outlive any lexical guard;
  * a `return p;` from a *local*-guard region (functions annotated
    JIFFY_REQUIRES_GUARD may return protected pointers: their caller holds
    the guard).

Protected pointers are tracked per region: declarations whose type names a
protected struct (including through `*`, arrays and template arguments),
`new <ProtectedType>` bindings, and structured bindings whose initializer
mentions a tracked pointer or the region's guard (anything derived from a
guarded call is itself guarded).

Suppression: `// escapes: <why>` attached to the statement (trailing or in
the comment block above it, same attachment rule as the audit) or a
JIFFY_LINT_ESCAPES(why) marker in the statement. The justification should
say which mechanism re-protects the pointer (a member guard, a flag
handoff, quiescence), not what the line does.
"""

import re

from . import textscan
from .textscan import Finding

DEFAULT_PROTECTED_TYPES = (
    "JiffyNode", "Node", "Rev", "Revision", "Entry", "VersionCell",
    "BatchDescriptor",
)

MEMBER_STORE_RE = re.compile(r"(?:^|[^\w.>])(?:this->)?(\w+_)"
                             r"\s*(?:\[[^\]]*\])?\s*=(?![=])")
MEMBER_CONTAINER_RE = re.compile(
    r"(?:^|[^\w.>])(?:this->)?(\w+_)\s*\.\s*"
    r"(push_back|emplace_back|emplace|insert|push|assign|append)\s*\(")
RETURN_RE = re.compile(r"(^|[^\w])return($|[^\w])")
BINDING_RE = re.compile(r"\bauto\s*&?\s*\[([^\]]+)\]\s*([:=])")
NEW_RE_TMPL = r"\bauto\s*\*?\s*(?:const\s+)?(\w+)\s*=\s*new\s+(?:{types})\b"
# Callees whose return value aggregates its pointer arguments — passing a
# guarded pointer to these DOES escape it through the return value.
AGGREGATING_CALLEES_RE = re.compile(
    r"^(?:std\s*::\s*)?(?:make_pair|make_tuple|pair|tuple|tie|"
    r"forward_as_tuple)\s*$")
CALL_HEAD_RE = re.compile(r"^\s*([\w:]+)\s*\(")


def _return_escapes(expr, tracked):
    """True when `return <expr>;` lets a tracked pointer leave the region.

    Two refinements over a bare name search:
      * boolean/comparison uses (`!p`, `p == q`, `p != nullptr`, `p ? a : b`)
        yield a value, not the pointer — strip them first;
      * a single top-level call `f(p, ...)` runs while the guard is held;
        only its *result* escapes, and f is analyzed on its own (except the
        std aggregators above, which pack the pointer into the result).
    """
    expr = expr.strip().rstrip(";").strip()
    m = CALL_HEAD_RE.match(expr)
    if m and not AGGREGATING_CALLEES_RE.match(m.group(1)):
        depth = 0
        for i in range(m.end() - 1, len(expr)):
            if expr[i] == "(":
                depth += 1
            elif expr[i] == ")":
                depth -= 1
                if depth == 0:
                    if not expr[i + 1:].strip():
                        return False  # the call IS the whole expression
                    break
    for name in tracked:
        n = re.escape(name)
        expr = re.sub(rf"!\s*{n}\b", " ", expr)
        expr = re.sub(rf"\b{n}\s*(==|!=|<=|>=|\?)", r" \1", expr)
        expr = re.sub(rf"(==|!=)\s*{n}\b", r"\1 ", expr)
    return textscan.has_bare_use(expr, tracked)


def _decl_res(types):
    t = "|".join(types)
    return [
        # Type* name / Type *name / Type** name / const Type* const name —
        # terminated like a declarator (also `,`/`)` for parameters and `:`
        # for range-for).
        re.compile(rf"\b(?:{t})\b(?:<[^;()]*>)?[\s*&]*\*[\s*]*"
                   rf"(?:const\s+)?(\w+)\s*(?:[=;,)\[:]|$)"),
        # A container/pair holding protected pointers: the whole object is
        # guard-lifetime (vector<pair<Node*, u64>> cand; ...).
        re.compile(rf"<[^;=]*\b(?:{t})\s*\*[^;=]*>\s*&?\s*(\w+)\s*(?:[;{{=(]|$)"),
        re.compile(NEW_RE_TMPL.format(types=t)),
    ]


def scan(src, protected_types=None, list_regions=False):
    types = tuple(protected_types or DEFAULT_PROTECTED_TYPES)
    decl_res = _decl_res(types)
    findings = []
    regions, _macros = textscan.find_guard_regions(src)
    if list_regions:
        for r in regions:
            print(f"{src.path}:{r.start + 1}-{r.end + 1}: "
                  f"{r.kind} guard '{r.guard}'")

    for region in regions:
        tracked = set()
        flagged_stmts = set()
        for idx in range(region.start, min(region.end + 1,
                                           len(src.code_lines))):
            code = src.code_lines[idx]
            if not code.strip():
                continue
            # Grow the tracked set first: declarations on this line.
            for dre in decl_res:
                for m in dre.finditer(code):
                    tracked.add(m.group(1))
            bm = BINDING_RE.search(code)
            if bm:
                _s, _e, stmt = src.statement_text(idx)
                init = stmt[stmt.find("]") + 1:]
                if textscan.has_bare_use(init, tracked | {region.guard}):
                    tracked.update(
                        n.strip() for n in bm.group(1).split(",") if n.strip())
            if not tracked:
                continue

            escape = None
            ms = MEMBER_STORE_RE.search(code)
            if ms:
                _s, send, stmt = src.statement_text(idx)
                rhs = stmt[stmt.find("=", stmt.find(ms.group(1))) + 1:]
                if textscan.has_bare_use(rhs, tracked):
                    escape = (f"guarded pointer stored to member "
                              f"'{ms.group(1)}' outlives guard "
                              f"'{region.guard}'")
            if escape is None:
                mc = MEMBER_CONTAINER_RE.search(code)
                if mc:
                    _s, send, stmt = src.statement_text(idx)
                    args = stmt[stmt.find(mc.group(2)) :]
                    if textscan.has_bare_use(args, tracked):
                        escape = (f"guarded pointer stored into member "
                                  f"container '{mc.group(1)}' outlives "
                                  f"guard '{region.guard}'")
            if escape is None and region.kind == "local":
                if RETURN_RE.search(code):
                    _s, send, stmt = src.statement_text(idx)
                    if _return_escapes(
                            stmt[stmt.find("return") + 6:], tracked):
                        escape = (f"guarded pointer returned past local "
                                  f"guard '{region.guard}' "
                                  f"(scope ends at line {region.end + 1})")
            if escape is None:
                continue

            stmt_start, span_end, _stmt = src.statement_text(idx)
            if stmt_start in flagged_stmts:
                continue
            comments = src.comments_for(stmt_start, span_end)
            code_span = " ".join(
                src.code_lines[i] for i in range(stmt_start, span_end + 1))
            if any(textscan.ESCAPES_RE.search(c) for c in comments) or \
                    textscan.ESCAPES_MACRO_RE.search(code_span):
                continue
            flagged_stmts.add(stmt_start)
            findings.append(Finding(
                src.path, idx + 1, "guard-escape",
                escape + "; justify with '// escapes: <why>' if re-protected"))
    return findings


def run(sources, catalog, list_regions=False):
    protected = catalog.get("protected_types") or DEFAULT_PROTECTED_TYPES
    findings = []
    for src in sources:
        findings.extend(scan(src, protected, list_regions))
    return findings
