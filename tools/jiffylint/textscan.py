"""Shared text-scan machinery for the jiffylint passes.

One SourceFile per scanned file holds everything the passes read: the raw
and comment-stripped lines, brace-depth geometry, and the file's atomic
sites, found once per run. Here also live the pieces every pass must agree
on: comment stripping, the comment-attachment rule, call-span tracking,
file collection and the `path:line: [kind] message` Finding format. On top
of them sit what the protocol passes need: guard-region discovery, loop
detection and protected-pointer tracking.

Comment attachment rule (keep in sync with DESIGN.md §10): a `pairs:`,
`relaxed:`, `unlink:` or `escapes:` comment binds to a site (an atomic
operation, a retire call, an escaping statement) if it trails any line of
the site's span (from the line naming the operation through the line of
its closing parenthesis), or sits in the block of consecutive comment-only
lines immediately above the statement containing the site.

Everything here is line-based and heuristic by design — the clang AST mode
(astmode.py) cross-checks that the text scan does not miss sites.
"""

import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
DEFAULT_ROOTS = ["src", os.path.join("bench", "harness.h")]
DEFAULT_CATALOG = os.path.join(REPO_ROOT, "tools", "memory_model.json")
SOURCE_EXTS = (".h", ".hpp", ".cpp", ".cc")

# Member operations of std::atomic<T> the scan recognises. wait/notify and
# atomic_flag's test* family are not used in this repo; extend if they appear.
READ_OPS = {"load"}
WRITE_OPS = {"store"}
RMW_OPS = {
    "exchange",
    "compare_exchange_strong",
    "compare_exchange_weak",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
}
ALL_OPS = READ_OPS | WRITE_OPS | RMW_OPS

OP_RE = re.compile(r"(?:\.|->)(" + "|".join(sorted(ALL_OPS)) + r")\s*\(")
FENCE_RE = re.compile(r"\batomic_(?:thread|signal)_fence\s*\(")
ORDER_RE = re.compile(r"memory_order(?:::|_)([a-z_]+)")
PAIRS_RE = re.compile(r"pairs:\s*([a-z0-9-]+(?:\s*,\s*[a-z0-9-]+)*)")
RELAXED_NOTE_RE = re.compile(r"relaxed:")

ACQUIRE_ORDERS = {"acquire", "consume", "acq_rel", "seq_cst"}
RELEASE_ORDERS = {"release", "acq_rel", "seq_cst"}


class Finding:
    def __init__(self, path, line, kind, message):
        self.path = path
        self.line = line
        self.kind = kind
        self.message = message

    def __str__(self):
        rel = os.path.relpath(self.path, REPO_ROOT)
        return f"{rel}:{self.line}: [{self.kind}] {self.message}"


def pairs_tags(comments):
    """The `pairs:` tags named in a site's attached comments."""
    tags = []
    for c in comments:
        m = PAIRS_RE.search(c)
        if m:
            tags.extend(t.strip() for t in m.group(1).split(","))
    return tags


class Site:
    """One atomic operation: location, kind, orders, attached comments."""

    def __init__(self, path, line, op, recv, orders, comments):
        self.path = path
        self.line = line
        self.op = op
        self.recv = recv
        self.orders = orders
        self.tags = pairs_tags(comments)
        self.justified_relaxed = any(RELAXED_NOTE_RE.search(c) for c in comments)

    @property
    def kind(self):
        if self.op in READ_OPS:
            return "read"
        if self.op in WRITE_OPS:
            return "write"
        if self.op == "fence":
            return "fence"
        return "rmw"

    @property
    def acquire_side(self):
        return self.kind in ("read", "rmw", "fence") and bool(
            self.orders & ACQUIRE_ORDERS)

    @property
    def release_side(self):
        return self.kind in ("write", "rmw", "fence") and bool(
            self.orders & RELEASE_ORDERS)

    @property
    def relaxed_only(self):
        return self.orders == {"relaxed"}


def strip_comments_line(line):
    """Remove a trailing // comment, ignoring // inside string literals."""
    out = []
    in_str = None
    i = 0
    while i < len(line):
        ch = line[i]
        if in_str:
            if ch == "\\":
                out.append(line[i:i + 2])
                i += 2
                continue
            if ch == in_str:
                in_str = None
            out.append(ch)
        else:
            if ch in "\"'":
                in_str = ch
                out.append(ch)
            elif ch == "/" and line[i:i + 2] == "//":
                break
            else:
                out.append(ch)
        i += 1
    return "".join(out)


def line_comment(line):
    code = strip_comments_line(line)
    rest = line[len(code):]
    return rest.strip() if rest.strip().startswith("//") else ""


def is_comment_only(line):
    return line.strip().startswith("//")


def statement_start(code_lines, idx):
    """Walk up from line idx to the first line of the enclosing statement."""
    while idx > 0:
        prev = code_lines[idx - 1].rstrip()
        if not prev.strip():
            break
        if is_comment_only(prev):
            break
        if prev.endswith((";", "{", "}", ":", ")")) and not prev.endswith("::"):
            # `)` ends for(...)/if(...) headers; treat as a boundary too.
            break
        idx -= 1
    return idx


def attached_comments(raw_lines, code_lines, start_idx, end_idx):
    """Comments bound to the call span [start_idx, end_idx] (module doc)."""
    comments = []
    for i in range(start_idx, min(end_idx + 1, len(raw_lines))):
        c = line_comment(raw_lines[i])
        if c:
            comments.append(c)
    stmt = statement_start(code_lines, start_idx)
    j = stmt - 1
    block = []
    while j >= 0 and is_comment_only(raw_lines[j]):
        block.append(raw_lines[j].strip())
        j -= 1
    comments.extend(reversed(block))
    return comments


def collect_files(roots):
    files = []
    for r in roots:
        p = r if os.path.isabs(r) else os.path.join(REPO_ROOT, r)
        if os.path.isfile(p):
            files.append(p)
        elif os.path.isdir(p):
            for dirpath, _dirs, names in os.walk(p):
                for n in sorted(names):
                    if n.endswith(SOURCE_EXTS):
                        files.append(os.path.join(dirpath, n))
        else:
            print(f"lint: no such path: {r}", file=sys.stderr)
            sys.exit(2)
    return files

ESCAPES_RE = re.compile(r"escapes:\s*\S")
ESCAPES_MACRO_RE = re.compile(r"\bJIFFY_LINT_ESCAPES\s*\(")
UNLINK_RE = re.compile(r"unlink:\s*([a-z0-9-]+)")
UNLINK_MACRO_RE = re.compile(r"\bJIFFY_LINT_UNLINK\s*\(\s*([a-z0-9-]+)\s*\)")

# Local RAII guard construction. Members follow the `name_` convention and
# are excluded (a member guard is a class invariant, not a lexical scope;
# SnapCursor/Snapshot document theirs via JIFFY_REQUIRES(guard_, ...)).
GUARD_LOCAL_RE = re.compile(r"\bebr::Guard\s+(\w+)\s*[;({]")
REQUIRES_RE = re.compile(r"\bJIFFY_REQUIRES(?:_GUARD)?\s*\(\s*(\w+)")
GUARD_PARAM_RE = re.compile(r"ebr::Guard\s*&\s*(\w+)")

LOOP_HEADER_RE = re.compile(r"(^|[^\w])(for|while|do)($|[^\w])")


class SourceFile:
    """One scanned file: raw/code lines, brace-depth geometry and its atomic
    sites."""

    def __init__(self, path):
        self.path = path
        with open(path, encoding="utf-8") as f:
            self.raw_lines = f.read().splitlines()
        self.code_lines = [strip_comments_line(l) for l in self.raw_lines]
        self._depths()
        self.sites = self._scan_sites()

    def _scan_sites(self):
        sites = []
        for idx, code in enumerate(self.code_lines):
            for m in list(OP_RE.finditer(code)) + list(FENCE_RE.finditer(code)):
                if m.re is OP_RE:
                    op = m.group(1)
                    head = code[:m.start()].split()
                    recv = (re.split(r"[^\w.\->\[\]_]", head[-1])[-1]
                            if head else "") or "?"
                else:
                    op = "fence"
                    recv = "fence"
                open_col = code.index("(", m.end() - 1)
                end_idx, _col = self.span_close(idx, open_col)
                span_text = "\n".join(self.code_lines[idx:end_idx + 1])
                orders = set(ORDER_RE.findall(span_text))
                sites.append(Site(self.path, idx + 1, op, recv, orders,
                                  self.comments_for(idx, end_idx)))
        return sites

    def _scan_braces(self, line, depth):
        """Brace depth after `line`, skipping string and char literals."""
        i = 0
        while i < len(line):
            ch = line[i]
            if ch in "\"'":
                q = ch
                i += 1
                while i < len(line):
                    if line[i] == "\\":
                        i += 2
                        continue
                    if line[i] == q:
                        break
                    i += 1
            elif ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
            i += 1
        return depth

    def _depths(self):
        # pre_depth[i] = brace depth at the start of line i.
        self.pre_depth = []
        d = 0
        for line in self.code_lines:
            self.pre_depth.append(d)
            d = self._scan_braces(line, d)
        self.pre_depth.append(d)

    def statement_text(self, idx, max_lines=8):
        """(start, end, joined code) of the statement containing line idx."""
        start = statement_start(self.code_lines, idx)
        end = idx
        while (end < len(self.code_lines) - 1 and end - start < max_lines
               and not self.code_lines[end].rstrip().endswith(
                   (";", "{", "}", ":"))):
            end += 1
        return start, end, " ".join(
            self.code_lines[i].strip() for i in range(start, end + 1))

    def comments_for(self, start_idx, end_idx):
        return attached_comments(
            self.raw_lines, self.code_lines, start_idx, end_idx)

    def scope_end(self, decl_idx):
        """Last line of the brace scope a statement at decl_idx lives in."""
        d = self.pre_depth[decl_idx]
        for j in range(decl_idx + 1, len(self.code_lines)):
            if self.pre_depth[j] < d:
                return j - 1
        return len(self.code_lines) - 1

    def body_after(self, idx, col):
        """(open_line, close_line) of the first {...} block after (idx, col),
        or None if a ';' occurs first (pure declaration)."""
        i, j = idx, col
        while i < len(self.code_lines):
            line = self.code_lines[i]
            while j < len(line):
                ch = line[j]
                if ch == ";":
                    return None
                if ch == "{":
                    d_open = self._scan_braces(line[:j], self.pre_depth[i]) + 1
                    if i + 1 >= len(self.code_lines) or \
                            self.pre_depth[i + 1] < d_open:
                        return i, i  # body opened and closed on one line
                    return i, self.scope_end(i + 1)
                j += 1
            i += 1
            j = 0
        return None

    def span_close(self, idx, open_col):
        """(line, col) of the ')' matching the '(' at (idx, open_col)."""
        depth = 0
        i, j = idx, open_col
        while i < len(self.code_lines):
            line = self.code_lines[i]
            while j < len(line):
                ch = line[j]
                if ch == "(":
                    depth += 1
                elif ch == ")":
                    depth -= 1
                    if depth == 0:
                        return i, j
                j += 1
            i += 1
            j = 0
        return idx, max(0, len(self.code_lines[idx]) - 1)

    def loop_start(self, idx):
        """Header-statement start line of the innermost loop enclosing line
        idx, or None. Handles brace bodies, sites inside the loop header
        itself (`while (x.compare_exchange...)`), the do{}while footer, and
        a braceless loop body directly under its header."""
        stmt_start, _e, stmt = self.statement_text(idx)
        # Site in a for/while header.
        if re.search(r"(^|[^\w])(for|while)\s*\(", stmt) and not re.match(
                r"\s*\}", self.code_lines[stmt_start]):
            return stmt_start
        # Site in a do { ... } while(cond) footer: find the matching `do`.
        if re.match(r"\s*\}\s*while\s*\(", self.code_lines[stmt_start]):
            d = self.pre_depth[stmt_start]
            for k in range(stmt_start - 1, -1, -1):
                if self.pre_depth[k] < d:
                    return k
            return None
        # Braceless body: the previous statement is a header ending in `)`.
        if stmt_start > 0:
            prev = self.code_lines[stmt_start - 1].rstrip()
            if prev.endswith(")"):
                _hs, _he, header = self.statement_text(stmt_start - 1)
                if re.search(r"(^|[^\w])(for|while)\s*\(", header):
                    return statement_start(
                        self.code_lines, stmt_start - 1)
        # Walk up the scope openers.
        cur = self.pre_depth[idx]
        for k in range(idx - 1, -1, -1):
            if self.pre_depth[k] < cur:
                cur = self.pre_depth[k]
                hs, _he, header = self.statement_text(k)
                if LOOP_HEADER_RE.search(header):
                    return hs
        return None


def bare_use_re(name):
    """A use of `name` as the pointer value itself: not a member access on
    it, not a call, not a field of another object, not a dereference."""
    return re.compile(
        rf"(?<![\w.*])(?<!>){re.escape(name)}\b(?!\s*(?:->|\.|\(|::))")


def has_bare_use(text, names):
    return any(bare_use_re(n).search(text) for n in names)


class GuardRegion:
    """A lexical range in which raw node/revision pointers are guard-
    protected. kind 'local': RAII ebr::Guard in a block — protected pointers
    must not outlive it at all. kind 'requires': body of a
    JIFFY_REQUIRES_GUARD function — the caller holds the guard, so returning
    a protected pointer is sanctioned there, but member-field stores still
    are not."""

    def __init__(self, kind, guard, start, end):
        self.kind = kind
        self.guard = guard
        self.start = start
        self.end = end


def find_guard_regions(src):
    """All guard regions in a SourceFile, plus the (line) set of
    JIFFY_REQUIRES macro sites (for the AST cross-check)."""
    regions = []
    macro_lines = set()
    for idx, code in enumerate(src.code_lines):
        m = GUARD_LOCAL_RE.search(code)
        if m and not m.group(1).endswith("_"):
            regions.append(GuardRegion(
                "local", m.group(1), idx, src.scope_end(idx)))
            continue
        m = REQUIRES_RE.search(code)
        if m:
            macro_lines.add(idx + 1)
            body = src.body_after(idx, m.end())
            if body is None:
                continue
            sig_start = statement_start(src.code_lines, idx)
            sig = " ".join(src.code_lines[i] for i in range(sig_start, idx + 1))
            pm = GUARD_PARAM_RE.search(sig)
            guard = pm.group(1) if pm else m.group(1)
            regions.append(GuardRegion("requires", guard, sig_start, body[1]))
    return regions, macro_lines
