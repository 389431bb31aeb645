"""jiffylint — concurrency static analysis for the Jiffy engine.

Five passes over the sources (DESIGN.md §10–§11). Each file is read and its
atomic sites are scanned once per run (textscan.SourceFile); every pass
works from that one scan.

  guard     guard-escape / lifetime: a raw node or revision pointer obtained
            inside an ebr::Guard scope (local RAII guard or a
            JIFFY_REQUIRES_GUARD entry point) must not be stored to a member
            field or returned past the guard's lifetime unless the site
            carries a `// escapes: <why>` justification.
  retire    retire-after-unlink: every ebr::retire / ebr::retire_fn /
            retire_shell call site names the unlink edge that dominates it
            via `// unlink: <tag>`, keyed off the `unlink` catalog in
            tools/memory_model.json (the machine-readable DESIGN.md §9
            reclamation protocol).
  cas       CAS-loop hygiene: weak-outside-loop, strong-in-tight-loop,
            ABA-prone retries whose `expected` is never reloaded on a
            continue path, invalid/over-strong failure orders, and tagged
            CAS orders inconsistent with the catalog direction.
  pubgraph  publication-graph verification: every pairs tag in the catalog
            declares its object, direction (release ops -> acquire ops),
            published-field set and acquire-read set; the per-object
            release→acquire graph must be connected and acyclic, no acquire
            side may dereference a field no release edge publishes, and
            source sites must match their tag's declared direction.
  audit     memory-order audit: every atomic site names its order, relaxed
            sites carry `// relaxed: <why>`, release/acquire sites carry a
            `// pairs: <tag>` that pairs up in the catalog, and no atomic is
            touched through an operator.

Entry point: tools/lint.py (text mode by default; --compdb adds the clang
AST cross-check of astmode.py, one TU dump per run).
"""

PASS_NAMES = ("guard", "retire", "cas", "pubgraph", "audit")
