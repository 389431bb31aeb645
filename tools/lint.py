#!/usr/bin/env python3
"""Unified concurrency lint driver (DESIGN.md §10–§11).

Runs the five jiffylint passes (guard-escape, retire-after-unlink, CAS
hygiene, publication-graph verification, memory-order audit) behind one
CLI, over one scan of each file:

  tools/lint.py                      # text mode over src/ + bench/harness.h
  tools/lint.py --compdb build-tsa   # + clang AST cross-checks
  tools/lint.py --passes cas src/    # a single pass over explicit roots
  tools/lint.py --output findings.txt  # CI artifact

Exit codes: 0 clean, 1 findings, 2 usage/environment error.
See tools/README.md for the rule set and the suppression grammar
(`// escapes: <why>`, `// unlink: <tag>`, `// relaxed: <why>`,
`// pairs: <tag>`).
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from jiffylint.runner import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
