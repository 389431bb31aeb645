#!/usr/bin/env python3
"""Compile-checks the Clang thread-safety-analysis fixtures.

guarded_fixture.cpp must compile cleanly and unguarded_fixture.cpp must be
REJECTED under `-Wthread-safety -Werror=thread-safety` — proving both that
the capability annotations in src/common/analysis.h catch un-guarded node
access and that they don't false-positive on the sanctioned assert_held()
pattern.

Needs a clang++, found by the probe `lint.py --compdb` also uses
(jiffylint.astmode.find_clangxx: $JIFFY_CLANGXX, $CXX if it is clang, then
clang++ on PATH); without one the check is skipped with exit code 77, which
ctest maps to SKIPPED via SKIP_RETURN_CODE (a GCC-only host takes this path;
the CI lint job provides clang and runs it for real).

Exit codes: 0 pass, 1 fail, 77 skipped (no clang).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(REPO, "tools"))

from jiffylint.astmode import find_clangxx  # noqa: E402

FLAGS = [
    "-std=c++20",
    "-fsyntax-only",
    "-I", os.path.join(REPO, "src"),
    "-Wthread-safety",
    "-Werror=thread-safety",
]


def compile_fixture(clangxx, name):
    return subprocess.run(
        [clangxx] + FLAGS + [os.path.join(HERE, name)],
        capture_output=True, text=True)


def main():
    clangxx = find_clangxx()
    if clangxx is None:
        print("SKIP: no clang++ found (set $JIFFY_CLANGXX); thread-safety "
              "analysis needs Clang")
        return 77

    ok = True

    good = compile_fixture(clangxx, "guarded_fixture.cpp")
    if good.returncode != 0:
        print(f"FAIL: guarded_fixture.cpp should compile but did not:\n"
              f"{good.stderr}")
        ok = False

    bad = compile_fixture(clangxx, "unguarded_fixture.cpp")
    if bad.returncode == 0:
        print("FAIL: unguarded_fixture.cpp compiled; -Wthread-safety did "
              "not reject the un-guarded call")
        ok = False
    elif "thread-safety" not in bad.stderr and "requires holding" not in bad.stderr:
        print(f"FAIL: unguarded_fixture.cpp failed for the wrong reason:\n"
              f"{bad.stderr}")
        ok = False

    if ok:
        print(f"PASS: thread-safety analysis accepts the guarded fixture "
              f"and rejects the unguarded one ({clangxx})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
