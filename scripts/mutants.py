#!/usr/bin/env python3
"""Mutation checks: every catalogued mutant must make its named tests fail.

Usage: python3 scripts/mutants.py

`CATALOGUE` lists (file under src/, an exact source snippet, its replacement,
the tests expected to fail).  The script copies src/, tests/ and
pyproject.toml to a temporary directory, applies one mutant at a time to the
copy and runs the mutant's tests there with `pytest -x -q`.  It exits 1 if a
snippet does not occur exactly once, if a named test does not exist, or if a
mutant survives.  `tests/test_mutants.py` checks the first two on every test
run, so a change that moves a snippet updates the catalogue with it.  Name the
fastest test that kills each mutant, and add a mutant here whenever a test is
said to catch it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SPARSE = "tests/test_semantics.py::test_sparse_line_matches_oracle_in_both_worlds"

CATALOGUE = [
    # the sparse scan: each window bound moved past the stamps equal to it, where
    # bisect_right would put it
    ("metricht/semantics.py", "start = bisect_left(tau, t + lo, k)",
     "start = bisect_left(tau, t + lo + 1, k)", [SPARSE]),
    ("metricht/semantics.py", "bisect_left(tau, t + hi, k)", "bisect_left(tau, t + hi + 1, k)",
     [SPARSE]),
    # the sparse scan: the farthest rhs state in the window in place of the nearest
    ("metricht/semantics.py", "j = hits[bisect_left(hits, start)]",
     "j = hits[bisect_left(hits, end) - 1]", [SPARSE]),
    # the sparse scan: lhs not needed at k, or needed at the witness too
    ("metricht/semantics.py", "fails[bisect_left(fails, k)]", "fails[bisect_left(fails, k + 1)]",
     [SPARSE]),
    ("metricht/semantics.py", "j < end and j <= fails", "j < end and j < fails", [SPARSE]),
    # a here-world -> without the there-world's value of its node
    ("metricht/semantics.py", "value &= upper[len(out)]", "pass",
     ["tests/test_semantics.py::test_position_run_matches_oracle_in_both_worlds"]),
]


def misplaced(root: Path = ROOT) -> list[str]:
    """Each catalogue entry whose snippet does not occur exactly once, or whose
    test does not exist, as a message."""
    out = []
    for path, snippet, _, tests in CATALOGUE:
        count = (root / "src" / path).read_text().count(snippet)
        if count != 1:
            out.append(f"src/{path}: {snippet!r} occurs {count} times")
        for test in tests:
            file, name = test.split("::")
            if f"\ndef {name}(" not in (root / file).read_text():
                out.append(f"{test}: no such test")
    return out


def survivors() -> list[str]:
    """Each mutant whose tests pass on a mutated copy, as a message."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy)
        # the copy's sources only, and no bytecode a later mutant could load
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        for path, snippet, replacement, tests in CATALOGUE:
            source = copy / "src" / path
            original = source.read_text()
            source.write_text(original.replace(snippet, replacement))
            try:
                run = subprocess.run(
                    [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
                    cwd=copy, env=env, capture_output=True, text=True)
            finally:
                source.write_text(original)
            verdict = {0: "SURVIVED", 1: "killed"}.get(run.returncode, "ERROR")
            print(f"{verdict:8} src/{path}: {snippet!r} -> {replacement!r}", flush=True)
            if verdict != "killed":
                print(run.stdout[-2000:] + run.stderr[-2000:])
                out.append(f"{path}: {snippet!r} ({verdict.lower()})")
    return out


def main() -> int:
    problems = misplaced()
    if not problems:
        problems = survivors()
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
