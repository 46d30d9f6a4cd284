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
POSITIONS = "tests/test_semantics.py::test_position_run_matches_oracle_in_both_worlds"
TABLES = "tests/test_semantics.py::test_table_runs_of_chains_and_shared_nodes_match_oracle"
EXHAUSTIVE = "tests/test_semantics.py::test_tables_match_oracle_exhaustively"
EQUIV = "tests/test_equilibrium.py::test_bit_parallel_equiv_matches_the_plain_search"
REGIONS = "tests/test_equilibrium.py::test_region_classes_match_the_plain_search"
VERDICTS = "tests/test_equilibrium.py::test_region_classes_keep_every_verdict_of_their_first_member"
STREAMS = "tests/test_cli.py::test_models_streams_what_the_list_api_returns"
FOM = "tests/test_fom.py::test_fom_tables_match_oracle_exhaustively"
CAP = "tests/test_cli.py::test_qht_equilibrium_names_a_failed_there_world_before_the_subset_cap"
STRICT = "tests/test_cli.py::test_strict_searches_stop_at_the_longest_strict_length"
WIDE = "tests/test_cli.py::test_rewrite_refuses_a_result_above_the_node_bound"
UNFOLDED = "tests/test_rewrite.py::test_unfolded_size_counts_the_printed_expansion"
STEPPED = "tests/test_rewrite.py::test_printed_size_counts_the_one_step_result"
NESTED = "tests/test_equilibrium.py::test_table_runs_of_nested_windows_grow_linearly"
DUAL = "tests/test_rewrite.py::test_bool_dual_examples"
SWAP = "tests/test_rewrite.py::test_time_swap_examples"
NARROW = "tests/test_equilibrium.py::test_equiv_and_refinement_scan_on_narrow_chunks"
FAR = "tests/test_equilibrium.py::test_region_keys_do_not_grow_with_the_time_bound"
PAIRS = "tests/test_equilibrium.py::test_pair_tables_match_a_window_test_at_every_difference"
LANES = "tests/test_semantics.py::test_an_l3_time_map_over_two_atoms_is_729_ht_lanes"
MAPS = "tests/test_traces.py::test_time_maps_follow_the_itertools_order"
RENAME = "tests/test_fom.py::test_rename_skips_the_free_names"

# `bounded_equiv`'s loop over region classes (`stream_models` has one too)
KEYED, SEARCHED = "for times, key in region_keys(bounds, ", ":\n        if key in searched:"

# the sparse scan's loop body: the failure at k, then k's bit
FAIL = '            fail = k if lhs[k] == "0" else fail\n'
BIT = ('            out.append("1" if step * hit < step * stop and step * hit <= step * fail '
       'else "0")\n')

CATALOGUE = [
    # the sparse scan's window bounds: each moved past the stamps equal to it;
    # the lower bound read without the direction of time; the upper-bound
    # pointer let past k
    ("metricht/semantics.py", "step * (tau[start - step] - t) >= lo",
     "step * (tau[start - step] - t) > lo", [SPARSE]),
    ("metricht/semantics.py", "step * (tau[stop - step] - t) >= hi",
     "step * (tau[stop - step] - t) > hi", [SPARSE]),
    ("metricht/semantics.py", "step * (tau[start - step] - t) >= lo",
     "tau[start - step] - t >= lo", [SPARSE]),
    ("metricht/semantics.py", "hi is not None and stop != k and", "hi is not None and", [SPARSE]),
    # the sparse scan: the farthest rhs state of the window in place of the nearest
    ("metricht/semantics.py", 'hit = start if rhs[start] == "1" else hit',
     'hit = start if rhs[start] == "1" and hit == far else hit', [SPARSE]),
    # the sparse scan: lhs not needed at k (its failure there counted only after
    # k's bit is set), or needed at the witness too
    ("metricht/semantics.py", FAIL + BIT, BIT + FAIL, [SPARSE]),
    ("metricht/semantics.py", "step * hit <= step * fail", "step * hit < step * fail", [SPARSE]),
    # a here-world -> without the there-world's value of its node, in `_run` and
    # in `chunk`
    ("metricht/semantics.py", "value &= upper[len(out)]", "pass", [POSITIONS]),
    ("metricht/semantics.py", "if out and here is not there:", "if False:", [TABLES]),
    # `chunk`: a shared node's memo without the world, or without the state; a |
    # that skips its rhs when its lhs is false instead of all true; a spine of &
    # and | read as all &
    ("metricht/semantics.py", "key = (node, k, here is there)", "key = (node, k)", [TABLES]),
    ("metricht/semantics.py", "key = (node, k, here is there)", "key = (node, here is there)",
     [TABLES]),
    ("metricht/semantics.py", "elif kind is Or and out != full:", "elif kind is Or and out:",
     [TABLES]),
    ("metricht/semantics.py", "spine.append((kind, b))", "spine.append((And, b))", [TABLES]),
    # `chunk`'s marks without the U/R/S/T below two others
    ("metricht/semantics.py", "or deep[i] > 1 and kind in KERNEL_BINARY", "", [NESTED]),
    # an X/Y window that holds its upper bound, in `_gaps` and in `chunk`; the
    # U/R/S/T window of `chunk` without its farthest state, or without its nearest
    ("metricht/semantics.py", 'd < hi) else "0"', 'd <= hi) else "0"', [POSITIONS]),
    ("metricht/semantics.py", "d < upper", "d <= upper", [EXHAUSTIVE]),
    ("metricht/semantics.py", "if upper is not None and d >= upper:",
     "if upper is not None and d >= upper - 1:", [EQUIV]),
    ("metricht/semantics.py", "if d >= lower:", "if d > lower:", [EQUIV]),
    # `fom.Program`: a flipped quantifier fold; a here-world -> without the
    # there-world's value of its node
    ("metricht/fom.py", "value & table >> s if kind is Forall else",
     "value & table >> s if kind is Exists else", [FOM]),
    ("metricht/fom.py", "value &= upper[i]", "pass", [FOM]),
    # `fom.Program`: a binder left in the scope table after its body, so a
    # variable beyond it reads as bound
    ("metricht/fom.py", "scopes[phi.var.name].pop()", "pass", [FOM]),
    # `fom.first_smaller_model`: the subset cap checked before the there-world
    ("metricht/fom.py", "if not upper[root]:",
     "if not upper[root] and len(atoms) <= MAX_SUBSET_ATOMS:", [CAP]),
    # strict searches: one length fewer than a strict trace can have
    ("metricht/traces.py", "min(self.max_len, self.max_time + 1)",
     "min(self.max_len, self.max_time)", [STRICT]),
    # `rewrite --pass unf` and `onestep`: both built before they are counted, or
    # `onestep` alone; a weak step of `unf` counted as one node fewer; a part of
    # `onestep` counted as one node fewer
    ("metricht/cli.py", 'size = printed_size(phi, name) if name in ("unf", "onestep") else 0',
     "size = 0", [WIDE]),
    ("metricht/cli.py", 'if name in ("unf", "onestep")', 'if name == "unf"', [WIDE]),
    ("metricht/rewrite.py", "2 if type(phi) in (Until, Since) else 9",
     "2 if type(phi) in (Until, Since) else 8", [UNFOLDED]),
    ("metricht/rewrite.py", "parts * (9 + a)", "parts * (8 + a)", [STEPPED]),
    # `map_children` rebuilding a node as its own class, not the one asked for
    # (`bool_dual` and `time_swap` pass it)
    ("metricht/syntax.py", "cls = cls or type(phi)", "cls = type(phi)", [DUAL, SWAP]),
    # region classes: upper bounds dropped from the endpoints; `equiv` keyed on
    # the left theory only
    ("metricht/semantics.py", "for x in detail if x is not None", "for x in detail[:1]",
     [REGIONS]),
    ("metricht/equilibrium.py", KEYED + "program)" + SEARCHED,
     KEYED + "Program(left.formulas))" + SEARCHED, [REGIONS]),
    # `pair_tables`: Y tested on the pair after its state; S/T or U/R operands
    # sent only to the node's own states; a window's upper bound held
    ("metricht/semantics.py", "side, reach, here = 0, here >> 1, here >> 1",
     "side, reach, here = 0, here >> 1, here", [VERDICTS]),
    ("metricht/semantics.py", "side, reach = 2, (1 << here.bit_length()) - 1",
     "side, reach = 2, here", [VERDICTS]),
    ("metricht/semantics.py", "side, reach = 1, full & -(here & -here)", "side, reach = 1, here",
     [VERDICTS]),
    ("metricht/semantics.py", "d < hi))", "d <= hi))", [VERDICTS]),
    # `chunk` on HT lanes: ~a read in the here-world, for an atom in place and for
    # any other a; the lhs of every U/S dropped, not only F/O's #true
    ("metricht/semantics.py", "cells = there.get(detail)", "cells = here.get(detail)", [TABLES]),
    ("metricht/semantics.py", "return full ^ self.chunk(a, k, there, there, full, memo)",
     "return full ^ self.chunk(a, k, here, there, full, memo)", [EQUIV]),
    ("metricht/semantics.py",
     "elif kind in KERNEL_BINARY and truth.get(a) is (kind is Until or kind is Since):",
     "elif kind is Until or kind is Since:", [EQUIV]),
    # the lane layout and the first trace: a there-cell that holds on digit 0
    # too; here-cells narrowed before there-cells; an outer there-pattern that
    # stops at its first hit, whatever the hit's inner there-pattern
    ("metricht/semantics.py", "for v in (radix - 2, radix - 1)", "for v in (0, radix - 1)",
     [EQUIV]),
    ("metricht/semantics.py", "for side in (0, 1):", "for side in (1, 0):", [NARROW]),
    ("metricht/semantics.py", "if inner == [upper & 1 for upper, _ in masks]:", "if True:",
     [NARROW]),
    # region keys: a run of differences read at the difference below it (so a
    # difference equal to an endpoint reads the run before); no run starting at
    # the cap; the tables capped at the last endpoint alone, not at max_time
    # too; a difference past the cap read as it is
    ("metricht/semantics.py", "for d in starts]", "for d in [x - 1 for x in starts]]",
     [VERDICTS]),
    ("metricht/semantics.py", "0 < x <= cap", "0 < x < cap", [PAIRS]),
    ("metricht/semantics.py",
     "cap = min(program.endpoints[-1] if program.endpoints else 0, bounds.max_time)",
     "cap = program.endpoints[-1] if program.endpoints else 0", [FAR]),
    ("metricht/semantics.py", "t - s if t - s < cap else cap", "t - s", [FAR]),
    # a lane's there-state read from the here-cells; `equiv` keeping the lanes
    # where either theory holds, not exactly one
    ("metricht/semantics.py", "for world in cells[:2]", "for world in (cells[0], cells[0])",
     [LANES]),
    ("metricht/semantics.py", "bits ^= out", "bits |= out", [EQUIV]),
    # the time maps: a strict tail restarted at one stamp, not one apart
    ("metricht/traces.py", "times[j] + 1 + step * i", "times[j] + 1", [MAPS]),
    # `fom._rename`: a bound variable left on a free variable's name
    ("metricht/fom.py", "if made & free else out", "if False else out", [RENAME]),
    # `models` printing only once the whole search is done
    ("metricht/cli.py", "enumerate(stream_models(theory, bounds, args.equilibrium), start=1)",
     "enumerate(list(stream_models(theory, bounds, args.equilibrium)), start=1)", [STREAMS]),
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
