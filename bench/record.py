#!/usr/bin/env python3
"""Record the expected answer of every question variant, and cross-check it.

    python3 bench/record.py [WORKLOAD ...]

Run from the repository root.  For every slot variant of each workload (and
its warm-up question) it asks metricht.cli.main once and stores the exit
code and the SHA-256 of stdout in bench/expected/<workload>.json, keyed by
the question's argv and input contents.  Before storing, each answer is
checked independently where the space is small enough:

* traffic-eq: the X[5] push models against the documented ones (red,
  push+red, green at times 0, 5, t for 6 <= t <= 19: 14 models at T20),
  the base theory against an equilibrium search with tests/oracle.py;
* equiv-rewrites: strict pairs against oracle.theories_equivalent, the
  counterexample of each non-strict pair against oracle.theory_sat;
* long-check: every per-formula verdict against oracle.sat (memoised);
* fom-correspondence: qht verdicts against oracle.sat on the trace the
  interpretation is induced from, qht --equilibrium against an oracle scan
  of all smaller here-worlds.

Record only at a commit whose outputs are known to be right: the recorded
answers are what every later run is held to.
"""

from __future__ import annotations

import json
import signal
import sys
from itertools import combinations
from pathlib import Path

ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(Path(__file__).resolve().parent)]

import oracle  # noqa: E402
import workloads  # noqa: E402
from metricht.cli import main as cli_main  # noqa: E402
from metricht.parser import parse_formula, parse_theory  # noqa: E402
from run import Batch, _on_alarm, ask, question_key, sha256  # noqa: E402

_raw_sat = oracle.sat
_memo: dict = {}


def _memo_sat(here, there, times, k, phi, world="h"):
    key = (id(here), id(there), id(times), k, id(phi), world)
    if key not in _memo:
        _memo[key] = _raw_sat(here, there, times, k, phi, world)
    return _memo[key]


def oracle_theory_sat(here, there, times, formulas) -> bool:
    _memo.clear()
    oracle.sat = _memo_sat  # the oracle recurses through this module attribute
    try:
        return all(oracle.sat(here, there, times, 0, phi) for phi in formulas)
    finally:
        oracle.sat = _raw_sat


def _states(trace_json):
    there = tuple(frozenset(s["there"]) for s in trace_json["states"])
    here = tuple(frozenset(s.get("here", s["there"])) for s in trace_json["states"])
    return here, there, tuple(s["time"] for s in trace_json["states"])


def _models(stdout):
    lines = stdout.splitlines()
    return {(tuple(tuple(s["there"]) for s in m["states"]), tuple(s["time"] for s in m["states"]))
            for m in map(json.loads, lines[:-1])}, lines[-1]


def _oracle_equilibria(formulas, atoms, max_len, max_time):
    found = set()
    for here, there, times in oracle.bounded_space(atoms, max_len, max_time):
        if here != there or not oracle_theory_sat(here, there, times, formulas):
            continue
        smaller = (h for h, t, ts in oracle.bounded_space(atoms, max_len, max_time)
                   if t == there and ts == times and h != there)
        if not any(oracle_theory_sat(h, there, times, formulas) for h in smaller):
            found.add((tuple(tuple(sorted(s)) for s in there), times))
    return found


def cross_check(workload, q, answer, batch, fragment) -> None:
    text = batch.contents
    if workload == "traffic-eq":
        theory = text[q.argv[1]]
        max_time = int(q.argv[q.argv.index("--max-time") + 1])
        models, summary = _models(answer.stdout)
        if "X[5] push" in workloads.rename(theory, dict(zip(q.atoms, workloads.TRAFFIC_ATOMS))):
            green, push, red = q.atoms
            states = ((red,), tuple(sorted((push, red))), (green,))
            want = {(states, (0, 5, t)) for t in range(6, min(19, max_time) + 1)}
            assert max_time < 19 or len(want) == 14, "the documented scenario has 14 models"
        else:
            want = _oracle_equilibria(parse_theory(theory).formulas, q.atoms,
                                      int(q.argv[q.argv.index("--max-len") + 1]), max_time)
        assert models == want, f"{q.label}: models differ from the reference"
        assert summary == f"{len(want)} model{'' if len(want) == 1 else 's'}", summary
    elif workload == "equiv-rewrites" and q.argv[0] == "equiv":
        left = parse_theory(text[q.argv[1]]).formulas
        right = parse_theory(text[q.argv[2]]).formulas
        strict = "--non-strict" not in q.argv
        if strict:
            same = oracle.theories_equivalent(left, right, q.atoms, 3, 5, strict=True)
            assert same and answer.code == 0, f"{q.label}: oracle equivalent={same}"
        else:
            assert answer.code == 1, f"{q.label}: a non-strict pair must differ"
            here, there, times = _states(json.loads(answer.stdout.splitlines()[1]))
            assert oracle_theory_sat(here, there, times, left) != \
                oracle_theory_sat(here, there, times, right), f"{q.label}: bad counterexample"
    elif workload == "long-check":
        formulas = parse_theory(text[q.argv[1]]).formulas
        here, there, times = _states(json.loads(text[q.argv[2]]))
        verdicts = [oracle_theory_sat(here, there, times, [phi]) for phi in formulas]
        lines = [f"formula {i}: {'SAT' if v else 'UNSAT'}" for i, v in enumerate(verdicts, 1)]
        assert answer.stdout.splitlines()[:-1] == lines, f"{q.label}: verdicts differ"
        assert all(verdicts), f"{q.label}: formulas are meant to hold on conforming traces"
    elif workload == "fom-correspondence" and q.argv[0] == "qht":
        phi = parse_formula(fragment[0].argv[2])
        interp = json.loads(text[q.argv[4]])
        times = tuple(interp["domain"])
        there = tuple(frozenset(a.split("(")[0] for a in interp["there"]
                                if a.endswith(f"({t})")) for t in times)
        is_model = oracle_theory_sat(there, there, times, [phi])
        if "--equilibrium" not in q.argv:
            assert (answer.code == 0) == is_model, f"{q.label}: verdict differs from oracle"
            return
        ground = [(p, i) for i, s in enumerate(there) for p in sorted(s)]
        smaller = False
        for size in range(len(ground)):
            for combo in combinations(ground, size):
                here = tuple(frozenset(p for p, j in combo if j == i) for i in range(len(times)))
                if oracle_theory_sat(here, there, times, [phi]):
                    smaller = True
                    break
            if smaller:
                break
        assert (answer.code == 0) == (is_model and not smaller), \
            f"{q.label}: equilibrium verdict differs from oracle"


def record(workload: str, scratch: Path) -> None:
    expected: dict[str, list] = {}
    fragments = workloads.universe(workload) + [[workloads.WARMUP[workload]]]
    for n, fragment in enumerate(fragments):
        batch = Batch(fragment, scratch, {})
        for i, q in enumerate(fragment):
            answer = ask(cli_main, batch.argv(q))
            assert answer.error is None, f"{q.label}: {answer.error}"
            expected[question_key(q.argv, batch.contents)] = \
                [answer.code, sha256(answer.stdout), q.label]
            if n < len(fragments) - 1:
                cross_check(workload, q, answer, batch, fragment)
            for name in batch.feeds.get(i, ()):
                batch._write(name, answer.stdout)
    out = Path(__file__).resolve().parent / "expected" / f"{workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(expected, indent=0, sort_keys=True) + "\n")
    print(f"{workload}: {len(expected)} answers recorded and cross-checked")


def main() -> None:
    scratch = ROOT / ".bench_run" / "record"
    scratch.mkdir(parents=True, exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    for workload in sys.argv[1:] or workloads.WORKLOADS:
        record(workload, scratch)


if __name__ == "__main__":
    main()
