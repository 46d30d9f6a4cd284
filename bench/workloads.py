"""Seeded question batches for the four benchmark workloads.

A batch is a fixed list of slots.  The content of each slot (formula,
trace, bounds) comes from a generator seeded with (workload, slot).  Each
slot has VARIANTS variants, which rename the atoms in an order-preserving
way; the run seed picks one variant per slot.  A renamed question searches
the same space in the same order and does the same work, while every byte
of its inputs and outputs differs, so the seed changes the inputs without
changing the amount of work, and figures from different seeds compare.
bench/record.py records the expected answer of every variant in
bench/expected/<workload>.json.

A question is a CLI argv.  File operands are written into the run
directory before a round; a chained file is the stdout of an earlier
question of the same slot (rewrite output feeding equiv, translate output
feeding qht).
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from math import comb

VARIANTS = 4

TRAFFIC_RULES = ("G (red & green -> #false)\n"
                 "G (~green -> red)\n"
                 "G (push -> F[1..15) G[0..30] green)\n")
TRAFFIC_ATOMS = ("green", "push", "red")

WORKLOADS = ("traffic-eq", "equiv-rewrites", "long-check", "fom-correspondence")


@dataclass
class Question:
    argv: list[str]
    files: dict[str, str] = field(default_factory=dict)
    # file name -> index (within the batch) of the question whose stdout it holds
    chained: dict[str, int] = field(default_factory=dict)
    label: str = ""
    atoms: tuple[str, ...] = ()
    # search size of a models/equiv question, stated before it runs
    search: dict | None = None


def search_size(n_atoms: int, max_len: int, max_time: int, strict: bool,
                exact_len: bool) -> dict:
    """Time maps, total traces and refinements of a bounded search space.

    A total trace of length L has 2^(|A|L) state choices per time map; the
    refinements of all of them together number 3^(|A|L) - 2^(|A|L).
    """
    maps = totals = refs = 0
    for length in (range(max_len, max_len + 1) if exact_len else range(1, max_len + 1)):
        m = comb(max_time, length - 1) if strict else comb(max_time + length - 1, length - 1)
        cells = n_atoms * length
        maps += m
        totals += m * 2 ** cells
        refs += m * (3 ** cells - 2 ** cells)
    return {"time_maps": maps, "total_traces": totals, "refinements": refs}


def rename(text: str, names: dict[str, str]) -> str:
    """Replace whole-word atom names, all at once."""
    return re.sub(r"\b[a-z][A-Za-z0-9_]*\b", lambda m: names.get(m.group(), m.group()), text)


# Order-preserving renamings: sorted alphabets line up, so a renamed
# question enumerates its space in the same order.
TRAFFIC_NAMES = (TRAFFIC_ATOMS, ("go", "press", "stop"), ("g", "p", "r"),
                 ("lamp_g", "lamp_p", "lamp_r"))
PQ_NAMES = (("p", "q"), ("a", "b"), ("m", "n"), ("s", "t"))
PQR_NAMES = (("p", "q", "r"), ("a", "b", "c"), ("d", "e", "f"), ("j", "k", "l"))


# --------------------------------------------------------------------------
# traffic-eq: the paper's traffic-light scenario as equilibrium searches:
# the base rules at lengths 1..2, then X[5] push at L3/T12 and L3/T20.

def _traffic_slots():
    def search(max_len, max_time, exact_len):
        def build(rng, tag):
            theory = TRAFFIC_RULES + ("X[5] push\n" if exact_len else "")
            flags = ["--exact-len"] if exact_len else []
            return [Question(["models", f"{tag}theory.lp", "--max-len", str(max_len),
                              "--max-time", str(max_time), *flags, "--equilibrium"],
                             files={f"{tag}theory.lp": theory},
                             label=f"{'X[5] push' if exact_len else 'base'} "
                                   f"L{max_len}/T{max_time}",
                             atoms=TRAFFIC_ATOMS,
                             search=search_size(3, max_len, max_time, True, exact_len))]
        return build

    # L3/T30 (5 s a question here) left too few rounds in a run to be steady;
    # L3/T12 is the mid-size search that keeps the median on a real search.
    return [search(2, 4, False), search(3, 12, True), search(3, 20, True)]


# --------------------------------------------------------------------------
# equiv-rewrites: rewrite a seeded formula, then compare it with its rewrite.
# Templates fix the operator skeleton, the slot generator the literals.  Strict
# pairs are equivalent, so equiv scans the whole space; the --non-strict
# pairs break a strict-timing assumption and stop at a counterexample.

_EQUIV_BOUNDS = ("--max-len", "3", "--max-time", "5")
_EQUIV_TEMPLATES = (
    ("unf", "{a} U[0..3) {b}", True),
    ("unf", "G[0..3) ({a} -> F[1..3) {b})", True),
    ("unary", "{a} U[1..4) {b}", True),
    ("unary", "({a} S[1..3) {b}) | ({c} R[2..w) {d})", True),
    ("onestep", "X[1..3) ({a} & Y[1..3) {b})", True),
    ("onestep", "G (X[2..4) {a} -> {b})", True),
    ("demorgan", "~({a} U[1..3) {b}) -> ~({c} T[0..2) {d})", True),
    ("demorgan", "G ~({a} R ({b} & {c}))", True),
    ("split:2", "{a} U[0..4) ({b} | {c})", True),
    ("split:1", "{a} T[0..3) {b}", True),
    ("swap", "F[1..3) {a} & {b}", False),
    ("unf", "{a} U[0..2) {b}", False),
)
_LITERALS = ("p", "q", "~p", "~q")


def _equiv_slots():
    def build_for(pass_name, template, strict):
        def build(rng, tag):
            lits = {name: rng.choice(_LITERALS) for name in "abcd"}
            while lits["a"] == lits["b"]:
                lits["b"] = rng.choice(_LITERALS)
            formula = template.format(**lits)
            atoms = sorted({lit.lstrip("~") for name, lit in lits.items()
                            if "{" + name + "}" in template})
            bounds = list(_EQUIV_BOUNDS) + ([] if strict else ["--non-strict"])
            return [
                Question(["rewrite", "--formula", formula, "--pass", pass_name],
                         label=f"rewrite {pass_name}: {formula}"),
                Question(["equiv", f"{tag}left.lp", f"{tag}right.lp", *bounds],
                         files={f"{tag}left.lp": formula + "\n"},
                         chained={f"{tag}right.lp": -1},
                         label=f"equiv {pass_name}{'' if strict else ' non-strict'}: {formula}",
                         atoms=tuple(atoms),
                         search=search_size(len(atoms), 3, 5, strict, False)),
            ]
        return build

    return [build_for(*t) for t in _EQUIV_TEMPLATES]


# --------------------------------------------------------------------------
# long-check: `check` of the traffic rules plus one seeded formula on a
# conforming traffic trace.  Nested unbounded operators cost cubic time in
# the trace length without a memo, so they run on the shortest traces.

_CHECK_TEMPLATES = (
    # (formula, trace length); every formula holds on every conforming trace,
    # so the evaluator scans the whole trace instead of stopping early.
    ("G G F ({a} | #final)", 40),
    ("G (F ({a} | #final) & F ({b} | #final))", 120),
    ("G F ({a} | #final)", 150),
    ("G (green -> O[1..{m60}] push)", 150),
    ("G (green -> ((green | red) S push))", 150),
    ("G (push -> F[1..{m15}) green)", 150),
    ("G (push -> G[1..{m30}) ~push)", 150),
    ("G (({a} | red | green) U #final)", 100),
    ("G H (red | green | {a})", 100),
    ("G[0..{m60}] (red | X[1..5) (red | green) | #final)", 150),
    ("G (green -> O[1..{m60}] push) & G H (red | green)", 80),
    ("G (H[0..{m15}] (red | green) & O[0..{m60}] red)", 120),
)
CHECK_SLOTS = 120


def traffic_trace(rng: random.Random, n: int) -> dict:
    """A trace of n states that satisfies the three traffic rules.

    Pushes happen only while red; the light turns green within 14 time units
    of a push and stays green for more than 30.  No push is placed where the
    trace could end before the light turns green.
    """
    states, t = [], 0
    while len(states) < n:
        room = n - len(states) > 16
        if room and rng.random() < 0.15:
            states.append({"time": t, "there": ["push", "red"]})
            start = t + rng.randint(1, 14)
            t = min(t + rng.randint(1, 3), start)
            while t < start and len(states) < n:
                states.append({"time": t, "there": ["red"]})
                t = min(t + rng.randint(1, 3), start)
            stop = start + 31 + rng.randint(0, 10)
            while t < stop and len(states) < n:
                states.append({"time": t, "there": ["green"]})
                t += rng.randint(1, 4)
        else:
            states.append({"time": t, "there": ["red"]})
            t += rng.randint(1, 4)
    return {"alphabet": list(TRAFFIC_ATOMS), "states": states[:n]}


def _check_slots():
    def build_for(index):
        template, length = _CHECK_TEMPLATES[index % len(_CHECK_TEMPLATES)]
        length += 10 * (index // len(_CHECK_TEMPLATES) % 3) - 10

        def build(rng, tag):
            formula = template.format(a=rng.choice(("push", "green")),
                                      b=rng.choice(TRAFFIC_ATOMS),
                                      m15=rng.randint(15, 20), m30=rng.randint(2, 32),
                                      m60=rng.randint(56, 70))
            trace = traffic_trace(rng, length)
            return [Question(["check", f"{tag}rules.lp", f"{tag}trace.json"],
                             files={f"{tag}rules.lp": TRAFFIC_RULES + formula + "\n",
                                    f"{tag}trace.json": json.dumps(trace)},
                             label=f"check n={length}: {formula}")]
        return build

    return [build_for(i) for i in range(CHECK_SLOTS)]


# --------------------------------------------------------------------------
# fom-correspondence: translate a formula, then evaluate the sentence on the
# induced interpretation of a strict trace, plainly and for equilibrium.

_FOM_TEMPLATES = (
    # Mostly true on sparse traces, so qht --equilibrium goes on to the
    # smaller here-world scan instead of stopping at the there-world.
    "G F ({a} | #final) & H O ({b} | #init)",
    "G ((~{a} U {b}) | (~{b} S {c}) | F G ~{c})",
    "G H (~{a} | O {b} | F {c})",
    "G ((~{c} T ~{a}) -> F ~{b})",
    "G ({a} -> ({b} U[0..5) ({c} | Y ({a} S {b}))))",
    "G (F[0..6) ~{a} | O[0..6) {b})",
)
FOM_TRACE_SLOTS = 30


def _interp(there_states, times) -> dict:
    atoms = sorted(f"{p}({t})" for state, t in zip(there_states, times) for p in state)
    return {"domain": list(times), "there": atoms}


def _fom_questions(tag, formula, interp, label):
    return [
        Question(["translate", "--formula", formula], label=f"translate: {formula}"),
        Question(["qht", "--sentence", f"{tag}sentence.txt", "--interp", f"{tag}interp.json"],
                 files={f"{tag}interp.json": json.dumps(interp)},
                 chained={f"{tag}sentence.txt": -1}, label=f"qht {label}"),
        Question(["qht", "--sentence", f"{tag}sentence.txt", "--interp", f"{tag}interp.json",
                  "--equilibrium"], label=f"qht --equilibrium {label}"),
    ]


def _fom_slots():
    def traffic_model(rng, tag):
        # One of the traffic-eq equilibrium models (0, k, t): red, push+red, green.
        k = rng.choice((4, 5, 6, 7))
        t = rng.randint(k + 1, min(k + 14, 20))
        formula = "(" + ") & (".join(TRAFFIC_RULES.strip().split("\n")) + f") & X[{k}] push"
        interp = _interp((("red",), ("push", "red"), ("green",)), (0, k, t))
        return _fom_questions(tag, formula, interp, f"traffic model (0,{k},{t})")

    def build_for(index):
        template = _FOM_TEMPLATES[index % len(_FOM_TEMPLATES)]
        length = 12 + index % 3

        def build(rng, tag):
            lits = {name: rng.choice(("p", "q", "r")) for name in "abc"}
            formula = template.format(**lits)
            times, t = [], 0
            for _ in range(length):
                times.append(t)
                t += rng.randint(1, 3)
            # at most 6 ground atoms keeps the here-world subset scan at 2^6
            there, budget = [], 6
            for _ in range(length):
                state = tuple(a for a in "pqr" if budget and rng.random() < 0.2)[:budget]
                budget -= len(state)
                there.append(state)
            return _fom_questions(tag, formula, _interp(there, times),
                                  f"trace n={length}: {formula}")
        return build

    return [traffic_model] * 10 + [build_for(i) for i in range(FOM_TRACE_SLOTS)]


_SLOTS = {
    "traffic-eq": _traffic_slots,
    "equiv-rewrites": _equiv_slots,
    "long-check": _check_slots,
    "fom-correspondence": _fom_slots,
}

WARMUP = {
    "traffic-eq": Question(["models", "w.lp", "--max-len", "1", "--equilibrium"],
                           files={"w.lp": TRAFFIC_RULES}),
    "equiv-rewrites": Question(["rewrite", "--formula", "p U[0..3) q", "--pass", "unf"]),
    "long-check": Question(["check", "w.lp", "w.json"],
                           files={"w.lp": TRAFFIC_RULES,
                                  "w.json": json.dumps(traffic_trace(random.Random(0), 10))}),
    "fom-correspondence": Question(["translate", "--formula",
                                    "G (push -> F[1..15) G[0..30] green)"]),
}


_NAMES = {
    "traffic-eq": (TRAFFIC_NAMES,),
    "equiv-rewrites": (PQ_NAMES,),
    "long-check": (TRAFFIC_NAMES,),
    "fom-correspondence": (TRAFFIC_NAMES, PQR_NAMES),
}


def _variant(workload: str, slot: int, variant: int, build) -> list[Question]:
    """Slot content from its own seed, atoms renamed by the variant."""
    names = {old: new for table in _NAMES[workload]
             for old, new in zip(table[0], table[variant])}
    questions = build(random.Random(f"{workload}/{slot}"), f"s{slot}_")
    for q in questions:
        q.argv = [rename(token, names) for token in q.argv]
        q.files = {name: rename(text, names) for name, text in q.files.items()}
        q.label = rename(q.label, names)
        q.atoms = tuple(names.get(a, a) for a in q.atoms)
    return questions


def _absolute(questions: list[Question], offset: int) -> list[Question]:
    for i, q in enumerate(questions):
        q.chained = {name: offset + i + rel for name, rel in q.chained.items()}
    return questions


def batch(workload: str, seed: int) -> list[Question]:
    """The question batch of one workload for one seed."""
    rng = random.Random(seed)
    out: list[Question] = []
    for slot, build in enumerate(_SLOTS[workload]()):
        out += _absolute(_variant(workload, slot, rng.randrange(VARIANTS), build), len(out))
    return out


def universe(workload: str) -> list[list[Question]]:
    """Every variant batch fragment, slot-major, for recording answers."""
    out = []
    for slot, build in enumerate(_SLOTS[workload]()):
        for variant in range(VARIANTS):
            out.append(_absolute(_variant(workload, slot, variant, build), 0))
    return out
