"""Shared random generators and hypothesis strategies."""

from __future__ import annotations

import random
import signal
import sys
from contextlib import contextmanager

import hypothesis.strategies as st

from metricht.syntax import (
    And, Atom, BOT, Implies, Interval, Next, Or, Prev, Release, Since,
    Trigger, TRUE, Until, always, eventually, historically, iff, initial,
    final, neg, once, weak_next, weak_prev,
)
from metricht import fom
from metricht.parser import _tokenize
from metricht.traces import TimedHTTrace

ATOMS = ("p", "q")


# ------------------------------------------------------------------ helpers

def make_trace(states, times) -> TimedHTTrace:
    """A trace from (here, there) pairs of any iterables and any time sequence."""
    pairs = [(frozenset(h), frozenset(t)) for h, t in states]
    return TimedHTTrace(tuple(h for h, _ in pairs), tuple(t for _, t in pairs), tuple(times))


@contextmanager
def stack_headroom():
    """Within the block, the recursion limit lies 100 frames above the caller's depth."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


@contextmanager
def time_limit(seconds: int, what: str):
    """Within the block, SIGALRM raises TimeoutError after `seconds`."""
    def too_slow(signum, frame):
        raise TimeoutError(f"{what} took over {seconds} s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def total_part(trace: TimedHTTrace) -> TimedHTTrace:
    """The trace collapsed onto its there-component; identity on total traces."""
    if trace.is_total():
        return trace
    return TimedHTTrace(trace.there, trace.there, trace.times)


def gaps(trace: TimedHTTrace) -> tuple[int, ...]:
    return tuple(b - a for a, b in zip(trace.times, trace.times[1:]))


def interval_subset(small: Interval, big: Interval) -> bool:
    if small.is_empty():
        return True
    if big.upper is None:
        return small.lower >= big.lower
    return small.upper is not None and small.lower >= big.lower and small.upper <= big.upper


def is_qel_model(domain, there, phi) -> bool:
    """Is <D,T,T> a model of phi with no strictly smaller here-world model?"""
    dom, full = tuple(domain), frozenset(there)
    if not fom.qht_sat(fom.QHTInterpretation(dom, full, full), phi):
        return False
    return fom.first_smaller_model(dom, full, phi) is None


def gen_interval(rng: random.Random, *, max_lo: int = 3, max_width: int = 4,
                 omega_p: float = 0.2, allow_empty: bool = True,
                 finite_only: bool = False, nonempty_only: bool = False) -> Interval:
    lo = rng.randint(0, max_lo)
    if not finite_only and rng.random() < omega_p:
        return Interval(lo, None)
    if nonempty_only:
        return Interval(lo, lo + rng.randint(1, max_width))
    hi = rng.randint(0, max_lo + max_width)
    if not allow_empty and hi <= lo:
        hi = lo + rng.randint(1, max_width)
    return Interval(lo, hi)


def gen_formula(rng: random.Random, depth: int, *, atoms=ATOMS, impl: bool = True,
                sugar: bool = True, interval=None):
    """A random formula of at most the given connective depth."""
    iv = interval if interval is not None else gen_interval
    if depth == 0 or rng.random() < 0.25:
        leaf = rng.randrange(4)
        if leaf < 2:
            return Atom(rng.choice(atoms))
        return BOT if leaf == 2 else TRUE

    def sub():
        return gen_formula(rng, depth - 1, atoms=atoms, impl=impl, sugar=sugar,
                           interval=interval)

    ops = ["and", "or", "next", "prev", "until", "release", "since", "trigger"]
    if impl:
        ops += ["implies", "not"]
    if sugar:
        ops += ["F", "G", "O", "H", "wX", "wY"]
        if impl:
            ops += ["init", "final", "iff"]
    op = rng.choice(ops)
    if op == "and":
        return And(sub(), sub())
    if op == "or":
        return Or(sub(), sub())
    if op == "implies":
        return Implies(sub(), sub())
    if op == "not":
        return neg(sub())
    if op == "iff":
        return iff(sub(), sub())
    if op == "init":
        return initial()
    if op == "final":
        return final()
    unary = {"next": Next, "prev": Prev, "F": eventually, "G": always,
             "O": once, "H": historically, "wX": weak_next, "wY": weak_prev}
    if op in unary:
        return unary[op](iv(rng), sub())
    binary = {"until": Until, "release": Release, "since": Since, "trigger": Trigger}
    return binary[op](iv(rng), sub(), sub())


def gen_sentence(rng: random.Random, depth: int) -> fom.FOMFormula:
    """A random first-order sentence, possibly with free variables, of at most this depth."""
    def term():
        return fom.Var(rng.choice("xyz")) if rng.random() < 0.7 else fom.Point(rng.randint(0, 12))

    if depth == 0 or rng.random() < 0.25:
        leaf = rng.randrange(4)
        if leaf < 2:
            return fom.Pred(rng.choice(ATOMS), term()) if leaf == 0 else \
                fom.Diff(term(), rng.choice([None, *range(-3, 4)]), term())
        return fom.BOT if leaf == 2 else fom.TOP
    op = rng.choice([fom.And, fom.Or, fom.Implies, fom.Forall, fom.Exists])
    if op is fom.Forall or op is fom.Exists:
        return op(fom.Var(rng.choice("xyz")), gen_sentence(rng, depth - 1))
    return op(gen_sentence(rng, depth - 1), gen_sentence(rng, depth - 1))


# tokens of both grammars, and some neither reads
JUNK_TOKENS = ["(", ")", "[", "]", "..", "~", "&", "|", "->", "<->", "U", "R", "S", "T", "X",
               "wY", "G", "!", "?", "x", "p", "Q", "3", "w", "<=", ">=", "<={2}", "<={w}",
               "#true", "#init", "@", "\n"]


def mutated_text(rng: random.Random, text: str) -> str:
    """The tokens of `text` with one to three dropped, duplicated, swapped or
    inserted, joined by spaces and some line breaks."""
    words = [tok[1] for tok in _tokenize(text)[:-1]]
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(words) + 1)
        move = rng.choice(["drop", "duplicate", "swap", "insert"])
        if move == "insert" or not words:
            words.insert(i, rng.choice(JUNK_TOKENS))
        elif move == "drop":
            del words[min(i, len(words) - 1)]
        elif move == "duplicate":
            words.insert(i, words[min(i, len(words) - 1)])
        else:
            j, i = rng.randrange(len(words)), min(i, len(words) - 1)
            words[i], words[j] = words[j], words[i]
    return "".join(w + rng.choice([" ", " ", " ", "\n"]) for w in words)


def gen_trace(rng: random.Random, *, atoms=ATOMS, max_len: int = 4, max_gap: int = 4,
              strict: bool = False, total: bool = False,
              max_time: int | None = None) -> TimedHTTrace:
    length = rng.randint(1, max_len)
    times = [0]
    for _ in range(length - 1):
        gap = rng.randint(1, max_gap) if strict else rng.randint(0, max_gap)
        times.append(times[-1] + gap)
    if max_time is not None and times[-1] > max_time:
        times = [min(t, max_time) for t in times]
        if strict:
            times = list(range(0, length))
    there = [frozenset(a for a in atoms if rng.random() < 0.5) for _ in range(length)]
    if total:
        here = list(there)
    else:
        here = [frozenset(a for a in t if rng.random() < 0.7) for t in there]
    return TimedHTTrace(tuple(here), tuple(there), tuple(times))


# ------------------------------------------------------------------ hypothesis

intervals_st = st.builds(
    lambda lo, width: Interval(lo, None if width is None else lo + width),
    st.integers(0, 4), st.one_of(st.none(), st.integers(0, 4)))

_leaves = st.sampled_from([Atom("p"), Atom("q"), Atom("r"), BOT, TRUE])

formulas_st = st.recursive(
    _leaves,
    lambda kids: st.one_of(
        st.builds(And, kids, kids),
        st.builds(Or, kids, kids),
        st.builds(Implies, kids, kids),
        st.builds(Next, intervals_st, kids),
        st.builds(Prev, intervals_st, kids),
        st.builds(Until, intervals_st, kids, kids),
        st.builds(Release, intervals_st, kids, kids),
        st.builds(Since, intervals_st, kids, kids),
        st.builds(Trigger, intervals_st, kids, kids),
        st.builds(weak_next, intervals_st, kids),
        st.builds(weak_prev, intervals_st, kids),
        st.builds(neg, kids),
    ),
    max_leaves=12)


@st.composite
def traces_st(draw, atoms=ATOMS, max_len=4, strict=False):
    length = draw(st.integers(1, max_len))
    gaps = draw(st.lists(st.integers(1 if strict else 0, 4),
                         min_size=length - 1, max_size=length - 1))
    times = [0]
    for g in gaps:
        times.append(times[-1] + g)
    there = [frozenset(draw(st.sets(st.sampled_from(list(atoms))))) for _ in range(length)]
    here = [frozenset(draw(st.sets(st.sampled_from(sorted(t))))) if t else frozenset()
            for t in there]
    return TimedHTTrace(tuple(here), tuple(there), tuple(times))
