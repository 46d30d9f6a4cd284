import random
import signal

import pytest

import oracle
from conftest import gen_formula, gen_interval, gen_trace, make_trace, total_part
from metricht.parser import parse_formula, parse_theory
from metricht.semantics import (
    Program, em_theory, ht_tables, ht_trace, is_model, mht_sat, state_bits, strictness_axiom,
)
from metricht.syntax import (
    And, Atom, BOT, FULL, Implies, Interval, Next, Or, Prev, Release, Since, Theory,
    Trigger, Until, always, eventually, historically, format_formula, initial, final,
    neg, once, weak_next, weak_prev,
)
from metricht.traces import TimedHTTrace, total_trace

RULES = parse_theory(
    "G (red & green -> #false)\n"
    "G (~green -> red)\n"
    "G (push -> F[1..15) G[0..30] green)\n")


def test_sat_examples():
    t = total_trace([{"red"}, {"push", "red"}, {"green"}], [0, 5, 12])
    push_rule = RULES.formulas[2]
    assert mht_sat(t, 0, push_rule)
    assert mht_sat(t, 1, parse_formula("#true"))

    ht = make_trace([(set(), {"p"})], [0])
    assert not mht_sat(ht, 0, Atom("p"))
    assert mht_sat(total_part(ht), 0, Atom("p"))

    t2 = total_trace([{"push"}, {"green"}], [0, 7])
    assert mht_sat(t2, 0, parse_formula("F[1..15) green"))


def test_sat_index_out_of_range():
    t = total_trace([set()], [0])
    with pytest.raises(IndexError):
        mht_sat(t, 1, Atom("p"))
    with pytest.raises(IndexError):
        mht_sat(t, -1, Atom("p"))


def test_is_model_examples():
    all_red = total_trace([{"red"}, {"red"}], [0, 3])
    assert is_model(all_red, RULES)
    clash = total_trace([{"red", "green"}], [0])
    assert not is_model(clash, Theory((RULES.formulas[0],)))
    assert is_model(clash, Theory(()))


def test_em_theory():
    em = em_theory(("p",))
    assert [format_formula(f) for f in em.formulas] == ["G(p | ~p)"]
    assert len(em_theory(())) == 0
    assert [format_formula(f) for f in em_theory(("p", "q"))] == \
        ["G(p | ~p)", "G(q | ~q)"]


def test_strictness_axiom():
    ax = strictness_axiom()
    assert format_formula(ax) == "G ~X[0] #true"
    assert mht_sat(total_trace([{"a"}, {"b"}], [0, 3]), 0, ax)
    assert not mht_sat(total_trace([set(), set()], [0, 0]), 0, ax)
    assert mht_sat(total_trace([set()], [0]), 0, ax)


def test_initial_final():
    t = total_trace([set(), set(), set()], [0, 1, 2])
    assert [mht_sat(t, k, initial()) for k in range(3)] == [True, False, False]
    assert [mht_sat(t, k, final()) for k in range(3)] == [False, False, True]


# ------------------------------------------------------------------ properties

def test_persistence():
    rng = random.Random(11)
    for _ in range(1500):
        t = gen_trace(rng)
        phi = gen_formula(rng, rng.randint(0, 4))
        k = rng.randrange(t.length)
        if mht_sat(t, k, phi):
            assert mht_sat(total_part(t), k, phi)


def test_negation_reads_the_total_part():
    rng = random.Random(12)
    for _ in range(1500):
        t = gen_trace(rng)
        phi = gen_formula(rng, rng.randint(0, 4))
        k = rng.randrange(t.length)
        assert mht_sat(t, k, neg(phi)) == (not mht_sat(total_part(t), k, phi))


def test_excluded_middle_characterizes_total_traces():
    rng = random.Random(13)
    em = em_theory(("p", "q"))
    for _ in range(1500):
        t = gen_trace(rng)
        assert is_model(t, em) == t.is_total()


def test_derived_operators_match_direct_clauses():
    rng = random.Random(14)
    build = {"F": eventually, "G": always, "O": once, "H": historically,
             "wX": weak_next, "wY": weak_prev}
    for _ in range(1500):
        t = gen_trace(rng)
        k = rng.randrange(t.length)
        name = rng.choice(["init", "final", "F", "G", "O", "H", "wX", "wY"])
        iv = Interval(rng.randint(0, 3), rng.choice([None, rng.randint(0, 6)]))
        arg = gen_formula(rng, 2)
        if name == "init":
            sugar = initial()
        elif name == "final":
            sugar = final()
        else:
            sugar = build[name](iv, arg)
        assert mht_sat(t, k, sugar) == oracle.derived_sat(t, k, name, iv, arg), \
            (name, iv, format_formula(arg), t, k)


def test_subindex_free_formulas_ignore_the_time_map():
    rng = random.Random(15)
    for _ in range(1500):
        t = gen_trace(rng)
        phi = gen_formula(rng, rng.randint(0, 4), interval=lambda rng: FULL)
        other_times = [0]
        for _ in range(t.length - 1):
            other_times.append(other_times[-1] + rng.randint(0, 5))
        other = TimedHTTrace(t.here, t.there, tuple(other_times))
        for k in range(t.length):
            assert mht_sat(t, k, phi) == mht_sat(other, k, phi)


def test_matches_independent_oracle():
    rng = random.Random(17)
    for _ in range(1500):
        t = gen_trace(rng)
        phi = gen_formula(rng, rng.randint(0, 4))
        k = rng.randrange(t.length)
        assert mht_sat(t, k, phi) == oracle.sat(t.here, t.there, t.times, k, phi)


def test_matches_oracle_exhaustively_on_small_space():
    # every HT trace (strict and non-strict) with 2 atoms, length <= 2,
    # final time <= 2, against a fixed bag of formulas at every state
    rng = random.Random(18)
    formulas = [gen_formula(rng, rng.randint(1, 3)) for _ in range(60)]
    for here, there, times in oracle.bounded_space(("p", "q"), 2, 2, strict=False):
        trace = TimedHTTrace(here, there, times)
        for phi, bits in zip(formulas, state_bits(trace, formulas)):
            for k in range(trace.length):
                assert (bits >> k & 1 == 1) == oracle.sat(here, there, times, k, phi)


def test_matches_oracle_on_long_traces():
    # windows far shorter than the trace, and states where the left operand
    # decides the scan, at every state of long non-total traces
    rng = random.Random(19)
    drawn = []

    def interval(rng):
        drawn.append(gen_interval(rng, max_lo=6, max_width=8))
        return drawn[-1]

    for _ in range(400):
        t = gen_trace(rng, max_len=25)
        while t.is_total():
            t = gen_trace(rng, max_len=25)
        phi = gen_formula(rng, rng.randint(1, 3), interval=interval)
        for k in range(t.length):
            assert mht_sat(t, k, phi) == oracle.sat(t.here, t.there, t.times, k, phi), \
                (format_formula(phi), t, k)
    assert any(iv.is_empty() for iv in drawn) and any(iv.upper is None for iv in drawn)


def _every_connective_to_depth_two():
    """Depth-1 and depth-2 formulas over p, q with each connective on top.

    The windows include the full, a lower-bounded unbounded, an empty, a
    point and a bounded one.
    """
    p, q = Atom("p"), Atom("q")
    windows = [FULL, Interval(1, None), Interval(2, 2), Interval(0, 1), Interval(1, 3)]
    unary, binary = (Next, Prev), (Until, Release, Since, Trigger)
    shallow = [BOT, And(p, q), Or(q, p), Implies(p, q), neg(q)]
    shallow += [op(windows[i], p if i % 2 else q) for i, op in enumerate(unary)]
    shallow += [op(windows[i], p, q if i % 2 else neg(p)) for i, op in enumerate(binary)]
    deep = [And(shallow[3], shallow[6]), Or(shallow[7], shallow[1]),
            Implies(shallow[4], shallow[2]), Implies(shallow[5], shallow[8]), neg(shallow[4])]
    for i, op in enumerate(unary + binary):
        for j in (i, i + 2):
            window = windows[j % len(windows)]
            lhs, rhs = shallow[(i + j) % len(shallow)], shallow[(3 * i + j + 4) % len(shallow)]
            deep.append(op(window, lhs) if op in unary else op(window, lhs, rhs))
    return shallow + deep


def test_tables_match_oracle_exhaustively():
    # every time map over {p, q} with L <= 3 and final time <= 4, strict ones
    # included: bit i of the chunk run of phi's node at k is the oracle's
    # verdict on trace i at k, and so is bit k of phi's node in the
    # there-then-here `values` run on trace i
    formulas = _every_connective_to_depth_two()
    atoms = ("p", "q")
    checked = 0
    for times in {times for _, _, times in oracle.bounded_space(atoms, 3, 4, strict=False)}:
        program = Program(formulas, times)  # one per time map, for both runs
        for base, valid, cells in ht_tables(program, atoms):
            traces = [(i, ht_trace(base + i, atoms, times))
                      for i in range(valid.bit_length()) if valid >> i & 1]
            # every HT trace with this time map, once, here != there included
            assert len({(t.here, t.there) for _, t in traces}) == 3 ** (2 * len(times))
            compiled = [program.values(t.here, t.there) for _, t in traces]
            for phi, root in zip(formulas, program.roots):
                for k in range(len(times)):
                    bits = program.chunk(root, k, *cells)
                    for (i, t), values in zip(traces, compiled):
                        expected = oracle.sat(t.here, t.there, times, k, phi)
                        assert (bits >> i & 1) == expected, (format_formula(phi), t, k)
                        assert (values[root] >> k & 1) == expected, (format_formula(phi), t, k)
                        checked += 1
    assert checked == 941_472


def test_window_masks_match_tau_differences():
    # per offset d, the states k whose state j = k + d (future) or k - d (past)
    # lies within the window, and those whose window is still open at j; on
    # random strict and non-strict time maps of up to 100 states
    rng = random.Random(21)
    windows = [(0, None), (1, None), (3, None), (0, 1), (0, 4), (2, 5), (1, 2), (4, 30)]
    for steps in ((1, 1, 2, 3), (0, 0, 1, 2)):
        for _ in range(12):
            times = [0]
            for _ in range(rng.randint(0, 99)):
                times.append(times[-1] + rng.choice(steps))
            program, n = Program((), tuple(times)), len(times)
            for window, future in [(w, f) for w in windows for f in (True, False)]:
                lo, hi = window

                def reference(d):
                    inside = alive = 0
                    for k in range(n):
                        j = k + d if future else k - d
                        gap = abs(times[j] - times[k]) if 0 <= j < n else None
                        if gap is not None and (hi is None or gap < hi):
                            alive |= 1 << k
                            inside |= (gap >= lo) << k
                    return inside, alive

                masks = program._window(window, future)
                assert masks == [reference(d) for d in range(len(masks))], (times, window, future)
                # the list ends once every window is closed, or every open one entered
                inside, alive = reference(len(masks))
                assert (alive if hi is not None else alive & ~inside) == 0, (times, window, future)


def test_program_matches_oracle_on_traces_longer_than_a_word():
    # non-total traces of 130-300 states, so shifts, fills and window masks
    # cross machine-word boundaries; windows narrower than, as wide as and
    # wider than the whole trace, at every state
    rng = random.Random(20)
    p, q = Atom("p"), Atom("q")
    for length in (130, 300):
        times = [0]
        for _ in range(length - 1):
            times.append(times[-1] + rng.choice((0, 1, 1, 2, 3)))
        there = tuple(frozenset(a for a in "pq" if rng.random() < 0.6) for _ in range(length))
        here = tuple(frozenset(a for a in state if rng.random() < 0.8) for state in there)
        trace = TimedHTTrace(here, there, tuple(times))
        span = times[-1]
        windows = [FULL, Interval(2, None), Interval(0, 3), Interval(1, 6), Interval(3, 4),
                   Interval(0, span + 1), Interval(span, span + 1), Interval(2, span + 40)]
        formulas = [op(window, p, q) for window in windows
                    for op in (Until, Release, Since, Trigger)]
        # implications read the there-world too
        formulas += [op(window, Implies(p, q), neg(q)) for window in windows[2:4]
                     for op in (Until, Release, Since, Trigger)]
        formulas += [op(window, Implies(q, p)) for window in windows for op in (Next, Prev)]
        formulas += [always(FULL, eventually(FULL, q)), always(FULL, Until(FULL, p, q)),
                     once(Interval(0, 5), historically(Interval(0, 3), p)),
                     Implies(eventually(FULL, p), q)]
        for phi, bits in zip(formulas, state_bits(trace, formulas)):
            for k in range(length):
                assert (bits >> k & 1 == 1) == oracle.sat(here, there, trace.times, k, phi), \
                    (format_formula(phi), length, k)


def test_nested_unbounded_operators_take_linear_time():
    # G G F q cost one scan per nesting level per state with a recursive
    # evaluator; with one pass per operator 20,000 states take milliseconds
    length = 20_000
    states = tuple(frozenset("q" if k % 7 == 0 or k == length - 1 else "p")
                   for k in range(length))
    trace = TimedHTTrace(states, states, tuple(range(length)))

    def too_slow(signum, frame):
        raise TimeoutError("mht_sat took over 20 s on a 20,000-state trace")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(20)
    try:
        for text in ("G G F q", "G (p U q)", "H O q"):
            assert mht_sat(trace, 0, parse_formula(text)), text
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
