import random

import pytest

import oracle
from conftest import gen_formula, gen_interval, gen_trace, make_trace, total_part
from metricht.parser import parse_formula, parse_theory
from metricht.semantics import (
    em_theory, ht_tables, ht_trace, is_model, mht_sat, strictness_axiom,
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
        for phi in formulas:
            for k in range(trace.length):
                assert mht_sat(trace, k, phi) == oracle.sat(here, there, times, k, phi)


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
    # included: bit i of table(k, phi) is the oracle's verdict on trace i at k
    formulas = _every_connective_to_depth_two()
    atoms = ("p", "q")
    checked = 0
    for times in {times for _, _, times in oracle.bounded_space(atoms, 3, 4, strict=False)}:
        for base, valid, table in ht_tables(atoms, times):
            traces = [(i, ht_trace(base + i, atoms, times))
                      for i in range(valid.bit_length()) if valid >> i & 1]
            # every HT trace with this time map, once
            assert len({(t.here, t.there) for _, t in traces}) == 3 ** (2 * len(times))
            for phi in formulas:
                for k in range(len(times)):
                    bits = table(k, phi)
                    for i, t in traces:
                        assert (bits >> i & 1) == oracle.sat(t.here, t.there, times, k, phi), \
                            (format_formula(phi), t, k)
                        checked += 1
    assert checked == 941_472
