import random

import pytest

import oracle
from conftest import gen_formula, gen_trace
from metricht.parser import parse_formula, parse_theory
from metricht.semantics import em_theory, is_model, mht_sat, strictness_axiom
from metricht.syntax import (
    Atom, FULL, Interval, Theory, always, eventually, historically, format_formula,
    initial, final, neg, once, weak_next, weak_prev,
)
from metricht.traces import TimedHTTrace, make_trace, total_part, total_trace

RULES = parse_theory(
    "G (red & green -> #false)\n"
    "G (~green -> red)\n"
    "G (push -> F[1..15) G[0..30] green)\n",
    name="traffic-light")


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
