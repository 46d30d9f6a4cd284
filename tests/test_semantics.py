import json
import random

import pytest

import oracle
from conftest import (
    gen_formula, gen_interval, gen_trace, make_trace, time_limit, total_part,
)
from metricht.parser import parse_formula, parse_theory
from metricht.semantics import (
    Program, em_theory, ht_tables, is_model, lane_trace, mht_sat, state_bits, strictness_axiom,
)
from metricht.syntax import (
    And, Atom, BOT, FULL, Implies, Interval, Next, Or, Prev, Release, Since, Theory,
    Trigger, Until, always, eventually, historically, format_formula, iff, initial, final,
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
        # such a program reads only the order of the states: bit k is state k
        assert Program((phi,)).at(other.times).position(t.length - 1) == t.length - 1
        for k in range(t.length):
            assert mht_sat(t, k, phi) == mht_sat(other, k, phi) == \
                oracle.sat(t.here, t.there, other.times, k, phi)


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
    # verdict on trace i at k, and so is the bit of state k (`position(k)`)
    # of phi's bits in the there-then-here `bits` run on trace i
    formulas = _every_connective_to_depth_two()
    atoms = ("p", "q")
    checked = 0
    for times in {times for _, _, times in oracle.bounded_space(atoms, 3, 4, strict=False)}:
        program = Program(formulas).at(times)  # one per time map, for both runs
        for _, _, cells in ht_tables(program, atoms):
            traces = [(i, lane_trace(cells, i, times)) for i in range(cells[2].bit_length())]
            # every HT trace with this time map, once, here != there included
            assert len({(t.here, t.there) for _, t in traces}) == 3 ** (2 * len(times))
            compiled = [list(program.bits(t.here, t.there)) for _, t in traces]
            for f, (phi, root) in enumerate(zip(formulas, program.roots)):
                for k in range(len(times)):
                    bits = program.chunk(root, k, *cells)
                    for (i, t), values in zip(traces, compiled):
                        expected = oracle.sat(t.here, t.there, times, k, phi)
                        assert (bits >> i & 1) == expected, (format_formula(phi), t, k)
                        assert (values[f] >> program.position(k) & 1) == expected, \
                            (format_formula(phi), t, k)
                        checked += 1
    assert checked == 941_472


def test_an_l3_time_map_over_two_atoms_is_729_ht_lanes():
    # one ternary digit per (state, atom): 3**6 lanes in one chunk, each a
    # distinct HT trace (`TimedHTTrace` refuses a here-state outside its there-state)
    times, atoms = (0, 1, 2), ("p", "q")
    chunks = list(ht_tables(Program((Atom("p"),)).at(times), atoms))
    assert [cells[2] for _, _, cells in chunks] == [(1 << 729) - 1]
    traces = [lane_trace(chunks[0][2], i, times) for i in range(729)]
    assert len({(t.here, t.there) for t in traces}) == 729


def test_table_runs_of_chains_and_shared_nodes_match_oracle():
    # left-nested chains mixing & and |, which the table run walks in a loop,
    # and subformulas reached along many paths, which it memoises per chunk,
    # state and world; every HT trace over {p, q} with L <= 3 and final time <= 2
    rng = random.Random(31)
    formulas = []
    for _ in range(8):
        phi = gen_formula(rng, 1)
        for _ in range(rng.randint(2, 6)):
            phi = rng.choice([And, Or])(phi, gen_formula(rng, 1))
        formulas.append(phi)
    shared = Until(Interval(0, 3), Atom("p"), neg(Atom("q")))
    chain = shared
    for _ in range(3):
        chain = iff(chain, Or(shared, Prev(FULL, Atom("p"))))
    formulas += [chain, parse_formula("p & q | ~p & X q | (q | p & p) & ~q | X (p | q) & q")]
    atoms, checked = ("p", "q"), 0
    for times in {times for _, _, times in oracle.bounded_space(atoms, 3, 2, strict=False)}:
        program = Program(formulas).at(times)
        for _, _, cells in ht_tables(program, atoms):
            traces = [(i, lane_trace(cells, i, times)) for i in range(cells[2].bit_length())]
            for phi, root in zip(formulas, program.roots):
                for k in range(len(times)):
                    bits = program.chunk(root, k, *cells)
                    for i, t in traces:
                        expected = oracle.sat(t.here, t.there, times, k, phi)
                        assert (bits >> i & 1) == expected, (format_formula(phi), t, k)
                        checked += 1
    assert checked == 136_170


def test_sparse_line_matches_oracle_in_both_worlds():
    # non-strict traces of 2-9 states with gaps from {0, 1, 30, 45, 90, 200}, kept
    # only when they are too sparse for time positions (a single state always
    # fits), so each run takes the bit-per-state line; window bounds on both
    # sides of stamp differences, the empty [50..40) and [0..0) included, under
    # U/R/S/T, some nested under ->, at every state, in the here-world and the
    # there-world
    rng = random.Random(48)
    p, q = Atom("p"), Atom("q")
    windows = [FULL, Interval(1, None), Interval(30, None), Interval(0, 40), Interval(25, 60),
               Interval(0, 1), Interval(30, 31), Interval(50, 40), Interval(10, 200),
               Interval(0, 0)]
    ops = (Until, Release, Since, Trigger)
    formulas = [op(w, p, q) for w in windows for op in ops]
    formulas += [op(w, Implies(p, q), neg(q)) for w in windows[3:6] for op in ops]
    formulas += [Implies(op(w, q, p), op(v, p, neg(q)))
                 for w, v in zip(windows, windows[::-1]) for op in ops]
    checked = 0
    for _ in range(400):
        while True:
            times = [0]
            for _ in range(rng.randint(1, 8)):
                times.append(times[-1] + rng.choice((0, 1, 30, 45, 90, 200)))
            n = len(times)
            if Program(formulas).at(tuple(times)).position(n - 1) == n - 1 < times[-1]:
                break
        there = tuple(frozenset(a for a in "pq" if rng.random() < 0.6) for _ in times)
        here = tuple(frozenset(a for a in state if rng.random() < 0.7) for state in there)
        for world, trace in (("h", TimedHTTrace(here, there, tuple(times))),
                             ("t", TimedHTTrace(there, there, tuple(times)))):
            for phi, bits in zip(formulas, state_bits(trace, formulas)):
                for k in range(n):
                    expected = oracle.sat(here, there, tuple(times), k, phi, world)
                    assert (bits >> k & 1 == 1) == expected, (format_formula(phi), times, k, world)
                    checked += 1
    assert checked == 436_264


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

    with time_limit(20, "mht_sat on a 20,000-state trace"):
        for text in ("G G F q", "G (p U q)", "H O q"):
            assert mht_sat(trace, 0, parse_formula(text)), text


def test_sparse_scan_takes_n_log_n_time():
    # 200,000 states 20-40 apart under windows of 2,000 and 3,000 (about 66
    # and 100 states): positions would take about 30 bits a state, so both rules
    # run on the bit-per-state line, where a scan that shifted a whole int once
    # per state would take quadratic time; then the rules against the oracle
    # near the end each one reads toward, and their bodies at sampled states
    rng = random.Random(49)
    n = 200_000
    times = [0]
    for _ in range(n - 1):
        times.append(times[-1] + rng.randint(20, 40))
    states = tuple(frozenset(a for a, odds in (("p", 0.5), ("q", 0.02)) if rng.random() < odds)
                   for _ in range(n))
    rules = list(parse_theory("G (p -> F[1..2000) q)\nH (q -> O[1..3000] p)\n").formulas)
    bodies = [rules[0].rhs, rules[1].rhs]
    with time_limit(10, "state_bits on 200,000 sparse states"):
        bits = state_bits(TimedHTTrace(states, states, tuple(times)), rules + bodies)
    assert Program(rules).at(tuple(times)).position(n - 1) == n - 1
    for phi, value, ks in ((rules[0], bits[0], (n - 1, n - 2, n - 150)),
                           (rules[1], bits[1], (0, 1, 150))):
        for k in ks:
            assert (value >> k & 1 == 1) == oracle.sat(states, states, tuple(times), k, phi), k
    for k in rng.sample(range(n), 200):
        for phi, value in zip(bodies, bits[2:]):
            assert (value >> k & 1 == 1) == oracle.sat(states, states, tuple(times), k, phi), k


def test_position_run_matches_oracle_in_both_worlds():
    # non-strict traces with up to 3 states per stamp and gaps above the cap
    # (M = 6 here, so gaps of 7-13 are capped): every window shape of the
    # position line, the empty [3..2) included, under U/R/S/T/X/Y, at every
    # state, in the here-world and the there-world
    rng = random.Random(45)
    p, q = Atom("p"), Atom("q")
    windows = [Interval(0, 6), Interval(0, 3), Interval(2, 6), Interval(2, 4), Interval(3, 2),
               Interval(0, 1), Interval(1, 6), Interval(2, None), FULL]
    formulas = [op(w, p, q) for w in windows for op in (Until, Release, Since, Trigger)]
    formulas += [op(w, Implies(p, q), neg(q)) for w in windows[5:]
                 for op in (Until, Release, Since, Trigger)]
    formulas += [op(w, arg) for w in windows for op in (Next, Prev) for arg in (p, Implies(q, p))]
    formulas += [always(Interval(0, 5), eventually(Interval(1, 6), q)),
                 once(Interval(2, 6), historically(Interval(0, 3), Implies(p, q)))]
    placed = checked = 0
    for _ in range(200):
        times = []
        for _ in range(rng.randint(1, 8)):
            stamp = times[-1] + rng.choice((1, 2, 3, 5, 7, 9, 13)) if times else 0
            times += [stamp] * rng.randint(1, 3)
        there = tuple(frozenset(a for a in "pq" if rng.random() < 0.6) for _ in times)
        here = tuple(frozenset(a for a in state if rng.random() < 0.7) for state in there)
        program = Program(formulas).at(tuple(times))
        placed += program.position(len(times) - 1) > len(times) - 1
        for world, trace in (("h", TimedHTTrace(here, there, tuple(times))),
                             ("t", TimedHTTrace(there, there, tuple(times)))):
            for phi, bits in zip(formulas, state_bits(trace, formulas)):
                for k in range(len(times)):
                    expected = oracle.sat(here, there, tuple(times), k, phi, world)
                    assert (bits >> k & 1 == 1) == expected, (format_formula(phi), times, k, world)
                    checked += 1
    assert placed > 170  # nearly every trace runs on positions, not state indices
    assert checked == 309_240


def test_dense_and_sparse_time_maps_match_oracle():
    # one theory on both sides of the density gate: gaps of 0-2 put the states
    # on positions, gaps of 40-90 (capped at 35) would take 35 bits a state,
    # so that map keeps state indices and per-offset masks
    theory = parse_theory(
        "p U[2..30) q\nG[0..35) (p -> F[1..20) q)\nq S[3..) p\np T[0..12) q\n"
        "X[1..31) p\nY[0..2) q\nH (p | O[5..35) q)\np R q\nF[20..) p\nwX[0..3) (p -> q)\n")
    rng = random.Random(46)
    for steps, positions in (((0, 1, 1, 2), True), ((40, 55, 90), False)):
        times = [0]
        for _ in range(59):
            times.append(times[-1] + rng.choice(steps))
        there = tuple(frozenset(a for a in "pq" if rng.random() < 0.7) for _ in times)
        here = tuple(frozenset(a for a in state if rng.random() < 0.8) for state in there)
        program = Program(theory.formulas).at(tuple(times))
        assert (program.position(59) > 59) == positions
        trace = TimedHTTrace(here, there, tuple(times))
        for phi, bits in zip(theory.formulas, state_bits(trace, theory.formulas)):
            for k in range(60):
                assert (bits >> k & 1 == 1) == oracle.sat(here, there, trace.times, k, phi), \
                    (format_formula(phi), positions, k)


def test_sparse_time_keeps_state_indices(tmp_path, capsys):
    # 2,000 states 5,000-10,000 apart under windows up to [0..1000000]: on
    # positions that would be about 15 M bits per node, so the program keeps
    # state indices and `check` answers quickly; sampled states against the
    # oracle, the two rules' bodies at random states too
    from metricht.cli import main
    rng = random.Random(47)
    n = 2000
    times = [0]
    for _ in range(n - 1):
        times.append(times[-1] + rng.randint(5000, 10000))
    states = tuple(frozenset(a for a, odds in (("p", 0.9), ("q", 0.3)) if rng.random() < odds)
                   for _ in range(n))
    rules = "G (p -> F[1..500000) q)\nG[0..1000000] (p | H[0..300000] p)\n"
    (tmp_path / "rules.lp").write_text(rules)
    (tmp_path / "trace.json").write_text(json.dumps(
        {"states": [{"time": t, "there": sorted(s)} for t, s in zip(times, states)]}))
    formulas = list(parse_theory(rules).formulas)
    bodies = [formulas[0].rhs, formulas[1].rhs]
    with time_limit(5, "check on 2,000 sparse states"):
        code = main(["check", str(tmp_path / "rules.lp"), str(tmp_path / "trace.json"),
                     "--at", str(n - 100)])
        bits = state_bits(TimedHTTrace(states, states, tuple(times)), formulas + bodies)
    lines = capsys.readouterr().out.splitlines()
    program = Program(formulas).at(tuple(times))
    assert program.position(n - 1) == n - 1
    for i, phi in enumerate(formulas):
        expected = oracle.sat(states, states, tuple(times), n - 100, phi)
        assert lines[i] == f"formula {i + 1}: {'SAT' if expected else 'UNSAT'}"
        for k in (n - 1, n - 2, n - 60, n - 100):
            assert (bits[i] >> k & 1 == 1) == oracle.sat(states, states, tuple(times), k, phi)
    assert code == (0 if lines[-1] == "SAT" else 1)
    for k in rng.sample(range(n), 40):
        for phi, value in zip(bodies, bits[2:]):
            assert (value >> k & 1 == 1) == oracle.sat(states, states, tuple(times), k, phi)
