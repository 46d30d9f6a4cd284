import random
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import (
    gen_formula, gen_interval, gen_trace, is_qel_model, make_trace, stack_headroom, time_limit,
    total_part,
)
from metricht import fom
from metricht.fom import (
    Diff, Exists, Forall, Implies, Point, Pred, QHTInterpretation, Var,
    first_smaller_model, format_fom, induced_interpretation,
    interpretation_from_json, interpretation_to_json, parse_fom,
    qht_sat, simplify_fom, translate,
)
from metricht.parser import ParseError, parse_formula, parse_theory
from metricht.semantics import Program, first_bit, mht_sat, strictness_axiom
from metricht.equilibrium import _first_smaller_model, is_equilibrium, enumerate_equilibrium
from metricht.syntax import (
    And, Atom, BOT, FULL, Implies as KImplies, Interval, Next, Or, Prev, Release, Since,
    Trigger, Until, format_formula,
)
from metricht.traces import EnumerationBounds, TimedHTTrace, enumerate_total_traces, total_trace

PUSH_RULE = parse_formula("G (push -> F[1..15) G[0..30] green)")
PUSH_SENTENCE = ("!x (0 <={0} x & push(x) -> "
                 "?y (x <={-1} y & y <={14} x & "
                 "!z (y <={0} z & z <={30} y -> green(z))))")


# ------------------------------------------------------------------ translation

def test_translate_atom():
    assert translate(parse_formula("p"), 0) == Pred("p", Point(0))
    assert format_fom(translate(parse_formula("p"), 0)) == "p(0)"


def test_translate_eventually_raw_shape():
    raw = translate(parse_formula("F[1..15) green"), Var("x"))
    assert isinstance(raw, Exists)
    x, y = Var("x"), Var("y0")
    conjuncts = []
    node = raw.body
    while isinstance(node, fom.And):
        conjuncts.append(node.rhs)
        node = node.lhs
    conjuncts.append(node)
    conjuncts.reverse()
    assert conjuncts[0] == Diff(x, 0, y)
    assert conjuncts[1] == Diff(x, -1, y)
    assert conjuncts[2] == fom.fneg(Diff(x, -15, y))
    assert conjuncts[3] == Pred("green", y)
    assert isinstance(conjuncts[4], Forall)


def test_translate_rejects_empty_intervals():
    with pytest.raises(ValueError, match="non-empty"):
        translate(parse_formula("F[0..0) p"), 0)


def test_push_rule_translates_to_golden_sentence():
    simplified = simplify_fom(translate(PUSH_RULE, 0))
    assert format_fom(simplified) == PUSH_SENTENCE
    assert parse_fom(PUSH_SENTENCE) == simplified


# ------------------------------------------------------------------ simplification

def test_simplify_examples():
    top = fom.TOP
    assert simplify_fom(Diff(Var("x"), None, Var("y"))) == top
    assert simplify_fom(fom.And(Pred("p", Point(0)), top)) == Pred("p", Point(0))
    assert simplify_fom(Forall(Var("v"), Implies(Pred("p", Var("v")), top))) == top


def test_rename_skips_the_free_names():
    # bound variables get x, y, z, x1, ... in traversal order, none of them the
    # name of a free variable, whether that is met after the binder that would
    # take it or not at all; a binder's name is restored after its body, so a
    # shadowed name inside and a free one beyond keep theirs
    a, b, c, x = Var("a"), Var("b"), Var("c"), Var("x")
    cases = [
        (Forall(a, Exists(b, fom.And(Diff(a, 3, b), Pred("p", x)))), "!y ?z (y <={3} z & p(x))"),
        (fom.And(Forall(a, Pred("p", a)), Pred("q", x)), "!y p(y) & q(x)"),
        (fom.And(Forall(a, Exists(b, Forall(c, fom.And(Pred("p", a), Diff(b, 0, c))))),
                 fom.And(Pred("q", Var("y")), Pred("r", Var("x1")))),
         "!x ?z !y1 (p(x) & z <={0} y1) & (q(y) & r(x1))"),
        (fom.And(Forall(a, fom.And(Pred("p", a), Exists(a, Pred("q", a)))), Pred("r", a)),
         "!x (p(x) & ?y q(y)) & r(a)"),
        (Forall(a, Pred("p", Var("w"))), "!x p(w)"),
    ]
    for phi, expected in cases:
        assert format_fom(fom._rename(phi)) == expected


def test_simplify_negated_difference_flip():
    flipped = simplify_fom(fom.fneg(Diff(Var("x"), -15, Var("y"))))
    assert flipped == Diff(Var("y"), 14, Var("x"))


def test_simplify_preserves_satisfaction():
    rng = random.Random(41)
    nonempty = lambda r: gen_interval(r, nonempty_only=True)
    for _ in range(500):
        trace = gen_trace(rng, strict=True)
        phi = gen_formula(rng, rng.randint(0, 3), interval=nonempty)
        interp = induced_interpretation(trace)
        sentence = translate(phi, trace.times[rng.randrange(trace.length)])
        assert qht_sat(interp, sentence) == qht_sat(interp, simplify_fom(sentence))


def test_simplify_is_one_pass_to_the_fixpoint():
    # simplify_fom runs _simp once; oracle.simplify_fixpoint applies the same
    # rules one pass at a time until nothing changes.  On random formulas and
    # the traffic rules translated at anchors 0-2 they agree and a second _simp
    # changes nothing, and some of these sentences take the reference more
    # than one pass
    import oracle
    rng = random.Random(45)
    nonempty = lambda r: gen_interval(r, nonempty_only=True)
    formulas = [gen_formula(rng, rng.randint(0, 4), interval=nonempty) for _ in range(2000)]
    formulas += parse_theory("G (red & green -> #false)\nG (~green -> red)\n"
                             "G (push -> F[1..15) G[0..30] green)\nX[5] push\n").formulas
    more = 0
    for phi in formulas:
        for at in (0, 1, 2):
            raw = translate(phi, at)
            once = fom._simp(raw)
            assert fom._simp(once) == once, format_fom(raw)
            assert simplify_fom(raw) == oracle.simplify_fixpoint(raw), format_fom(raw)
            first = oracle._simp_once(raw)
            more += oracle._simp_once(first) != first
    assert more >= 10


# ------------------------------------------------------------------ satisfaction

def test_qht_sat_difference_atoms():
    interp = QHTInterpretation((0, 4, 7), frozenset(), frozenset())
    assert qht_sat(interp, Diff(Point(4), 0, Point(4)))
    assert not qht_sat(interp, Diff(Point(7), -1, Point(4)))
    assert qht_sat(interp, Diff(Point(0), None, Point(7)))


def test_qht_sat_point_outside_domain():
    interp = QHTInterpretation((0,), frozenset(), frozenset())
    with pytest.raises(ValueError, match="outside"):
        qht_sat(interp, Pred("p", Point(3)))
    with pytest.raises(ValueError, match="outside"):
        qht_sat(interp, Diff(Point(0), 0, Point(9)))
    # refused when the program is bound, whatever decides the sentence first
    for text in ("#false & p(9)", "p(0) | 0 <={w} 9", "!x (x <={0} 0 -> ?y #true | q(4))"):
        with pytest.raises(ValueError, match="outside"):
            qht_sat(interp, parse_fom(text))


def test_qht_sat_two_worlds():
    interp = QHTInterpretation((0,), frozenset(), frozenset([("p", 0)]))
    p0 = Pred("p", Point(0))
    assert not qht_sat(interp, p0)
    assert not qht_sat(interp, fom.fneg(p0))
    assert qht_sat(interp, fom.fneg(fom.fneg(p0)))


def test_difference_excluded_middle():
    rng = random.Random(42)
    for _ in range(300):
        domain = tuple(sorted({0} | {rng.randint(0, 9) for _ in range(3)}))
        atoms = frozenset(("p", d) for d in domain if rng.random() < 0.4)
        interp = QHTInterpretation(domain, atoms, atoms)
        delta = rng.choice([None, rng.randint(-5, 5)])
        d = Diff(Var("a"), delta, Var("b"))
        em = Forall(Var("a"), Forall(Var("b"), fom.Or(d, fom.fneg(d))))
        assert qht_sat(interp, em)


def test_qht_takes_no_frame_per_level():
    # 10,000 nested quantifiers over one shadowed name, and a 10,000-part conjunction
    x, deep = Var("x"), Pred("p", Var("x"))
    for _ in range(10_000):
        deep = Forall(x, Implies(Pred("p", x), deep))
    wide = fom.conj([Pred("p", Point(0))] * 10_000)
    interp = QHTInterpretation((0, 1), frozenset([("p", 0)]), frozenset([("p", 0), ("p", 1)]))
    with stack_headroom():
        assert qht_sat(interp, deep) and qht_sat(interp, wide)
        assert first_smaller_model(interp.domain, interp.there, wide) == frozenset([("p", 0)])


def test_nested_binders_over_distinct_names_compile_in_linear_memory():
    # ?v0 !v1 ?v2 ... (p(v0) -> q(v5999)): one scope table for the whole compile,
    # not an environment per binder, whose copies grow with the square of the depth
    deep = Implies(Pred("p", Var("v0")), Pred("q", Var("v5999")))
    for i in reversed(range(6_000)):
        deep = (Forall if i % 2 else Exists)(Var(f"v{i}"), deep)
    interp = QHTInterpretation((0, 1), frozenset([("p", 0)]), frozenset([("p", 0), ("q", 1)]))
    tracemalloc.start()
    try:
        with time_limit(20, "qht of 6,000 nested binders"):
            assert qht_sat(interp, deep)
            assert first_smaller_model(interp.domain, interp.there, deep) == frozenset()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20, peak


# Every connective and quantifier, shadowed names, subformulas with 0-3 free
# variables, time points, w bounds and negative deltas; open formulas are
# compared on their whole table.
TABLE_FORMULAS = (
    "#true", "#false", "p(0)", "p(0) & q(0)", "p(0) | q(0)", "p(0) -> q(0)",
    "(p(0) -> #false) -> #false", "!x p(x)", "?x (p(x) & q(x))", "!x (p(x) -> q(x))",
    "!x ((p(x) -> #false) | p(x))", "!x ?x p(x)", "?x (q(x) & !x (q(x) -> p(x)))",
    "!x ?y (x <={-1} y & p(y))", "!x !y (x <={0} y & y <={0} x -> (p(x) -> p(y)))",
    "?x ?y ?z (x <={-1} y & y <={-1} z & (p(x) -> q(z)))",
    "!x (p(x) -> ?y (x <={-1} y & y <={2} x & !z (y <={0} z & z <={1} y -> q(z))))",
    "!x (x <={w} 0 -> p(x))", "?x (0 <={-2} x & q(x))", "!x (x <={1} 0 -> p(x) | q(x))",
    "0 <={w} 0", "0 <={-1} 0", "?x x <={0} x", "!x (0 <={w} x | p(x)) & ?y y <={-1} 0",
    "p(x)", "x <={0} y", "p(x) -> q(y)", "?z (x <={-1} z & z <={-1} y & p(z))",
    "x <={-1} y & y <={-1} z -> p(y)", "q(z) | !y (y <={0} x -> p(y))", "?x p(x) & q(x)",
)


def test_fom_tables_match_oracle_exhaustively():
    # every here <= there interpretation over {p, q} on domains of 1-3 points
    # containing 0: bit v of an open formula's table (its free variables
    # ordered by name, the last least significant) is the oracle's verdict
    # with those variables bound to the domain points v spells.  Every domain
    # stays bound throughout, and each bound program runs its interpretations
    # twice, in opposite orders, so a table kept from one run, world or
    # binding shows in another
    import oracle
    formulas = [parse_fom(text) for text in TABLE_FORMULAS]
    programs, checked = [fom.Program([phi]) for phi in formulas], 0
    assert programs[-1].free == ["x"] and programs[-3].free == ["x", "y", "z"]
    bindings = [(domain, [p.at(domain) for p in programs])
                for domain in ((0,), (0, 1), (0, 2), (0, 1, 3))]
    for second, (domain, bound) in enumerate(bindings + bindings[::-1]):
        atoms = [(p, t) for p in "pq" for t in domain]
        codes = range(3 ** len(atoms))  # per atom: in neither world, there only, both
        for code in reversed(codes) if second >= len(bindings) else codes:
            digits = [code // 3 ** i % 3 for i in range(len(atoms))]
            there = frozenset(a for a, d in zip(atoms, digits) if d)
            here = frozenset(a for a, d in zip(atoms, digits) if d == 2)
            for phi, program in zip(formulas, bound):
                upper, root = program.run(there), program.roots[0]
                worlds = {"h": program.run(here, upper)[root], "t": upper[root]}
                for v, values in enumerate(product(domain, repeat=len(program.free))):
                    env = dict(zip(program.free, values))
                    for world, table in worlds.items():
                        expected = oracle.fo_sat(domain, here, there, phi, env, world)
                        assert table >> v & 1 == expected, \
                            (format_fom(phi), domain, here, there, env, world)
                        checked += 1
    assert checked == 2 * 153_000


def test_translated_sentences_widen_what_reads_a_predicate_by_one_multiply():
    # a subformula that reads a predicate mentions its anchor and variables
    # bound inside it, so a connective only adds outer variables to it: the
    # widening that runs per world and subset is the repunit multiply, and the
    # block spread is left to constants, computed once per binding
    rng = random.Random(46)
    nonempty = lambda r: gen_interval(r, nonempty_only=True)
    widened = 0
    for _ in range(500):
        raw = translate(gen_formula(rng, rng.randint(0, 5), interval=nonempty), Var("x"))
        for sentence in (raw, simplify_fom(raw)):
            program = fom.Program([sentence])
            for kind, _, a, _, free, reads in program.nodes:
                if kind is None and reads:
                    have = program.nodes[a][4]
                    assert free[len(free) - len(have):] == have, format_fom(sentence)
                    widened += 1
    assert widened > 500


# ------------------------------------------------------------------ induced interpretations

def test_induced_interpretation_examples():
    t = total_trace([{"red"}, {"red"}], [0, 3])
    interp = induced_interpretation(t)
    assert interp.domain == (0, 3)
    assert interp.here == interp.there == frozenset([("red", 0), ("red", 3)])

    ht = make_trace([(set(), {"p"})], [0])
    interp = induced_interpretation(ht)
    assert interp.domain == (0,) and interp.here == frozenset() \
        and interp.there == frozenset([("p", 0)])

    member = total_trace([{"red"}, {"push", "red"}, {"green"}], [0, 5, 12])
    interp = induced_interpretation(member)
    assert interp.domain == (0, 5, 12)
    assert interp.there == frozenset(
        [("red", 0), ("push", 5), ("red", 5), ("green", 12)])


def test_induced_interpretation_requires_strict():
    with pytest.raises(ValueError, match="strict"):
        induced_interpretation(total_trace([set(), set()], [0, 0]))


# ------------------------------------------------------------------ model correspondence

def _depth_one_formulas():
    """Every formula of connective depth <= 1 over {p, q, #false} (198 of them)."""
    leaves = [Atom("p"), Atom("q"), BOT]
    intervals = [FULL, Interval(1, 3), Interval(0, 1), Interval(2, None)]
    formulas = list(leaves)
    formulas += [op(a, b) for op in (And, Or, KImplies) for a in leaves for b in leaves]
    formulas += [op(iv, a) for op in (Next, Prev) for iv in intervals for a in leaves]
    formulas += [op(iv, a, b) for op in (Until, Release, Since, Trigger) for iv in intervals
                 for a in leaves for b in leaves]
    return formulas


def test_model_correspondence():
    # the translation theorem over a whole bounded space: every strict
    # here-and-there trace over {p, q} with at most 2 states and final time
    # <= 3 (252 traces), every state, every depth-1 formula.  translate(phi, x)
    # with x free gets a table whose bit k is its truth at the k-th time point,
    # which must equal phi's state bits (bit `position(k)` of `Program.bits`
    # read as bit k), in the here-world and the there-world
    import oracle
    formulas = _depth_one_formulas()
    assert len(formulas) == 198
    sentences = fom.Program([translate(phi, Var("x")) for phi in formulas])
    metric = Program(formulas)
    checks = 0
    for here, there, times in oracle.bounded_space(("p", "q"), 2, 3, strict=True):
        interp = induced_interpretation(TimedHTTrace(here, there, times))
        bound, timed = sentences.at(times), metric.at(times)
        upper = bound.run(interp.there)
        lower = bound.run(interp.here, upper)
        by_state = lambda bits: sum((bits >> timed.position(k) & 1) << k for k in range(len(times)))
        pairs = zip(formulas, sentences.roots, map(by_state, timed.bits(here, there)),
                    map(by_state, timed.bits(there, there)))
        for phi, root, here_bits, there_bits in pairs:
            # a translation that never mentions x has a 1-bit table: the same at every point
            spread = 1 if sentences.nodes[root][4] else (1 << len(times)) - 1
            assert (lower[root] * spread, upper[root] * spread) == (here_bits, there_bits), \
                (format_formula(phi), here, there, times)
            checks += len(times)
    assert checks == 98_010

    # deeper formulas, sampled
    rng = random.Random(43)
    nonempty = lambda r: gen_interval(r, nonempty_only=True, max_lo=3, max_width=3)
    for _ in range(600):
        trace = gen_trace(rng, strict=True)
        phi = gen_formula(rng, rng.randint(0, 3), interval=nonempty)
        k = rng.randrange(trace.length)
        sentence = translate(phi, trace.times[k])
        assert mht_sat(trace, k, phi) == qht_sat(induced_interpretation(trace), sentence)
        total = total_part(trace)
        assert mht_sat(total, k, phi) == qht_sat(induced_interpretation(total), sentence)


# ------------------------------------------------------------------ equilibrium over sentences

def test_is_qel_model_examples():
    assert is_qel_model((0,), [("p", 0)], Pred("p", Point(0)))
    assert not is_qel_model((0,), [("p", 0)], fom.TOP)
    assert first_smaller_model((0,), [("p", 0)], fom.TOP) == frozenset()


def test_is_qel_model_cap():
    atoms = [(f"a{i}", 0) for i in range(21)]
    with pytest.raises(ValueError, match="capped"):
        first_smaller_model((0,), atoms, fom.TOP)


def test_equilibrium_transfer_on_traffic_suite():
    theory = parse_theory(
        "G (red & green -> #false)\n"
        "G (~green -> red)\n"
        "G (push -> F[1..15) G[0..30] green)\n"
        "X[5] push\n")
    from metricht.syntax import Theory
    checked = list(theory.formulas) + [strictness_axiom()]
    sentence = fom.conj([translate(phi, 0) for phi in checked])
    bounds = EnumerationBounds(("green", "push", "red"), 3, 20, exact_len=True)
    models = enumerate_equilibrium(theory, bounds)
    assert len(models) == 14
    full = Theory(tuple(checked))
    for model in models:
        interp = induced_interpretation(model)
        assert is_qel_model(interp.domain, interp.there, sentence)
        assert is_equilibrium(model, full).is_equilibrium
    # a non-equilibrium model of the rules maps to a non-equilibrium interpretation
    lazy = total_trace([{"green"}], [0])
    rules = parse_theory("G (~green -> red)")
    interp = induced_interpretation(lazy)
    rule_sentence = fom.conj([translate(phi, 0) for phi in rules.formulas])
    assert not is_qel_model(interp.domain, interp.there, rule_sentence)


def test_equilibrium_correspondence_over_whole_spaces():
    # the paper's main result over whole bounded spaces: for seeded random
    # rules `body -> head` over {p, q} and every strict total trace with L <= 3
    # and T <= 4, the trace is a model of the rules, and in equilibrium, exactly
    # when its induced interpretation is one of the conjoined translation at 0;
    # every first-order witness, read back as a here-trace, is a metric HT model.
    # Kernel rules put negations and implications under implications, where
    # the here-world's -> must be masked by the there-world's
    rng = random.Random(29)
    nonempty = lambda r: gen_interval(r, nonempty_only=True, max_lo=2, max_width=3)
    part = lambda: gen_formula(rng, rng.randint(0, 2), interval=nonempty, sugar=False)
    traces = list(enumerate_total_traces(EnumerationBounds(("p", "q"), 3, 4)))
    checks = models = equilibria = 0
    for _ in range(60):
        theory = [KImplies(part(), part()) for _ in range(rng.randint(1, 3))]
        sentence = fom.compile_sentence(fom.conj([translate(phi, 0) for phi in theory]))
        program, timed = Program(theory), None
        for trace in traces:
            if timed is None or timed.tau != trace.times:
                timed = program.at(trace.times)
            there = trace.there
            model = all(map(first_bit, timed.bits(there, there)))
            equilibrium = model and _first_smaller_model(timed, there) is None
            interp = induced_interpretation(trace)
            witness = first_smaller_model(interp.domain, interp.there, sentence)
            assert (model, equilibrium) == (witness != interp.there, witness is None), \
                ([format_formula(phi) for phi in theory], trace)
            if model and not equilibrium:
                here = tuple(frozenset(p for p, t in witness if t == time) for time in trace.times)
                assert all(map(first_bit, timed.bits(here, there))), (theory, trace, witness)
            checks, models, equilibria = checks + 1, models + model, equilibria + equilibrium
    assert (checks, models, equilibria) == (27_120, 16_538, 534)


# ------------------------------------------------------------------ text formats

def test_fom_roundtrip_on_translations():
    rng = random.Random(44)
    nonempty = lambda r: gen_interval(r, nonempty_only=True)
    for _ in range(400):
        phi = gen_formula(rng, rng.randint(0, 3), interval=nonempty)
        sentence = translate(phi, 0)
        assert parse_fom(format_fom(sentence)) == sentence
        simplified = simplify_fom(sentence)
        assert parse_fom(format_fom(simplified)) == simplified


def test_format_fom_takes_no_frame_per_level():
    x, phi = Var("x"), Pred("p", Var("x"))
    for _ in range(20_000):
        phi = Forall(x, Implies(Pred("p", x), phi))
    with stack_headroom():
        assert format_fom(phi) == "!x (p(x) -> " * 20_000 + "p(x)" + ")" * 20_000


def test_fom_parse_errors():
    with pytest.raises(ParseError):
        parse_fom("p(0")
    with pytest.raises(ParseError):
        parse_fom("x <= y")
    with pytest.raises(ParseError):
        parse_fom("p(0)) ")


def test_fom_parse_errors_are_located():
    with pytest.raises(ParseError, match=r"expected a term, found '<=\{2\}'") as err:
        parse_fom("?y (q(y) &\n   <={2} y)")
    assert (err.value.line, err.value.column) == (2, 4)
    with pytest.raises(ParseError, match="unexpected character '@'") as err:
        parse_fom("!x p(x) |\n  @")
    assert (err.value.line, err.value.column) == (2, 3)


def test_interpretation_json_roundtrip():
    interp = QHTInterpretation((0, 5, 12), frozenset([("red", 0)]),
                               frozenset([("red", 0), ("push", 5)]))
    data = interpretation_to_json(interp)
    assert data == {"domain": [0, 5, 12], "here": ["red(0)"],
                    "there": ["push(5)", "red(0)"]}
    assert interpretation_from_json(data) == interp
    total = QHTInterpretation((0,), frozenset([("p", 0)]), frozenset([("p", 0)]))
    assert "here" not in interpretation_to_json(total)
    assert interpretation_from_json(interpretation_to_json(total)) == total


def test_interpretation_json_errors():
    with pytest.raises(ValueError):
        interpretation_from_json({"domain": [1], "there": []})
    with pytest.raises(ValueError, match="malformed"):
        interpretation_from_json({"domain": [0], "there": ["Bad Atom"]})
    with pytest.raises(ValueError, match="outside"):
        interpretation_from_json({"domain": [0], "there": ["p(7)"]})


@settings(max_examples=200, deadline=None)
@given(st.integers(-8, 8), st.integers(0, 8), st.integers(0, 8))
def test_diff_atom_is_plain_arithmetic(delta, a, b):
    interp = QHTInterpretation((0, a, b), frozenset(), frozenset())
    assert qht_sat(interp, Diff(Point(a), delta, Point(b))) == (a - b <= delta)
