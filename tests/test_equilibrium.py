import json
import random
import tracemalloc
from bisect import bisect_right
from dataclasses import replace
from itertools import chain, islice

import pytest

import metricht.equilibrium
import metricht.semantics
from conftest import gen_formula, make_trace, time_limit
from metricht.cli import main
from metricht.equilibrium import (
    EquivVerdict, bounded_equiv, enumerate_equilibrium, enumerate_models, is_equilibrium,
    stream_models,
)
from metricht.parser import parse_theory
from metricht.semantics import (
    Program, ht_tables, is_model, mht_sat, region_keys, strictness_axiom,
)
from metricht.syntax import (
    And, Implies, Next, Or, Prev, Release, Since, Theory, Trigger, Until, neg,
)
from metricht.traces import (
    EnumerationBounds, TimedHTTrace, enumerate_total_traces, refinements, state_sequences,
    total_trace,
)

RULES = parse_theory(
    "G (red & green -> #false)\n"
    "G (~green -> red)\n"
    "G (push -> F[1..15) G[0..30] green)\n")
WITH_PUSH = Theory(RULES.formulas + (parse_theory("X[5] push").formulas[0],))
TRAFFIC_ATOMS = ("green", "push", "red")


def test_is_equilibrium_all_red():
    verdict = is_equilibrium(total_trace([{"red"}, {"red"}], [0, 3]), RULES)
    assert verdict.is_equilibrium and verdict.witness is None


def test_is_equilibrium_green_removable():
    verdict = is_equilibrium(total_trace([{"green"}], [0]), RULES)
    assert not verdict.is_equilibrium
    assert verdict.witness == make_trace([(set(), {"green"})], [0])
    assert is_model(verdict.witness, RULES)


def test_is_equilibrium_empty_theory():
    verdict = is_equilibrium(total_trace([{"p"}], [0]), Theory(()))
    assert not verdict.is_equilibrium
    assert verdict.witness.here == (frozenset(),)


def test_witness_is_first_in_refinement_order():
    trace = total_trace([{"p", "q"}, {"p"}], [0, 1])
    theory = Theory(())
    verdict = is_equilibrium(trace, theory)
    first = next(r for r in refinements(trace) if is_model(r, theory))
    assert verdict.witness == first
    assert verdict.witness.here == (frozenset(), frozenset())


def test_is_equilibrium_errors():
    with pytest.raises(ValueError, match="total"):
        is_equilibrium(make_trace([(set(), {"p"})], [0]), Theory(()))
    with pytest.raises(ValueError, match="not a model"):
        is_equilibrium(total_trace([{"red", "green"}], [0]), RULES)


def test_traffic_light_fourteen_models():
    bounds = EnumerationBounds(TRAFFIC_ATOMS, 3, 20, exact_len=True)
    models = enumerate_equilibrium(WITH_PUSH, bounds)
    assert len(models) == 14
    expected_states = (frozenset({"red"}), frozenset({"push", "red"}),
                       frozenset({"green"}))
    assert {m.there for m in models} == {expected_states}
    assert [m.times for m in models] == [(0, 5, t) for t in range(6, 20)]


def test_single_atom_theory():
    models = enumerate_equilibrium(parse_theory("p"), EnumerationBounds(("p",), 1, 0))
    assert [m.there for m in models] == [(frozenset({"p"}),)]


def test_unsatisfiable_theory():
    assert enumerate_equilibrium(parse_theory("#false"),
                                 EnumerationBounds(("p",), 2, 2)) == []


def test_base_theory_all_red():
    bounds = EnumerationBounds(TRAFFIC_ATOMS, 2, 4)
    models = enumerate_equilibrium(RULES, bounds)
    assert all(all(state == frozenset({"red"}) for state in m.there) for m in models)
    assert sorted(m.times for m in models) == [(0,), (0, 1), (0, 2), (0, 3), (0, 4)]


def test_partition_over_lengths():
    bounds = EnumerationBounds(TRAFFIC_ATOMS, 3, 6)
    whole = enumerate_equilibrium(WITH_PUSH, bounds)
    pieces = []
    for length in range(1, 4):
        pieces += enumerate_equilibrium(
            WITH_PUSH, replace(bounds, max_len=length, exact_len=True))
    assert whole == pieces


def test_returned_models_reverified():
    bounds = EnumerationBounds(("p", "q"), 2, 2)
    theory = parse_theory("p | q\nG (p -> F q)\n")
    for model in enumerate_equilibrium(theory, bounds):
        assert model.is_total()
        assert is_model(model, theory)
        assert not any(is_model(r, theory) for r in refinements(model))


def test_strictness_axiom_toggle():
    # p in the second state only; the non-strict space accepts repeated times
    theory = parse_theory("X[0..0] p")
    strict_bounds = EnumerationBounds(("p",), 2, 2)
    assert enumerate_equilibrium(theory, strict_bounds) == []
    loose_bounds = EnumerationBounds(("p",), 2, 2, strict_only=False)
    models = enumerate_equilibrium(theory, loose_bounds)
    assert models and all(m.times == (0, 0) for m in models)


def _with_strictness(theory):
    return Theory(theory.formulas + (strictness_axiom(),))


def test_strictness_axiom_is_inert_under_strict_bounds():
    bounds = EnumerationBounds(TRAFFIC_ATOMS, 3, 12, exact_len=True)
    models = enumerate_equilibrium(WITH_PUSH, bounds)
    assert [m.times for m in models] == [(0, 5, t) for t in range(6, 13)]
    assert enumerate_equilibrium(_with_strictness(WITH_PUSH), bounds) == models
    rng = random.Random(41)
    small = EnumerationBounds(("p", "q"), 2, 3)
    for _ in range(25):
        theory = Theory(tuple(gen_formula(rng, rng.randint(1, 3))
                              for _ in range(rng.randint(1, 2))))
        assert enumerate_equilibrium(_with_strictness(theory), small) == \
            enumerate_equilibrium(theory, small)


@pytest.mark.parametrize("strict", [True, False])
def test_is_equilibrium_agrees_with_enumeration(strict):
    rng = random.Random(42)
    bounds = EnumerationBounds(("p", "q"), 2, 2, strict_only=strict)
    theories = [RULES, parse_theory("p | q\nG (p -> F q)\n"), Theory(())]
    theories += [Theory(tuple(gen_formula(rng, rng.randint(1, 3))
                              for _ in range(rng.randint(1, 2)))) for _ in range(25)]
    for theory in theories:
        models = set(enumerate_equilibrium(theory, bounds))
        for total in enumerate_total_traces(bounds):
            if not is_model(total, theory):
                continue
            verdict = is_equilibrium(total, theory)
            assert verdict.is_equilibrium == (total in models)
            assert verdict.witness is None or is_model(verdict.witness, theory)


def test_bounded_equiv_examples():
    bounds = EnumerationBounds(("p", "q"), 2, 3)
    assert bounded_equiv(parse_theory("p & q"), parse_theory("q & p"), bounds).equivalent
    assert bounded_equiv(parse_theory(""), parse_theory("#true"), bounds).equivalent

    verdict = bounded_equiv(parse_theory("~~p"), parse_theory("p"),
                            EnumerationBounds(("p",), 1, 0))
    assert not verdict.equivalent
    trace, index, side = verdict.counterexample
    assert side == "right" and index == 0
    assert trace.here == (frozenset(),) and trace.there == (frozenset({"p"}),)


def test_bounded_equiv_zero_point_collapse():
    bounds = EnumerationBounds(("p", "q"), 2, 2)
    assert bounded_equiv(parse_theory("p U[0..0] q"), parse_theory("q"), bounds).equivalent
    assert bounded_equiv(parse_theory("p R[0..0] q"), parse_theory("q"), bounds).equivalent


def test_equivalence_needs_both_worlds():
    # ~~p and p share their total-trace models, yet only the latter pins p
    # inside a stable model; comparing total traces alone would miss it.
    bounds = EnumerationBounds(("p",), 1, 0)
    double_neg, plain = parse_theory("~~p"), parse_theory("p")
    totals = [t for t in (total_trace([set()], [0]), total_trace([{"p"}], [0]))]
    assert [is_model(t, double_neg) for t in totals] == \
        [is_model(t, plain) for t in totals]
    assert not bounded_equiv(double_neg, plain, bounds).equivalent
    assert enumerate_equilibrium(double_neg, bounds) == []
    assert [m.there for m in enumerate_equilibrium(plain, bounds)] == \
        [(frozenset({"p"}),)]


def test_monotone_sanity_curated():
    # Adding formulas that every current model (and every refinement of it)
    # already satisfies cannot enlarge the equilibrium-model set.  This is a
    # curated sanity check, not a general law.
    bounds = EnumerationBounds(("p", "q"), 2, 2)
    cases = [
        ("p | q", "#true"),
        ("p | q", "G #true"),
        ("G (p -> q)\np", "F q"),
    ]
    for base_text, extra_text in cases:
        base = parse_theory(base_text)
        extended = Theory(base.formulas + parse_theory(extra_text).formulas)
        before = enumerate_equilibrium(base, bounds)
        after = enumerate_equilibrium(extended, bounds)
        assert set(after) <= set(before), (base_text, extra_text)


def test_bounded_equiv_matches_oracle():
    import oracle
    rng = random.Random(31)
    bounds = EnumerationBounds(("p", "q"), 2, 3)
    for _ in range(60):
        left = Theory(tuple(gen_formula(rng, rng.randint(1, 3))
                            for _ in range(rng.randint(1, 2))))
        right = Theory(tuple(gen_formula(rng, rng.randint(1, 3))
                             for _ in range(rng.randint(1, 2))))
        expected = oracle.theories_equivalent(left.formulas, right.formulas,
                                              ("p", "q"), 2, 3)
        assert bounded_equiv(left, right, bounds).equivalent == expected


def _oracle_model(trace, theory):
    import oracle
    return oracle.theory_sat(trace.here, trace.there, trace.times, theory.formulas)


def _plain_equiv(left, right, bounds):
    """Reference: every total trace and every refinement, with no region classes.

    Both theories are compiled together once and bound to each time map, and
    every trace is run through that program.
    """
    times, program = None, Program(left.formulas + right.formulas)
    for total in enumerate_total_traces(bounds):
        if total.times != times:
            times = total.times
            timed = program.at(times)
        for trace in chain((total,), refinements(total)):
            verdicts = [bits & 1 for bits in timed.bits(trace.here, trace.there)]
            sat_left, sat_right = all(verdicts[:len(left)]), all(verdicts[len(left):])
            if sat_left != sat_right:
                side, failing = ("right", right) if sat_left else ("left", left)
                index = next(i for i, phi in enumerate(failing.formulas)
                             if not mht_sat(trace, 0, phi))
                return EquivVerdict(False, (trace, index, side))
    return EquivVerdict(True, None)


@pytest.mark.parametrize("strict", [True, False])
def test_region_classes_match_the_plain_search(strict):
    rng = random.Random(43 if strict else 44)
    bounds = EnumerationBounds(("p", "q"), 3, 6, strict_only=strict)
    merged = 0
    for _ in range(6):
        left, right = (Theory(tuple(gen_formula(rng, rng.randint(1, 3))
                                    for _ in range(rng.randint(1, 2)))) for _ in range(2))
        models = [total for total in enumerate_total_traces(bounds) if _oracle_model(total, left)]
        assert enumerate_models(left, bounds) == models
        plain = [total for total in models
                 if not any(_oracle_model(r, left) for r in refinements(total))]
        assert enumerate_equilibrium(left, bounds) == plain
        # the reordered copy is equivalent, so that comparison scans the whole space
        for other in (right, Theory(left.formulas[::-1])):
            assert bounded_equiv(left, other, bounds) == _plain_equiv(left, other, bounds)
        program = Program(left.formulas + right.formulas)
        keys = [key for _, key in region_keys(bounds, program)]
        merged += len(set(keys)) < len(keys)
    assert merged


def _clock_region(times, endpoints):
    """Alur and Dill's key: the rank of every difference among every endpoint."""
    return tuple(bisect_right(endpoints, t - s) for j, t in enumerate(times) for s in times[:j])


def _region_classes_keep_their_verdicts(formulas, bounds) -> int:
    """Checks that every member of a region class gives each formula at state 0
    the first member's verdict in both worlds on every HT trace (`oracle.sat`),
    and that each clock region lies inside one class; returns the classes."""
    import oracle
    program, first, within, seen = Program(formulas), {}, {}, {}
    traces = [(here, there, len(times)) for here, there, times
              in oracle.bounded_space(bounds.alphabet, bounds.max_len, 0, strict=False)]

    def verdicts(times):
        if times not in seen:
            seen[times] = [oracle.sat(here, there, times, 0, phi, world)
                           for here, there, length in traces if length == len(times)
                           for phi in formulas for world in "ht"]
        return seen[times]

    for times, key in region_keys(bounds, program):
        assert within.setdefault(_clock_region(times, program.endpoints), key) == key, times
        assert verdicts(times) == verdicts(first.setdefault(key, times)), (times, first[key])
    return len(first)


@pytest.mark.parametrize("strict", [True, False])
def test_region_classes_keep_every_verdict_of_their_first_member(strict):
    # each window tested only on the pairs its operator reaches from state 0:
    # Y only at state 1, S/T and U/R below an X, and their operands anchored
    # away from the outer state (non-strict, (0, 2, 2) and (0, 1, 3) tell a
    # wrong pair or anchoring apart)
    bounds = EnumerationBounds(("p", "q"), 4, 4, strict_only=strict)
    rng = random.Random(53 if strict else 54)
    with time_limit(20, "region classes against the oracle"):
        for text in ("X[1..4) Y[2..3) p", "X[1..3) (p S[1..3) X[2..3) q)",
                     "X[1..3) (p U[1..3) Y[1..2) q)"):
            assert _region_classes_keep_their_verdicts(parse_theory(text).formulas, bounds) > 1
        bounds = replace(bounds, max_len=3, max_time=3)
        for _ in range(30):
            formulas = tuple(gen_formula(rng, rng.randint(1, 4)) for _ in range(rng.randint(1, 2)))
            _region_classes_keep_their_verdicts(formulas, bounds)


def test_region_classes_of_the_traffic_theory():
    # X[5] push is tested only on (0, 1), and F[1..15) G[0..30] split no pair
    # its rules leave alone: far fewer classes than clock regions
    program = Program(WITH_PUSH.formulas)
    for length, max_time, classes, regions in ((3, 12, 2, 11), (3, 20, 7, 20), (5, 12, 2, 93)):
        bounds = EnumerationBounds(TRAFFIC_ATOMS, length, max_time, exact_len=True)
        pairs = list(region_keys(bounds, program))
        assert len({key for _, key in pairs}) == classes
        assert len({_clock_region(times, program.endpoints) for times, _ in pairs}) == regions


def test_region_keys_do_not_grow_with_the_time_bound():
    # no difference exceeds max_time, and none past M, the last endpoint,
    # changes its rank, so each pair's table stops at the lesser of the two; a
    # 1-state search has the one time map (0,) and no pair, so it builds none
    program = Program(parse_theory(f"F[0..{10 ** 6}] p\nF[3..{10 ** 6}) q\n").formulas)
    tracemalloc.start()
    try:
        with time_limit(10, "region keys of windows of 10**6"):
            short = list(region_keys(EnumerationBounds(("p", "q"), 1, 10 ** 6), program))
            keys = list(region_keys(EnumerationBounds(("p", "q"), 2, 5), program))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert short == [((0,), ())] and peak < 2 ** 16
    assert [times for times, _ in keys] == [(0,), (0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]
    assert len({key for _, key in keys[1:]}) == 2  # d < 3 and d >= 3
    far = list(region_keys(EnumerationBounds(TRAFFIC_ATOMS, 2, 400, exact_len=True),
                           Program(WITH_PUSH.formulas)))
    assert [key for _, key in far[30:]] == [far[30][1]] * 370  # every difference from 31 on


def test_searches_start_at_once_at_any_time_bound():
    # the time maps are walked, not listed, and each pair's table stops at the
    # last endpoint: up to time 10**20 the first models and the first region
    # key come at once, in little memory, and match those of a small bound
    bounds = EnumerationBounds(TRAFFIC_ATOMS, 2, 10 ** 20, exact_len=True)
    small = replace(bounds, max_time=40)
    program = Program(WITH_PUSH.formulas)
    tracemalloc.start()
    try:
        with time_limit(5, "the first answers up to time 10**20"):
            models = list(islice(stream_models(RULES, bounds, True), 3))
            first = next(region_keys(bounds, program))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert models == list(islice(stream_models(RULES, small, True), 3))
    assert first == next(region_keys(small, program))


def _window_tests(phi, length):
    """Each (window, i, j), i < j, that an X/Y/U/R/S/T reached from state 0 of phi
    tests on the states i and j, walking the formula itself."""
    tests, seen, todo = set(), set(), [(phi, 0)]
    while todo:
        phi, k = todo.pop()
        if (id(phi), k) in seen:
            continue
        seen.add((id(phi), k))
        kind = type(phi)
        if kind in (Next, Prev):
            j = k + 1 if kind is Next else k - 1
            if 0 <= j < length:
                tests.add(((phi.interval.lower, phi.interval.upper), min(j, k), max(j, k)))
                todo.append((phi.arg, j))
        elif kind in (Until, Release, Since, Trigger):
            states = range(k, length) if kind in (Until, Release) else range(k + 1)
            tests.update(((phi.interval.lower, phi.interval.upper), min(j, k), max(j, k))
                         for j in states if j != k)
            todo += [(operand, j) for operand in (phi.lhs, phi.rhs) for j in states]
        elif kind in (And, Or, Implies):
            todo += [(phi.lhs, k), (phi.rhs, k)]
    return tests


def test_pair_tables_match_a_window_test_at_every_difference():
    # bit w of a pair's table at difference d: the w-th window of the program
    # (by its nodes, last first) is tested on the pair and holds at d; caps
    # at, around and past M, the last endpoint
    rng, checked = random.Random(61), 0
    for _ in range(60):
        formulas = tuple(gen_formula(rng, rng.randint(1, 4)) for _ in range(rng.randint(1, 2)))
        program = Program(formulas)
        if not program.endpoints:
            continue
        windows = list(dict.fromkeys(w for _, w, _, _ in reversed(program.nodes)
                                     if type(w) is tuple))
        top = program.endpoints[-1]
        for length in range(1, 5):
            tests = set().union(*(_window_tests(phi, length) for phi in formulas))
            for cap in sorted({0, 1, top - 1, top, top + 5} - {-1}):
                expected = [[sum(1 << w for w, (lo, hi) in enumerate(windows)
                                 if ((lo, hi), i, j) in tests and lo <= d
                                 and (hi is None or d < hi)) for d in range(cap + 1)]
                            for j in range(length) for i in range(j)]
                assert program.pair_tables(length, cap) == expected, (formulas, length, cap)
                checked += sum(map(len, expected))
    assert checked > 5000


def test_searches_on_sparse_time_match_the_oracle_and_the_plain_search(monkeypatch):
    # windows of 40 over time maps up to 100: 8 of the 22 region classes are too
    # sparse for time positions, so `models` runs them on the bit-per-state scan
    # and the refinement scan and `equiv` run `chunk`, which tests time inline.
    # Each class's first member is checked against the oracle (all 4,950 time
    # maps agreed with it when these counts were recorded), and `equiv` against
    # a search of every time map on its own, with no region classes
    theory = parse_theory("G (p -> F[1..40) q)\nG (q -> O[20..40] p)\n")
    bounds = EnumerationBounds(("p", "q"), 3, 100, exact_len=True)
    firsts = {}
    for times, key in region_keys(bounds, Program(theory.formulas)):
        firsts.setdefault(key, times)
    program = Program(theory.formulas)
    sparse = [t for t in firsts.values() if program.at(t).position(2) == 2 < t[-1]]
    assert len(firsts) == 22 and len(sparse) >= 8
    models, equilibrium = enumerate_models(theory, bounds), enumerate_equilibrium(theory, bounds)
    assert (len(models), len(equilibrium)) == (9729, 4950)
    for times in firsts.values():
        expected = [t for t in (TimedHTTrace(s, s, times) for s in state_sequences(("p", "q"), 3))
                    if _oracle_model(t, theory)]
        assert [m for m in models if m.times == times] == expected
        assert [m for m in equilibrium if m.times == times] == [
            m for m in expected if not any(_oracle_model(r, theory) for r in refinements(m))]
    # O[20..40) in place of O[20..40]: a counterexample needs states 40 apart
    open_end = parse_theory("G (p -> F[1..40) q)\nG (q -> O[20..40) p)\n")
    found = [bounded_equiv(theory, other, bounds)
             for other in (Theory(theory.formulas[::-1]), open_end)]
    monkeypatch.setattr(metricht.equilibrium, "region_keys",
                        lambda b, p: ((times, times) for times, _ in region_keys(b, p)))
    assert found == [bounded_equiv(theory, other, bounds)
                     for other in (Theory(theory.formulas[::-1]), open_end)]
    trace, index, side = found[1].counterexample
    assert trace.times == (0, 20, 40) and (index, side) == (1, "right")
    assert _oracle_model(trace, theory) and not _oracle_model(trace, open_end)


def _seeded_theory(rng, atoms=("p", "q")):
    return Theory(tuple(gen_formula(rng, rng.randint(1, 3), atoms=atoms)
                        for _ in range(rng.randint(1, 2))))


@pytest.mark.parametrize("strict", [True, False])
def test_bit_parallel_equiv_matches_the_plain_search(strict):
    # the exact counterexample: trace, formula index and side
    rng = random.Random(45 if strict else 46)
    bounds = EnumerationBounds(("p", "q"), 3, 3, strict_only=strict)
    differ = 0
    for _ in range(20):
        left = _seeded_theory(rng)
        # a second theory, and one that differs from left in the here-world only
        for right in (_seeded_theory(rng), Theory(tuple(neg(neg(phi)) for phi in left))):
            verdict = bounded_equiv(left, right, bounds)
            assert verdict == _plain_equiv(left, right, bounds)
            differ += not verdict.equivalent
    assert differ > 15


def test_bit_parallel_equiv_across_chunks():
    # 3 atoms over 3 states are 9 ternary digits, one chunk of 3**9 lanes per
    # time map; `test_equiv_and_refinement_scan_on_narrow_chunks` spans many
    rng = random.Random(47)
    atoms = ("p", "q", "r")
    bounds = EnumerationBounds(atoms, 3, 2, exact_len=True)
    found_in = set()
    for _ in range(3):
        left = _seeded_theory(rng, atoms)
        for right in (_seeded_theory(rng, atoms), Theory(tuple(neg(neg(phi)) for phi in left)),
                      Theory(left.formulas[::-1])):
            verdict = bounded_equiv(left, right, bounds)
            assert verdict == _plain_equiv(left, right, bounds)
            if not verdict.equivalent:
                trace = verdict.counterexample[0]
                found_in.add(any("r" in state for state in trace.there[:2]))
    assert found_in == {False, True}  # counterexamples with r in the first two states, or not


# pairs that first differ on a here-world without an atom of a later state, or
# with p at state 0; then two whose first trace needs the there-cells narrowed
# first and the chunks taken in order: one differs on (T {p}, H {p}) and on
# (T {q}, H {}), which has fewer here-cells; the other on (T {q}, H {q}) and on
# (T {p, q}, H {}), which at width 3 (q an outer digit) lies in an earlier chunk
LATE = [("p & X q", "p & X ~~q"), ("X X p", "X X ~~p"), ("F[1..3) (p & q)", "F[1..3) (~~p & q)"),
        ("G (q -> X p)", "G (q -> X ~~p)"), ("p -> X X (q | p)", "p -> X X (~~q | p)"),
        ("p | ~~q & ~p", "q & ~p"), ("~~q & (q | ~~p)", "#false")]


@pytest.mark.parametrize("width", [3, 5, 8])
def test_equiv_and_refinement_scan_on_narrow_chunks(monkeypatch, width):
    # chunks of 3**1, 3**3 or 3**5 HT lanes, and 2**3, 2**5 or 2**8 for the
    # refinement scan: L <= 3 spaces over {p, q} span up to 3**5 chunks under
    # up to 2**5 outer there-patterns, so the first trace in search order is
    # often not in the first chunk that has a hit
    monkeypatch.setattr(metricht.semantics, "WIDTH", width)
    rng = random.Random(60 + width)
    for strict in (True, False):
        bounds = EnumerationBounds(("p", "q"), 3, 2, strict_only=strict)
        pairs = [(parse_theory(a), parse_theory(b)) for a, b in LATE]
        for _ in range(4):
            left = _seeded_theory(rng)
            pairs += [(left, _seeded_theory(rng)),
                      (left, Theory(tuple(neg(neg(phi)) for phi in left)))]
        for left, right in pairs:
            assert bounded_equiv(left, right, bounds) == _plain_equiv(left, right, bounds)
            for total in islice(enumerate_models(left, bounds), 0, None, 7):
                first = next((r for r in refinements(total) if is_model(r, left)), None)
                assert is_equilibrium(total, left).witness == first


def test_refinement_scan_across_chunks():
    # 3 atoms over 6 states index 18 here-bits; state 0 owns the top three
    total = total_trace([{"p", "q", "r"}, set(), {"q"}, set(), set(), {"p", "r"}],
                        [0, 1, 2, 3, 4, 5])
    for text in ("q", "r", "q & r", "X X q | r", "F[5] r", "p | F[5] p", "#true",
                 "p & q & r & X X q & F[5] (p & r)"):
        theory = parse_theory(text)
        first = next((r for r in refinements(total) if is_model(r, theory)), None)
        assert is_equilibrium(total, theory).witness == first, text
    assert first is None


def test_refinement_scan_indexes_only_the_atoms_of_the_total():
    # 14 states holding one atom each out of 4: the scan indexes the 2**14
    # refinements in one chunk, not 2**56 indices (every atom in every state)
    total = total_trace([{"pqrs"[k % 4]} for k in range(14)], range(14))
    chunks = islice(ht_tables(Program(()).at(total.times), total.atoms(), total.there), 2)
    assert [cells[2] for _, _, cells in chunks] == [(1 << 2 ** 14) - 1]

    with time_limit(20, "the refinement scan"):
        for text in ("G (p | q | r | s)", "F[5..9] s", "G (p -> X q)"):
            theory = parse_theory(text)
            first = next((r for r in refinements(total) if is_model(r, theory)), None)
            assert is_equilibrium(total, theory).witness == first, text


@pytest.mark.parametrize("text,model", [
    (" <-> ".join(["p"] * 201), ["p"]),
    ("p & " * 3000 + "p", ["p"]),
], ids=["iff-chain-200", "and-chain-3000"])
def test_table_runs_of_shared_nodes_and_long_chains(capsys, tmp_path, text, model):
    # `a <-> b` is (a -> b) & (b -> a): a chain of 200 reaches its first `p`
    # along 2**200 paths, so the table run evaluates a shared node once per
    # chunk, state and world; it walks a long `&` chain in a loop, not a frame
    # per conjunct.  The iff chain alternates between #true and p.
    theory = tmp_path / "chain.lp"
    theory.write_text(text + "\n")
    with time_limit(20, "models --equilibrium and equiv on a chain"):
        assert main(["models", str(theory), "--max-len", "1", "--equilibrium"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            json.dumps({"alphabet": ["p"], "states": [{"time": 0, "there": model}]}), "1 model"]
        assert main(["equiv", str(theory), str(theory), "--max-len", "2"]) == 0
        assert capsys.readouterr().out == "EQUIVALENT (within bounds)\n"


def test_table_runs_of_nested_windows_grow_linearly(monkeypatch):
    # in G[0..4) (F[0..4) (G[0..4) ...)) every window of an operator asks the
    # operator below at up to four states, and overlapping windows ask it at the
    # same state again; evaluated once per chunk, state and world, a nest twice
    # as deep costs at most twice the `chunk` calls (at depth 12 an unmemoised
    # nest made about 12 times as many as at depth 6)
    calls = []
    chunk = Program.chunk

    def counting(self, *args):
        calls.append(None)
        return chunk(self, *args)

    monkeypatch.setattr(Program, "chunk", counting)
    counts = {}
    for depth in (6, 12):
        nest = "p"
        for level in range(depth):
            nest = f"{'F' if level % 2 else 'G'}[0..4) ({nest})"
        left = parse_theory(f"G (q -> p)\n{nest}\n")
        calls.clear()
        with time_limit(20, f"equiv of a {depth}-deep nest"):
            assert bounded_equiv(left, Theory(left.formulas[::-1]),
                                 EnumerationBounds(("p", "q"), 5, 4)).equivalent
        counts[depth] = len(calls)
    assert counts[12] <= 2 * counts[6], counts


def test_equiv_of_ht_equivalent_traffic_rules_at_length_five():
    # `G (red & green -> #false)` and `G (green -> ~red)` are HT-equivalent, so
    # the scan runs to the end: 3**15 HT lanes per region class in 243 chunks
    right = Theory((parse_theory("G (green -> ~red)").formulas[0],) + RULES.formulas[1:])
    with time_limit(10, "equiv of the traffic rules at L5"):
        assert bounded_equiv(RULES, right, EnumerationBounds(TRAFFIC_ATOMS, 5, 6, exact_len=True)) \
            == EquivVerdict(True, None)


def test_equiv_memory_stays_bounded():
    # 3 atoms at L = 4: 3**12 HT lanes per time map, in 9 chunks of 3**10
    atoms = ("p", "q", "r")
    bounds = EnumerationBounds(atoms, 4, 3, exact_len=True)
    left = parse_theory("G (p -> F[1..3) q)\nG (r | ~q)\n")
    right = Theory(left.formulas[::-1])
    tracemalloc.start()
    try:
        assert bounded_equiv(left, right, bounds).equivalent
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_searches_compile_one_program_per_region_class(monkeypatch):
    # a search compiles its theories once and binds the program to the first
    # time map of each class it searches; a one-off is_model / mht_sat compile
    # would count too
    compiled, bound = [], []

    class Counting(Program):
        def __init__(self, formulas):
            compiled.append(formulas)
            super().__init__(formulas)

        def at(self, tau):
            bound.append(tau)
            return super().at(tau)

    def first_maps(bounds, formulas):  # class key -> its first time map, in search order
        first = {}
        for times, key in region_keys(bounds, Program(formulas)):
            first.setdefault(key, times)
        return first

    monkeypatch.setattr(metricht.equilibrium, "Program", Counting)
    monkeypatch.setattr(metricht.semantics, "Program", Counting)
    bounds = EnumerationBounds(("p", "q"), 3, 5)
    left = parse_theory("G (p -> F[1..3) q)")
    for right in (Theory(left.formulas * 2), parse_theory("G (p -> F[1..2) q)")):
        both = left.formulas + right.formulas
        first = first_maps(bounds, both)
        classes = list(first)
        compiled.clear()
        bound.clear()
        verdict = bounded_equiv(left, right, bounds)
        searched = classes
        if not verdict.equivalent:  # the search stops at the counterexample's class
            key = next(key for times, key in region_keys(bounds, Program(both))
                       if times == verdict.counterexample[0].times)
            searched = classes[:classes.index(key) + 1]
            assert len(searched) > 1
        assert len(compiled) == 1
        assert bound == [first[key] for key in searched]
    assert not verdict.equivalent
    compiled.clear()
    bound.clear()
    traffic = EnumerationBounds(TRAFFIC_ATOMS, 3, 8)
    models = enumerate_equilibrium(WITH_PUSH, traffic)
    assert models
    assert len(compiled) == 1
    assert bound == list(first_maps(traffic, WITH_PUSH.formulas).values())
    compiled.clear()
    bound.clear()
    is_equilibrium(models[0], WITH_PUSH)
    assert len(compiled) == 1
    assert bound == [models[0].times]
