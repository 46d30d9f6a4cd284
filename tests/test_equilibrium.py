import random
import signal
import tracemalloc
from dataclasses import replace
from itertools import chain, islice

import pytest

import metricht.equilibrium
import metricht.semantics
from conftest import gen_formula, make_trace
from metricht.equilibrium import (
    EquivVerdict, bounded_equiv, enumerate_equilibrium, enumerate_models, is_equilibrium,
)
from metricht.parser import parse_theory
from metricht.semantics import Program, ht_tables, is_model, mht_sat, strictness_axiom
from metricht.syntax import Theory, neg
from metricht.traces import (
    EnumerationBounds, enumerate_total_traces, refinements, region_keys, total_trace,
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

    Both theories are compiled together once per time map, and every trace is
    run through that program.
    """
    times = None
    for total in enumerate_total_traces(bounds):
        if total.times != times:
            times = total.times
            program = Program(left.formulas + right.formulas, times)
        for trace in chain((total,), refinements(total)):
            values = program.values(trace.here, trace.there)
            verdicts = [values[root] & 1 for root in program.roots]
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
        keys = [key for _, key in region_keys(bounds, left.formulas + right.formulas)]
        merged += len(set(keys)) < len(keys)
    assert merged


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
    # 3 atoms over 3 states index 2 * 9 bits, so each time map takes 4 chunks
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
    assert found_in == {False, True}  # counterexamples below and above the first chunk


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
    chunks = islice(ht_tables(Program((), total.times), total.atoms(), total.there), 2)
    assert [(base, valid) for base, valid, _ in chunks] == [(0, (1 << 2 ** 14) - 1)]

    def too_slow(signum, frame):
        raise TimeoutError("the refinement scan took over 20 s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(20)
    try:
        for text in ("G (p | q | r | s)", "F[5..9] s", "G (p -> X q)"):
            theory = parse_theory(text)
            first = next((r for r in refinements(total) if is_model(r, theory)), None)
            assert is_equilibrium(total, theory).witness == first, text
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_equiv_memory_stays_bounded():
    # 3 atoms at L = 4: 2**24 (there, here) indices per time map, in 2**16-bit chunks
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
    # every compile counts, the one-off is_model / mht_sat ones included
    built = []

    class Counting(Program):
        def __init__(self, formulas, tau):
            built.append(tau)
            super().__init__(formulas, tau)

    monkeypatch.setattr(metricht.equilibrium, "Program", Counting)
    monkeypatch.setattr(metricht.semantics, "Program", Counting)
    bounds = EnumerationBounds(("p", "q"), 3, 5)
    left = parse_theory("G (p -> F[1..3) q)")
    for right in (Theory(left.formulas * 2), parse_theory("G (p -> F[1..2) q)")):
        both = left.formulas + right.formulas
        classes = list(dict.fromkeys(key for _, key in region_keys(bounds, both)))
        built.clear()
        verdict = bounded_equiv(left, right, bounds)
        searched = classes
        if not verdict.equivalent:  # the search stops at the counterexample's class
            key = next(key for times, key in region_keys(bounds, both)
                       if times == verdict.counterexample[0].times)
            searched = classes[:classes.index(key) + 1]
            assert len(searched) > 1
        assert len(built) == len(searched)
    assert not verdict.equivalent
    built.clear()
    models = enumerate_equilibrium(WITH_PUSH, EnumerationBounds(TRAFFIC_ATOMS, 3, 8))
    assert models
    assert len(built) == len({key for _, key in region_keys(EnumerationBounds(
        TRAFFIC_ATOMS, 3, 8), WITH_PUSH.formulas)})
    built.clear()
    is_equilibrium(models[0], WITH_PUSH)
    assert built == [models[0].times]
