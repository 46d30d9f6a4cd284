"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import random
import time
from pathlib import Path

import oracle
from conftest import gen_formula, gen_interval, gen_trace, total_part
from metricht.cli import main as cli_main
from metricht.equilibrium import enumerate_equilibrium
from metricht.fom import (
    format_fom, induced_interpretation, qht_sat, simplify_fom, translate,
)
from metricht.parser import parse_formula, parse_theory
from metricht.rewrite import (
    bool_dual, one_step_eliminate, range_split, time_swap, to_unary_nf,
    unfold_next,
)
from metricht.semantics import em_theory, is_model, mht_sat, state_bits
from metricht.syntax import (
    BOT, FULL, Implies, Interval, Next, Prev, Release, Since, Trigger, TRUE, Until,
    format_formula, neg, weak_next, weak_prev,
)
from metricht.traces import (
    EnumerationBounds, TimedHTTrace, reverse_trace,
)

GOLDEN = Path(__file__).parent / "golden"

TRAFFIC_TEXT = (
    "G (red & green -> #false)\n"
    "G (~green -> red)\n"
    "G (push -> F[1..15) G[0..30] green)\n")
TRAFFIC = parse_theory(TRAFFIC_TEXT)
WITH_PUSH = parse_theory(TRAFFIC_TEXT + "X[5] push\n")


def _strict_trace(rng, atoms=("p", "q")):
    return gen_trace(rng, atoms=atoms, max_len=4, max_gap=3, strict=True)


def test_criterion_1_traffic_light_reproduction():
    start = time.monotonic()
    bounds = EnumerationBounds(("green", "push", "red"), 3, 20, exact_len=True)
    models = enumerate_equilibrium(WITH_PUSH, bounds)
    elapsed = time.monotonic() - start
    expected_states = (frozenset({"red"}), frozenset({"push", "red"}),
                       frozenset({"green"}))
    expected = {(expected_states, (0, 5, t)) for t in range(6, 20)}
    assert {(m.there, m.times) for m in models} == expected
    assert len(models) == 14
    assert elapsed < 60.0
    print(f"\n[criterion 1] PASS: 14 equilibrium models, states "
          f"red/push+red/green, final times 6..19 ({elapsed:.1f}s)")


def test_criterion_2_base_theory_all_red():
    bounds = EnumerationBounds(("green", "push", "red"), 2, 4)
    models = enumerate_equilibrium(TRAFFIC, bounds)
    assert all(state == frozenset({"red"})
               for m in models for state in m.there)
    admissible = [(1, (0,))] + [(2, (0, t)) for t in range(1, 5)]
    assert sorted((m.length, m.times) for m in models) == admissible
    print(f"\n[criterion 2] PASS: {len(models)} all-red models, one per "
          f"admissible (length, times) pair")


def test_criterion_3_property_suites():
    rng = random.Random(1003)
    n = 1000

    for _ in range(n):  # persistence
        t, phi = gen_trace(rng), gen_formula(rng, rng.randint(0, 4))
        k = rng.randrange(t.length)
        assert not mht_sat(t, k, phi) or mht_sat(total_part(t), k, phi)

    for _ in range(n):  # negation evaluates classically on the total part
        t, phi = gen_trace(rng), gen_formula(rng, rng.randint(0, 4))
        k = rng.randrange(t.length)
        assert mht_sat(t, k, neg(phi)) == (not mht_sat(total_part(t), k, phi))

    em = em_theory(("p", "q"))
    for _ in range(n):  # excluded middle characterizes total traces
        t = gen_trace(rng)
        assert is_model(t, em) == t.is_total()

    from test_rewrite import _rows
    for _ in range(n):  # the 20 distributivity equivalences
        phi, psi, chi = (gen_formula(rng, 1, atoms=("p", "q", "r")) for _ in range(3))
        t = gen_trace(rng, atoms=("p", "q", "r"), strict=rng.random() < 0.5)
        k = rng.randrange(t.length)
        rows = _rows(phi, psi, chi)
        assert len(rows) == 20
        bits = state_bits(t, [side for row in rows for side in row])
        for idx in range(len(rows)):
            assert bits[2 * idx] >> k & 1 == bits[2 * idx + 1] >> k & 1, idx

    pairs = [(Until, Release), (Release, Until), (Since, Trigger), (Trigger, Since)]
    for _ in range(n):  # negation-duality of the binary operators
        phi, psi, iv = gen_formula(rng, 1), gen_formula(rng, 1), gen_interval(rng)
        t = gen_trace(rng, strict=rng.random() < 0.5)
        k = rng.randrange(t.length)
        for cls, dual in pairs:
            assert mht_sat(t, k, neg(cls(iv, phi, psi))) == \
                mht_sat(t, k, dual(iv, neg(phi), neg(psi)))

    for _ in range(n):  # widening/narrowing the interval
        small = gen_interval(rng)
        lo = rng.randint(0, small.lower)
        big = Interval(lo, None) if small.upper is None or rng.random() < 0.2 \
            else Interval(lo, small.upper + rng.randint(0, 3))
        phi, psi = gen_formula(rng, 1), gen_formula(rng, 1)
        t = gen_trace(rng, strict=rng.random() < 0.5)
        k = rng.randrange(t.length)
        assert mht_sat(t, k, Implies(Until(small, phi, psi), Until(big, phi, psi)))
        assert mht_sat(t, k, Implies(Release(big, phi, psi), Release(small, phi, psi)))
        assert mht_sat(t, k, Implies(Since(small, phi, psi), Since(big, phi, psi)))
        assert mht_sat(t, k, Implies(Trigger(big, phi, psi), Trigger(small, phi, psi)))

    for _ in range(n):  # subindex-free formulas ignore the time map
        t = gen_trace(rng)
        phi = gen_formula(rng, rng.randint(0, 4), interval=lambda rng: FULL)
        times = [0]
        for _ in range(t.length - 1):
            times.append(times[-1] + rng.randint(0, 5))
        other = TimedHTTrace(t.here, t.there, tuple(times))
        for k in range(t.length):
            assert mht_sat(t, k, phi) == mht_sat(other, k, phi)

    print(f"\n[criterion 3] PASS: 7 property suites x {n} cases "
          f"(persistence, negation, excluded middle, 20 distributivity rows, "
          f"4 De Morgan laws, 4 monotonicity laws, time-map invariance)")


def _agree(phi, rewritten, rng, samples=2):
    for _ in range(samples):
        t = _strict_trace(rng)
        k = rng.randrange(t.length)
        bits = state_bits(t, (phi, rewritten))
        assert bits[0] >> k & 1 == bits[1] >> k & 1, \
            (format_formula(phi), format_formula(rewritten), t, k)


def test_criterion_4_strict_trace_rewrites():
    rng = random.Random(1004)
    n = 1000
    binary = [Until, Release, Since, Trigger]
    zero = Interval(0, 1)

    for _ in range(n):  # zero-point collapses
        phi, psi = gen_formula(rng, 1), gen_formula(rng, 1)
        for cls in binary:
            _agree(cls(zero, psi, phi), phi, rng, samples=1)
        for one_step in (Next, Prev):
            _agree(one_step(zero, phi), BOT, rng, samples=1)
        for weak in (weak_next, weak_prev):
            _agree(weak(zero, phi), TRUE, rng, samples=1)

    finite = lambda r: gen_interval(r, finite_only=True)

    for _ in range(n):  # single-point unfolding
        iv = Interval(p := rng.randint(1, 5), p + 1)
        cls = rng.choice(binary)
        phi = cls(iv, gen_formula(rng, 1, interval=finite),
                  gen_formula(rng, 1, interval=finite))
        _agree(phi, unfold_next(phi), rng)

    for _ in range(n):  # zero-based unfolding
        iv = Interval(0, rng.randint(2, 6))
        cls = rng.choice(binary)
        phi = cls(iv, gen_formula(rng, 1, interval=finite),
                  gen_formula(rng, 1, interval=finite))
        _agree(phi, unfold_next(phi), rng)

    for _ in range(n):  # general window unfolding
        m = rng.randint(1, 3)
        iv = Interval(m, m + rng.randint(2, 4))
        cls = rng.choice(binary)
        phi = cls(iv, gen_formula(rng, 1, interval=finite),
                  gen_formula(rng, 1, interval=finite))
        _agree(phi, unfold_next(phi), rng)

    for _ in range(n):  # range splitting
        iv = gen_interval(rng, allow_empty=False)
        cls = rng.choice(binary)
        phi = cls(iv, gen_formula(rng, 1), gen_formula(rng, 1))
        hi = iv.upper - 1 if iv.upper is not None else iv.lower + 4
        _agree(phi, range_split(phi, rng.randint(iv.lower, max(iv.lower, hi))), rng)

    for _ in range(n):  # one-step definability
        phi = gen_formula(rng, rng.randint(1, 3))
        _agree(phi, one_step_eliminate(phi), rng)

    for _ in range(n):  # unary normal form
        phi = gen_formula(rng, rng.randint(1, 3))
        _agree(phi, to_unary_nf(phi), rng)

    worked = format_formula(unfold_next(parse_formula("p U[2..4) q")))
    golden = (GOLDEN / "worked_expansion.txt").read_text().strip()
    assert worked == golden
    print(f"\n[criterion 4] PASS: 7 rewrite suites x {n} cases on strict "
          f"traces; worked expansion matches the golden line (the inner "
          f"'p &' conjunct is load-bearing, see "
          f"test_expansion_needs_inner_conjunct)")


def test_criterion_5_reversal_and_involutions():
    rng = random.Random(1005)
    for _ in range(1000):
        t = gen_trace(rng, strict=rng.random() < 0.5)
        phi = gen_formula(rng, rng.randint(0, 4))
        k = rng.randrange(t.length)
        assert mht_sat(t, k, phi) == \
            mht_sat(reverse_trace(t), t.length - 1 - k, time_swap(phi))
    for _ in range(10_000):
        phi = gen_formula(rng, rng.randint(0, 5), impl=False)
        assert bool_dual(bool_dual(phi)) == phi
        any_phi = gen_formula(rng, rng.randint(0, 5))
        assert time_swap(time_swap(any_phi)) == any_phi
    print("\n[criterion 5] PASS: 1000 reversal cases; both maps are "
          "involutions on 10000 formulas")


def test_criterion_6_translation_correspondence():
    rng = random.Random(1006)
    nonempty = lambda r: gen_interval(r, nonempty_only=True, max_lo=3, max_width=3)
    for _ in range(500):
        t = _strict_trace(rng)
        phi = gen_formula(rng, rng.randint(0, 3), interval=nonempty)
        k = rng.randrange(t.length)
        sentence = translate(phi, t.times[k])
        assert mht_sat(t, k, phi) == qht_sat(induced_interpretation(t), sentence)
        total = total_part(t)
        assert mht_sat(total, k, phi) == \
            qht_sat(induced_interpretation(total), sentence)
    push_rule = parse_formula("G (push -> F[1..15) G[0..30] green)")
    printed = format_fom(simplify_fom(translate(push_rule, 0)))
    assert printed == (GOLDEN / "push_sentence.txt").read_text().strip()
    print("\n[criterion 6] PASS: 500 correspondence cases (both worlds); "
          "simplified translation matches the golden sentence")


def test_criterion_7_equivalence_oracle_cross_check(tmp_path):
    rng = random.Random(1007)
    left_path, right_path = tmp_path / "left.lp", tmp_path / "right.lp"
    for trial in range(200):
        left = [gen_formula(rng, rng.randint(1, 3)) for _ in range(rng.randint(1, 2))]
        right = [gen_formula(rng, rng.randint(1, 3)) for _ in range(rng.randint(1, 2))]
        left_path.write_text("\n".join(map(format_formula, left)) + "\n")
        right_path.write_text("\n".join(map(format_formula, right)) + "\n")
        code = cli_main(["equiv", str(left_path), str(right_path),
                         "--max-len", "2", "--max-time", "3",
                         "--alphabet", "p,q"])
        expected = oracle.theories_equivalent(left, right, ("p", "q"), 2, 3)
        assert (code == 0) == expected, (trial, list(map(format_formula, left)),
                                         list(map(format_formula, right)))
    print("\n[criterion 7] PASS: 200 theory pairs, CLI verdict matches the "
          "independent brute-force oracle")
