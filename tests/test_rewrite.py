import random

import pytest

from conftest import gen_formula, gen_interval, gen_trace, interval_subset
from metricht.equilibrium import bounded_equiv
from metricht.parser import parse_formula, parse_theory
from metricht.rewrite import (
    bool_dual, one_step_eliminate, push_negation, range_split, time_swap,
    to_unary_nf, unfold_next,
)
from metricht.semantics import Program, mht_sat, state_bits
from metricht.syntax import (
    And, Atom, BOT, FULL, Implies, Interval, Next, Or, Prev, Release, Since,
    Trigger, TRUE, Until, always, eventually, format_formula, neg, weak_next,
)
from metricht.traces import EnumerationBounds

P, Q = Atom("p"), Atom("q")

# The worked expansion of p U[2..4) q.  Dropping the inner "p &" (the
# chain condition of the nested [1..3) window) looks like a harmless
# shortening but changes the semantics; test_expansion_needs_inner_conjunct
# pins a separating trace.
WORKED_INPUT = "p U[2..4) q"
WORKED_EXPANSION = ("p & (X[1](p & (X[1](q | (p & X[1] q)) | X[2] q)) | "
                    "X[2](q | (p & X[1] q)) | X[3] q)")
SHORTENED_EXPANSION = ("p & (X[1](X[1](q | (p & X[1] q)) | X[2] q) | "
                       "X[2](q | (p & X[1] q)) | X[3] q)")


def assert_preserves(pass_fn, phi, rng, cases=40, atoms=("p", "q")):
    rewritten = pass_fn(phi)
    for _ in range(cases):
        t = gen_trace(rng, atoms=atoms, strict=True)
        k = rng.randrange(t.length)
        assert mht_sat(t, k, phi) == mht_sat(t, k, rewritten), \
            (format_formula(phi), format_formula(rewritten), t, k)


# ------------------------------------------------------------------ duality

def test_bool_dual_examples():
    assert bool_dual(And(P, Q)) == Or(P, Q)
    assert bool_dual(eventually(Interval(1, 3), P)) == always(Interval(1, 3), P)
    assert bool_dual(Next(FULL, P)) == weak_next(FULL, P)
    assert bool_dual(TRUE) == BOT


def test_bool_dual_rejects_implication():
    with pytest.raises(ValueError):
        bool_dual(Implies(P, Q))
    with pytest.raises(ValueError):
        bool_dual(neg(P))


def test_bool_dual_involution_bulk():
    rng = random.Random(21)
    for _ in range(10_000):
        phi = gen_formula(rng, rng.randint(0, 5), impl=False)
        assert bool_dual(bool_dual(phi)) == phi


def test_time_swap_examples():
    assert time_swap(Until(Interval(2, 4), P, Q)) == Since(Interval(2, 4), P, Q)
    assert time_swap(Next(Interval(1, 2), P)) == Prev(Interval(1, 2), P)
    assert time_swap(parse_formula("p -> G q")) == parse_formula("p -> H q")


def test_time_swap_involution_bulk():
    rng = random.Random(22)
    for _ in range(10_000):
        phi = gen_formula(rng, rng.randint(0, 5))
        assert time_swap(time_swap(phi)) == phi


# Implication-free equivalences stay equivalences under the dual map.  The
# pairs come from the distributivity table; equivalence on both sides is
# established by bounded exhaustive comparison.
DUAL_COROLLARY_PAIRS = [
    ("X[0..3)(p | q)", "X[0..3) p | X[0..3) q"),
    ("p U[0..3) (q | r)", "(p U[0..3) q) | (p U[0..3) r)"),
    ("F[1..3)(p | q)", "F[1..3) p | F[1..3) q"),
    ("(p | q) T r", "(p T r) | (q T r)"),
]


@pytest.mark.parametrize("left,right", DUAL_COROLLARY_PAIRS)
def test_boolean_duality_corollary(left, right):
    bounds = EnumerationBounds(("p", "q", "r"), 2, 3)
    lf, rf = parse_formula(left), parse_formula(right)
    assert bounded_equiv(parse_theory(left), parse_theory(right), bounds).equivalent
    dual_l, dual_r = bool_dual(lf), bool_dual(rf)
    from metricht.syntax import Theory
    assert bounded_equiv(Theory((dual_l,)), Theory((dual_r,)), bounds).equivalent


# ------------------------------------------------------------------ time mirror

def test_passes_commute_with_time_swap():
    # unary and onestep state their rules for X, U and R only and derive the
    # past ones as time mirrors; that rests on every pass commuting with swap
    rng = random.Random(31)
    finite = lambda r: gen_interval(r, finite_only=True, max_lo=2, max_width=3)
    for _ in range(2000):
        phi = gen_formula(rng, rng.randint(0, 4))
        for rewrite in (to_unary_nf, one_step_eliminate, push_negation):
            assert rewrite(time_swap(phi)) == time_swap(rewrite(phi)), format_formula(phi)
        phi = gen_formula(rng, rng.randint(0, 4), impl=False)
        assert bool_dual(time_swap(phi)) == time_swap(bool_dual(phi)), format_formula(phi)
        phi = gen_formula(rng, rng.randint(0, 2), interval=finite)
        assert unfold_next(time_swap(phi)) == time_swap(unfold_next(phi)), format_formula(phi)


# ------------------------------------------------------------------ negation pushing

def test_push_negation_examples():
    assert push_negation(parse_formula("~(p U[1..3) q)")) == \
        Release(Interval(1, 3), neg(P), neg(Q))
    assert push_negation(parse_formula("~(p T q)")) == Since(FULL, neg(P), neg(Q))
    assert push_negation(And(P, Q)) == And(P, Q)


def test_push_negation_nested():
    phi = parse_formula("~(p U (q S r))")
    pushed = push_negation(phi)
    assert pushed == Release(FULL, neg(P), Trigger(FULL, neg(Q), neg(Atom("r"))))


def test_push_negation_sound():
    rng = random.Random(23)
    for _ in range(300):
        phi = neg(gen_formula(rng, rng.randint(1, 4)))
        assert_preserves(push_negation, phi, rng, cases=8)


# ------------------------------------------------------------------ range splitting

def test_range_split_examples():
    assert range_split(parse_formula("p U[2..8) q"), 5) == \
        parse_formula("p U[2..5) q | p U[5..8) q")
    assert range_split(parse_formula("F[0..10) p"), 5) == \
        parse_formula("F[0..5) p | F[5..10) p")
    assert range_split(parse_formula("p R[1..4) q"), 2) == \
        parse_formula("(p R[1..2) q) & (p R[2..4) q)")


def test_range_split_errors():
    with pytest.raises(ValueError):
        range_split(parse_formula("p U[2..8) q"), 9)
    with pytest.raises(ValueError):
        range_split(parse_formula("p & q"), 1)


def test_range_split_sound():
    rng = random.Random(24)
    for _ in range(300):
        iv = gen_interval(rng, allow_empty=False)
        cls = rng.choice([Until, Release, Since, Trigger])
        phi = cls(iv, gen_formula(rng, 2), gen_formula(rng, 2))
        hi = iv.upper - 1 if iv.upper is not None else iv.lower + 5
        point = rng.randint(iv.lower, max(iv.lower, hi))
        assert_preserves(lambda f: range_split(f, point), phi, rng, cases=8)


# ------------------------------------------------------------------ unfolding

def test_unfold_examples():
    assert unfold_next(parse_formula("p U[0..0] q")) == Q
    assert unfold_next(parse_formula("X[0..0] p")) == BOT
    assert unfold_next(parse_formula("wX[0..0] p")) == TRUE
    assert unfold_next(parse_formula("p U[3..2) q")) == BOT
    assert unfold_next(parse_formula("p R[3..2) q")) == TRUE
    assert format_formula(unfold_next(parse_formula(WORKED_INPUT))) == WORKED_EXPANSION


def test_expansion_needs_inner_conjunct():
    from metricht.traces import total_trace
    t = total_trace([{"p"}, set(), {"q"}], [0, 1, 2])
    original = parse_formula(WORKED_INPUT)
    shortened = parse_formula(SHORTENED_EXPANSION)
    corrected = parse_formula(WORKED_EXPANSION)
    assert not mht_sat(t, 0, original)
    assert mht_sat(t, 0, shortened)
    assert not mht_sat(t, 0, corrected)


def _no_binary_temporal(phi):
    if isinstance(phi, (Until, Release, Since, Trigger)):
        return False
    if isinstance(phi, (And, Or, Implies)):
        return _no_binary_temporal(phi.lhs) and _no_binary_temporal(phi.rhs)
    if isinstance(phi, (Next, Prev)):
        return _no_binary_temporal(phi.arg)
    return True


def test_unfold_output_shape_and_soundness():
    rng = random.Random(25)
    finite = lambda r: gen_interval(r, finite_only=True)
    for _ in range(400):
        phi = gen_formula(rng, rng.randint(1, 3), interval=finite)
        out = unfold_next(phi)
        assert _no_binary_temporal(out)
        if rng.random() < 0.5:
            assert_preserves(unfold_next, phi, rng, cases=6)


def test_unfold_rejects_unbounded_binary_intervals():
    with pytest.raises(ValueError):
        unfold_next(parse_formula("p U[1..w) q"))


# ------------------------------------------------------------------ one-step elimination

def test_one_step_examples():
    out = one_step_eliminate(parse_formula("X[2..5) p"))
    assert format_formula(out) == \
        "G[1] #false & F[2] p | (G[1..3) #false & F[3] p) | (G[1..4) #false & F[4] p)"
    assert one_step_eliminate(parse_formula("Y[3..2) p")) == BOT
    out0 = one_step_eliminate(parse_formula("X[0..3) p"))
    assert format_formula(out0) == "F[1] p | (G[1] #false & F[2] p)"
    assert one_step_eliminate(parse_formula("X[2..w) p")) == \
        parse_formula("G[1..2) #false & X p")
    assert one_step_eliminate(parse_formula("Y[2..5) p")) == \
        parse_formula("H[1] #false & O[2] p | (H[1..3) #false & O[3] p) "
                      "| (H[1..4) #false & O[4] p)")


def test_one_step_window_shortcut_is_unsound():
    # The window-wide shortcut "no state in [1..m) and some window state
    # satisfies the argument" misidentifies the successor when the window
    # holds two states, so the elimination must split per gap instead.
    from metricht.traces import total_trace
    t = total_trace([set(), set(), {"p"}], [0, 2, 4])
    shortcut = parse_formula("G[1..2) #false & F[2..5) p")
    assert not mht_sat(t, 0, parse_formula("X[2..5) p"))
    assert mht_sat(t, 0, shortcut)


def test_one_step_sound():
    rng = random.Random(26)
    for _ in range(400):
        phi = gen_formula(rng, rng.randint(1, 3))
        assert_preserves(one_step_eliminate, phi, rng, cases=6)


# ------------------------------------------------------------------ unary normal form

def test_unary_nf_examples():
    assert to_unary_nf(parse_formula("p U[2..9) q")) == \
        parse_formula("F[2..9) q & G[0..2) (p U (p & X q))")
    assert to_unary_nf(parse_formula("p U[0..9) q")) == \
        parse_formula("F[0..9) q & (p U q)")
    assert to_unary_nf(parse_formula("p R[2..9) q")) == \
        parse_formula("G[2..9) q | F[0..2) (p R (p | wX q))")
    assert to_unary_nf(parse_formula("p S[1..3) q")) == \
        parse_formula("O[1..3) q & H[0..1) (p S (p & Y q))")
    assert to_unary_nf(parse_formula("p T[2..4) q")) == \
        parse_formula("H[2..4) q | O[0..2) (p T (p | wY q))")


def _binary_subindex_free(phi):
    # eventually/always and their past twins are kernel-encoded as binary
    # nodes with a constant left argument; they count as unary operators.
    if isinstance(phi, (Until, Release, Since, Trigger)):
        sugar = phi.lhs == (TRUE if isinstance(phi, (Until, Since)) else BOT)
        if not phi.interval.is_full() and not sugar:
            return False
        return _binary_subindex_free(phi.lhs) and _binary_subindex_free(phi.rhs)
    if isinstance(phi, (And, Or, Implies)):
        return _binary_subindex_free(phi.lhs) and _binary_subindex_free(phi.rhs)
    if isinstance(phi, (Next, Prev)):
        return _binary_subindex_free(phi.arg)
    return True


def test_unary_nf_shape_and_soundness():
    rng = random.Random(27)
    for _ in range(400):
        phi = gen_formula(rng, rng.randint(1, 3))
        out = to_unary_nf(phi)
        assert _binary_subindex_free(out)
        if rng.random() < 0.5:
            assert_preserves(to_unary_nf, phi, rng, cases=6)


# ------------------------------------------------------------------ distributivity table

def _rows(phi, psi, chi):
    X, wX = Next, weak_next
    from metricht.syntax import historically as H, once as O, weak_prev as wY
    iv = Interval(1, 4)
    return [
        (X(iv, Or(phi, psi)), Or(X(iv, phi), X(iv, psi))),
        (X(iv, And(phi, psi)), And(X(iv, phi), X(iv, psi))),
        (wX(iv, Or(phi, psi)), Or(wX(iv, phi), wX(iv, psi))),
        (wX(iv, And(phi, psi)), And(wX(iv, phi), wX(iv, psi))),
        (eventually(iv, Or(phi, psi)), Or(eventually(iv, phi), eventually(iv, psi))),
        (always(iv, And(phi, psi)), And(always(iv, phi), always(iv, psi))),
        (Until(iv, phi, Or(chi, psi)), Or(Until(iv, phi, chi), Until(iv, phi, psi))),
        (Until(iv, And(phi, chi), psi), And(Until(iv, phi, psi), Until(iv, chi, psi))),
        (Release(iv, phi, And(chi, psi)), And(Release(iv, phi, chi), Release(iv, phi, psi))),
        (Release(iv, Or(phi, chi), psi), Or(Release(iv, phi, psi), Release(iv, chi, psi))),
        (Since(iv, And(phi, chi), psi), And(Since(iv, phi, psi), Since(iv, chi, psi))),
        (Since(iv, phi, Or(chi, psi)), Or(Since(iv, phi, chi), Since(iv, phi, psi))),
        (wY(iv, Or(phi, psi)), Or(wY(iv, phi), wY(iv, psi))),
        (wY(iv, And(phi, psi)), And(wY(iv, phi), wY(iv, psi))),
        (Prev(iv, Or(phi, psi)), Or(Prev(iv, phi), Prev(iv, psi))),
        (Prev(iv, And(phi, psi)), And(Prev(iv, phi), Prev(iv, psi))),
        (O(iv, Or(phi, psi)), Or(O(iv, phi), O(iv, psi))),
        (H(iv, And(phi, psi)), And(H(iv, phi), H(iv, psi))),
        (Trigger(iv, Or(phi, chi), psi), Or(Trigger(iv, phi, psi), Trigger(iv, chi, psi))),
        (Trigger(iv, phi, And(chi, psi)), And(Trigger(iv, phi, chi), Trigger(iv, phi, psi))),
    ]


def test_strict_passes_exhaustively_on_small_space():
    # all strict HT traces with 2 atoms, length <= 3, final time <= 4,
    # against a battery of interval shapes, at every state
    import oracle

    shapes = ["[0..0]", "[1]", "[0..2)", "[1..3)", "[2..4)", "[0..4)"]
    battery = []
    for shape in shapes:
        for op in "URST":
            battery.append(parse_formula(f"p {op}{shape} q"))
        for op in ("X", "Y", "wX", "wY"):
            battery.append(parse_formula(f"{op}{shape} p"))
    passes = [unfold_next, one_step_eliminate, to_unary_nf]
    rewritten = [p(phi) for p in passes for phi in battery]
    programs = {}  # one per time map, run on each of its traces
    for here, there, times in oracle.bounded_space(("p", "q"), 3, 3, strict=True):
        if times not in programs:
            programs[times] = Program(battery + rewritten, times)
        program = programs[times]
        values = program.values(here, there)
        # bit k of each int is the verdict at state k, so every state is compared
        bits = [values[root] for root in program.roots]
        for i, out in enumerate(rewritten):
            phi = battery[i % len(battery)]
            assert bits[len(battery) + i] == bits[i % len(battery)], \
                (format_formula(phi), format_formula(out), here, there, times)


def test_distributivity_table():
    rng = random.Random(28)
    for _ in range(1000):
        phi, psi, chi = (gen_formula(rng, 1, atoms=("p", "q", "r")) for _ in range(3))
        rows = _rows(phi, psi, chi)
        assert len(rows) == 20
        t = gen_trace(rng, atoms=("p", "q", "r"), strict=rng.random() < 0.5)
        k = rng.randrange(t.length)
        bits = state_bits(t, [side for row in rows for side in row])
        for idx in range(len(rows)):
            assert bits[2 * idx] >> k & 1 == bits[2 * idx + 1] >> k & 1, idx


def test_de_morgan_laws():
    rng = random.Random(29)
    classes = [(Until, Release), (Release, Until), (Since, Trigger), (Trigger, Since)]
    for _ in range(1000):
        phi, psi = gen_formula(rng, 1), gen_formula(rng, 1)
        iv = gen_interval(rng)
        t = gen_trace(rng, strict=rng.random() < 0.5)
        k = rng.randrange(t.length)
        for cls, dual in classes:
            left = neg(cls(iv, phi, psi))
            right = dual(iv, neg(phi), neg(psi))
            assert mht_sat(t, k, left) == mht_sat(t, k, right)


def test_interval_monotonicity():
    rng = random.Random(30)
    for _ in range(1000):
        small = gen_interval(rng)
        grow_lo = rng.randint(0, small.lower)
        if small.upper is None or rng.random() < 0.2:
            big = Interval(grow_lo, None)
        else:
            big = Interval(grow_lo, small.upper + rng.randint(0, 3))
        assert interval_subset(small, big)
        phi, psi = gen_formula(rng, 1), gen_formula(rng, 1)
        t = gen_trace(rng, strict=rng.random() < 0.5)
        k = rng.randrange(t.length)
        assert mht_sat(t, k, Implies(Until(small, phi, psi), Until(big, phi, psi)))
        assert mht_sat(t, k, Implies(Release(big, phi, psi), Release(small, phi, psi)))
        assert mht_sat(t, k, Implies(Since(small, phi, psi), Since(big, phi, psi)))
        assert mht_sat(t, k, Implies(Trigger(big, phi, psi), Trigger(small, phi, psi)))
