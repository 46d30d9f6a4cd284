import random

import pytest
from hypothesis import given, settings

from conftest import formulas_st, gen_formula, make_trace, stack_headroom
from metricht.parser import ParseError, parse_formula, parse_theory
from metricht.rewrite import printed_size
from metricht.semantics import Program, state_bits
from metricht.syntax import (
    And, Atom, BOT, Bottom, FULL, Implies, Interval, Next, Or, Prev, Release,
    Since, Theory, Trigger, TRUE, Until, always, eventually, final, format_formula,
    historically, initial, neg, once, operands, postorder,
    weak_next, weak_prev,
)

P, Q = Atom("p"), Atom("q")


# ------------------------------------------------------------------ intervals

def normalize_interval(text: str) -> Interval:
    """The canonical interval the parser reads from a surface form."""
    return parse_formula(f"X{text} p").interval


def test_normalize_interval_examples():
    assert normalize_interval("[2..4)") == Interval(2, 4)
    assert normalize_interval("[0..30]") == Interval(0, 31)
    assert normalize_interval("[5]") == Interval(5, 6)
    assert normalize_interval("(2..4)") == Interval(3, 4)
    assert normalize_interval("(2..4]") == Interval(3, 5)
    assert normalize_interval("[2..)") == Interval(2, None)
    assert normalize_interval("[1..w)") == Interval(1, None)
    assert normalize_interval("<=3") == Interval(0, 4)
    assert normalize_interval(">=2") == Interval(2, None)
    assert normalize_interval("") == FULL


def test_normalize_interval_errors():
    with pytest.raises(ParseError, match="closed upper bound"):
        normalize_interval("[2..w]")
    with pytest.raises(ParseError, match="unexpected character '-'"):
        normalize_interval("[-1..3)")
    with pytest.raises(ParseError):
        normalize_interval("[1..2..3)")


def _surface_member(shape, m, n, i):
    if shape == "[)":
        return m <= i < n
    if shape == "[]":
        return m <= i <= n
    if shape == "()":
        return m < i < n
    if shape == "(]":
        return m < i <= n
    if shape == "[w":
        return i >= m
    if shape == "<=":
        return i <= n
    if shape == ">=":
        return i >= m
    return i == m  # singleton


@pytest.mark.parametrize("shape,text", [
    ("[)", "[{m}..{n})"), ("[]", "[{m}..{n}]"), ("()", "({m}..{n})"),
    ("(]", "({m}..{n}]"), ("[w", "[{m}..w)"), ("<=", "<={n}"),
    (">=", ">={m}"), ("1", "[{m}]"),
])
def test_normalization_preserves_membership(shape, text):
    for m in range(9):
        for n in range(9):
            iv = normalize_interval(text.format(m=m, n=n))
            for i in range(65):
                assert iv.contains(i) == _surface_member(shape, m, n, i), (shape, m, n, i)
            # idempotent: the canonical rendering normalizes to itself
            assert normalize_interval(str(iv)) == iv


# ------------------------------------------------------------------ parsing

def test_parse_examples():
    assert parse_formula("G (red & green -> #false)") == \
        always(FULL, Implies(And(Atom("red"), Atom("green")), BOT))
    assert parse_formula("p U[2..4) q") == Until(Interval(2, 4), P, Q)
    assert parse_formula("~p") == Implies(P, BOT)


def test_parse_precedence_and_associativity():
    assert parse_formula("p & q -> r | s") == \
        Implies(And(P, Q), Or(Atom("r"), Atom("s")))
    assert parse_formula("p U q & r") == And(Until(FULL, P, Q), Atom("r"))
    assert parse_formula("p U q U r") == Until(FULL, P, Until(FULL, Q, Atom("r")))
    assert parse_formula("p -> q -> r") == Implies(P, Implies(Q, Atom("r")))
    assert parse_formula("p | q | r") == Or(Or(P, Q), Atom("r"))
    assert parse_formula("~X p") == neg(Next(FULL, P))
    assert parse_formula("p <-> q") == And(Implies(P, Q), Implies(Q, P))


def test_parse_sugar_expands_to_kernel():
    assert parse_formula("#true") == TRUE == Implies(BOT, BOT)
    assert parse_formula("F p") == Until(FULL, TRUE, P)
    assert parse_formula("G[0..30] p") == Release(Interval(0, 31), BOT, P)
    assert parse_formula("O[2] p") == Since(Interval(2, 3), TRUE, P)
    assert parse_formula("H p") == Trigger(FULL, BOT, P)
    assert parse_formula("wX[2] p") == Or(Next(Interval(2, 3), P),
                                          neg(Next(Interval(2, 3), TRUE)))
    assert parse_formula("#init") == neg(Prev(FULL, TRUE))
    assert parse_formula("#final") == neg(Next(FULL, TRUE))


def test_numbers_are_not_atoms():
    with pytest.raises(ParseError):
        parse_formula("(2)")
    with pytest.raises(ParseError):
        parse_formula("p U 2")
    assert parse_formula("num") == Atom("num")
    assert parse_formula("w") == Atom("w")


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_formula("p &\n& q")
    assert err.value.line == 2
    with pytest.raises(ParseError, match="unknown operator"):
        parse_formula("Q p")
    with pytest.raises(ParseError):
        parse_formula("X[2..1..3) p")
    with pytest.raises(ParseError, match="no interval"):
        parse_formula("~[1] p")
    with pytest.raises(ParseError):
        parse_formula("p U[2..w] q")
    with pytest.raises(ParseError):
        parse_formula("(p & q")


# ------------------------------------------------------------------ printing

def test_print_examples():
    assert format_formula(Until(FULL, TRUE, P)) == "F p"
    assert format_formula(Until(Interval(2, 4), P, Q)) == "p U[2..4) q"
    assert format_formula(BOT) == "#false"
    assert format_formula(TRUE) == "#true"
    assert format_formula(neg(P)) == "~p"
    assert format_formula(weak_prev(Interval(1, 2), P)) == "wY[1] p"
    assert format_formula(initial()) == "#init"
    assert format_formula(final()) == "#final"


def test_full_interval_is_omitted():
    assert format_formula(Next(FULL, P)) == "X p"
    assert format_formula(Until(FULL, P, Q)) == "p U q"
    assert format_formula(Next(Interval(1, None), P)) == "X[1..w) p"


def test_roundtrip_bulk():
    rng = random.Random(20240501)
    for _ in range(10_000):
        phi = gen_formula(rng, rng.randint(0, 6))
        assert parse_formula(format_formula(phi)) == phi


@settings(max_examples=300, deadline=None)
@given(formulas_st)
def test_roundtrip_hypothesis(phi):
    assert parse_formula(format_formula(phi)) == phi


# ------------------------------------------------------------------ desugaring

KERNEL = (Atom, Bottom, And, Or, Implies, Next, Prev, Until, Release, Since, Trigger)


def _kernel_only(phi):
    assert isinstance(phi, KERNEL)
    if isinstance(phi, (And, Or, Implies, Until, Release, Since, Trigger)):
        _kernel_only(phi.lhs)
        _kernel_only(phi.rhs)
    elif isinstance(phi, (Next, Prev)):
        _kernel_only(phi.arg)


def test_desugar_matches_definitions():
    iv = Interval(1, 5)
    assert eventually(iv, P) == Until(iv, TRUE, P)
    assert always(iv, P) == Release(iv, BOT, P)
    assert once(iv, P) == Since(iv, TRUE, P)
    assert historically(iv, P) == Trigger(iv, BOT, P)
    assert weak_next(iv, P) == Or(Next(iv, P), neg(Next(iv, TRUE)))
    assert final() == neg(Next(FULL, TRUE))
    assert initial() == neg(Prev(FULL, TRUE))
    assert TRUE == neg(BOT)


def test_desugaring_is_total_and_kernel_only():
    rng = random.Random(7)
    for _ in range(2_000):
        _kernel_only(gen_formula(rng, rng.randint(0, 5)))


# ------------------------------------------------------------------ theories

def test_parse_theory_counts():
    text = """% the control rules
G (red & green -> #false)
G (~green -> red)

G (push -> F[1..15) G[0..30] green)   % metric part
"""
    assert len(parse_theory(text)) == 3
    assert len(parse_theory("")) == 0
    assert len(parse_theory("% nothing\n% here\n")) == 0
    duplicated = parse_theory("p\np\n")
    assert duplicated.formulas == (P, P)


def test_parse_theory_multiline_formula():
    theory = parse_theory("G (p ->\n  q)\nr\n")
    assert len(theory) == 2
    assert theory.formulas[0] == always(FULL, Implies(P, Q))


def test_parse_theory_error_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_theory("p\nq\np & & q\n")
    assert err.value.line == 3


def test_theory_atoms_sorted():
    assert parse_theory("zeta & alpha\nmid\n").atoms() == ("alpha", "mid", "zeta")


# ------------------------------------------------------------------ walks

def test_postorder_matches_a_recursive_walk():
    # formulas built from a shared pool repeat subformulas by identity; each
    # distinct object comes once, operands first, as a recursive walk has it
    def reference(formulas):
        seen, out = set(), []

        def visit(phi):
            if id(phi) not in seen:
                seen.add(id(phi))
                for part in operands(phi):
                    visit(part)
                out.append(phi)

        for phi in formulas:
            visit(phi)
        return out

    rng = random.Random(12)
    for _ in range(300):
        pool = [gen_formula(rng, 2) for _ in range(4)]
        for _ in range(rng.randint(1, 8)):
            a, b = rng.choice(pool), rng.choice(pool)
            pool.append(rng.choice([And(a, b), Or(a, b), Implies(a, b), Next(FULL, a),
                                    Prev(Interval(1, 3), b), Until(Interval(0, 2), a, b)]))
        roots = rng.sample(pool, rng.randint(1, len(pool)))
        walked = list(postorder(roots))
        assert [id(phi) for phi in walked] == [id(phi) for phi in reference(roots)]
        assert len({id(phi) for phi in walked}) == len(walked)


DEPTH = 20_000


@pytest.mark.parametrize("step,text,size,state_zero", [
    (neg, "~" * DEPTH + "p", 2 * DEPTH + 1, 1),
    (lambda phi: And(phi, P), " & ".join(["p"] * (DEPTH + 1)), 2 * DEPTH + 1, 1),
    (lambda phi: Next(Interval(1, 3), phi), "X[1..3) " * DEPTH + "p", DEPTH + 1, 0),
], ids=["neg", "and", "next"])
def test_walks_and_printer_take_no_frame_per_level(step, text, size, state_zero):
    phi = P
    for _ in range(DEPTH):
        phi = step(phi)
    trace = make_trace([({"p"}, {"p"}), ((), ())], (0, 2))
    with stack_headroom():
        assert format_formula(phi) == text
        assert printed_size(phi) == size
        assert Theory((phi,)).atoms() == ("p",)
        assert Program([phi]).endpoints == ([1, 3] if "X" in text else [])
        assert state_bits(trace, (phi,)) == [state_zero]  # compiles, then runs
