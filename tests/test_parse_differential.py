"""The operator-precedence parsers against the recursive-descent references.

Printed random formulas and sentences parse to the references' ASTs, and the
same texts with tokens dropped, duplicated, swapped or inserted give the
references' results: an equal AST, or a ParseError with the same message,
line and column.
"""

import random

import pytest

import oracle
from conftest import gen_formula, gen_sentence, mutated_text
from metricht.fom import format_fom, parse_fom
from metricht.parser import ParseError, parse_formula
from metricht.syntax import format_formula

# per grammar: the parser, the reference, a random tree of depth at most 5, the printer
GRAMMARS = {
    "formulas": (parse_formula, oracle.parse_formula,
                 lambda rng: gen_formula(rng, rng.randint(0, 5)), format_formula),
    "sentences": (parse_fom, oracle.parse_fom,
                  lambda rng: gen_sentence(rng, rng.randint(0, 5)), format_fom),
}


def _outcome(parse, text):
    try:
        return "ok", parse(text)
    except ParseError as exc:
        return "error", (str(exc), exc.line, exc.column)


@pytest.mark.parametrize("grammar", GRAMMARS)
def test_printed_texts_parse_as_the_reference_does(grammar):
    parse, reference, tree, printer = GRAMMARS[grammar]
    rng = random.Random(15)
    for _ in range(2_000):
        text = printer(tree(rng))
        assert parse(text) == reference(text), text
        assert printer(parse(text)) == text


@pytest.mark.parametrize("grammar", GRAMMARS)
def test_mutated_texts_fail_as_the_reference_does(grammar):
    parse, reference, tree, printer = GRAMMARS[grammar]
    rng, errors = random.Random(25), 0
    for _ in range(2_000):
        text = mutated_text(rng, printer(tree(rng)))
        expected = _outcome(reference, text)
        assert _outcome(parse, text) == expected, text
        errors += expected[0] == "error"
    assert errors > 1_000  # most mutations break the text


@pytest.mark.parametrize("text", [
    "p U[1..2] q U r & s | ~X[3] t -> u <-> v -> w", "p <-> q <-> r", "~~(p) U ~(q & r)",
    "G[0..5] (p -> F q) & H p S[2] O q", "(p", "p)", "p U", "X", "~[1] p", "p U (1..w] q",
    "(((p)) & (q | (r)))", "p & & q", "U p", "p q", "#init R #final", "",
])
def test_hand_picked_formulas_parse_as_the_reference_does(text):
    assert _outcome(parse_formula, text) == _outcome(oracle.parse_formula, text)


@pytest.mark.parametrize("text", [
    "!x ?y p(x) & q(y) -> x <={3} y | #true", "!x (p(x)) -> q(0) -> r(1)", "p(0", "x <= y",
    "!p(0)", "?x", "(!x p(x)", "p(0) p(1)", "x <={w} 3 & ((#false))", "U <={1} R", "",
])
def test_hand_picked_sentences_parse_as_the_reference_does(text):
    assert _outcome(parse_fom, text) == _outcome(oracle.parse_fom, text)
