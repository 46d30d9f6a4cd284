"""The library's tokenizer against the reference copy in tests/oracle.py.

Random, printed and mutated formula, sentence and theory texts, some with
characters neither grammar reads, give the same (kind, text, offset) list
in both, or the same first ParseError: message, line and column.  A theory
text is also cut into logical lines by each side's `_logical_lines` and
each chunk tokenized from its starting line.
"""

import random

import pytest

import oracle
from conftest import gen_formula, gen_sentence, mutated_text
from metricht.fom import format_fom
from metricht.parser import ParseError, TokenCursor, _logical_lines
from metricht.syntax import format_formula

# pieces of tokens of both grammars, white space of every kind, Unicode digits and
# characters no token starts with
PIECES = ["p", "Q", "x1", "_", "G", "wX", "3", "12", "٣", "²", " ", "\t", "\n", "\r\n",
          " ", " ", "(", ")", "[", "]", "<", "=", "{", "}", "-", ">", "w", ".", "#",
          "true", "final", "~", "&", "|", "!", "?", "@", "%", "é", "<={", "<={-2}", "<->"]


def _library(text, line_offset=1):
    try:
        cursor = TokenCursor(text, line_offset)
    except ParseError as exc:
        return "error", (str(exc), exc.line, exc.column)
    return "ok", [(kind, word, cursor.offset(j))
                  for j, (kind, word) in enumerate(zip(cursor.kinds, cursor.words))]


def _reference(text, line_offset=1):
    try:
        return "ok", oracle._tokenize(text, line_offset)
    except ParseError as exc:
        return "error", (str(exc), exc.line, exc.column)


def _theory(rng):
    """Printed formulas on lines ending in \\n or \\r\\n, with tabs, % comments,
    blank lines and brackets left open across a line break."""
    lines = []
    for _ in range(rng.randint(1, 4)):
        text = format_formula(gen_formula(rng, rng.randint(0, 4)))
        if "(" in text and rng.random() < 0.4:
            cut = text.index("(") + 1
            text = text[:cut] + rng.choice(["\n", "\r\n", "  % open\n"]) + text[cut:]
        lines.append(text.replace(" ", rng.choice([" ", "\t", " \t"]), 1))
        lines += [rng.choice(["", "% a comment", "   ", "\t% (unclosed"])] * rng.randint(0, 2)
        if rng.random() < 0.3:
            lines[-1] += " % trailing ) text"
    return "".join(line + rng.choice(["\n", "\r\n"]) for line in lines)


def _texts(rng):
    yield "".join(rng.choice(PIECES) for _ in range(rng.randint(0, 12)))
    formula = format_formula(gen_formula(rng, rng.randint(0, 5)))
    sentence = format_fom(gen_sentence(rng, rng.randint(0, 5)))
    yield from (formula, sentence, mutated_text(rng, formula), mutated_text(rng, sentence))


def test_random_and_mutated_texts_tokenize_as_the_reference_does():
    rng, errors = random.Random(29), 0
    for _ in range(2_000):
        for text in _texts(rng):
            line_offset = rng.randint(1, 9)
            expected = _reference(text, line_offset)
            assert _library(text, line_offset) == expected, repr(text)
            errors += expected[0] == "error"
    assert 1_000 < errors < 6_000


def test_theory_texts_tokenize_as_the_reference_does():
    rng, chunks = random.Random(31), 0
    for _ in range(1_000):
        text = _theory(rng)
        assert _library(text) == _reference(text), repr(text)  # % is no token
        lines = list(_logical_lines(text))
        assert lines == list(oracle._logical_lines(text)), repr(text)
        for start, chunk in lines:
            assert _library(chunk, start) == _reference(chunk, start), repr(chunk)
            chunks += 1
    assert chunks > 2_000


@pytest.mark.parametrize("text", [
    "", " ", "\t\r\n", "p", "<", "<=", "<={", "<={w}", "<={-}", "<->->", "#", "#tru", "#true",
    "..", ".", "٣٣ x", "p q", "x <={2} 3 @", "%", "p\r\n  @", "a é",
    "\x1c\x85p q",
])
def test_hand_picked_texts_tokenize_as_the_reference_does(text):
    assert _library(text) == _reference(text)
