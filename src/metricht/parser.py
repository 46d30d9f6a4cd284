"""Recursive-descent parser for the ASCII formula and theory syntax.

Grammar (loosest to tightest): <-> chains left, -> associates right, then
|, &, the binary temporal operators U/R/S/T (right-associative, unary-level
left operand), and the unary operators ~ X wX Y wY G F H O.  Temporal
operators take an optional interval written [m..n) [m..n] (m..n) (m..n]
[m..) [m] <=n >=m with ``w`` for the unbounded upper bound; a missing
interval means [0..w).  Atoms are lowercase identifiers.

Theories are line-oriented: ``%`` starts a comment, blank lines are skipped,
and a formula ends at end-of-line unless brackets remain open.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .syntax import (
    And, Atom, BOT, FINAL, Formula, INITIAL, Implies, IntervalError, Interval,
    Next, Or, Prev, Release, Since, Theory, Trigger, TRUE, Until, always,
    eventually, historically, interval_from_bounds, neg, once, weak_next,
    weak_prev,
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    column: int


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<hash>\#(?:true|false|init|final))
      | (?P<name>[A-Za-z][A-Za-z0-9_]*)
      | (?P<num>\d+)
      | (?P<dots>\.\.)
      | (?P<op><->|->|<=|>=)
      | (?P<punct>[()\[\]~&|])
    """,
    re.VERBOSE,
)

_ATOM_RE = re.compile(r"^[a-z][A-Za-z0-9_]*$")
_UNARY_OPS = {"X": Next, "wX": weak_next, "Y": Prev, "wY": weak_prev,
              "G": always, "F": eventually, "H": historically, "O": once}
_CONSTANTS = {"#true": TRUE, "#false": BOT, "#init": INITIAL, "#final": FINAL}
_BINARY_OPS = {"U": Until, "R": Release, "S": Since, "T": Trigger}


def _tokenize(text: str, line_offset: int = 1) -> list[_Token]:
    tokens = []
    line, line_start = line_offset, 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
        kind = m.lastgroup
        value = m.group()
        if kind != "ws":
            label = value if kind in ("hash", "name") else kind if kind in ("num", "dots") else value
            tokens.append(_Token(label, value, line, pos - line_start + 1))
        line += value.count("\n")
        if "\n" in value:
            line_start = pos + value.rindex("\n") + 1
        pos = m.end()
    tokens.append(_Token("<eof>", "", line, pos - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "<eof>":
            self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.column)
        return tok

    def fail(self, message: str) -> None:
        tok = self.peek()
        raise ParseError(message, tok.line, tok.column)

    # -- intervals ---------------------------------------------------------

    def interval_ahead(self) -> bool:
        tok = self.peek()
        if tok.kind in ("[", "<=", ">="):
            return True
        if tok.kind == "(":
            return self.peek(1).kind == "num" and self.peek(2).kind == "dots"
        return False

    def parse_interval(self) -> Interval:
        tok = self.next()
        try:
            if tok.kind in ("<=", ">="):
                num = int(self.expect("num").text)
                return Interval(0, num + 1) if tok.kind == "<=" else Interval(num, None)
            lower_open = tok.kind == "("
            lo = int(self.expect("num").text)
            if not lower_open and self.peek().kind == "]":
                self.next()
                return Interval(lo, lo + 1)
            self.expect("dots")
            nxt = self.next()
            if nxt.kind == "num":
                upper, closer = int(nxt.text), self.next()
            elif nxt.kind == "w":
                upper, closer = None, self.next()
            elif nxt.kind in (")", "]"):
                upper, closer = None, nxt
            else:
                raise ParseError(f"expected an upper bound, found {nxt.text!r}",
                                 nxt.line, nxt.column)
            if closer.kind not in (")", "]"):
                raise ParseError(f"expected ')' or ']', found {closer.text!r}",
                                 closer.line, closer.column)
            return interval_from_bounds(lo, upper, lower_open=lower_open,
                                        upper_closed=closer.kind == "]")
        except IntervalError as exc:
            raise ParseError(str(exc), tok.line, tok.column) from exc

    def optional_interval(self) -> Interval:
        return self.parse_interval() if self.interval_ahead() else Interval(0, None)

    # -- formulas ----------------------------------------------------------

    def formula(self) -> Formula:
        lhs = self.implication()
        while self.peek().kind == "<->":
            self.next()
            rhs = self.implication()
            lhs = And(Implies(lhs, rhs), Implies(rhs, lhs))
        return lhs

    def implication(self) -> Formula:
        lhs = self.disjunction()
        if self.peek().kind == "->":
            self.next()
            return Implies(lhs, self.implication())
        return lhs

    def disjunction(self) -> Formula:
        lhs = self.conjunction()
        while self.peek().kind == "|":
            self.next()
            lhs = Or(lhs, self.conjunction())
        return lhs

    def conjunction(self) -> Formula:
        lhs = self.binary_temporal()
        while self.peek().kind == "&":
            self.next()
            lhs = And(lhs, self.binary_temporal())
        return lhs

    def binary_temporal(self) -> Formula:
        lhs = self.unary()
        tok = self.peek()
        if tok.kind in _BINARY_OPS:
            self.next()
            interval = self.optional_interval()
            return _BINARY_OPS[tok.kind](interval, lhs, self.binary_temporal())
        return lhs

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "~":
            self.next()
            if self.interval_ahead():
                self.fail("negation takes no interval")
            return neg(self.unary())
        if tok.kind in _UNARY_OPS:
            self.next()
            interval = self.optional_interval()
            return _UNARY_OPS[tok.kind](interval, self.unary())
        if tok.kind in _CONSTANTS:
            self.next()
            return _CONSTANTS[tok.kind]
        if tok.kind == "(":
            self.next()
            phi = self.formula()
            self.expect(")")
            return phi
        if tok.kind == tok.text and _ATOM_RE.match(tok.text):
            self.next()
            return Atom(tok.text)
        self.fail("unexpected end of input" if tok.kind == "<eof>"
                  else f"unknown operator name {tok.text!r}")
        raise AssertionError  # unreachable


def parse_formula(text: str, line_offset: int = 1) -> Formula:
    parser = _Parser(_tokenize(text, line_offset))
    phi = parser.formula()
    trailing = parser.peek()
    if trailing.kind != "<eof>":
        raise ParseError(f"unexpected trailing input {trailing.text!r}",
                         trailing.line, trailing.column)
    return phi


def _logical_lines(text: str):
    """Yield (starting line number, chunk) pairs, joining bracket-open lines."""
    chunk: list[str] = []
    start = depth = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("%", 1)[0]
        if not chunk:
            start = lineno
        depth += sum(line.count(c) for c in "([") - sum(line.count(c) for c in ")]")
        if line.strip() or chunk:
            chunk.append(line)
        if chunk and depth <= 0:
            joined = "\n".join(chunk)
            if joined.strip():
                yield start, joined
            chunk, depth = [], 0
    if chunk and "".join(chunk).strip():
        yield start, "\n".join(chunk)


def parse_theory(text: str, name: str = "") -> Theory:
    formulas = [parse_formula(chunk, line_offset=start) for start, chunk in _logical_lines(text)]
    return Theory(tuple(formulas), name=name)
