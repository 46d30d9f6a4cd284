"""Operator-precedence parser for the ASCII formula and theory syntax.

Operators (loosest to tightest): <-> chains left, -> associates right, then
|, &, the binary temporal operators U/R/S/T (right-associative), and the
prefix operators ~ X wX Y wY G F H O.  Temporal operators take an optional
interval written [m..n) [m..n] (m..n) (m..n] [m..) [m] <=n >=m with ``w``
for the unbounded upper bound, after the operator; a missing interval means
[0..w).  Atoms are lowercase identifiers.  The parser keeps its operands and
operators on explicit stacks, so nesting depth costs no Python frames.

Theories are line-oriented: ``%`` starts a comment, blank lines are skipped,
and a formula ends at end-of-line unless brackets remain open.

The first-order sentence grammar (fom.py) runs on the same tokenizer and
parser with its own hooks, so both languages report errors as ParseError
with a line and column; each grammar rejects the tokens only the other one
uses.
"""

from __future__ import annotations

import re
from functools import partial
from typing import NoReturn

from .syntax import (
    And, Atom, BOT, FINAL, Formula, INITIAL, Implies, IntervalError, Interval,
    Next, Or, Prev, Release, Since, Theory, Trigger, TRUE, Until, always,
    eventually, historically, iff, interval_from_bounds, neg, once, weak_next,
    weak_prev,
)


Token = tuple[str, str, int]  # (kind, text, offset); kind is the text itself for literals


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column

    @classmethod
    def at(cls, message: str, text: str, offset: int, line_offset: int = 1) -> ParseError:
        """The error at character `offset` of `text`, whose first line is `line_offset`."""
        column = offset - text.rfind("\n", 0, offset)
        return cls(message, line_offset + text.count("\n", 0, offset), column)


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<name>[A-Za-z][A-Za-z0-9_]*)
      | (?P<num>\d+)
      | (?P<diff><=\{(?:-?\d+|w)\})
      | (?P<lit>\#(?:true|false|init|final)|\.\.|<->|->|<=|>=|[()\[\]~&|!?])
      | (?P<bad>.)
    """,
    re.VERBOSE,
)

ATOM_RE = re.compile(r"[a-z][A-Za-z0-9_]*")  # atom names, matched in full
_CONSTANTS = {"#true": TRUE, "#false": BOT, "#init": INITIAL, "#final": FINAL}


def _tokenize(text: str, line_offset: int = 1) -> list[Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind, value = m.lastgroup, m.group()
        if kind == "bad":
            raise ParseError.at(f"unexpected character {value!r}", text, m.start(), line_offset)
        if kind != "ws":
            tokens.append((value if kind == "lit" else kind, value, m.start()))
    tokens.append(("<eof>", "", len(text)))
    return tokens


class TokenCursor:
    """A position in the tokens of one text, and the operator-precedence parser
    both grammars run on.  A grammar supplies its operators in `PREFIX` (text
    -> builder) and `BINARY` (text -> precedence, right-associative, builder),
    `bind`, which reads what follows an operator into its builder, and
    `primary`, which reads an operand with no operator.  Prefix operators bind
    tightest."""

    def __init__(self, text: str, line_offset: int = 1):
        self.text, self.line_offset = text, line_offset
        self.tokens = _tokenize(text, line_offset)
        self.pos, self.last = 0, len(self.tokens) - 1

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, self.last)]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if self.pos < self.last:
            self.pos += 1
        return tok

    def fail(self, message: str, tok: Token | None = None) -> NoReturn:
        """Raise a ParseError located at `tok`, by default the next token."""
        offset = (tok or self.peek())[2]
        raise ParseError.at(message, self.text, offset, self.line_offset)

    def expect(self, kind: str, what: str = "") -> Token:
        tok = self.next()
        if tok[0] != kind:
            self.fail(f"expected {what or repr(kind)}, found {tok[1] or 'end of input'!r}", tok)
        return tok

    def formula(self):
        """One expression, by precedence climbing on an explicit operand stack and
        operator stack: nesting costs no Python frame.  The operator stack holds
        None for an open '(' (and the text's start), (None, build) for a prefix
        operator and (precedence, build) for a binary one."""
        operands, ops = [], [None]
        while True:
            tok = self.next()
            if tok[0] == "(":
                ops.append(None)
                continue
            if tok[1] in self.PREFIX:
                ops.append((None, self.bind(tok, self.PREFIX[tok[1]])))
                continue
            operand = self.primary(tok)
            while True:  # apply the prefixes and close brackets up to a binary operator
                while ops[-1] is not None and ops[-1][0] is None:
                    operand = ops.pop()[1](operand)
                tok = self.peek()
                if tok[1] in self.BINARY:
                    break
                while ops[-1] is not None:
                    operand = ops.pop()[1](operands.pop(), operand)
                ops.pop()
                if not ops:
                    return operand
                self.expect(")")
            self.next()
            precedence, right, build = self.BINARY[tok[1]]
            while ops[-1] is not None and (
                    ops[-1][0] > precedence or ops[-1][0] == precedence and not right):
                operand = ops.pop()[1](operands.pop(), operand)
            operands.append(operand)
            ops.append((precedence, self.bind(tok, build)))

    def parse(self):
        """Run the start rule over the whole text."""
        result = self.formula()
        tok = self.peek()
        if tok[0] != "<eof>":
            self.fail(f"unexpected trailing input {tok[1]!r}", tok)
        return result


class _Parser(TokenCursor):
    PREFIX = {"~": neg, "X": Next, "wX": weak_next, "Y": Prev, "wY": weak_prev,
              "G": always, "F": eventually, "H": historically, "O": once}
    BINARY = {"<->": (1, False, iff), "->": (2, True, Implies), "|": (3, False, Or),
              "&": (4, False, And), "U": (5, True, Until), "R": (5, True, Release),
              "S": (5, True, Since), "T": (5, True, Trigger)}

    # -- intervals ---------------------------------------------------------

    def interval_ahead(self) -> bool:
        kind = self.peek()[0]
        if kind in ("[", "<=", ">="):
            return True
        return kind == "(" and self.peek(1)[0] == "num" and self.peek(2)[0] == ".."

    def parse_interval(self) -> Interval:
        tok = self.next()
        kind = tok[0]
        try:
            if kind in ("<=", ">="):
                num = int(self.expect("num")[1])
                return Interval(0, num + 1) if kind == "<=" else Interval(num, None)
            lower_open = kind == "("
            lo = int(self.expect("num")[1])
            if not lower_open and self.peek()[0] == "]":
                self.next()
                return Interval(lo, lo + 1)
            self.expect("..")
            nxt = self.next()
            if nxt[0] == "num":
                upper, closer = int(nxt[1]), self.next()
            elif nxt[1] == "w":
                upper, closer = None, self.next()
            elif nxt[0] in (")", "]"):
                upper, closer = None, nxt
            else:
                self.fail(f"expected an upper bound, found {nxt[1]!r}", nxt)
            if closer[0] not in (")", "]"):
                self.fail(f"expected ')' or ']', found {closer[1]!r}", closer)
            return interval_from_bounds(lo, upper, lower_open=lower_open,
                                        upper_closed=closer[0] == "]")
        except IntervalError as exc:
            self.fail(str(exc), tok)

    def optional_interval(self) -> Interval:
        return self.parse_interval() if self.interval_ahead() else Interval(0, None)

    # -- operators and operands --------------------------------------------

    def bind(self, tok: Token, build):
        if tok[0] == "name":  # a temporal operator: an interval may follow
            return partial(build, self.optional_interval())
        if tok[0] == "~" and self.interval_ahead():
            self.fail("negation takes no interval")
        return build

    def primary(self, tok: Token) -> Formula:
        kind, text, _ = tok
        if kind in _CONSTANTS:
            return _CONSTANTS[kind]
        if kind == "name" and ATOM_RE.fullmatch(text):
            return Atom(text)
        self.fail("unexpected end of input" if kind == "<eof>"
                  else f"unknown operator name {text!r}" if kind == "name"
                  else f"unexpected {text!r}", tok)


def parse_formula(text: str, line_offset: int = 1) -> Formula:
    return _Parser(text, line_offset).parse()


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
        if chunk and depth <= 0:  # a chunk starts on a line with text
            yield start, "\n".join(chunk)
            chunk, depth = [], 0
    if chunk:
        yield start, "\n".join(chunk)


def parse_theory(text: str) -> Theory:
    return Theory(tuple(parse_formula(chunk, line_offset=start)
                        for start, chunk in _logical_lines(text)))
