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
    And, Atom, BOT, FINAL, FULL, Formula, INITIAL, Implies, IntervalError, Interval,
    Next, Or, Prev, Release, Since, Theory, Trigger, TRUE, Until, always,
    eventually, historically, iff, interval_from_bounds, neg, once, weak_next,
    weak_prev,
)


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


_TOKEN_RE = re.compile(  # one group, so that split() keeps the tokens between the gaps
    r"""([()\[\]~&|!?]
      | [A-Za-z][A-Za-z0-9_]*
      | <(?:=\{(?:-?\d+|w)\}|->|=)
      | \d+|->|>=|\.\.|\#(?:true|false|init|final))
    """,
    re.VERBOSE,
)
# a token's kind is its text for these, else "name", "diff" by its first character, or "num"
_LITERALS = {t: t for t in "#true #false #init #final .. <-> -> <= >= ( ) [ ] ~ & | ! ?".split()}
_LEADS = {**dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz", "name"),
          "<": "diff"}

ATOM_RE = re.compile(r"[a-z][A-Za-z0-9_]*")  # atom names, matched in full
_CONSTANTS = {"#true": TRUE, "#false": BOT, "#init": INITIAL, "#final": FINAL}
_OPEN = (0, None)  # an open bracket on the operator stack


class TokenCursor:
    """The tokens of one text, and the operator-precedence parser both grammars
    run on.  One regex scan splits the text into gaps and tokens; `kinds` and
    `words` hold each token's kind and text, then an end token ("<eof>", ""),
    and a token's offset is worked out only for an error.  A grammar supplies
    its operators in `PREFIX` (text -> builder) and `BINARY` (text ->
    precedence, right-associative, builder), `bind(j, build)`, which reads what
    follows operator token j into its builder, and `primary(j)`, which reads an
    operand starting at token j; both return the index after what they read.
    Every grammar reads the end token as an error, so no index passes it.
    Prefix operators bind tightest."""

    def __init__(self, text: str, line_offset: int = 1):
        self.text, self.line_offset = text, line_offset
        self.parts = parts = _TOKEN_RE.split(text)  # gap, token, gap, ..., gap
        if "".join(parts[::2]).strip():  # a gap that is not white space
            gap = next(j for j in range(0, len(parts), 2) if parts[j].strip())
            at = sum(map(len, parts[:gap + 1])) - len(parts[gap].lstrip())
            raise ParseError.at(f"unexpected character {text[at]!r}", text, at, line_offset)
        literal, lead = _LITERALS.get, _LEADS.get
        self.kinds = [literal(w) or lead(w[0], "num") for w in parts[1::2]] + ["<eof>"]
        self.words = parts[1::2] + [""]

    def offset(self, j: int) -> int:
        """Where token j starts (the end token: where the text ends)."""
        return sum(map(len, self.parts[:2 * j + 1]))

    def fail(self, message: str, j: int) -> NoReturn:
        """Raise a ParseError located at token j."""
        raise ParseError.at(message, self.text, self.offset(j), self.line_offset)

    def expect(self, j: int, kind: str, what: str = "") -> int:
        """The index after token j, which must be a `kind`."""
        if self.kinds[j] != kind:
            found = self.words[j] or "end of input"
            self.fail(f"expected {what or repr(kind)}, found {found!r}", j)
        return j + 1

    def formula(self, i: int):
        """The expression from token i and the index after it, by precedence climbing
        on an explicit operand stack and operator stack: nesting costs no Python frame.
        The operator stack holds (0, None) for an open '(' (and the expression's start),
        (-1, build) for a prefix operator and (precedence, build) for a binary one."""
        kinds, words, prefix, binary = self.kinds, self.words, self.PREFIX, self.BINARY
        operands, ops = [], [_OPEN]
        while True:
            if kinds[i] == "(":
                ops.append(_OPEN)
                i += 1
                continue
            if words[i] in prefix:
                build, i = self.bind(i, prefix[words[i]])
                ops.append((-1, build))
                continue
            operand, i = self.primary(i)
            while True:  # apply the prefixes and close brackets up to a binary operator
                while ops[-1][0] < 0:
                    operand = ops.pop()[1](operand)
                if words[i] in binary:
                    break
                while ops[-1][0] > 0:
                    operand = ops.pop()[1](operands.pop(), operand)
                ops.pop()
                if not ops:
                    return operand, i
                i = self.expect(i, ")")
            precedence, right, build = binary[words[i]]
            while ops[-1][0] > precedence or ops[-1][0] == precedence and not right:
                operand = ops.pop()[1](operands.pop(), operand)
            operands.append(operand)
            build, i = self.bind(i, build)
            ops.append((precedence, build))

    def parse(self):
        """Run the start rule over the whole text."""
        result, i = self.formula(0)
        if self.kinds[i] != "<eof>":
            self.fail(f"unexpected trailing input {self.words[i]!r}", i)
        return result


class _Parser(TokenCursor):
    PREFIX = {"~": neg, "X": Next, "wX": weak_next, "Y": Prev, "wY": weak_prev,
              "G": always, "F": eventually, "H": historically, "O": once}
    BINARY = {"<->": (1, False, iff), "->": (2, True, Implies), "|": (3, False, Or),
              "&": (4, False, And), "U": (5, True, Until), "R": (5, True, Release),
              "S": (5, True, Since), "T": (5, True, Trigger)}

    def interval_at(self, i: int) -> bool:
        kinds = self.kinds
        if kinds[i] in ("[", "<=", ">="):
            return True
        return kinds[i] == "(" and kinds[i + 1] == "num" and kinds[i + 2] == ".."

    def interval(self, j: int) -> tuple[Interval, int]:
        """The interval from token j, and the index after it."""
        kinds, words, kind = self.kinds, self.words, self.kinds[j]
        try:
            i, lo = self.expect(j + 1, "num"), int(words[j + 1])
            if kind in ("<=", ">="):
                return Interval(0, lo + 1) if kind == "<=" else Interval(lo, None), i
            if kind == "[" and kinds[i] == "]":
                return Interval(lo, lo + 1), i + 1
            i = self.expect(i, "..")
            if kinds[i] in (")", "]"):  # no upper bound: w
                upper, closer = None, i
            elif kinds[i] == "num" or words[i] == "w":
                upper, closer = None if words[i] == "w" else int(words[i]), i + 1
            else:
                self.fail(f"expected an upper bound, found {words[i]!r}", i)
            if kinds[closer] not in (")", "]"):
                self.fail(f"expected ')' or ']', found {words[closer]!r}", closer)
            return interval_from_bounds(lo, upper, lower_open=kind == "(",
                                        upper_closed=kinds[closer] == "]"), closer + 1
        except IntervalError as exc:
            self.fail(str(exc), j)

    def bind(self, j: int, build):
        kind, i = self.kinds[j], j + 1
        if kind == "name":  # a temporal operator: an interval may follow
            interval, i = self.interval(i) if self.interval_at(i) else (FULL, i)
            return partial(build, interval), i
        if kind == "~" and self.interval_at(i):
            self.fail("negation takes no interval", i)
        return build, i

    def primary(self, j: int):
        kind, text = self.kinds[j], self.words[j]
        if kind in _CONSTANTS:
            return _CONSTANTS[kind], j + 1
        if kind == "name" and ATOM_RE.fullmatch(text):
            return Atom(text), j + 1
        self.fail("unexpected end of input" if kind == "<eof>"
                  else f"unknown operator name {text!r}" if kind == "name"
                  else f"unexpected {text!r}", j)


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
